"""repro.fleet — campaign runners, shard workers and board cohorts.

Parson's observation (*Extension Language Automation of Embedded System
Debugging*) is that a debugger becomes an experimentation platform the
moment its runs can be scripted and batched. This package is that batch
layer: fault campaigns and multi-board simulations stop serializing on
one interpreter and fan out over worker processes, so scenario count
scales with cores instead of wall-clock.

Architecture — two runners, one scheduler for the one that needs it::

    merge.py     results -> CampaignResult       canonical order, loud failures
    pool.py      SerialRunner                    run_job per spec, in-process
                 FleetRunner                     chunks over worker processes
    sched.py     ElasticScheduler + WorkUnit     FleetRunner's event loop:
                 ProcessBackend                  per-worker queues, LPT
                                                 placement, work stealing,
                                                 per-item deadlines,
                                                 non-blocking retry,
                                                 heartbeat draining
    worker.py    run_job / run_unit_stealable    the process entry points
    jobs.py      JobSpec / JobResult             picklable recipes, cost hints
    batch.py     BoardCohort                     N boards, one firmware, SoA
                                                 lockstep
    shards.py    ShardHost                       persistent shard workers for
                                                 rtos/sharding.py

:class:`~repro.fleet.pool.SerialRunner` calls
:func:`~repro.fleet.worker.run_job` on each spec in canonical order: one
slot has nothing to schedule. :class:`~repro.fleet.pool.FleetRunner`
cuts the corpus into contiguous-chunk
:class:`~repro.fleet.sched.WorkUnit`\\ s and hands them to
:class:`~repro.fleet.sched.ElasticScheduler`, which owns per-worker
local queues, steals from the longest queue for idle workers, preempts
multi-item units when everything else is dry (workers return *partial
batches* and the remainder migrates), enforces per-item deadlines, and
folds crash/timeout retries into the same loop as dispatch and
heartbeat draining.

The load-bearing design rules:

* **Recipes cross processes, objects never do.** A ``JobSpec`` carries
  ``"module:qualname"`` references plus ``(category, kind, seed)`` fault
  coordinates; the worker rebuilds system, firmware and fault locally.
  No live ``Board``, monitor lambda or half-run simulator is ever
  pickled, so results cannot depend on which process ran the job.
* **Any schedule, one answer.** Workers execute the exact functions the
  inline serial loop uses, results key on the canonical corpus index,
  and the live plane canonicalizes on ``(job, window)`` — so any steal
  schedule, worker count, chunking or interleaving produces a
  ``CampaignResult``, campaign trace store and live-alert transcript
  byte-identical to ``SerialRunner`` at the same master seed
  (hypothesis-forced in ``tests/test_sched.py``).
* **Failures are data, and they are contained.** Workers stream one
  result per item, so a crash or deadline kill costs exactly the item
  being executed: finished chunk mates are already home, queued mates
  re-dispatch uncharged, and the victim retries on a backoff *deadline*
  (never a blocking sleep) until its budget produces a structured
  ``WorkerCrashed``/``JobTimeout`` failure. The merge refuses to
  fabricate a detection table from a corpus with holes unless
  explicitly asked (``strict=False``).

Entry points:

* campaigns — ``run_campaign(..., runner=FleetRunner(workers=4))`` in
  :mod:`repro.faults.campaign`, or ``runner=SerialRunner()`` to run the
  same corpus in-process;
* seed sweeps — :class:`repro.fleet.batch.BoardCohort` runs N
  same-firmware boards in SoA lockstep via
  :class:`repro.target.batch.BatchCpu` (see ``benchmarks/perf_batch.py``
  for the measured 16/64-lane speedups);
* multi-board sharding — :class:`repro.rtos.sharding.ShardedDtmKernel`
  runs node-subset kernels in persistent shard workers
  (:mod:`repro.fleet.shards`); each lookahead epoch is sent to every
  shard before any reply is awaited, so process shards run it
  concurrently;
* scoreboard — ``benchmarks/perf_fleet.py`` (BENCH_fleet.json) tracks
  campaign throughput and parity; ``benchmarks/perf_sched.py``
  (BENCH_sched.json) floors steal speedup on a skewed corpus, schedule
  parity and stranded-recovery wall time.
"""

from repro.fleet.batch import BoardCohort
from repro.fleet.jobs import (
    JobResult,
    JobSpec,
    callable_ref,
    enumerate_campaign_jobs,
    estimate_cost_hints,
    resolve_ref,
)
from repro.fleet.merge import merge_results
from repro.fleet.pool import (
    FleetRunner,
    SerialRunner,
    default_workers,
    derive_seed,
    seed_stream,
    serial_live_scope,
)
from repro.fleet.sched import (
    ElasticScheduler,
    ProcessBackend,
    WorkUnit,
    unit_cost,
)
from repro.fleet.worker import run_job, run_unit_stealable

__all__ = [
    "JobSpec", "JobResult", "callable_ref", "resolve_ref",
    "enumerate_campaign_jobs", "estimate_cost_hints",
    "FleetRunner", "SerialRunner", "default_workers", "serial_live_scope",
    "BoardCohort",
    "ElasticScheduler", "WorkUnit", "unit_cost", "ProcessBackend",
    "derive_seed", "seed_stream",
    "run_job", "run_unit_stealable",
    "merge_results",
]
