"""The four benchmark workloads.

Each is a closed loop from one caller: the next operation starts when
the previous one returned. ``--seed`` is the only input; the amount of
work is a fixed function of ``--seconds`` (sized so one run takes about
that long on a 2-CPU host), so two versions of the program always do
identical work at one seed and their simulated statistics can be
compared exactly.

A run is the workload's ``PASSES`` passes of identical work, one after
another. A workload provides ``build()`` (the set-up a user pays before
the first operation; one fresh state per pass, each build timed) and
``run(state)``, which performs one pass's timed operations on a state
and returns an :class:`Outcome`. Every pass does the same operations in
the same order on an equal fresh state, so its outputs must equal the
first pass's, and an operation's host time can be compared across
passes.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import shutil
from time import perf_counter
from typing import Hashable, List, Tuple

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.examples import (
    cruise_control_system,
    production_cell_system,
    traffic_light_system,
)
from repro.engine.replay import ReplayPlayer
from repro.engine.session import DebugSession
from repro.errors import ReproError
from repro.experiments.requirements import (
    cruise_code_watches,
    cruise_monitor_suite,
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.experiments.workloads import chain_system
from repro.faults.campaign import run_campaign
from repro.faults.design import DESIGN_FAULT_KINDS
from repro.faults.implementation import IMPL_FAULT_KINDS
from repro.fleet.jobs import enumerate_campaign_jobs
from repro.fleet.pool import SerialRunner
import repro.fleet.pool as fleet_pool
from repro.tracedb import StoredTrace, TraceStore
from repro.tracedb.store import DEFAULT_SEGMENT_EVENTS
from repro.util.timeunits import ms, sec


def digest(payload) -> str:
    """sha256 of the canonical JSON form of *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Outcome:
    """What one pass of a workload measured and produced."""

    def __init__(self) -> None:
        #: (operation key, host seconds) of each timed operation, in order
        self.ops: List[Tuple[Hashable, float]] = []
        #: (key, simulated seconds, host seconds) of each timed advance
        self.advances: List[Tuple[Hashable, float, float]] = []
        self.attempted = 0
        self.failed = 0
        #: digest of every checked output
        self.digest = ""
        #: human-readable findings of the output checks
        self.problems: List[str] = []


# -- fault campaigns --------------------------------------------------------

class _JobClock:
    """Times each campaign job: two clock reads around the runner's job
    entry point, installed over whatever ``run_job`` is current. A job's
    simulated time is its two debugger runs; a crash ends a run at the
    detection instant."""

    def __init__(self, duration_us: int, out: Outcome) -> None:
        self.duration_us = duration_us
        self.out = out

    def __enter__(self) -> "_JobClock":
        self._inner = inner = fleet_pool.run_job
        duration_us = self.duration_us
        out = self.out

        def simulated_us(run) -> int:
            _, latency_us, how = run
            return latency_us if how == "crash" else duration_us

        def timed_job(spec):
            start = perf_counter()
            result = inner(spec)
            host_s = perf_counter() - start
            sim_us = 0
            if not (result.failed or result.declined):
                sim_us = simulated_us(result.model) + simulated_us(result.code)
            out.ops.append((spec.index, host_s))
            out.advances.append((spec.index, sim_us / 1e6, host_s))
            return result

        fleet_pool.run_job = timed_job
        return self

    def __exit__(self, *exc) -> None:
        fleet_pool.run_job = self._inner


class Campaign:
    """A serial fault campaign over all design and implementation kinds,
    ``master_seed=--seed``; one pass is the whole campaign."""

    DURATION_US = sec(4)

    def __init__(self, system_factory, monitor_factory, watch_factory,
                 jobs_per_second: float, passes: int, seed: int,
                 seconds: int) -> None:
        self.factories = (system_factory, monitor_factory, watch_factory)
        self.PASSES = passes
        kinds = len(DESIGN_FAULT_KINDS) + len(IMPL_FAULT_KINDS)
        self.seeds_per_kind = max(
            1, round(seconds * jobs_per_second / passes / kinds))
        self.master_seed = seed

    def build(self):
        system_factory, monitor_factory, watch_factory = self.factories
        plan = InstrumentationPlan.full()
        generate_firmware(system_factory(), plan)
        return enumerate_campaign_jobs(
            system_factory, monitor_factory, watch_factory,
            design_kinds=tuple(DESIGN_FAULT_KINDS),
            impl_kinds=tuple(IMPL_FAULT_KINDS), seeds=(),
            duration_us=self.DURATION_US, plan=plan,
            master_seed=self.master_seed,
            seeds_per_kind=self.seeds_per_kind)

    def run(self, specs) -> Outcome:
        out = Outcome()
        out.attempted = len(specs)
        with _JobClock(self.DURATION_US, out):
            try:
                result = run_campaign(
                    *self.factories, runner=SerialRunner(),
                    master_seed=self.master_seed,
                    seeds_per_kind=self.seeds_per_kind,
                    duration_us=self.DURATION_US)
            except ReproError as exc:
                out.failed += len(specs)
                out.problems.append(f"campaign failed: {exc}")
                return out
        if len(out.ops) != len(specs):
            out.problems.append(f"{len(out.ops)} jobs ran, {len(specs)} "
                                f"enumerated")
        out.digest = self._check(result, out)
        return out

    @staticmethod
    def _check(result, out: Outcome) -> str:
        """Check the campaign's outputs; returns their digest."""
        out.failed += len(result.failures)
        if result.false_positives:
            out.problems.append(f"control run detected a fault "
                                f"({result.false_positives} false positives)")
        rows = []
        for o in result.outcomes:
            rows.append([o.fault.fault_id, o.model_detected, o.code_detected,
                         o.model_latency_us, o.code_latency_us, o.model_how,
                         o.code_how, o.classified_as])
            if o.model_detected and not o.classified_as:
                out.problems.append(f"{o.fault.fault_id}: detected but "
                                    f"not classified")
        return digest({"outcomes": rows, "summary": result.summary_rows(),
                       "false_positives": result.false_positives})


# -- passive stepping ---------------------------------------------------------

class SessionPassive:
    """Passive (JTAG-polled) session on the production cell, advanced by
    ``run_for`` steps of seed-ordered widths, like a user stepping and
    looking."""

    PASSES = 5
    #: step widths run from 1 to 50 ms, log-spaced
    MIN_US, MAX_US = ms(1), ms(50)
    #: steps per second of --seconds (1.2-1.6 host ms per simulated ms)
    STEPS_PER_S = 45

    def __init__(self, seed: int, seconds: int) -> None:
        # the seed draws the order of a fixed log-spaced set of widths, so
        # every seed's steps have the same spread of sizes
        steps = max(20, round(seconds * self.STEPS_PER_S / self.PASSES))
        ratio = self.MAX_US / self.MIN_US
        self.widths = [round(self.MIN_US * ratio ** ((j + 0.5) / steps))
                       for j in range(steps)]
        random.Random(seed).shuffle(self.widths)

    def build(self):
        return DebugSession(production_cell_system(),
                            channel_kind="passive").setup()

    def run(self, session) -> Outcome:
        out = Outcome()
        out.attempted = len(self.widths)
        for index, width in enumerate(self.widths):
            start = perf_counter()
            try:
                session.run_for(width)
            except ReproError as exc:
                out.failed += 1
                out.problems.append(f"run_for({width}) failed: {exc}")
            host_s = perf_counter() - start
            out.ops.append((index, host_s))
            out.advances.append((index, width / 1e6, host_s))
        if session.sim.now != sum(self.widths):
            out.problems.append(f"session at t={session.sim.now}us, "
                                f"expected {sum(self.widths)}us")
        out.digest = digest({"state": session.gdm.dynamic_state(),
                             "trace_events": len(session.trace),
                             "transport": session.transport_stats()})
        return out


# -- trace scrubbing ------------------------------------------------------------

class TraceScrub:
    """Record an active chain-system session into a TraceStore in timed
    ``run_for`` chunks, then seek a ReplayPlayer to seed-drawn positions
    in that recording."""

    PASSES = 6
    CHECKPOINT_EVERY = 512
    #: simulated seconds recorded per second of --seconds, in this many
    #: chunks per pass
    SIM_S_PER_S = 1.875
    CHUNKS = 25
    #: seeks per second of --seconds
    SEEKS_PER_S = 75
    #: seek targets re-checked, in the first pass, against a linear
    #: (checkpoint-free) seek
    SAMPLE = 5

    def __init__(self, seed: int, seconds: int, workdir: str) -> None:
        self.chunk_us = max(ms(10), round(
            sec(seconds * self.SIM_S_PER_S) / self.PASSES / self.CHUNKS))
        self.seeks = max(20, round(seconds * self.SEEKS_PER_S / self.PASSES))
        self.seed = seed
        self.workdir = workdir
        self._stores = 0
        self._linear_checked = False

    def build(self):
        root = os.path.join(self.workdir, f"store-{self._stores}")
        self._stores += 1
        shutil.rmtree(root, ignore_errors=True)
        store = TraceStore(root, checkpoint_every=self.CHECKPOINT_EVERY)
        session = DebugSession(chain_system(16, period_us=ms(1)),
                               trace_spill=store).setup()
        return session, store

    @staticmethod
    def _scattered(targets: List[int]) -> List[int]:
        """*targets* reordered so that no seek lands in the segment of
        either of the two seeks before it, where there is a choice: a user
        scrubbing a long trace seldom returns to a segment just read, and
        a seed-drawn share of reads served by the two segments a
        StoredTrace keeps decoded would move every timing with the seed."""
        pool = list(targets)
        order: List[int] = []
        recent: List[int] = []
        while pool:
            pick = next((t for t in pool
                         if (t - 1) // DEFAULT_SEGMENT_EVENTS not in recent),
                        pool[0])
            pool.remove(pick)
            order.append(pick)
            recent = (recent + [(pick - 1) // DEFAULT_SEGMENT_EVENTS])[-2:]
        return order

    def run(self, state) -> Outcome:
        session, store = state
        out = Outcome()
        out.attempted = self.CHUNKS + self.seeks
        for index in range(self.CHUNKS):
            # the write path: spill while recording
            start = perf_counter()
            try:
                session.run_for(self.chunk_us)
                store.flush()
            except ReproError as exc:
                out.failed += 1
                out.problems.append(f"recording failed: {exc}")
            out.advances.append((index, self.chunk_us / 1e6,
                                 perf_counter() - start))
        events = store.event_count
        # a seek's cost grows with its distance past the nearest
        # checkpoint, so those distances are stratified (one in each of
        # equal slices of a checkpoint interval, at a seed-drawn offset)
        # and every seed's seeks cost alike; so is the parity of the
        # interval each lands in (a segment holds two intervals, and a
        # seek into the first also reads the checkpoint's record at the
        # end of the segment before). The interval and the order are
        # drawn from the seed.
        rng = random.Random(self.seed)
        every = self.CHECKPOINT_EVERY
        pairs = max(1, events // (2 * every))
        targets = [min(events, (2 * rng.randrange(pairs) + j % 2) * every
                       + int((j + rng.random()) * every / self.seeks) + 1)
                   for j in range(self.seeks)]
        rng.shuffle(targets)
        targets = self._scattered(targets)
        gdm = copy.deepcopy(session.gdm)
        player = ReplayPlayer(StoredTrace(store), gdm, capture_frames=False)
        for index, position in enumerate(targets):
            start = perf_counter()
            try:
                player.seek(position)
            except ReproError as exc:
                out.failed += 1
                out.problems.append(f"seek({position}) failed: {exc}")
            out.ops.append((index, perf_counter() - start))
        # outside the timed loop: checkpointed seeks must land in the
        # same state as replay from zero (checked once: later passes must
        # reproduce the first pass's states)
        sample = []
        linear = None
        if not self._linear_checked:
            self._linear_checked = True
            linear = ReplayPlayer(StoredTrace(store), copy.deepcopy(gdm),
                                  capture_frames=False)
        for position in targets[:self.SAMPLE]:
            player.seek(position)
            state_ck = player.gdm.dynamic_state()
            if linear is not None:
                linear.seek(position, use_checkpoints=False)
                if state_ck != linear.gdm.dynamic_state():
                    out.failed += 1
                    out.problems.append(f"seek({position}) state differs "
                                        f"from linear replay")
            sample.append([position, digest(state_ck)])
        out.digest = digest({"events": events,
                             "checkpoints": len(store.checkpoints()),
                             "final_state": session.gdm.dynamic_state(),
                             "sample": sample})
        store.close()
        shutil.rmtree(store.root, ignore_errors=True)
        return out


def make(name: str, seed: int, seconds: int, workdir: str):
    """The workload called *name*."""
    if name == "campaign_tl":
        return Campaign(traffic_light_system, traffic_light_monitor_suite,
                        traffic_light_code_watches, 38.0, 8, seed, seconds)
    if name == "campaign_cc":
        # ~110 ms jobs: fewer passes leave a pass enough jobs for a tail
        # with ten beyond it
        return Campaign(cruise_control_system, cruise_monitor_suite,
                        cruise_code_watches, 7.2, 4, seed, seconds)
    if name == "session_passive":
        return SessionPassive(seed, seconds)
    if name == "trace_scrub":
        return TraceScrub(seed, seconds, workdir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("campaign_tl", "campaign_cc", "session_passive", "trace_scrub")
