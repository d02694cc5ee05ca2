"""End-to-end benchmark: fault campaigns, passive stepping, trace scrubbing.

Run from the repository root::

    python3 perfbench/run.py --workload campaign_tl --seed 1 --seconds 20 --trace 0

One workload runs in this one process, with no threads and ``repro.obs``
off (fresh processes only time the import of the program, one at a
time). The process builds one state per pass, timing each build, runs
the workload's fixed amount of work (a function of ``--seed`` and
``--seconds``) as passes of identical work, checks the outputs, and
prints every metric by name and unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones.
With ``--trace 1`` the workload runs a second time with span tracing
around every layer boundary (``layers.py``) and the metrics are the
per-layer ones; the spans and the layer table are written under
``.perfbench/`` in the repository root.

Exit status is 0 when every check passed, 1 when a check failed, 2 when
the program under test cannot be found.
"""

import argparse
import glob
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: what a fresh process runs to time the import
IMPORT_PROBE = ("import sys\n"
                "from time import perf_counter\n"
                "start = perf_counter()\n"
                "sys.path[:0] = sys.argv[1:]\n"
                "import workloads\n"
                "print(perf_counter() - start)\n")


def import_seconds() -> float:
    """Time to import the program in a fresh process (waited for)."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC, HERE], cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def source_hash() -> str:
    """Digest of the program and benchmark sources (keys the record of
    outputs earlier runs of the same code produced)."""
    sha = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"),
                             recursive=True)
                   + glob.glob(os.path.join(HERE, "*.py")))
    for path in files:
        sha.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            sha.update(handle.read())
    return sha.hexdigest()[:16]


def tail(latencies):
    """(value, percentile): the highest sample with at least ten beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def summarize(passes):
    """End-to-end timings of a run from its passes of identical work.

    Each operation (and each simulated advance) is timed once per pass;
    its time is the best of its passes. This host's speed moves by up to
    ~1.5x over seconds to minutes with its neighbours' load, and passes
    spread over the run, so an operation's best time is taken at the
    fastest speed the run saw, which varies far less from run to run
    than a mean or median over the run. Returns (metrics, tail
    percentile, operations per pass). A pass cut short by a failure
    (reported by the checks) leaves only the operations every pass timed.
    """
    best = [min(p.ops[i][1] for p in passes)
            for i in range(min(len(p.ops) for p in passes))]
    advances = min(len(p.advances) for p in passes)
    best_adv = [min(p.advances[i][2] for p in passes)
                for i in range(advances)]
    sim_s = sum(sim for _, sim, _ in passes[0].advances[:advances])
    if not best or not best_adv:
        raise SystemExit("perfbench: a pass timed no operation")
    tail_s, tail_pct = tail(best)
    metrics = {
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "op_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "sim_s_per_host_s": (sim_s / sum(best_adv), "s/s"),
    }
    return metrics, tail_pct, len(best)


def merge_passes(passes, problems) -> int:
    """Check the passes did the same work with the same outputs; returns
    how many failed."""
    first = passes[0]
    failed = 0
    for number, other in enumerate(passes[1:], start=2):
        if other.digest != first.digest:
            problems.append(f"pass {number} produced different outputs "
                            f"from pass 1")
            failed += 1
        if ([k for k, _ in other.ops] != [k for k, _ in first.ops]
                or [a[:2] for a in other.advances]
                != [a[:2] for a in first.advances]):
            problems.append(f"pass {number} timed other operations than "
                            f"pass 1")
            failed += 1
    for outcome in passes:
        problems.extend(outcome.problems)
        failed += outcome.failed
    return failed


def build_all(workload, passes: int):
    """One fresh state per pass; returns (states, build seconds). A pass
    pops its state, so what it leaves behind is freed before the next
    pass runs."""
    states, builds = [], []
    for _ in range(passes):
        start = perf_counter()
        states.append(workload.build())
        builds.append(perf_counter() - start)
    return states, builds


def compare_expected(key: str, digest: str, exact, pinned, problems) -> None:
    """Check outputs against the pinned record and against earlier runs of
    the same sources at the same seed and size."""
    def check(source: str, record: dict) -> None:
        if record.get("digest") not in (None, digest):
            problems.append(f"output digest {digest[:12]} differs from "
                            f"{source} {record['digest'][:12]}")
        if exact is not None and record.get("exact") is not None:
            for name, value in record["exact"].items():
                if exact.get(name) != value:
                    problems.append(f"exact count {name}={exact.get(name)} "
                                    f"differs from {source} {value}")

    if pinned is not None:
        check("pinned", pinned)
    path = os.path.join(OUT_DIR, "expect", f"{key}-{source_hash()}.json")
    record = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        check("an earlier run", record)
    if not problems:
        record["digest"] = digest
        if exact is not None:
            record["exact"] = exact
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program under test (src/repro) is missing "
              f"under {ROOT}", file=sys.stderr)
        return 2
    start = perf_counter()
    sys.path[:0] = [SRC, HERE]
    import workloads  # the repro imports users pay happen here
    import_s = perf_counter() - start
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {workloads.NAMES}")

    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, workloads, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workloads, import_s: float, workdir: str) -> int:
    workload = workloads.make(args.workload, args.seed, args.seconds, workdir)
    states, builds = build_all(workload, workload.PASSES)
    # the import is timed again in a fresh process before each pass, so
    # its samples spread over the run like the passes
    imports = [import_s]
    passes = []
    run_wall = 0.0
    while states:
        imports.append(import_seconds())
        start = perf_counter()
        passes.append(workload.run(states.pop(0)))
        run_wall += perf_counter() - start
    setup_s = statistics.median(imports) + statistics.median(builds)
    problems = []
    failed = merge_passes(passes, problems)
    attempted = sum(p.attempted for p in passes)
    outcome_digest = passes[0].digest
    exact = None
    layer_metrics = None

    if args.trace:
        import layers
        tracer = layers.Tracer()
        # wrappers go in before the build: a session binds its handlers
        # (engine.on_command, sim callbacks) when it is set up
        layers.install(tracer)
        states, _ = build_all(workload, workload.PASSES)
        tracer.reset()
        tracer.t0 = perf_counter()
        traced = []
        while states:
            traced.append(workload.run(states.pop(0)))
        tracer.t1 = perf_counter()
        if any(t.digest != outcome_digest for t in traced):
            problems.append("the traced passes produced different outputs")
            failed += 1
        for outcome in traced:
            problems.extend(outcome.problems)
            failed += outcome.failed
        layer_metrics = layers.per_layer_metrics(tracer, run_wall)
        exact = {name: layer_metrics[name][0] for name in layers.EXACT_COUNTS}
        stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
        tracer.write_spans(stem + ".spans.tsv.gz")
        with open(stem + ".layers.json", "w", encoding="utf-8") as handle:
            json.dump({name: {"value": value, "unit": unit}
                       for name, (value, unit) in layer_metrics.items()},
                      handle, indent=1, sort_keys=True)

    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as handle:
        pinned = json.load(handle).get(args.workload, {}).get(str(args.seed))
    if pinned is not None and pinned.get("seconds") != args.seconds:
        pinned = None
    before = len(problems)
    compare_expected(f"{args.workload}-seed{args.seed}-s{args.seconds}",
                     outcome_digest, exact, pinned, problems)
    failed += len(problems) - before

    end_to_end, tail_pct, per_pass = summarize(passes)
    end_to_end = {"setup_s": (setup_s, "s"), **end_to_end,
                  "peak_rss_mb": (resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")}
    attempted = max(1, attempted)
    op = {"campaign_tl": "job", "campaign_cc": "job",
          "session_passive": "step", "trace_scrub": "seek"}[args.workload]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds}"
          f" nproc {os.cpu_count()}")
    print(f"  {len(passes)} passes of {per_pass} {op}s, {run_wall:.2f} s; "
          f"each {op} timed at the best of its passes; tail = "
          f"p{tail_pct:.2f} (10 {op}s beyond it); digest "
          f"{outcome_digest[:16]}")
    for name, (value, unit) in end_to_end.items():
        alias = name.replace("ops", f"{op}s").replace("op_", f"{op}_")
        print(f"  {name:<18} {value:14.6f} {unit:<5} ({alias})")
    print(f"  failed_ratio       {failed / attempted:14.6f} ratio "
          f"({failed} of {attempted})")
    if layer_metrics is not None:
        print_layer_table(layer_metrics)
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    metrics = layer_metrics if layer_metrics is not None else end_to_end
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def print_layer_table(metrics) -> None:
    wall = sum(value for name, (value, _) in metrics.items()
               if name.startswith("self."))
    print(f"  per-layer self time (traced pass {wall:.3f} s, overhead "
          f"{metrics['trace.overhead_ratio'][0]:.2f}x untraced):")
    for name, (value, _) in metrics.items():
        if name.startswith("self."):
            layer = name[len("self."):-len("_s")]
            print(f"    {layer:<10} {value:10.4f} s  "
                  f"{100.0 * value / wall if wall else 0.0:6.2f} %")
    for name, (value, unit) in metrics.items():
        if not name.startswith("self."):
            print(f"  {name:<30} {value:16.6f} {unit}")


if __name__ == "__main__":
    sys.exit(main())
