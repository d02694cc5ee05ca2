"""Sustained interpreter throughput on a tight synthetic loop.

Measures instructions/second of ``Cpu.run``'s fast path on a counting
loop whose opcode mix (load/store, immediate, ALU, compare, branch)
resembles generated firmware — which makes it exactly the shape the
superinstruction fusion pass targets. Both decodings are measured:

* ``instr_per_sec`` — fusion off (the plain direct-threaded loop, the
  scoreboard metric since PR 2);
* ``fused_instr_per_sec`` — fusion on (``Cpu.load`` fuses the loop body
  into ALU+STORE / ALU+JNZ superinstruction rows);
* ``fusion_speedup`` — their ratio, the machine-independent gate;
* ``watched_fused_instr_per_sec`` — fusion on, with a write hook
  watching four words the loop never stores to (a code debugger's
  hardware watchpoints on other variables);
* ``watch_fused_ratio`` — watched over unwatched fused rate, from
  interleaved reps (``unwatched_fused_instr_per_sec`` is its base): what
  unwatched stores cost now that the store rows match watch addresses
  (floor-gated). The interleaved reps run after the other arms, on a
  warmer interpreter, so their rates read higher than
  ``fused_instr_per_sec``; only their ratio is gated;
* ``checked_instr_per_sec`` — the same watched loop forced through the
  per-instruction checked loop (``profile={}``), the route every write
  hook used to take; recorded for context, not gated.

Fusion must be *observably invisible*, so the run also asserts the two
decodings retire identical instruction and cycle counts. The payload
also carries ``opcode_profile`` — the measured per-opcode retirement
counts from ``Cpu.run(profile=...)`` on the same workload, hottest
first — so fusion and batch-tier decisions are grounded in what the
scoreboard loop actually executes. Writes ``BENCH_interp.json`` next to
this file so the perf trajectory of the hot loop is tracked across PRs.

Usage::

    python benchmarks/perf_interp.py           # full run (~4M instructions/rep)
    python benchmarks/perf_interp.py --quick   # CI smoke (~400k instructions)
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.target.assembler import Assembler
from repro.target.cpu import Cpu, StopReason
from repro.target.isa import profile_names
from repro.target.memory import RAM_BASE, MemoryMap

#: loop iterations per rep; 8 instructions each
FULL_ITERS = 500_000
QUICK_ITERS = 50_000
REPS = 5  # best-of: rides out scheduler noise on short reps


def counting_loop(iterations: int):
    """``for i in range(iterations): m[0] = i`` as stack code."""
    counter = RAM_BASE
    asm = Assembler()
    asm.label("top")
    asm.emit("LOAD", counter)
    asm.emit("PUSH", 1)
    asm.emit("ADD")
    asm.emit("STORE", counter)
    asm.emit("LOAD", counter)
    asm.emit("PUSH", iterations)
    asm.emit("LT")
    asm.emit_jump("JNZ", "top")
    asm.emit("HALT")
    return asm.assemble()


#: words the watched arms watch; the counting loop stores only to RAM_BASE
WATCHED = [RAM_BASE + 1 + i for i in range(4)]


def run_once(iterations: int, fuse: bool, watched: bool = False,
             checked: bool = False):
    memory = MemoryMap(16)
    cpu = Cpu(memory, fuse=fuse)
    cpu.load(counting_loop(iterations))
    cpu.reset_task(0)
    if watched:
        memory.set_write_hook(lambda addr, value: None, WATCHED)
    start = time.perf_counter()
    result = cpu.run(max_instructions=10 * iterations,
                     profile={} if checked else None)
    wall_s = time.perf_counter() - start
    assert result.reason is StopReason.HALTED, result
    assert memory.peek(RAM_BASE) == iterations
    return result, wall_s, cpu


def best_of(iterations: int, fuse: bool):
    """Best rep: (instr_per_sec, result, wall_s, fused_rows)."""
    best = None
    for _ in range(REPS):
        result, wall_s, cpu = run_once(iterations, fuse)
        rate = result.instructions / wall_s
        if best is None or rate > best[0]:
            best = (rate, result, wall_s, cpu.fused_rows)
    return best


def watch_arms(iterations: int):
    """Best fused rate unwatched and watched, reps interleaved so a slow
    stretch of the host hits both arms alike."""
    best = {False: 0.0, True: 0.0}
    results = {}
    for _ in range(REPS):
        for watched in (False, True):
            result, wall_s, _ = run_once(iterations, True, watched)
            best[watched] = max(best[watched],
                                result.instructions / wall_s)
            results[watched] = result
    assert results[True] == results[False], results
    return best[False], best[True]


def main() -> None:
    quick = "--quick" in sys.argv
    iterations = QUICK_ITERS if quick else FULL_ITERS
    run_once(QUICK_ITERS, fuse=False)  # warm up caches and the allocator
    run_once(QUICK_ITERS, fuse=True)

    plain_rate, plain_result, plain_wall, _ = best_of(iterations, fuse=False)
    fused_rate, fused_result, fused_wall, fused_rows = best_of(
        iterations, fuse=True)
    unwatched_rate, watched_rate = watch_arms(iterations)
    # the checked loop is ~10x slower: a quick-sized run is enough
    checked_rate = max(
        result.instructions / wall_s for result, wall_s, _ in (
            run_once(QUICK_ITERS, True, watched=True, checked=True)
            for _ in range(3)))

    # measured opcode mix of the scoreboard workload (plain decoded
    # opcodes — what the fusion and batch tiers dispatch on)
    memory = MemoryMap(16)
    cpu = Cpu(memory)
    cpu.load(counting_loop(QUICK_ITERS))
    cpu.reset_task(0)
    counts: dict = {}
    profiled = cpu.run(max_instructions=10 * QUICK_ITERS, profile=counts)
    assert profiled.reason is StopReason.HALTED, profiled
    opcode_profile = profile_names(counts)

    # the timing-identity invariant, enforced on the scoreboard workload:
    # fusion changes wall time, never the architectural counters
    assert fused_result.instructions == plain_result.instructions, (
        fused_result, plain_result)
    assert fused_result.cycles == plain_result.cycles, (
        fused_result, plain_result)

    best = {
        "instr_per_sec": round(plain_rate),
        "fused_instr_per_sec": round(fused_rate),
        "fusion_speedup": round(fused_rate / plain_rate, 2),
        "watched_fused_instr_per_sec": round(watched_rate),
        "unwatched_fused_instr_per_sec": round(unwatched_rate),
        "watch_fused_ratio": round(watched_rate / unwatched_rate, 3),
        "checked_instr_per_sec": round(checked_rate),
        "fused_rows": fused_rows,
        "cycles": plain_result.cycles,
        "wall_s": round(plain_wall, 6),
        "fused_wall_s": round(fused_wall, 6),
        "instructions": plain_result.instructions,
        "opcode_profile": opcode_profile,
        "quick": quick,
    }

    # quick (CI smoke) runs get their own file so they never clobber the
    # committed full-run scoreboard
    name = "BENCH_interp_quick.json" if quick else "BENCH_interp.json"
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), name)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(best, handle, indent=2)
        handle.write("\n")
    print(f"{best['instr_per_sec']:,} instr/sec unfused, "
          f"{best['fused_instr_per_sec']:,} fused "
          f"({best['fusion_speedup']}x, {fused_rows} superinstruction rows), "
          f"{best['watched_fused_instr_per_sec']:,} fused with 4 watched "
          f"words ({best['watch_fused_ratio']}x unwatched), "
          f"{best['checked_instr_per_sec']:,} checked loop ("
          f"{best['instructions']:,} instructions, "
          f"{best['cycles']:,} cycles) -> {out}")


if __name__ == "__main__":
    main()
