"""Batch-tier throughput: N identical-firmware boards in SoA lockstep.

The scoreboard for :class:`repro.target.batch.BatchCpu` — the raw-speed
multiplier for identical-firmware campaigns (seed sweeps, differential
fault oracles) where every board runs the same program over per-lane
data. Like ``perf_interp.py``, the floored workload is a synthetic
*campaign kernel* whose opcode mix (load/store, immediate, ALU with
MUL/MOD, compare, branch, one EMIT per activation) resembles generated
task bodies but is long enough per activation (~500 instructions) that
the number measures lockstep execution, not activation setup. Measured:

* **batch_speedup_16 / batch_speedup_64** — wall-clock speedup of
  ``BatchCpu.run_jobs`` over the serial campaign inner loop (fused
  ``Cpu.run`` per board, the production serial path) at 16 and 64
  lanes. ``batch_speedup_64`` is floor-gated in CI at 3.0.
* **cohort_speedup_64** — the same comparison on the *real*
  traffic-light firmware through :class:`repro.fleet.batch.BoardCohort`
  (per-lane script offsets, so lanes split and re-merge every
  activation). Generated activations are only ~30-40 instructions and
  EMIT-heavy, so this lands far below the kernel number — recorded
  un-floored so the gap stays visible instead of hidden.
* **batch_parity_identical** — 1 iff (a) every kernel lane's full
  architectural state (pc, stack, counters, RAM, emit log) is
  bit-identical between batch and serial, and (b) the same holds for
  every traffic-light cohort board. This is the hard invariant (CI
  floors it at 1): lockstep must never change results.

Writes ``BENCH_batch.json`` next to this file so the batch tier's perf
trajectory is tracked across PRs.

Usage::

    python benchmarks/perf_batch.py           # full run, best-of reps
    python benchmarks/perf_batch.py --quick   # CI smoke
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.fleet.batch import BoardCohort
from repro.target.assembler import Assembler
from repro.target.batch import BatchCpu
from repro.target.cpu import Cpu
from repro.target.memory import RAM_BASE, MemoryMap
from repro.util.seeds import derive_seed

FULL_JOBS = 60
QUICK_JOBS = 6
FULL_REPS = 3
QUICK_REPS = 1
KERNEL_ITERS = 50  # LCG rounds per activation, ~10 instructions each

SEED_ADDR = RAM_BASE
ACC_ADDR = RAM_BASE + 1
I_ADDR = RAM_BASE + 2
KERNEL_RAM = 4


def campaign_kernel():
    """One campaign activation: seed-driven LCG mix, checksum, EMIT.

    The shape of a differential-oracle job: per-lane seed data flows
    through MUL/ADD/MOD (the expensive ALU ops), a loop-counter branch
    closes each round (uniform across lanes — identical firmware in
    lockstep), and the activation reports one checksum over the command
    interface before halting.
    """
    asm = Assembler()
    asm.emit("PUSH", KERNEL_ITERS)
    asm.emit("STORE", I_ADDR)
    asm.label("round")
    # acc = (acc * 1103515245 + seed) % 0x7fffffff
    asm.emit("LOAD", ACC_ADDR)
    asm.emit("PUSH", 1103515245)
    asm.emit("MUL")
    asm.emit("LOAD", SEED_ADDR)
    asm.emit("ADD")
    asm.emit("PUSH", 0x7FFFFFFF)
    asm.emit("MOD")
    asm.emit("STORE", ACC_ADDR)
    # while (--i) != 0 keep mixing
    asm.emit("LOAD", I_ADDR)
    asm.emit("PUSH", 1)
    asm.emit("SUB")
    asm.emit("STORE", I_ADDR)
    asm.emit("LOAD", I_ADDR)
    asm.emit_jump("JNZ", "round")
    # report the checksum: EMIT kind 2, channel 7, value acc
    asm.emit("PUSH", 7)
    asm.emit("LOAD", ACC_ADDR)
    asm.emit("EMIT", 2)
    asm.emit("HALT")
    return asm.assemble()


def kernel_lanes(count: int):
    code = campaign_kernel()
    cpus = []
    for lane in range(count):
        cpu = Cpu(MemoryMap(KERNEL_RAM))
        cpu.load(code)
        cpu.memory.poke(SEED_ADDR, derive_seed(2026, "perf_batch", lane)
                        % 0x7FFFFFFF)
        cpus.append(cpu)
    return cpus


def cpu_snap(cpu: Cpu) -> tuple:
    return (cpu.pc, tuple(cpu.stack), cpu.cycles, cpu.instructions,
            cpu.halted, tuple(cpu.memory.cells), cpu.memory.reads,
            cpu.memory.writes, tuple(cpu.emit_log))


def serial_kernel(count: int, jobs: int) -> tuple:
    cpus = kernel_lanes(count)
    start = time.perf_counter()
    for _ in range(jobs):
        for cpu in cpus:
            cpu.reset_task(0)
            cpu.run(max_instructions=1_000_000)
    return [cpu_snap(c) for c in cpus], time.perf_counter() - start


def batch_kernel(count: int, jobs: int) -> tuple:
    cpus = kernel_lanes(count)
    batch = BatchCpu(cpus)
    start = time.perf_counter()
    batch.run_jobs(0, jobs, max_instructions=1_000_000)
    return [cpu_snap(c) for c in cpus], time.perf_counter() - start


def kernel_speedup(count: int, jobs: int, reps: int) -> tuple:
    """(speedup, serial_s, batch_s, parity) at *count* lanes, best-of."""
    serial_snaps, _ = serial_kernel(count, jobs)   # warm-up + reference
    batch_snaps, _ = batch_kernel(count, jobs)
    parity = int(serial_snaps == batch_snaps)
    serial_s = min(serial_kernel(count, jobs)[1] for _ in range(reps))
    batch_s = min(batch_kernel(count, jobs)[1] for _ in range(reps))
    return round(serial_s / batch_s, 2), serial_s, batch_s, parity


def cohort_speedup(jobs: int, reps: int) -> tuple:
    """Real-firmware comparison: 64 traffic-light boards, both tasks."""
    from repro.codegen.pipeline import generate_firmware
    from repro.comdes.examples import traffic_light_system
    from repro.target.board import Board

    firmware = generate_firmware(traffic_light_system())
    lanes = 64
    offsets = [lane % 7 for lane in range(lanes)]

    def serial_once():
        boards = []
        addr = firmware.symbols.addr_of("pedestrian.script.$idx")
        for lane in range(lanes):
            board = Board(ram_words=max(1, len(firmware.symbols)))
            board.load_firmware(firmware)
            board.memory.poke(addr, offsets[lane])
            boards.append(board)
        start = time.perf_counter()
        for task in firmware.entries:
            entry = firmware.entry_of(task)
            for _ in range(jobs):
                for board in boards:
                    board.cpu.reset_task(entry)
                    board.cpu.run(max_instructions=1_000_000)
        return boards, time.perf_counter() - start

    def batch_once():
        cohort = BoardCohort(firmware, lanes)
        cohort.poke_symbol("pedestrian.script.$idx", offsets)
        start = time.perf_counter()
        for task in firmware.entries:
            cohort.run_jobs(task, jobs)
        return cohort, time.perf_counter() - start

    boards, _ = serial_once()
    cohort, _ = batch_once()
    parity = int([cpu_snap(b.cpu) for b in boards]
                 == [cpu_snap(b.cpu) for b in cohort.boards])
    serial_s = min(serial_once()[1] for _ in range(reps))
    batch_s = min(batch_once()[1] for _ in range(reps))
    return round(serial_s / batch_s, 2), parity, dict(cohort.batch.stats)


def main() -> None:
    quick = "--quick" in sys.argv
    jobs = QUICK_JOBS if quick else FULL_JOBS
    reps = QUICK_REPS if quick else FULL_REPS

    s16, serial16_s, batch16_s, parity16 = kernel_speedup(16, jobs, reps)
    s64, serial64_s, batch64_s, parity64 = kernel_speedup(64, jobs, reps)
    cohort64, cohort_parity, cohort_stats = cohort_speedup(
        max(1, jobs // 2), reps)
    parity = int(parity16 and parity64 and cohort_parity)

    instr_per_job = KERNEL_ITERS * 10 + 6
    results = {
        "kernel_jobs": jobs,
        "kernel_instr_per_job": instr_per_job,
        "serial_16_s": round(serial16_s, 3),
        "batch_16_s": round(batch16_s, 3),
        "batch_speedup_16": s16,
        "serial_64_s": round(serial64_s, 3),
        "batch_64_s": round(batch64_s, 3),
        "batch_speedup_64": s64,
        "serial_boards_per_sec_64": round(64 * jobs / serial64_s, 1),
        "batch_boards_per_sec_64": round(64 * jobs / batch64_s, 1),
        "cohort_speedup_64": cohort64,
        "cohort_stats": cohort_stats,
        "batch_parity_identical": parity,
        "quick": quick,
    }

    name = "BENCH_batch_quick.json" if quick else "BENCH_batch.json"
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), name)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"kernel: 16 lanes {s16}x, 64 lanes {s64}x "
          f"({results['serial_boards_per_sec_64']} -> "
          f"{results['batch_boards_per_sec_64']} boards*jobs/s); "
          f"traffic-light cohort {cohort64}x; "
          f"parity={'OK' if parity else 'BROKEN'}")
    print(f"-> {out}")
    if not parity:
        sys.exit(1)


if __name__ == "__main__":
    main()
