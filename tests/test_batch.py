"""Lockstep proof that the batch tier (SoA cohorts) is observably invisible.

:class:`~repro.target.batch.BatchCpu` executes N identical-firmware
lanes in SoA lockstep; the contract (``repro/target/__init__.py``) is
that batch execution is **bit-identical** to N serial ``Cpu`` runs at
every stop — ``pc``, ``cycles``, ``instructions``, stack, RAM,
``emit_log``, read/write counters and fault pcs — including lanes that
peel to scalar mid-cohort (fault, armed emit handler, breakpoint,
divergence past the re-convergence window) and lanes stopped by
per-lane LIMIT budgets. Randomized cohorts reuse the codegen-shaped
program generator from ``test_superinstructions``; the serial
reference runs *fused* (the production serial path), which also
re-proves fusion timing-identity against a third decoding.

One level up, :class:`~repro.fleet.batch.BoardCohort` boards must end
bit-identical to the same boards run one at a time.
"""

import pytest
from hypothesis import given, settings, strategies as st

from test_superinstructions import (
    RAM_WORDS,
    RUN_LIMIT,
    STACK_DEPTH,
    assemble_program,
    snap,
    snippets,
)

from repro.codegen.pipeline import generate_firmware
from repro.comdes.examples import traffic_light_system
from repro.errors import FleetError, TargetFault
from repro.fleet.batch import BoardCohort
from repro.target.batch import BatchCpu, LaneOutcome
from repro.target.board import Board
from repro.target.cpu import Cpu, StopReason
from repro.target.isa import Instr
from repro.target.memory import RAM_BASE, MemoryMap

cell_value = st.integers(-(2 ** 31), 2 ** 31 - 1)


def make_lanes(code, fills, fuse=True, depth=STACK_DEPTH):
    """One Cpu per RAM fill, all loaded with *code*, reset at entry 0."""
    cpus = []
    for cells in fills:
        cpu = Cpu(MemoryMap(RAM_WORDS), stack_depth=depth, fuse=fuse)
        cpu.load(code)
        cpu.memory.cells[:len(cells)] = list(cells)
        cpu.reset_task(0)
        cpus.append(cpu)
    return cpus


def serial_outcome(cpu, limit):
    """The serial reference: one run; faults are part of the outcome."""
    try:
        result = cpu.run(max_instructions=limit)
        return (result.reason, result.instructions, result.cycles)
    except TargetFault as fault:
        return ("fault", fault.reason, fault.pc)


def batch_outcome(lane_outcome):
    if lane_outcome.fault is not None:
        return ("fault", lane_outcome.fault.reason, lane_outcome.fault.pc)
    result = lane_outcome.result
    return (result.reason, result.instructions, result.cycles)


def assert_cohort_matches(serial, batch_lanes, outs_s, outs_b):
    assert len(outs_s) == len(outs_b)
    for lane, (ref, cpu) in enumerate(zip(serial, batch_lanes)):
        assert batch_outcome(outs_b[lane]) == outs_s[lane], lane
        assert snap(cpu) == snap(ref), lane


# -- lockstep properties -----------------------------------------------------

class TestLockstepProperties:
    @settings(max_examples=30, deadline=None)
    @given(snips=snippets, data=st.data())
    def test_random_cohort_matches_serial_runs(self, snips, data):
        """Random cohorts over random per-lane RAM images, random
        divergence policy, and emit handlers armed on a random subset of
        lanes (which forces those lanes to peel at their first EMIT)."""
        code = assemble_program(snips)
        nl = data.draw(st.integers(2, 6), label="lanes")
        fills = data.draw(st.lists(
            st.lists(cell_value, min_size=RAM_WORDS, max_size=RAM_WORDS),
            min_size=nl, max_size=nl), label="fills")
        window = data.draw(st.sampled_from([0, 3, 4096]), label="window")
        min_lanes = data.draw(st.integers(1, 3), label="min_lanes")
        handler_lanes = data.draw(st.lists(
            st.integers(0, nl - 1), unique=True, max_size=nl),
            label="handler_lanes")

        serial = make_lanes(code, fills)
        batch_lanes = make_lanes(code, fills)
        seen = {"serial": [], "batch": []}
        for side, cpus in (("serial", serial), ("batch", batch_lanes)):
            for lane in handler_lanes:
                cpu = cpus[lane]
                cpus[lane].emit_handler = (
                    lambda kind, pid, value, _s=side, _l=lane, _c=cpu:
                    seen[_s].append((_l, kind, pid, value, _c.cycles)))

        outs_s = [serial_outcome(cpu, RUN_LIMIT) for cpu in serial]
        batch = BatchCpu(batch_lanes, reconverge_window=window,
                         min_lanes=min_lanes)
        outs_b = batch.run(RUN_LIMIT)
        assert_cohort_matches(serial, batch_lanes, outs_s, outs_b)
        # handlers observed the same commands at the same cycle counts
        # (batch may interleave lanes differently, so compare per lane)
        for lane in handler_lanes:
            pick = lambda rows: [r for r in rows if r[0] == lane]
            assert pick(seen["serial"]) == pick(seen["batch"])

    @settings(max_examples=30, deadline=None)
    @given(snips=snippets, data=st.data())
    def test_per_lane_budgets_and_chunked_resume(self, snips, data):
        """Random per-lane LIMIT budgets applied in chunks: every stop —
        including lanes re-absorbed mid-program and lanes that already
        halted or faulted — must match the serial chunked run."""
        code = assemble_program(snips)
        nl = data.draw(st.integers(2, 5), label="lanes")
        fills = data.draw(st.lists(
            st.lists(cell_value, min_size=RAM_WORDS, max_size=RAM_WORDS),
            min_size=nl, max_size=nl), label="fills")
        serial = make_lanes(code, fills)
        batch_lanes = make_lanes(code, fills)
        batch = BatchCpu(batch_lanes)
        chunks = data.draw(st.integers(1, 5), label="chunks")
        for _ in range(chunks):
            limits = data.draw(st.lists(st.integers(1, 40),
                                        min_size=nl, max_size=nl),
                               label="limits")
            outs_s = []
            for cpu, limit in zip(serial, limits):
                if cpu.halted:
                    outs_s.append((StopReason.HALTED, 0, 0))
                    continue
                outs_s.append(serial_outcome(cpu, limit))
            outs_b = batch.run(limits=limits)
            assert_cohort_matches(serial, batch_lanes, outs_s, outs_b)

    @settings(max_examples=25, deadline=None)
    @given(divisors=st.lists(st.integers(-2, 2), min_size=2, max_size=8),
           data=st.data())
    def test_per_lane_faults_peel_with_serial_fault_pcs(self, divisors, data):
        """Lanes whose RAM-fed divisor is zero must fault at the exact
        serial pc with serial counters, while clean lanes finish batched."""
        code = _divider_loop()
        fills = [[seed, 0, 0, div] for seed, div in
                 zip(data.draw(st.lists(st.integers(0, 500),
                                        min_size=len(divisors),
                                        max_size=len(divisors))), divisors)]
        serial = make_lanes(code, fills)
        batch_lanes = make_lanes(code, fills)
        outs_s = [serial_outcome(cpu, RUN_LIMIT) for cpu in serial]
        batch = BatchCpu(batch_lanes)
        outs_b = batch.run(RUN_LIMIT)
        assert_cohort_matches(serial, batch_lanes, outs_s, outs_b)
        if any(div == 0 for div in divisors):
            assert batch.stats["peels"] >= 1
            faulted = [o for o in outs_b if o.fault is not None]
            assert faulted and all(o.peeled for o in faulted)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_run_jobs_matches_serial_campaign_loop(self, data):
        """The activation loop: reset + run x jobs, with faulting lanes
        rejoining the columnar pool at every reset."""
        nl = data.draw(st.integers(2, 6), label="lanes")
        divisors = data.draw(st.lists(st.integers(0, 2), min_size=nl,
                                      max_size=nl), label="divisors")
        jobs = data.draw(st.integers(1, 4), label="jobs")
        code = _divider_loop()
        fills = [[lane + 1, 0, 0, div]
                 for lane, div in enumerate(divisors)]
        serial = make_lanes(code, fills)
        batch_lanes = make_lanes(code, fills)
        outs_s = []
        for _ in range(jobs):
            per = []
            for cpu in serial:
                cpu.reset_task(0)
                per.append(serial_outcome(cpu, RUN_LIMIT))
            outs_s.append(per)
        batch = BatchCpu(batch_lanes)
        outs_b = batch.run_jobs(0, jobs, max_instructions=RUN_LIMIT)
        assert len(outs_b) == jobs
        for per_s, per_b in zip(outs_s, outs_b):
            assert [batch_outcome(o) for o in per_b] == per_s
        for ref, cpu in zip(serial, batch_lanes):
            assert snap(cpu) == snap(ref)


def _divider_loop():
    """50 rounds of ``acc = acc / m[3]`` — m[3] = 0 faults at pc 8."""
    return [
        Instr("PUSH", 0), Instr("STORE", RAM_BASE + 1),
        Instr("LOAD", RAM_BASE + 1), Instr("PUSH", 50), Instr("LT"),
        Instr("JZ", 15),
        Instr("LOAD", RAM_BASE), Instr("LOAD", RAM_BASE + 3),
        Instr("DIV"), Instr("STORE", RAM_BASE),
        Instr("LOAD", RAM_BASE + 1), Instr("PUSH", 1), Instr("ADD"),
        Instr("STORE", RAM_BASE + 1),
        Instr("JMP", 2),
        Instr("PUSH", 7), Instr("LOAD", RAM_BASE), Instr("EMIT", 2),
        Instr("HALT"),
    ]


# count to a per-lane bound in m[2], mixing m[0], then report and halt
_BOUNDED = [
    Instr("PUSH", 0), Instr("STORE", RAM_BASE + 1),
    Instr("LOAD", RAM_BASE + 1), Instr("LOAD", RAM_BASE + 2),   # 2..3
    Instr("LT"), Instr("JZ", 16),                               # 4..5
    Instr("LOAD", RAM_BASE), Instr("PUSH", 3), Instr("MUL"),    # 6..8
    Instr("PUSH", 1000), Instr("MOD"), Instr("STORE", RAM_BASE),  # 9..11
    Instr("LOAD", RAM_BASE + 1), Instr("PUSH", 1), Instr("ADD"),  # 12..14
    Instr("STORE", RAM_BASE + 1),                               # 15
    Instr("JMP", 2),                                            # 16 -> loop
    Instr("PUSH", 7), Instr("LOAD", RAM_BASE), Instr("EMIT", 2),
    Instr("HALT"),
]
_BOUNDED[5] = Instr("JZ", 17)


# -- deterministic edges -----------------------------------------------------

class TestCohortValidation:
    def test_empty_cohort_rejected(self):
        with pytest.raises(TargetFault, match="at least one"):
            BatchCpu([])

    def test_firmware_mismatch_rejected(self):
        a = make_lanes(_divider_loop(), [[1, 0, 0, 1]])[0]
        b = make_lanes(_BOUNDED, [[1, 0, 5]])[0]
        with pytest.raises(TargetFault, match="firmware"):
            BatchCpu([a, b])

    def test_ram_size_mismatch_rejected(self):
        code = _divider_loop()
        a = make_lanes(code, [[1, 0, 0, 1]])[0]
        b = Cpu(MemoryMap(RAM_WORDS + 1), stack_depth=STACK_DEPTH)
        b.load(code)
        with pytest.raises(TargetFault, match="RAM"):
            BatchCpu([a, b])

    def test_stack_depth_mismatch_rejected(self):
        code = _divider_loop()
        a = make_lanes(code, [[1, 0, 0, 1]])[0]
        b = Cpu(MemoryMap(RAM_WORDS), stack_depth=STACK_DEPTH + 1)
        b.load(code)
        with pytest.raises(TargetFault, match="stack"):
            BatchCpu([a, b])

    def test_run_jobs_bad_entry_rejected(self):
        lanes = make_lanes(_divider_loop(), [[1, 0, 0, 1]] * 2)
        with pytest.raises(TargetFault, match="entry"):
            BatchCpu(lanes).run_jobs(99, 1)

    def test_mismatched_limits_rejected(self):
        lanes = make_lanes(_divider_loop(), [[1, 0, 0, 1]] * 2)
        with pytest.raises(TargetFault, match="limits"):
            BatchCpu(lanes).run(limits=[10])


class TestDivergencePolicy:
    def _divergent(self, bounds):
        fills = [[seed, 0, bound]
                 for seed, bound in zip(range(1, len(bounds) + 1), bounds)]
        serial = make_lanes(_BOUNDED, fills)
        batch_lanes = make_lanes(_BOUNDED, fills)
        outs_s = [serial_outcome(cpu, RUN_LIMIT) for cpu in serial]
        return serial, batch_lanes, outs_s

    def test_divergent_bounds_split_and_remerge(self):
        bounds = [10, 10, 40, 40, 40, 90, 90, 90]
        serial, batch_lanes, outs_s = self._divergent(bounds)
        batch = BatchCpu(batch_lanes)
        outs_b = batch.run(RUN_LIMIT)
        assert_cohort_matches(serial, batch_lanes, outs_s, outs_b)
        assert batch.stats["splits"] >= 1
        assert batch.stats["merges"] >= 1

    def test_zero_window_peels_divergent_lanes(self):
        serial, batch_lanes, outs_s = self._divergent([5, 80])
        batch = BatchCpu(batch_lanes, reconverge_window=0)
        outs_b = batch.run(RUN_LIMIT)
        assert_cohort_matches(serial, batch_lanes, outs_s, outs_b)
        assert batch.stats["peels"] >= 1
        assert any(o.peeled for o in outs_b)

    def test_min_lanes_one_keeps_singletons_batched(self):
        serial, batch_lanes, outs_s = self._divergent([5, 80, 200])
        batch = BatchCpu(batch_lanes, min_lanes=1)
        outs_b = batch.run(RUN_LIMIT)
        assert_cohort_matches(serial, batch_lanes, outs_s, outs_b)
        assert batch.stats["peels"] == 0

    def test_halted_lane_reports_halted_without_running(self):
        lanes = make_lanes(_BOUNDED, [[1, 0, 5], [2, 0, 5]])
        lanes[0].halted = True
        before = snap(lanes[0])
        outs = BatchCpu(lanes).run(RUN_LIMIT)
        assert outs[0].result.reason is StopReason.HALTED
        assert outs[0].result.instructions == 0
        assert snap(lanes[0]) == before

    def test_breakpointed_lane_stops_at_breakpoint_scalar(self):
        fills = [[1, 0, 5], [2, 0, 5]]
        serial = make_lanes(_BOUNDED, fills)
        batch_lanes = make_lanes(_BOUNDED, fills)
        for cpus in (serial, batch_lanes):
            cpus[0].breakpoints.add(6)
        outs_s = []
        for cpu in serial:
            result = cpu.run(max_instructions=RUN_LIMIT,
                             break_on_breakpoints=True)
            outs_s.append((result.reason, result.instructions,
                           result.cycles))
        outs_b = BatchCpu(batch_lanes).run(RUN_LIMIT,
                                           break_on_breakpoints=True)
        assert outs_b[0].result.reason is StopReason.BREAKPOINT
        assert outs_b[0].peeled
        assert outs_b[1].result.reason is StopReason.HALTED
        assert_cohort_matches(serial, batch_lanes, outs_s, outs_b)

    def test_breakpoints_ignored_without_the_flag_like_serial_run(self):
        fills = [[1, 0, 5], [2, 0, 5]]
        serial = make_lanes(_BOUNDED, fills)
        batch_lanes = make_lanes(_BOUNDED, fills)
        for cpus in (serial, batch_lanes):
            cpus[0].breakpoints.add(6)
        outs_s = [serial_outcome(cpu, RUN_LIMIT) for cpu in serial]
        outs_b = BatchCpu(batch_lanes).run(RUN_LIMIT)
        assert outs_b[0].result.reason is StopReason.HALTED
        assert not outs_b[0].peeled
        assert_cohort_matches(serial, batch_lanes, outs_s, outs_b)


# -- board cohorts -----------------------------------------------------------

class TestBoardCohort:
    def test_cohort_runs_bit_identical_to_serial_boards(self):
        firmware = generate_firmware(traffic_light_system())
        lanes = 8
        offsets = [lane % 7 for lane in range(lanes)]
        addr = firmware.symbols.addr_of("pedestrian.script.$idx")
        boards = []
        for lane in range(lanes):
            board = Board(ram_words=max(1, len(firmware.symbols)))
            board.load_firmware(firmware)
            board.memory.poke(addr, offsets[lane])
            boards.append(board)
        cohort = BoardCohort(firmware, lanes)
        cohort.poke_symbol("pedestrian.script.$idx", offsets)
        for task in firmware.entries:
            entry = firmware.entry_of(task)
            for board in boards:
                board.cpu.reset_task(entry)
                board.cpu.run(max_instructions=1_000_000)
            cohort.run_task(task)
        for board, cohort_board in zip(boards, cohort.boards):
            assert snap(cohort_board.cpu) == snap(board.cpu)

    def test_run_jobs_matches_per_job_run_task(self):
        firmware = generate_firmware(traffic_light_system())
        a = BoardCohort(firmware, 4)
        b = BoardCohort(firmware, 4)
        task = next(iter(firmware.entries))
        outs_a = [a.run_task(task) for _ in range(3)]
        outs_b = b.run_jobs(task, 3)
        assert [[batch_outcome(o) for o in per] for per in outs_a] == \
            [[batch_outcome(o) for o in per] for per in outs_b]
        for board_a, board_b in zip(a.boards, b.boards):
            assert snap(board_a.cpu) == snap(board_b.cpu)

    def test_seed_symbol_is_deterministic_and_lane_distinct(self):
        firmware = generate_firmware(traffic_light_system())
        a = BoardCohort(firmware, 6)
        b = BoardCohort(firmware, 6)
        va = a.seed_symbol("pedestrian.script.$idx", master_seed=7, span=7)
        vb = b.seed_symbol("pedestrian.script.$idx", master_seed=7, span=7)
        assert va == vb
        assert all(0 <= v < 7 for v in va)
        assert a.seed_symbol("pedestrian.script.$idx", master_seed=8,
                             span=7) != va

    def test_poke_symbol_length_mismatch_rejected(self):
        firmware = generate_firmware(traffic_light_system())
        cohort = BoardCohort(firmware, 4)
        with pytest.raises(FleetError, match="lanes"):
            cohort.poke_symbol("pedestrian.script.$idx", [1, 2])

    def test_zero_lanes_rejected(self):
        firmware = generate_firmware(traffic_light_system())
        with pytest.raises(FleetError, match="lane"):
            BoardCohort(firmware, 0)
