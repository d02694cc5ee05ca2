"""Tests for the code-level baseline debugger."""

import pytest

from repro.codegen import InstrumentationPlan, generate_firmware
from repro.comdes.examples import cruise_control_system, traffic_light_system
from repro.debugger.gdb import HW_WATCHPOINT_SLOTS, SourceDebugger
from repro.errors import DebuggerError
from repro.experiments.requirements import cruise_code_watches
from repro.rtos.kernel import DtmKernel
from repro.sim.kernel import Simulator
from repro.target.board import Board
from repro.target.cpu import Cpu, StopReason
from repro.util.timeunits import sec


def make_debugger():
    system = traffic_light_system()
    firmware = generate_firmware(system, InstrumentationPlan.none())
    board = Board()
    board.load_firmware(firmware)
    return SourceDebugger(board, firmware), board, firmware


class TestBreakpoints:
    def test_break_at_pc_stops_run(self):
        debugger, board, firmware = make_debugger()
        entry = firmware.entry_of("lights")
        debugger.break_at(entry + 3)
        result = debugger.run_task("lights")
        assert result.reason is StopReason.BREAKPOINT
        assert board.cpu.pc == entry + 3

    def test_continue_after_breakpoint(self):
        debugger, board, firmware = make_debugger()
        debugger.break_at(firmware.entry_of("lights") + 3)
        debugger.run_task("lights")
        result = debugger.continue_()
        assert result.reason is StopReason.HALTED

    def test_break_at_path_uses_source_map(self):
        debugger, _, firmware = make_debugger()
        pcs = debugger.break_at_path("sm:lights.lamp")
        assert pcs
        result = debugger.run_task("lights")
        assert result.reason is StopReason.BREAKPOINT

    def test_break_at_unknown_path_rejected(self):
        debugger, _, _ = make_debugger()
        with pytest.raises(DebuggerError):
            debugger.break_at_path("sm:ghost.machine")

    def test_break_outside_code_rejected(self):
        debugger, _, _ = make_debugger()
        with pytest.raises(DebuggerError):
            debugger.break_at(10_000)

    def test_clear_breakpoints(self):
        debugger, _, firmware = make_debugger()
        debugger.break_at(firmware.entry_of("lights") + 1)
        debugger.clear_breakpoints()
        assert debugger.run_task("lights").reason is StopReason.HALTED


class TestSingleStep:
    def test_step_instruction_advances_one(self):
        debugger, board, firmware = make_debugger()
        debugger.break_at(firmware.entry_of("lights"))
        board.cpu.reset_task(firmware.entry_of("lights"))
        before = board.cpu.instructions
        debugger.step_instruction()
        assert board.cpu.instructions == before + 1

    def test_step_requires_stopped_target(self):
        debugger, _, _ = make_debugger()
        with pytest.raises(DebuggerError):
            debugger.step_instruction()


class TestWatchpoints:
    def test_change_watch_fires_on_write(self):
        debugger, board, _ = make_debugger()
        debugger.watch("lights.lamp.$t")
        # Run a few lamp jobs; the phase timer increments on dwell steps.
        for _ in range(3):
            debugger.run_task("lights")
        assert debugger.hits
        assert debugger.hits[0].watchpoint.symbol == "lights.lamp.$t"

    def test_conditional_watch(self):
        debugger, _, _ = make_debugger()
        watch = debugger.watch("lights.lamp.$t", predicate=lambda v: v >= 2)
        for _ in range(5):
            debugger.run_task("lights")
        assert watch.hits >= 1
        assert all(h.value >= 2 for h in debugger.hits)

    def test_hardware_slots_limited(self):
        debugger, _, firmware = make_debugger()
        symbols = [s.name for s in firmware.symbols.symbols()][:HW_WATCHPOINT_SLOTS + 1]
        for name in symbols[:HW_WATCHPOINT_SLOTS]:
            debugger.watch(name)
        with pytest.raises(DebuggerError):
            debugger.watch(symbols[HW_WATCHPOINT_SLOTS])

    def test_on_hit_callback(self):
        debugger, _, _ = make_debugger()
        seen = []
        debugger.watch("lights.lamp.$t")
        debugger.on_hit = seen.append
        debugger.run_task("lights")
        debugger.run_task("lights")
        assert seen


class TestInspection:
    def test_inspect_symbol(self):
        debugger, _, _ = make_debugger()
        debugger.run_task("lights")
        assert debugger.inspect("lights.lamp.$t") == 1

    def test_list_source_marks_pc(self):
        debugger, board, firmware = make_debugger()
        board.cpu.reset_task(firmware.entry_of("lights"))
        listing = debugger.list_source()
        assert "=>" in listing

    def test_backtrace_names_model_element(self):
        debugger, board, firmware = make_debugger()
        debugger.break_at_path("sm:lights.lamp")
        debugger.run_task("lights")
        assert "lights.lamp" in debugger.backtrace()


def cruise_code_debugger_run():
    """The campaign's code-debugger set-up on generated cruise-control
    firmware, with change watches on its watched symbols so the run
    trips them: (hit transcript, hit times, backtraces, firmware)."""
    system = cruise_control_system()
    firmware = generate_firmware(system, InstrumentationPlan.full())
    sim = Simulator()
    kernel = DtmKernel(system, firmware, sim=sim, latched=True)
    debuggers, times, backtraces = [], [], []
    for node in system.nodes():
        debugger = SourceDebugger(kernel.board_of(node), firmware)
        for symbol, _predicate, description in cruise_code_watches():
            if firmware.symbols.has(symbol):
                debugger.watch(symbol, None, description)

        def on_hit(hit, debugger=debugger):
            times.append(sim.now)
            backtraces.append((hit.pc, debugger.backtrace()))

        debugger.on_hit = on_hit
        debuggers.append(debugger)
    kernel.run(sec(2))
    hits = [(h.watchpoint.symbol, h.value, h.previous, h.pc, h.cycles)
            for debugger in debuggers for h in debugger.hits]
    return hits, times, backtraces, firmware


class TestWatchpointFidelity:
    def test_fast_loop_hits_equal_checked_loop_hits(self, monkeypatch):
        """Watched stores run in the fused loop; every hit must carry the
        pc, cycles and simulated time the checked loop reports."""
        with monkeypatch.context() as patch:
            patch.setattr(Cpu, "_run_debug", lambda *args: pytest.fail(
                "the code debugger must not need the checked loop"))
            shipped = cruise_code_debugger_run()
        run = Cpu.run
        monkeypatch.setattr(Cpu, "run", lambda self, *args, **kwargs: run(
            self, *args, profile={}, **kwargs))
        checked = cruise_code_debugger_run()
        hits, times, backtraces, firmware = shipped
        assert len(hits) > 50
        assert {hit[0] for hit in hits} == {
            symbol for symbol, _, _ in cruise_code_watches()}
        assert hits == checked[0]
        assert times == checked[1]
        assert backtraces == checked[2]
        for pc, backtrace in backtraces:
            store = firmware.code[pc]
            assert store.op == "STORE" and store.src_path
            assert backtrace.endswith(f" in <{store.src_path}>")
