"""Span tracing around the public calls into each ``repro`` package.

Nothing here changes product code: :func:`install` replaces functions
and methods with timing wrappers, in the defining class or module and in
every ``repro`` module that imported the function by name. Spans are
kept in memory (compact arrays) while the workload runs and written out
when it ends. Self time of a span is its duration minus the time its
child spans cover; a layer's self time is the sum over its spans, and
the time no span covers is the ``other`` row.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: the ``src/repro`` packages the per-layer table reports, in print order
LAYERS = ("faults", "codegen", "comdes", "debugger", "engine", "gdm",
          "rtos", "sim", "target", "comm", "tracedb", "fleet")

#: raw spans kept for the spans file; beyond this only aggregates grow
MAX_RAW_SPANS = 2_000_000


class Tracer:
    """In-memory span recorder with online self-time aggregation."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.incl: List[float] = []
        self.self_time: List[float] = []
        self.counts: Dict[str, int] = {}
        #: open spans: [start, child_time, raw index]
        self.stack: List[list] = []
        #: operation id (job index, step or seek) stamped on new spans
        self.op = -1
        self.raw_name = array("i")
        self.raw_parent = array("i")
        self.raw_op = array("i")
        self.raw_start = array("d")
        self.raw_end = array("d")
        self.raw_dropped = 0
        self.t0 = 0.0
        self.t1 = 0.0

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        for values in (self.calls, self.incl, self.self_time):
            values[:] = [0] * len(values)
        self.counts.clear()
        for raw in (self.raw_name, self.raw_parent, self.raw_op,
                    self.raw_start, self.raw_end):
            del raw[:]
        self.raw_dropped = 0
        self.op = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.incl.append(0.0)
            self.self_time.append(0.0)
        return self._ids[name]

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None,
             sets_op: Optional[Callable] = None) -> Callable:
        """A span-recording replacement for *fn*.

        ``on_result(result, args)`` derives counts from the call;
        ``sets_op(args)`` names the operation the call's spans belong to.
        """
        nid = self.name_id(name)
        tracer = self
        stack = self.stack
        calls, incl, self_time = self.calls, self.incl, self.self_time
        raw_name, raw_parent, raw_op = (self.raw_name, self.raw_parent,
                                        self.raw_op)
        raw_start, raw_end = self.raw_start, self.raw_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sets_op is not None:
                tracer.op = sets_op(args)
            index = len(raw_name)
            if index >= MAX_RAW_SPANS:
                index = -1
                tracer.raw_dropped += 1
            frame = [0.0, 0.0, index]
            if index >= 0:
                raw_name.append(nid)
                raw_parent.append(stack[-1][2] if stack else -1)
                raw_op.append(tracer.op)
                raw_start.append(0.0)
                raw_end.append(0.0)
            stack.append(frame)
            frame[0] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[nid] += 1
                incl[nid] += duration
                self_time[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    raw_start[index] = start
                    raw_end[index] = end
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    # -- read-out -----------------------------------------------------------

    def stat(self, name: str) -> Tuple[int, float, float]:
        """(calls, inclusive s, self s) of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.incl[nid], self.self_time[nid]

    def layer_self(self) -> Dict[str, float]:
        """Self time per layer, plus ``other`` (traced wall no span covers)."""
        rows = {layer: 0.0 for layer in LAYERS}
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            rows[layer] = rows.get(layer, 0.0) + self.self_time[nid]
        wall = self.t1 - self.t0
        rows["other"] = wall - sum(rows.values())
        return rows

    def write_spans(self, path: str) -> None:
        """Spans as gzip TSV: name, parent index, op, start, end (s from
        the traced pass start)."""
        t0 = self.t0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tname\tparent\top\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.raw_name)):
                out.write(f"{i}\t{names[self.raw_name[i]]}\t"
                          f"{self.raw_parent[i]}\t{self.raw_op[i]}\t"
                          f"{self.raw_start[i] - t0:.9f}\t"
                          f"{self.raw_end[i] - t0:.9f}\n")


def _counting(fn: Callable, on_call: Callable) -> Callable:
    """A replacement for *fn* that only counts (no span, no clock)."""
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        on_call(args, kwargs)
        return fn(*args, **kwargs)
    return counted


def _rebind(original: Callable, replacement: Callable) -> None:
    """Swap *original* for *replacement* wherever a repro module holds it."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def _module_fn(tracer: Tracer, path: str, span: str, **hooks) -> None:
    module_name, attr = path.rsplit(".", 1)
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    _rebind(original, tracer.wrap(span, original, **hooks))


def _method(tracer: Tracer, cls, attr: str, span: str, **hooks) -> None:
    original = cls.__dict__[attr]
    setattr(cls, attr, tracer.wrap(span, original, **hooks))


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer table attributes time to.

    Campaign phases are timed at ``repro.faults.campaign``'s module-level
    phase functions (the split the ROADMAP baseline used); the
    classifier phase ``_classify`` is booked to ``engine.classify``.
    """
    from repro.comdes.system import System
    from repro.comm.channel import ActiveChannel, PassiveChannel
    from repro.comm.link import DebugLink, JtagLink, SerialLink
    from repro.debugger.gdb import SourceDebugger
    from repro.engine.engine import DebuggerEngine
    from repro.engine.replay import ReplayPlayer
    from repro.engine.trace import ExecutionTrace
    from repro.fleet.pool import SerialRunner
    from repro.gdm.abstraction import AbstractionEngine
    from repro.gdm.model import GdmModel
    from repro.rtos.kernel import DtmKernel
    from repro.rtos.network import SignalBus
    from repro.rtos.scheduler import NodeScheduler
    from repro.sim.kernel import Simulator
    from repro.target.board import Board
    from repro.target.cpu import Cpu
    from repro.tracedb.store import TraceStore

    count = tracer.count

    def add(key: str, amount_of: Callable) -> Callable:
        return lambda result, args: count(key, amount_of(result, args))

    # faults: phases, injection, board patching
    for fn, span in (("_run_model_debugger", "faults.model_debugger"),
                     ("_run_code_debugger", "faults.code_debugger"),
                     ("_classify", "engine.classify"),
                     ("_patch_boards", "faults.patch_boards"),
                     ("run_fault_experiment", "faults.experiment"),
                     ("run_control_experiment", "faults.experiment")):
        _module_fn(tracer, f"repro.faults.campaign.{fn}", span)
    _module_fn(tracer, "repro.faults.design.inject_design_fault",
               "faults.inject")
    _module_fn(tracer, "repro.faults.implementation."
               "inject_implementation_fault", "faults.inject")

    # codegen and the reference model interpreter
    _module_fn(tracer, "repro.codegen.pipeline.generate_firmware",
               "codegen.generate")
    _module_fn(tracer, "repro.codegen.pipeline.run_firmware_lockstep",
               "codegen.lockstep")
    _module_fn(tracer, "repro.comdes.reflect.system_to_model",
               "comdes.reflect")
    _method(tracer, System, "lockstep_run", "comdes.lockstep")

    # gdm
    _method(tracer, AbstractionEngine, "build", "gdm.abstraction_build")
    _module_fn(tracer, "repro.gdm.reactions.apply_reaction",
               "gdm.apply_reaction")
    _module_fn(tracer, "repro.gdm.reactions.decay_pulses",
               "gdm.decay_pulses")
    _method(tracer, GdmModel, "dynamic_state", "gdm.dynamic_state")
    _method(tracer, GdmModel, "restore_dynamic_state", "gdm.restore_state")

    # engine
    _method(tracer, DebuggerEngine, "on_command", "engine.on_command",
            on_result=add("engine.commands", lambda r, a: 1))
    _method(tracer, ExecutionTrace, "record", "engine.trace_record")
    _method(tracer, ReplayPlayer, "seek", "engine.replay.seek",
            on_result=add("engine.replay.events_applied", lambda r, a: r))

    # debugger (the code debugger's watchpoint check per memory write)
    _method(tracer, SourceDebugger, "_write_hook", "debugger.write_hook")

    # rtos
    _method(tracer, DtmKernel, "run", "rtos.kernel_run")
    _method(tracer, DtmKernel, "_release_actor", "rtos.activation",
            on_result=add("rtos.activations", lambda r, a: 1))
    _method(tracer, DtmKernel, "_publish", "rtos.publish")
    _method(tracer, NodeScheduler, "_complete", "rtos.job_complete")
    _method(tracer, SignalBus, "_apply", "rtos.net_apply")

    # sim: the event loop (its self time is heap work plus any callback
    # body no other span covers)
    _method(tracer, Simulator, "run_until", "sim.run_until",
            on_result=add("sim.events", lambda r, a: r))

    # target
    _method(tracer, Board, "run_task", "target.run_task")
    _method(tracer, Cpu, "run", "target.cpu_run",
            on_result=add("target.instructions",
                          lambda r, a: r.instructions))

    # comm
    last_scan: Dict[int, list] = {}

    def scanned(result, args):
        values = result[0]
        key = id(args[0])
        count("comm.scans")
        if last_scan.get(key) != values:
            count("comm.useful_scans")
            last_scan[key] = list(values)

    _method(tracer, JtagLink, "read_scatter", "comm.read_scatter",
            on_result=scanned)
    _method(tracer, PassiveChannel, "_poll", "comm.poll")
    _method(tracer, PassiveChannel, "_deliver_change", "comm.deliver_change")
    _method(tracer, ActiveChannel, "_on_emit", "comm.active_emit")
    _method(tracer, ActiveChannel, "_deliver_frame", "comm.deliver_frame")
    account = DebugLink.__dict__["_account"]

    def booked(args, kwargs):
        bound = dict(zip(("self", "cost_us", "words_read", "words_written",
                          "frames"), args))
        bound.update(kwargs)
        count("comm.transactions")
        count("comm.words", bound.get("words_read", 0)
              + bound.get("words_written", 0))
        count("comm.frames", bound.get("frames", 0))

    DebugLink._account = _counting(account, booked)
    SerialLink.transmit_frame = _counting(
        SerialLink.__dict__["transmit_frame"],
        lambda args, kwargs: count("comm.frame_bytes", len(args[2])))

    # tracedb
    _method(tracer, TraceStore, "append", "tracedb.append",
            on_result=add("tracedb.events", lambda r, a: 1))
    _method(tracer, TraceStore, "flush", "tracedb.flush")
    _method(tracer, TraceStore, "close", "tracedb.close")
    _method(tracer, TraceStore, "add_checkpoint", "tracedb.add_checkpoint")
    _method(tracer, TraceStore, "nearest_checkpoint",
            "tracedb.nearest_checkpoint")
    _method(tracer, TraceStore, "read_segment_records", "tracedb.read_segment",
            on_result=lambda r, a: (count("tracedb.segments_read"),
                                    count("tracedb.events_decoded", len(r))))

    # fleet
    _method(tracer, SerialRunner, "run", "fleet.runner")
    _module_fn(tracer, "repro.fleet.worker.run_job", "fleet.run_job",
               sets_op=lambda args: args[0].index)
    _module_fn(tracer, "repro.fleet.merge.merge_results", "fleet.merge")
    _module_fn(tracer, "repro.fleet.jobs.enumerate_campaign_jobs",
               "fleet.enumerate")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, untraced_wall_s: float) -> Dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``*_s`` of a campaign phase (faults.model_debugger, faults.code_debugger,
    faults.inject, engine.classify, codegen.generate, fleet.run_job,
    fleet.merge, engine.replay.seek) is inclusive of nested spans; every
    other ``*_s`` of a call is its self time.
    """
    counts = tracer.counts
    stat = tracer.stat
    wall = tracer.t1 - tracer.t0
    out: Dict[str, tuple] = {}

    def inclusive(metric: str, span: str, calls_metric: str = "") -> None:
        calls, incl, _ = stat(span)
        out[metric] = (incl, "s")
        if calls_metric:
            out[calls_metric] = (calls, "count")

    def self_of(metric: str, span: str) -> None:
        out[metric] = (stat(span)[2], "s")

    inclusive("faults.model_debugger_s", "faults.model_debugger")
    inclusive("faults.code_debugger_s", "faults.code_debugger")
    inclusive("faults.inject_s", "faults.inject", "faults.inject_calls")
    inclusive("engine.classify_s", "engine.classify", "engine.classify_calls")
    inclusive("codegen.generate_s", "codegen.generate",
              "codegen.generate_calls")
    self_of("rtos.kernel_run_s", "rtos.kernel_run")
    out["rtos.activations"] = (counts.get("rtos.activations", 0), "count")
    self_of("target.cpu_run_s", "target.cpu_run")
    out["target.instructions"] = (counts.get("target.instructions", 0),
                                  "count")
    out["target.instr_per_s"] = (
        _ratio(counts.get("target.instructions", 0),
               stat("target.cpu_run")[2]), "1/s")
    self_of("engine.on_command_s", "engine.on_command")
    out["engine.commands"] = (counts.get("engine.commands", 0), "count")
    self_of("gdm.apply_reaction_s", "gdm.apply_reaction")
    self_of("comm.read_scatter_s", "comm.read_scatter")
    out["comm.scans"] = (counts.get("comm.scans", 0), "count")
    out["comm.poll_useful_ratio"] = (
        _ratio(counts.get("comm.useful_scans", 0),
               counts.get("comm.scans", 0)), "ratio")
    out["comm.transactions"] = (counts.get("comm.transactions", 0), "count")
    # 32-bit words over JTAG plus serial frame bytes
    out["comm.bytes"] = (4 * counts.get("comm.words", 0)
                         + counts.get("comm.frame_bytes", 0), "B")
    out["comm.frames"] = (counts.get("comm.frames", 0), "count")
    self_of("tracedb.append_s", "tracedb.append")
    out["tracedb.events"] = (counts.get("tracedb.events", 0), "count")
    self_of("tracedb.flush_s", "tracedb.flush")
    self_of("tracedb.read_segment_s", "tracedb.read_segment")
    out["tracedb.segments_read"] = (counts.get("tracedb.segments_read", 0),
                                    "count")
    self_of("tracedb.nearest_checkpoint_s", "tracedb.nearest_checkpoint")
    inclusive("engine.replay.seek_s", "engine.replay.seek")
    applied = counts.get("engine.replay.events_applied", 0)
    out["engine.replay.events_applied"] = (applied, "count")
    out["tracedb.read_useful_ratio"] = (
        _ratio(applied, counts.get("tracedb.events_decoded", 0)), "ratio")
    inclusive("fleet.run_job_s", "fleet.run_job")
    inclusive("fleet.merge_s", "fleet.merge")
    out["fleet.sched_overhead_s"] = (
        max(0.0, stat("fleet.runner")[1] - stat("fleet.run_job")[1]), "s")
    events = counts.get("sim.events", 0)
    out["sim.events"] = (events, "count")
    out["sim.host_us_per_event"] = (
        _ratio(untraced_wall_s * 1e6, events), "us")
    rows = tracer.layer_self()
    for layer, seconds in rows.items():
        out[f"self.{layer}_s"] = (seconds, "s")
    out["trace.overhead_ratio"] = (_ratio(wall, untraced_wall_s), "ratio")
    out["trace.other_share"] = (_ratio(rows["other"], wall), "ratio")
    return out


#: the per-layer counts that must repeat exactly at one seed
EXACT_COUNTS = ("faults.inject_calls", "engine.classify_calls",
                "codegen.generate_calls", "rtos.activations",
                "target.instructions", "engine.commands", "comm.scans",
                "comm.transactions", "comm.bytes", "comm.frames",
                "tracedb.events", "tracedb.segments_read",
                "engine.replay.events_applied", "sim.events")
