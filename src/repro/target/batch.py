"""Batch lockstep interpreter: execute N identical-firmware boards as one.

Fault campaigns and seed sweeps run hundreds of boards with *identical
firmware, different data* — and on a 1-CPU container process-level
scale-out loses outright (``speedup_4w`` 0.87x in BENCH_fleet). This
tier goes the other way: one interpreter dispatch drives every board at
once over structure-of-arrays state.

**SoA layout.** A :class:`_Group` holds lanes (boards) that share one
``(pc, stack depth)`` execution point. State is column-major: one list
per stack slot and one list per RAM word, each ``len(lanes)`` long —
``stack[s][j]`` is lane *j*'s value in slot *s*. One fetch/dispatch then
serves all lanes; data work is a single list comprehension (C-speed
iteration) instead of per-board interpreter overhead.

**Immutable columns.** Column lists are never mutated in place once
shared: LOAD pushes the RAM column *by reference* (O(1) for any lane
count), STORE *replaces* the RAM slot with the popped column, ALU ops
build fresh result columns, and STI — the only per-lane-addressed
write — copies each touched column before writing (copy-on-write).
This is what makes the data-movement opcodes that dominate generated
firmware nearly free per lane.

**Divergence: split / join / merge.** A conditional branch whose
predicate column is uniform (checked with ``list.count`` at C speed)
stays lockstep. A mixed predicate **splits** the group in two. To
re-converge, whenever more than one group exists every group pauses at
*join pcs* (branch targets — the only places control flow can meet) and
groups at equal ``(pc, stack depth)`` **merge**; scheduling always
advances the lowest-pc group first so stragglers catch up. A group that
stays diverged longer than ``reconverge_window`` instructions (and is
not the largest), or that shrinks below ``min_lanes``, is peeled —
lockstep must pay for itself.

**Peel-off invariant (decompose-to-scalar).** Exactly like
``Cpu._run_fused`` decomposes a superinstruction whenever an
observation could tell the difference, a lane leaves the batch *before*
any instruction whose batched execution could be observably different —
a potential fault (RAM bounds, stack pressure, zero divisor, runaway
pc), an armed emit handler, a data watchpoint (write hook), divergence
past the window. The lane's bit-exact state (pc, stack, RAM plane,
cycle/instruction/read/write counters, emit log) is written back to its
ordinary :class:`~repro.target.cpu.Cpu`, which then *re-executes the
troublesome instruction itself* — so fault pcs, partial stack pops and
counter values are the serial code path's own, by construction, and
batch == serial is bit-for-bit provable at every stop. Counters fold
per-lane (``used_*`` arrays) because merged lanes have different
histories.

EMIT lanes *without* a handler stay batched: the per-lane append to the
live ``cpu.emit_log`` is position-independent and bit-identical, and
instrumented firmware is precisely the workload this tier exists to
accelerate. Lanes *with* a synchronous handler peel — the handler
observes mid-run CPU state that only scalar execution orders correctly.

The batch loop interprets the **plain decoded rows**, not the fused
ones — superinstruction fusion is timing-identical by contract, so
counters and stops agree with fused serial execution regardless.

Cohorts form one level up: :class:`repro.fleet.batch.BoardCohort`
flashes N boards with one firmware and runs them through a
:class:`BatchCpu`.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

from repro.errors import TargetFault
from repro.obs.runtime import OBS
from repro.target.cpu import (
    Cpu, DEFAULT_RUN_LIMIT, RunResult, StopReason,
)
from repro.target.isa import (
    OP_ADD, OP_AND, OP_DIV, OP_DUP, OP_EMIT, OP_EQ, OP_GE, OP_GT, OP_HALT,
    OP_JMP, OP_JNZ, OP_JZ, OP_LDI, OP_LE, OP_LOAD, OP_LT, OP_MAX, OP_MIN,
    OP_MOD, OP_MUL, OP_NE, OP_NEG, OP_NOT, OP_OR, OP_POP, OP_PUSH, OP_STI,
    OP_STORE, OP_SUB, OP_SWAP,
)
from repro.target.memory import RAM_BASE
from repro.util.intmath import INT_MAX, INT_MIN, sdiv, smod


class LaneOutcome(NamedTuple):
    """What one lane's serial ``Cpu.run`` call would have produced.

    Exactly one of ``result``/``fault`` is set: ``result`` mirrors the
    serial :class:`~repro.target.cpu.RunResult` (whole-run counts),
    ``fault`` is the :class:`~repro.errors.TargetFault` the serial run
    would have raised. ``peeled`` reports whether the lane finished
    scalar — diagnostics only, never semantics.
    """

    result: Optional[RunResult]
    fault: Optional[TargetFault]
    peeled: bool


# ``_step_group`` exit signals.
_SIG_BUDGET = 0   # instruction budget for this span exhausted
_SIG_HALT = 1     # group executed HALT (uniform by construction)
_SIG_JOIN = 2     # paused at a join pc so peers can merge
_SIG_SPLIT = 3    # mixed branch predicate; payload partitions the group
_SIG_PEEL = 4     # payload positions (None: all) must leave the batch


class _Group:
    """Lanes sharing one (pc, stack depth); state in SoA columns."""

    __slots__ = ("lanes", "pc", "stack", "ram",
                 "used_i", "used_c", "used_r", "used_w", "since_split")

    def __init__(self, lanes, pc, stack, ram,
                 used_i, used_c, used_r, used_w, since_split=0):
        self.lanes = lanes          # sorted lane ids
        self.pc = pc
        self.stack = stack          # list of columns, one per stack slot
        self.ram = ram              # list of columns, one per RAM word
        self.used_i = used_i        # per-lane counters since run() start
        self.used_c = used_c
        self.used_r = used_r
        self.used_w = used_w
        self.since_split = since_split


class BatchCpu:
    """Lockstep interpreter over a cohort of CPUs sharing one program.

    Every lane must have been loaded with the same decoded program and
    configured with the same RAM size and stack depth — that is what
    makes one fetch serve all lanes. Data (RAM contents, stack, pc,
    counters) is per-lane and lives in the member CPUs between runs:
    :meth:`run` absorbs it into columns, executes, and writes every
    lane back bit-exactly, so a :class:`BatchCpu` is a drop-in driver
    for CPUs that are also used individually.
    """

    def __init__(self, cpus: Sequence[Cpu], reconverge_window: int = 4096,
                 min_lanes: int = 2) -> None:
        cpus = list(cpus)
        if not cpus:
            raise TargetFault("batch cohort needs at least one cpu")
        first = cpus[0]
        rows = first._rows
        nram = len(first.memory.cells)
        for cpu in cpus[1:]:
            if cpu._rows != rows:
                raise TargetFault(
                    "cohort firmware mismatch: lanes must share one program")
            if len(cpu.memory.cells) != nram:
                raise TargetFault("cohort RAM size mismatch")
            if cpu.stack_depth != first.stack_depth:
                raise TargetFault("cohort stack depth mismatch")
        self.cpus = cpus
        self.reconverge_window = reconverge_window
        self.min_lanes = min_lanes
        self._rows = rows
        self._ncode = len(rows)
        self._nram = nram
        self._depth = first.stack_depth
        #: lockstep health counters (cumulative across runs); ``resident``
        #: counts lane-activations served from a cohort kept columnar
        #: across :meth:`run_jobs` boundaries — the ROADMAP's watch
        #: metric for the short-activation transposition gap
        self.stats = {"splits": 0, "merges": 0, "peels": 0, "resident": 0}
        if OBS.metrics is not None:
            # the dict above IS the registry series (batch.* counters),
            # read once per snapshot — nothing on the lockstep hot path
            OBS.metrics.bind_stats("batch", lambda: self.stats, owner=self)
        # join pcs: branch targets, the only places control flow can meet
        joins = bytearray(self._ncode)
        for op, arg, _ in rows:
            if ((op == OP_JMP or op == OP_JZ or op == OP_JNZ)
                    and 0 <= arg < self._ncode):
                joins[arg] = 1
        self._joins = joins
        # refreshed per run(): emit handler flags + live emit_log lists
        self._handlers = ()
        self._any_handler = False
        self._emit_logs: List[list] = []
        self._bob = False  # break_on_breakpoints for scalar resumes

    @property
    def lanes(self) -> int:
        return len(self.cpus)

    # -- public drivers ------------------------------------------------------

    def run(self, max_instructions: int = DEFAULT_RUN_LIMIT,
            limits: Optional[Sequence[int]] = None,
            break_on_breakpoints: bool = False) -> List[LaneOutcome]:
        """Lockstep-execute every lane; semantically N serial ``run`` calls.

        *limits* gives a per-lane instruction budget (default: the
        uniform *max_instructions*). With *break_on_breakpoints*, lanes
        with armed breakpoints leave the batch and run the checked
        scalar loop throughout (mirroring ``Cpu.run``, where the flag is
        priced once at entry); without it breakpoints are ignored,
        exactly like the serial default. Returns one
        :class:`LaneOutcome` per lane; every lane's CPU and memory hold
        exactly the state the serial run would have left, including on
        faults.
        """
        cpus = self.cpus
        nl = len(cpus)
        self._bob = break_on_breakpoints
        if limits is None:
            limits = [max_instructions] * nl
        elif len(limits) != nl:
            raise TargetFault(
                f"limits has {len(limits)} entries for {nl} lanes")
        else:
            limits = list(limits)
        outcomes: List[Optional[LaneOutcome]] = [None] * nl
        self._handlers = tuple(c.emit_handler is not None for c in cpus)
        self._any_handler = any(self._handlers)
        self._emit_logs = [c.emit_log for c in cpus]
        buckets: dict = {}
        for lane, cpu in enumerate(cpus):
            if cpu.halted:
                outcomes[lane] = LaneOutcome(
                    RunResult(StopReason.HALTED, 0, 0), None, False)
                continue
            if (cpu.memory.write_hook is not None
                    or (break_on_breakpoints and cpu.breakpoints)):
                # data watchpoints (matched on the scalar loops' store
                # rows) and armed breakpoints need the scalar Cpu
                # throughout (and breakpoint-resume skip semantics);
                # leave _resume_pc to the scalar run
                outcomes[lane] = self._finish_scalar(lane, 0, 0, limits[lane])
                continue
            cpu._resume_pc = -1
            buckets.setdefault((cpu.pc, len(cpu.stack)), []).append(lane)
        groups = []
        for (pc, dep), lanes in sorted(buckets.items()):
            stack = [[cpus[ln].stack[s] for ln in lanes] for s in range(dep)]
            ram = [list(col) for col in
                   zip(*(cpus[ln].memory.cells for ln in lanes))]
            zeros = len(lanes)
            groups.append(_Group(lanes, pc, stack, ram,
                                 [0] * zeros, [0] * zeros,
                                 [0] * zeros, [0] * zeros))
        self._drive(groups, outcomes, limits)
        return outcomes  # type: ignore[return-value]

    def run_task(self, entry: int,
                 max_instructions: int = DEFAULT_RUN_LIMIT,
                 limits: Optional[Sequence[int]] = None,
                 break_on_breakpoints: bool = False) -> List[LaneOutcome]:
        """Point every lane at *entry* (empty stack) and :meth:`run`."""
        for cpu in self.cpus:
            cpu.reset_task(entry)
        return self.run(max_instructions, limits, break_on_breakpoints)

    def run_jobs(self, entry: int, count: int,
                 max_instructions: int = DEFAULT_RUN_LIMIT,
                 ) -> List[List[LaneOutcome]]:
        """Run *count* activations of the task at *entry* on every lane.

        The batch analogue of the serial campaign inner loop::

            for _ in range(count):
                cpu.reset_task(entry)
                try: cpu.run(limit)
                except TargetFault: ...   # job fault, board continues

        Campaign activations are short (tens of instructions for
        generated task bodies), so the absorb/scatter transposition that
        :meth:`run` pays per call would dominate. This driver keeps RAM
        **columnar across activations**: groups that end an activation
        cleanly (HALT or LIMIT) are carried to the next one with just a
        pc/stack/counter reset — no per-activation RAM movement — and
        only their per-activation counters are folded into the CPUs at
        each job boundary. Lanes that peel (fault, handler, divergence)
        fall back to their own ``Cpu`` with full state, exactly as the
        serial loop would leave it, and **rejoin** the columnar pool at
        the next activation's reset. Full state is scattered back to
        every lane once, after the last activation.
        """
        if not 0 <= entry < self._ncode:
            raise TargetFault(f"task entry {entry} outside code", entry)
        cpus = self.cpus
        nl = len(cpus)
        self._bob = False  # the campaign loop's serial default
        self._handlers = tuple(c.emit_handler is not None for c in cpus)
        self._any_handler = any(self._handlers)
        self._emit_logs = [c.emit_log for c in cpus]
        out: List[List[LaneOutcome]] = []
        # columnar groups carried across activations, with halted flags
        carry: List[tuple] = []
        columnar: set = set()
        limits = [max_instructions] * nl
        stats = self.stats
        for _ in range(count):
            outcomes: List[Optional[LaneOutcome]] = [None] * nl
            groups = []
            stats["resident"] += sum(len(g.lanes) for g, _h in carry)
            for g, _halted in carry:
                # the columnar reset_task: pc/stack only, RAM stays put
                g.pc = entry
                g.stack = []
                g.since_split = 0
                groups.append(g)
            absorb = []
            for lane, cpu in enumerate(cpus):
                if lane in columnar:
                    continue
                cpu.reset_task(entry)
                if cpu.memory.write_hook is not None:
                    outcomes[lane] = self._finish_scalar(
                        lane, 0, 0, max_instructions)
                else:
                    absorb.append(lane)
            if absorb:
                z = len(absorb)
                ram = [list(col) for col in
                       zip(*(cpus[ln].memory.cells for ln in absorb))]
                groups.append(_Group(absorb, entry, [], ram,
                                     [0] * z, [0] * z, [0] * z, [0] * z))
            retired: List[tuple] = []
            self._drive(groups, outcomes, limits, retired)
            carry = retired
            columnar = set()
            for g, halted in retired:
                reason = StopReason.HALTED if halted else StopReason.LIMIT
                zeros = [0] * len(g.lanes)
                for j, lane in enumerate(g.lanes):
                    outcomes[lane] = LaneOutcome(
                        RunResult(reason, g.used_i[j], g.used_c[j]),
                        None, False)
                    cpu = cpus[lane]
                    cpu.cycles += g.used_c[j]
                    cpu.instructions += g.used_i[j]
                    cpu.memory.reads += g.used_r[j]
                    cpu.memory.writes += g.used_w[j]
                    columnar.add(lane)
                # counters are folded: zero them so the final scatter
                # (plain _sync_lane) cannot double-count
                g.used_i = list(zeros)
                g.used_c = list(zeros)
                g.used_r = list(zeros)
                g.used_w = list(zeros)
            out.append(outcomes)  # type: ignore[arg-type]
        for g, halted in carry:
            for j in range(len(g.lanes)):
                self._sync_lane(g, j, None, halted)
        return out

    # -- scheduling ----------------------------------------------------------

    def _drive(self, groups, outcomes, limits, retired=None) -> None:
        """Advance groups to completion: merge, schedule, fold, peel.

        With *retired* (a list) supplied, groups that finish cleanly —
        HALT or exhausted budget — are appended to it as ``(group,
        halted)`` instead of being scattered back to their CPUs, so
        :meth:`run_jobs` can keep them columnar across activations.
        Peels always scatter: a peeled lane needs its scalar ``Cpu``.
        """
        stats = self.stats
        while groups:
            if len(groups) > 1:
                # merge pass: equal (pc, stack depth) means lockstep again
                by_key: dict = {}
                kept = []
                for g in groups:
                    key = (g.pc, len(g.stack))
                    other = by_key.get(key)
                    if other is None:
                        by_key[key] = g
                        kept.append(g)
                    else:
                        self._merge(other, g)
                        stats["merges"] += 1
                groups = kept
            if len(groups) > 1:
                # policy peels: tiny groups and stale stragglers leave;
                # the largest group is the batch's reason to exist
                groups.sort(key=lambda g: (-len(g.lanes), g.lanes[0]))
                kept = [groups[0]]
                for g in groups[1:]:
                    if (len(g.lanes) < self.min_lanes
                            or g.since_split > self.reconverge_window):
                        self._peel_group(g, outcomes, limits)
                    else:
                        kept.append(g)
                groups = kept
            if len(groups) == 1 and len(groups[0].lanes) < self.min_lanes:
                self._peel_group(groups[0], outcomes, limits)
                break
            # lowest pc first so stragglers reach the join and merge
            g = min(groups, key=lambda x: x.pc) if len(groups) > 1 else groups[0]
            headroom = min(limits[lane] - used
                           for lane, used in zip(g.lanes, g.used_i))
            if headroom <= 0:
                exhausted = [j for j, lane in enumerate(g.lanes)
                             if limits[lane] - g.used_i[j] <= 0]
                rest = [j for j in range(len(g.lanes)) if j not in
                        set(exhausted)]
                lg = self._partition(g, exhausted, g.pc)
                if retired is not None:
                    retired.append((lg, False))
                else:
                    for j in range(len(lg.lanes)):
                        outcomes[lg.lanes[j]] = self._sync_lane(
                            lg, j, StopReason.LIMIT, False)
                idx = groups.index(g)
                if rest:
                    groups[idx] = self._partition(g, rest, g.pc,
                                                  g.since_split)
                else:
                    del groups[idx]
                continue
            joins = self._joins if len(groups) > 1 else None
            sig, payload, steps, dcyc, reads, writes = \
                self._step_group(g, headroom, joins)
            if steps:
                ui, uc, ur, uw = g.used_i, g.used_c, g.used_r, g.used_w
                for j in range(len(g.lanes)):
                    ui[j] += steps
                    uc[j] += dcyc
                    ur[j] += reads
                    uw[j] += writes
                g.since_split += steps
            if sig == _SIG_HALT:
                if retired is not None:
                    retired.append((g, True))
                else:
                    for j in range(len(g.lanes)):
                        outcomes[g.lanes[j]] = self._sync_lane(
                            g, j, StopReason.HALTED, True)
                groups.remove(g)
            elif sig == _SIG_SPLIT:
                jump_pos, fall_pos, target, fall = payload
                stats["splits"] += 1
                idx = groups.index(g)
                groups[idx] = self._partition(g, jump_pos, target)
                groups.append(self._partition(g, fall_pos, fall))
            elif sig == _SIG_PEEL:
                if payload is None:
                    self._peel_group(g, outcomes, limits)
                    groups.remove(g)
                else:
                    peel_set = set(payload)
                    rest = [j for j in range(len(g.lanes))
                            if j not in peel_set]
                    self._peel_group(self._partition(g, payload, g.pc),
                                     outcomes, limits)
                    idx = groups.index(g)
                    if rest:
                        groups[idx] = self._partition(g, rest, g.pc,
                                                      g.since_split)
                    else:
                        del groups[idx]
            # _SIG_BUDGET / _SIG_JOIN: state already folded; just loop

    # -- group surgery -------------------------------------------------------

    def _partition(self, g: _Group, positions, pc: int,
                   since_split: int = 0) -> _Group:
        """A new group holding *positions* of *g* (ascending), at *pc*."""
        return _Group(
            [g.lanes[j] for j in positions], pc,
            [[col[j] for j in positions] for col in g.stack],
            [[col[j] for j in positions] for col in g.ram],
            [g.used_i[j] for j in positions],
            [g.used_c[j] for j in positions],
            [g.used_r[j] for j in positions],
            [g.used_w[j] for j in positions],
            since_split)

    def _merge(self, a: _Group, b: _Group) -> None:
        """Fold *b* into *a* (equal pc and stack depth), lanes re-sorted."""
        lanes = a.lanes + b.lanes
        order = sorted(range(len(lanes)), key=lanes.__getitem__)
        a.lanes = [lanes[i] for i in order]

        def comb(cols_a, cols_b):
            out = []
            for ca, cb in zip(cols_a, cols_b):
                full = ca + cb
                out.append([full[i] for i in order])
            return out

        a.stack = comb(a.stack, b.stack)
        a.ram = comb(a.ram, b.ram)
        full = a.used_i + b.used_i
        a.used_i = [full[i] for i in order]
        full = a.used_c + b.used_c
        a.used_c = [full[i] for i in order]
        full = a.used_r + b.used_r
        a.used_r = [full[i] for i in order]
        full = a.used_w + b.used_w
        a.used_w = [full[i] for i in order]
        a.since_split = 0

    # -- peel-off seam -------------------------------------------------------

    def _sync_lane(self, g: _Group, j: int, reason, halted: bool):
        """Write lane *j*'s column state back to its CPU, bit-exactly."""
        lane = g.lanes[j]
        cpu = self.cpus[lane]
        mem = cpu.memory
        cpu.pc = g.pc
        cpu.stack[:] = [col[j] for col in g.stack]
        cpu.cycles += g.used_c[j]
        cpu.instructions += g.used_i[j]
        cpu.halted = halted
        mem.cells[:] = [col[j] for col in g.ram]
        mem.reads += g.used_r[j]
        mem.writes += g.used_w[j]
        if reason is None:
            return None
        return LaneOutcome(RunResult(reason, g.used_i[j], g.used_c[j]),
                           None, False)

    def _peel_group(self, g: _Group, outcomes, limits) -> None:
        self.stats["peels"] += len(g.lanes)
        for j, lane in enumerate(g.lanes):
            self._sync_lane(g, j, None, False)
            outcomes[lane] = self._finish_scalar(
                lane, g.used_i[j], g.used_c[j], limits[lane])

    def _finish_scalar(self, lane: int, used_i: int, used_c: int,
                       limit: int) -> LaneOutcome:
        """Resume one lane on its own ``Cpu`` — the serial code path
        itself re-executes the instruction that forced the peel, so
        fault pcs, partial pops and counters are serial by construction.
        """
        remaining = limit - used_i
        if remaining <= 0:
            return LaneOutcome(
                RunResult(StopReason.LIMIT, used_i, used_c), None, True)
        cpu = self.cpus[lane]
        try:
            res = cpu.run(max_instructions=remaining,
                          break_on_breakpoints=self._bob)
        except TargetFault as fault:
            return LaneOutcome(None, fault, True)
        return LaneOutcome(
            RunResult(res.reason, used_i + res.instructions,
                      used_c + res.cycles), None, True)

    # -- the lockstep hot loop ----------------------------------------------

    def _step_group(self, g: _Group, budget: int, joins):
        """Advance one group up to *budget* instructions in lockstep.

        Returns ``(sig, payload, steps, dcyc, reads, writes)`` — the
        aggregate deltas apply to every lane identically (lockstep means
        all lanes executed the same instructions). ``g.pc`` is left at
        the stop pc; for ``_SIG_PEEL`` that is *before* the troublesome
        instruction, so scalar resume re-executes it.
        """
        rows = self._rows
        ncode = self._ncode
        nram = self._nram
        depth = self._depth
        stack = g.stack
        ram = g.ram
        lanes = g.lanes
        nl = len(lanes)
        append = stack.append
        pop = stack.pop
        handlers = self._handlers
        any_handler = self._any_handler
        emit_logs = self._emit_logs
        sdiv_ = sdiv
        smod_ = smod
        int_max = INT_MAX
        int_min = INT_MIN
        ram_base = RAM_BASE
        LOAD = OP_LOAD; PUSH = OP_PUSH; STORE = OP_STORE; ADD = OP_ADD
        EQ = OP_EQ; NE = OP_NE; LT = OP_LT; LE = OP_LE; GT = OP_GT; GE = OP_GE
        JMP = OP_JMP; JZ = OP_JZ; JNZ = OP_JNZ; SUB = OP_SUB; MUL = OP_MUL
        MIN = OP_MIN; MAX = OP_MAX; AND = OP_AND; OR = OP_OR; NOT = OP_NOT
        NEG = OP_NEG; DUP = OP_DUP; MOD = OP_MOD; DIV = OP_DIV
        SWAP = OP_SWAP; POPC = OP_POP; LDI = OP_LDI; STI = OP_STI
        EMIT = OP_EMIT; HALT = OP_HALT

        pc = g.pc
        steps = 0
        dcyc = 0
        reads = 0
        writes = 0
        sig = _SIG_BUDGET
        payload = None
        while steps < budget:
            if joins is not None and steps and joins[pc]:
                sig = _SIG_JOIN
                break
            if pc >= ncode:        # runaway pc: scalar raises the fault
                sig = _SIG_PEEL
                break
            op, arg, cst = rows[pc]
            if op == LOAD:
                index = arg - ram_base
                if not 0 <= index < nram or len(stack) >= depth:
                    sig = _SIG_PEEL
                    break
                append(ram[index])          # ref-push: O(1) per group
                reads += 1
                pc += 1
            elif op == PUSH:
                if len(stack) >= depth:
                    sig = _SIG_PEEL
                    break
                append([arg] * nl)
                pc += 1
            elif op == STORE:
                index = arg - ram_base
                if not 0 <= index < nram or not stack:
                    sig = _SIG_PEEL
                    break
                ram[index] = pop()          # ref-assign: O(1) per group
                writes += 1
                pc += 1
            elif op == ADD:
                if len(stack) < 2:
                    sig = _SIG_PEEL
                    break
                b = pop(); a = pop()
                append([r if int_min <= (r := x + y) <= int_max
                        else ((r + 0x80000000) & 0xFFFFFFFF) - 0x80000000
                        for x, y in zip(a, b)])
                pc += 1
            elif op == EQ:
                if len(stack) < 2:
                    sig = _SIG_PEEL
                    break
                b = pop(); a = pop()
                append([1 if x == y else 0 for x, y in zip(a, b)])
                pc += 1
            elif op == NE:
                if len(stack) < 2:
                    sig = _SIG_PEEL
                    break
                b = pop(); a = pop()
                append([1 if x != y else 0 for x, y in zip(a, b)])
                pc += 1
            elif op == LT:
                if len(stack) < 2:
                    sig = _SIG_PEEL
                    break
                b = pop(); a = pop()
                append([1 if x < y else 0 for x, y in zip(a, b)])
                pc += 1
            elif op == LE:
                if len(stack) < 2:
                    sig = _SIG_PEEL
                    break
                b = pop(); a = pop()
                append([1 if x <= y else 0 for x, y in zip(a, b)])
                pc += 1
            elif op == GT:
                if len(stack) < 2:
                    sig = _SIG_PEEL
                    break
                b = pop(); a = pop()
                append([1 if x > y else 0 for x, y in zip(a, b)])
                pc += 1
            elif op == GE:
                if len(stack) < 2:
                    sig = _SIG_PEEL
                    break
                b = pop(); a = pop()
                append([1 if x >= y else 0 for x, y in zip(a, b)])
                pc += 1
            elif op == JMP:
                if not 0 <= arg < ncode:
                    sig = _SIG_PEEL
                    break
                pc = arg
            elif op == JZ or op == JNZ:
                if not stack or not 0 <= arg < ncode:
                    sig = _SIG_PEEL
                    break
                col = stack[-1]
                z = col.count(0)            # C-speed uniformity test
                if z == nl:                 # all zero
                    pop()
                    pc = arg if op == JZ else pc + 1
                elif z == 0:                # all non-zero
                    pop()
                    pc = pc + 1 if op == JZ else arg
                else:                       # mixed: split the group
                    col = pop()
                    steps += 1
                    dcyc += cst
                    if op == JZ:
                        jump_pos = [j for j, v in enumerate(col) if v == 0]
                        fall_pos = [j for j, v in enumerate(col) if v != 0]
                    else:
                        jump_pos = [j for j, v in enumerate(col) if v != 0]
                        fall_pos = [j for j, v in enumerate(col) if v == 0]
                    sig = _SIG_SPLIT
                    payload = (jump_pos, fall_pos, arg, pc + 1)
                    break
            elif op == SUB:
                if len(stack) < 2:
                    sig = _SIG_PEEL
                    break
                b = pop(); a = pop()
                append([r if int_min <= (r := x - y) <= int_max
                        else ((r + 0x80000000) & 0xFFFFFFFF) - 0x80000000
                        for x, y in zip(a, b)])
                pc += 1
            elif op == MUL:
                if len(stack) < 2:
                    sig = _SIG_PEEL
                    break
                b = pop(); a = pop()
                append([r if int_min <= (r := x * y) <= int_max
                        else ((r + 0x80000000) & 0xFFFFFFFF) - 0x80000000
                        for x, y in zip(a, b)])
                pc += 1
            elif op == MIN:
                if len(stack) < 2:
                    sig = _SIG_PEEL
                    break
                b = pop(); a = pop()
                append([x if x <= y else y for x, y in zip(a, b)])
                pc += 1
            elif op == MAX:
                if len(stack) < 2:
                    sig = _SIG_PEEL
                    break
                b = pop(); a = pop()
                append([x if x >= y else y for x, y in zip(a, b)])
                pc += 1
            elif op == AND:
                if len(stack) < 2:
                    sig = _SIG_PEEL
                    break
                b = pop(); a = pop()
                append([1 if (x != 0 and y != 0) else 0
                        for x, y in zip(a, b)])
                pc += 1
            elif op == OR:
                if len(stack) < 2:
                    sig = _SIG_PEEL
                    break
                b = pop(); a = pop()
                append([1 if (x != 0 or y != 0) else 0
                        for x, y in zip(a, b)])
                pc += 1
            elif op == NOT:
                if not stack:
                    sig = _SIG_PEEL
                    break
                append([0 if v != 0 else 1 for v in pop()])
                pc += 1
            elif op == NEG:
                if not stack:
                    sig = _SIG_PEEL
                    break
                append([int_min if v == int_min else -v for v in pop()])
                pc += 1
            elif op == DUP:
                if not stack or len(stack) >= depth:
                    sig = _SIG_PEEL
                    break
                append(stack[-1])           # shared ref is safe: columns
                pc += 1                     # are never mutated in place
            elif op == MOD or op == DIV:
                if len(stack) < 2:
                    sig = _SIG_PEEL
                    break
                col = stack[-1]
                if 0 in col:                # zero divisors trap scalar
                    sig = _SIG_PEEL
                    payload = [j for j, v in enumerate(col) if v == 0]
                    break
                b = pop(); a = pop()
                if op == MOD:
                    append([smod_(x, y) for x, y in zip(a, b)])
                else:
                    append([sdiv_(x, y) for x, y in zip(a, b)])
                pc += 1
            elif op == SWAP:
                if len(stack) < 2:
                    sig = _SIG_PEEL
                    break
                stack[-1], stack[-2] = stack[-2], stack[-1]
                pc += 1
            elif op == POPC:
                if not stack:
                    sig = _SIG_PEEL
                    break
                pop()
                pc += 1
            elif op == LDI:
                if not stack:
                    sig = _SIG_PEEL
                    break
                col = stack[-1]
                bad = [j for j, a in enumerate(col)
                       if not 0 <= a - ram_base < nram]
                if bad:
                    sig = _SIG_PEEL
                    payload = bad
                    break
                col = pop()
                append([ram[a - ram_base][j] for j, a in enumerate(col)])
                reads += 1
                pc += 1
            elif op == STI:
                if len(stack) < 2:
                    sig = _SIG_PEEL
                    break
                col = stack[-1]
                bad = [j for j, a in enumerate(col)
                       if not 0 <= a - ram_base < nram]
                if bad:
                    sig = _SIG_PEEL
                    payload = bad
                    break
                col = pop()
                vcol = pop()
                touched: dict = {}      # copy-on-write per touched column
                for j, a in enumerate(col):
                    index = a - ram_base
                    dest = touched.get(index)
                    if dest is None:
                        dest = list(ram[index])
                        ram[index] = dest
                        touched[index] = dest
                    dest[j] = vcol[j]
                writes += 1
                pc += 1
            elif op == EMIT:
                if len(stack) < 2:
                    sig = _SIG_PEEL
                    break
                if any_handler:
                    hot = [j for j, ln in enumerate(lanes) if handlers[ln]]
                    if hot:             # handlers need scalar ordering
                        sig = _SIG_PEEL
                        payload = hot
                        break
                vcol = pop()
                pcol = pop()
                for j, lane in enumerate(lanes):
                    emit_logs[lane].append((arg, pcol[j], vcol[j]))
                pc += 1
            else:  # HALT — uniform: the whole group stops together
                steps += 1
                dcyc += cst
                pc += 1
                sig = _SIG_HALT
                break
            steps += 1
            dcyc += cst
        g.pc = pc
        return sig, payload, steps, dcyc, reads, writes
