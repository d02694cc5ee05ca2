"""Cohort execution: N identical-firmware boards in SoA lockstep.

:class:`BoardCohort` holds N :class:`~repro.target.board.Board`\\ s
flashed with **one** :class:`~repro.target.firmware.FirmwareImage` and
driven by a :class:`~repro.target.batch.BatchCpu`. Per-lane data (seeds,
inputs) differs, the decoded program is shared, and one interpreter
dispatch advances every board. Per-lane seed data comes from
:func:`repro.util.seeds.derive_seed`, so a cohort's lane inputs are as
deterministic as a campaign's job seeds.

Cohorts pay off on workloads that sweep *data* rather than firmware
(seed sweeps, differential control-vs-N-faulty-input oracles): there
:class:`BoardCohort` turns N interpreter loops into one.
``benchmarks/perf_batch.py`` scores exactly that workload.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import FleetError
from repro.target.batch import BatchCpu, LaneOutcome
from repro.target.board import Board
from repro.target.firmware import FirmwareImage
from repro.util.intmath import wrap32
from repro.util.seeds import derive_seed

__all__ = ["BoardCohort"]


class BoardCohort:
    """N boards, one firmware, executed in SoA lockstep.

    Boards are real :class:`~repro.target.board.Board` instances — every
    backdoor (``DebugPort``, ``symbol_value``, pokes) works unchanged,
    and any lane can be run individually between cohort runs because
    lockstep execution writes complete state back after every call.
    RAM defaults to exactly the firmware's data footprint: column
    absorb/write-back cost is proportional to RAM words, and a cohort
    never needs the 4096-word default plane.
    """

    def __init__(self, firmware: FirmwareImage, lanes: int,
                 clock_hz: int = 8_000_000,
                 ram_words: Optional[int] = None,
                 stack_depth: int = 128,
                 reconverge_window: int = 4096,
                 min_lanes: int = 2) -> None:
        if lanes < 1:
            raise FleetError(f"cohort needs at least one lane, got {lanes}")
        if ram_words is None:
            ram_words = max(1, len(firmware.symbols))
        self.firmware = firmware
        self.boards: List[Board] = []
        for _ in range(lanes):
            board = Board(clock_hz=clock_hz, ram_words=ram_words,
                          stack_depth=stack_depth)
            board.load_firmware(firmware)
            self.boards.append(board)
        self.batch = BatchCpu([b.cpu for b in self.boards],
                              reconverge_window=reconverge_window,
                              min_lanes=min_lanes)

    @property
    def lanes(self) -> int:
        return len(self.boards)

    # -- per-lane data -------------------------------------------------------

    def poke_symbol(self, name: str, values: Sequence[int]) -> None:
        """Backdoor-write one value per lane into firmware symbol *name*."""
        if len(values) != len(self.boards):
            raise FleetError(f"{len(values)} values for "
                             f"{len(self.boards)} lanes")
        addr = self.firmware.symbols.addr_of(name)
        for board, value in zip(self.boards, values):
            board.memory.poke(addr, wrap32(value))

    def seed_symbol(self, name: str, master_seed: int,
                    span: Optional[int] = None) -> List[int]:
        """Derive one deterministic value per lane and poke it into *name*.

        Values come from ``derive_seed(master_seed, "cohort", name,
        lane)`` — stable across processes and Python versions, exactly
        like campaign job seeds — optionally reduced modulo *span*.
        Returns the per-lane values for assertions and logs.
        """
        values = [derive_seed(master_seed, "cohort", name, lane)
                  for lane in range(len(self.boards))]
        if span is not None:
            values = [v % span for v in values]
        self.poke_symbol(name, values)
        return values

    # -- lockstep execution --------------------------------------------------

    def run_task(self, task: str, max_instructions: int = 1_000_000,
                 limits: Optional[Sequence[int]] = None
                 ) -> List[LaneOutcome]:
        """Lockstep analogue of ``Board.run_task`` on every lane.

        Faults come back as ``LaneOutcome.fault`` instead of raising —
        one lane's divide-by-zero must not abort its cohort-mates.
        """
        entry = self.firmware.entry_of(task)
        return self.batch.run_task(entry, max_instructions, limits)

    def run_jobs(self, task: str, count: int,
                 max_instructions: int = 1_000_000
                 ) -> List[List[LaneOutcome]]:
        """Run *count* sequential activations of *task* on every lane."""
        entry = self.firmware.entry_of(task)
        return self.batch.run_jobs(entry, count, max_instructions)
