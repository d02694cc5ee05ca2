"""The target's data memory: one flat word-addressed RAM bank.

Two access planes with different accounting, mirroring real silicon:

* **Target plane** — :meth:`MemoryMap.read_word` / :meth:`write_word`: what
  the CPU (and anything pretending to be the CPU) uses. Counted in
  :attr:`reads` / :attr:`writes`, and a write to a *watched* address fires
  the optional write hook. Like the debug unit's data-watchpoint
  comparators, the address match is the memory's job: the hook is never
  called for an address outside :attr:`watched`.
* **Backdoor plane** — :meth:`peek` / :meth:`poke`: DMA-style access used
  by the JTAG debug port and the test harness. Never counted, never hooks —
  which is exactly why passive monitoring costs the target nothing.

The CPU's hot loop bypasses the method layer entirely and indexes
:attr:`cells` directly (with the same bounds/accounting semantics and the
same ``index in watched`` test inlined); the methods here are the
reference implementation of those semantics.
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, Iterable, Optional

from repro.errors import TargetFault

#: Base address of RAM in the target's address space (Cortex-M style SRAM).
RAM_BASE = 0x2000_0000

WriteHook = Callable[[int, int], None]


class MemoryMap:
    """Word-addressed RAM of ``words`` cells starting at :data:`RAM_BASE`."""

    __slots__ = ("cells", "reads", "writes", "write_hook", "watched",
                 "_init_image")

    def __init__(self, words: int = 4096) -> None:
        if words <= 0:
            raise TargetFault(f"RAM must have at least one word, got {words}")
        self.cells = [0] * words
        self.reads = 0
        self.writes = 0
        self.write_hook: Optional[WriteHook] = None
        #: cell indexes whose writes fire :attr:`write_hook` (empty: none)
        self.watched: Collection[int] = frozenset()
        self._init_image: Dict[int, int] = {}

    # -- geometry -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.cells)

    def contains(self, addr: int) -> bool:
        """Whether *addr* falls inside the RAM window."""
        return 0 <= addr - RAM_BASE < len(self.cells)

    def _index(self, addr: int) -> int:
        index = addr - RAM_BASE
        if 0 <= index < len(self.cells):
            return index
        raise TargetFault(f"memory access outside RAM: 0x{addr:08x}")

    # -- target plane (counted, hooked) ------------------------------------

    def read_word(self, addr: int) -> int:
        """A target-side read: counted."""
        value = self.cells[self._index(addr)]
        self.reads += 1
        return value

    def write_word(self, addr: int, value: int) -> None:
        """A target-side write: counted; fires the write hook if *addr*
        is watched."""
        index = self._index(addr)
        self.cells[index] = value
        self.writes += 1
        if index in self.watched:
            self.write_hook(addr, value)

    def set_write_hook(self, hook: Optional[WriteHook],
                       addrs: Optional[Iterable[int]] = None) -> None:
        """Install (or clear) the data-watchpoint hook for target writes.

        *addrs* are the watched addresses (the comparators); the default
        watches every RAM word. Clearing the hook clears the watch set.
        """
        self.write_hook = hook
        if hook is None:
            self.watched = frozenset()
        elif addrs is None:
            self.watched = range(len(self.cells))
        else:
            self.watched = frozenset(self._index(addr) for addr in addrs)

    # -- backdoor plane (debug port, harness) -------------------------------

    def peek(self, addr: int) -> int:
        """Debug read: not counted, invisible to the target."""
        return self.cells[self._index(addr)]

    def poke(self, addr: int, value: int) -> None:
        """Debug write: not counted, does not fire the write hook."""
        self.cells[self._index(addr)] = value

    # -- images and reset ---------------------------------------------------

    def load_init_image(self, image: Dict[int, int]) -> None:
        """Record the firmware's initialised-data image; :meth:`reset`
        applies it."""
        for addr in image:
            self._index(addr)  # validate before committing anything
        self._init_image = dict(image)

    def reset(self) -> None:
        """Zero all of RAM, reapply the init image, clear access counters."""
        self.cells[:] = [0] * len(self.cells)  # in place: keep identity
        for addr, value in self._init_image.items():
            self.cells[addr - RAM_BASE] = value
        self.reads = 0
        self.writes = 0
