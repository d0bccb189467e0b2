"""Functional memory image.

The original MicroLib validated cache models by *executing* programs — "the
cache not only contains the addresses but the actual values of the data"
(Section 2.2) — and two mechanisms genuinely need values: the Frequent Value
Cache compresses lines whose words come from a small recurring value set,
and Content-Directed Prefetching scans refilled lines for words that look
like pointers.

:class:`MemoryImage` is a sparse word-addressable memory (8-byte words).
Workload generators populate it with arrays and linked data structures;
the simulated machine's stores update it; mechanisms read lines from it.
It also tracks the heap bounds so CDP's "does this word look like an
address?" test works exactly as in the original: value within the data
region and word-aligned.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

from repro.kernel.state import restore_fields, snapshot_fields

WORD_BYTES = 8


class MemoryImage:
    """Sparse functional memory with pointer-region tracking."""

    #: ``_pending`` is custom-handled: the base image can be tens of
    #: thousands of words and is reproducible from the workload store, so
    #: the snapshot records only whether it was materialised plus the
    #: overlay ``_words`` (writes made since load).
    SNAPSHOT_FIELDS = ("_words", "heap_lo", "heap_hi", "reads", "writes")
    SNAPSHOT_EXEMPT = ("_pending",)

    def __init__(self) -> None:
        self._words: Dict[int, int] = {}
        #: Optional lazily-thawed base image: a pair of parallel address /
        #: value sequences (set by the on-disk workload store).  Reads and
        #: size queries materialise it into ``_words`` on first use; a run
        #: that only *writes* (most timing runs — values are only consumed
        #: by value-based mechanisms like FVC and CDP) never pays the cost
        #: of building a 60k-entry dict.
        self._pending = None
        self.heap_lo: int = 0
        self.heap_hi: int = 0
        self.reads = 0
        self.writes = 0

    def _materialize(self) -> None:
        """Thaw the pending base image under any overlay writes."""
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        base = dict(zip(*pending))
        base.update(self._words)  # stores made since load win, as they must
        self._words = base

    # -- region management -------------------------------------------------------

    def note_heap(self, lo: int, hi: int) -> None:
        """Extend the recorded heap (pointer-candidate) address range."""
        if self.heap_hi == 0:
            self.heap_lo, self.heap_hi = lo, hi
        else:
            self.heap_lo = min(self.heap_lo, lo)
            self.heap_hi = max(self.heap_hi, hi)

    def looks_like_pointer(self, value: int) -> bool:
        """CDP's candidate test: aligned and within the data region."""
        if value <= 0 or value % WORD_BYTES:
            return False
        return self.heap_lo <= value < self.heap_hi

    # -- word access ------------------------------------------------------------

    @staticmethod
    def _word_addr(addr: int) -> int:
        return addr & ~(WORD_BYTES - 1)

    @staticmethod
    def _uninitialised(word_addr: int) -> int:
        """Deterministic garbage for never-written words.

        Real memory is not zero-filled; returning 0 everywhere would make
        every untouched line look perfectly value-compressible to the FVC.
        The value is odd, so it can never satisfy the aligned-pointer test.
        """
        return ((word_addr * 2654435761) & 0xFFFFFFFF) | 1

    def write(self, addr: int, value: int) -> None:
        self._words[self._word_addr(addr)] = value
        self.writes += 1

    def write_words(self, base: int, values: Sequence[int]) -> None:
        """``write`` each value to consecutive words from ``base``, batched."""
        base = self._word_addr(base)
        self._words.update(
            zip(range(base, base + len(values) * WORD_BYTES, WORD_BYTES), values)
        )
        self.writes += len(values)

    def words(self) -> Dict[int, int]:
        """The live word dict, for bulk writers.

        A caller storing into it keys by word address and adds its store
        count to ``writes``, exactly as :meth:`write` would have.
        """
        if self._pending is not None:
            self._materialize()
        return self._words

    def read(self, addr: int) -> int:
        if self._pending is not None:
            self._materialize()
        self.reads += 1
        word_addr = self._word_addr(addr)
        value = self._words.get(word_addr)
        if value is None:
            return self._uninitialised(word_addr)
        return value

    def read_line(self, line_addr: int, line_bytes: int) -> Tuple[int, ...]:
        """All words of the aligned line starting at ``line_addr``."""
        if self._pending is not None:
            self._materialize()
        words = self._words
        base = self._word_addr(line_addr)
        self.reads += 1
        out = []
        for offset in range(0, line_bytes, WORD_BYTES):
            word_addr = base + offset
            value = words.get(word_addr)
            if value is None:
                value = self._uninitialised(word_addr)
            out.append(value)
        return tuple(out)

    # -- checkpointing ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        state = snapshot_fields(self)
        state["materialized"] = self._pending is None
        return state

    def restore(self, state: Dict[str, Any]) -> None:
        """Restore into an image freshly rebuilt from the workload store.

        The base image is deterministic per spec, so the restored machine
        already carries an identical ``_pending``; the snapshot only has
        to replay the overlay and, when the checkpointed run had already
        thawed the base into ``_words``, drop the fresh ``_pending`` so a
        later read does not double-apply it.
        """
        state = dict(state)
        if state.pop("materialized"):
            self._pending = None
        restore_fields(self, state)

    def __len__(self) -> int:
        if self._pending is not None:
            self._materialize()
        return len(self._words)

    def __contains__(self, addr: int) -> bool:
        if self._pending is not None:
            self._materialize()
        return self._word_addr(addr) in self._words
