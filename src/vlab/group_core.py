"""Mixed-radix arithmetic: scale tables, digits and the linear index.

A generating sequence m = (m_0, m_1, ...) of integers >= 2, truncated at
depth N, induces the scale table M_0 = 1, M_{k+1} = m_k * M_k.  A point of
the depth-N group is a digit vector x = (x_0, ..., x_{N-1}) with
0 <= x_k < m_k, and vlab names it by its linear index i = sum_j x_j M_j,
so digit 0 varies fastest.  Natural numbers n < M_N decompose the same
way.  The rank-n cylinder through x fixes x_0 ... x_{n-1}: it is the index
set {a + t*M_n : 0 <= t < M_N / M_n} for its anchor a = i mod M_n, and
carries Haar measure 1/M_n.

A sequence is given as a finite radix pattern repeated cyclically: the
pattern (2, 3) at depth 5 is (2, 3, 2, 3, 2), in :func:`build_radix`.

Everything downstream (step functions, characters, transforms) works on
linear indices.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import (
    CapacityExceeded,
    IndexOutOfRange,
    RadixTooSmall,
    RankOutOfRange,
)

# Largest scale M_k that build_radix accepts; read at call time.
CAPACITY = 2**31


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def check_memory(need: int, what: str) -> None:
    """Refuse ``what``, which needs ``need`` bytes, if that exceeds physical memory."""
    budget = _physical_memory()
    if need > budget:
        raise CapacityExceeded(f"{what} needs {need} bytes, physical memory is {budget}")


def check_range(value: int, lo: int, hi: int, what: str, error=IndexOutOfRange) -> None:
    """Refuse ``value`` outside lo..hi, both ends included, with ``error``."""
    if value < lo or value > hi:
        raise error(f"{what} {value} outside {lo}..{hi}")


@dataclass(frozen=True)
class RadixSequence:
    """Generating radices retained up to a fixed depth, with exact scales.

    ``scales[k]`` is M_k; ``scales[depth]`` = M_N is the number of rank-N
    cylinders and the length of every value array on this group.
    """

    radices: tuple[int, ...]
    depth: int
    scales: tuple[int, ...]

    @property
    def size(self) -> int:
        """M_N, the number of rank-N cylinders."""
        return self.scales[self.depth]

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.radices)


def build_radix(radices, depth: int | None = None) -> RadixSequence:
    """The depth-``depth`` truncation of the group the pattern ``radices`` generates.

    The pattern, of radices >= 2, is repeated and cut at ``depth`` terms
    (by default its length).  Scales are exact Python integers; exceeding
    :data:`CAPACITY` raises CapacityExceeded rather than wrapping around.
    """
    pattern = tuple(int(r) for r in radices)
    if depth is None:
        depth = len(pattern)
    if depth < 0 or (depth > 0 and not pattern):
        raise ValueError(f"cannot cut the radix pattern {pattern} at depth {depth}")
    if any(r < 2 for r in pattern):
        raise RadixTooSmall(f"all radices must be >= 2, got {pattern}")
    rads, scales = [], [1]
    for k in range(depth):
        rads.append(pattern[k % len(pattern)])
        scales.append(scales[-1] * rads[-1])
        if scales[-1] > CAPACITY:
            raise CapacityExceeded(f"M_{k + 1} = {scales[-1]} exceeds capacity {CAPACITY}")
    return RadixSequence(radices=tuple(rads), depth=depth, scales=tuple(scales))


def truncate(seq: RadixSequence, depth: int) -> RadixSequence:
    """Restriction of ``seq`` to its first ``depth`` coordinates."""
    check_range(depth, 0, seq.depth, "depth", RankOutOfRange)
    return RadixSequence(radices=seq.radices[:depth], depth=depth, scales=seq.scales[: depth + 1])


def decompose(n: int, seq: RadixSequence) -> tuple[int, ...]:
    """Digits (n_0, ..., n_{N-1}) of n in the generalized number system of ``seq``."""
    n = int(n)
    check_range(n, 0, seq.size - 1, "index")
    digits = []
    for r in seq.radices:
        digits.append(n % r)
        n //= r
    return tuple(digits)

