"""Mixed-radix arithmetic: scale tables, digits and the linear index.

A generating sequence m = (m_0, m_1, ...) of integers >= 2, truncated at
depth N, induces the scale table M_0 = 1, M_{k+1} = m_k * M_k.  A point of
the depth-N group is a digit vector x = (x_0, ..., x_{N-1}) with
0 <= x_k < m_k, and vlab names it by its linear index i = sum_j x_j M_j,
so digit 0 varies fastest.  Natural numbers n < M_N decompose the same
way.  The rank-n cylinder through x fixes x_0 ... x_{n-1}: it is the index
set {a + t*M_n : 0 <= t < M_N / M_n} for its anchor a = i mod M_n, and
carries Haar measure 1/M_n.

Everything downstream (step functions, characters, transforms) works on
linear indices.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import (
    CapacityExceeded,
    ConfigError,
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
    """Validate a generating sequence and compute its scale table.

    Scales are exact Python integers; exceeding :data:`CAPACITY` raises
    CapacityExceeded rather than wrapping around.  Only the first ``depth``
    radices are retained.
    """
    rads = tuple(int(r) for r in radices)
    if depth is None:
        depth = len(rads)
    if depth < 0 or depth > len(rads):
        raise ValueError(f"depth {depth} outside 0..{len(rads)}")
    if any(r < 2 for r in rads):
        raise RadixTooSmall(f"all radices must be >= 2, got {rads}")
    rads = rads[:depth]
    scales = [1]
    for r in rads:
        scales.append(scales[-1] * r)
        if scales[-1] > CAPACITY:
            raise CapacityExceeded(f"M_{len(scales) - 1} = {scales[-1]} exceeds capacity {CAPACITY}")
    return RadixSequence(radices=rads, depth=depth, scales=tuple(scales))


def truncate(seq: RadixSequence, depth: int) -> RadixSequence:
    """Restriction of ``seq`` to its first ``depth`` coordinates."""
    if depth < 0 or depth > seq.depth:
        raise RankOutOfRange(f"depth {depth} outside 0..{seq.depth}")
    return RadixSequence(radices=seq.radices[:depth], depth=depth, scales=seq.scales[: depth + 1])


def parse_radices(text: str) -> tuple[int, ...]:
    """Parse a comma-separated radix string such as ``"2,3,2,4"``."""
    parts = [s.strip() for s in text.split(",") if s.strip()]
    if not parts:
        raise ConfigError(f"empty radix list: {text!r}")
    try:
        return tuple(int(s) for s in parts)
    except ValueError as exc:
        raise ConfigError(f"bad radix list {text!r}: {exc}") from None


def cycle_radices(pattern, depth: int) -> tuple[int, ...]:
    """Repeat a radix pattern cyclically until it has ``depth`` entries."""
    pat = tuple(int(r) for r in pattern)
    if not pat:
        raise ConfigError("empty radix pattern")
    if depth < 0:
        raise ValueError(f"negative depth {depth}")
    return tuple(pat[i % len(pat)] for i in range(depth))


def decompose(n: int, seq: RadixSequence) -> tuple[int, ...]:
    """Digits (n_0, ..., n_{N-1}) of n in the generalized number system of ``seq``."""
    n = int(n)
    if n < 0 or n >= seq.size:
        raise IndexOutOfRange(f"index {n} outside 0..{seq.size - 1}")
    digits = []
    for r in seq.radices:
        digits.append(n % r)
        n //= r
    return tuple(digits)

