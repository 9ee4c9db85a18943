"""Mixed-radix arithmetic, group points, cylinders and Haar measure.

A generating sequence m = (m_0, m_1, ...) of integers >= 2, truncated at
depth N, induces the scale table M_0 = 1, M_{k+1} = m_k * M_k.  A point of
the depth-N group is a digit vector x = (x_0, ..., x_{N-1}) with
0 <= x_k < m_k, and its linear index is i = sum_j x_j M_j, so digit 0
varies fastest.  Natural numbers n < M_N decompose the same way.  The
rank-n cylinder through x fixes x_0 ... x_{n-1} and carries Haar measure
exactly 1/M_n.

Everything downstream (step functions, characters, transforms) relies on
this linear indexing convention; in particular a rank-n cylinder is the
index set {a + t*M_n : t} for its anchor index a < M_n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    CapacityExceeded,
    ConfigError,
    DigitOutOfRange,
    IndexOutOfRange,
    RadixTooSmall,
    RankOutOfRange,
)

# Largest scale M_k that build_radix accepts; read at call time.
CAPACITY = 2**31


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


@dataclass(frozen=True)
class MixedRadixIndex:
    """A natural number n together with its digits and order |n|.

    ``order`` is the largest j with n_j != 0, and -1 for n = 0 (zero has no
    nonzero digit; callers must branch on the sentinel before using it).
    """

    value: int
    digits: tuple[int, ...]
    order: int


def decompose(n: int, seq: RadixSequence) -> MixedRadixIndex:
    """Digits of n in the generalized number system of ``seq``."""
    n = int(n)
    if n < 0 or n >= seq.size:
        raise IndexOutOfRange(f"index {n} outside 0..{seq.size - 1}")
    digits = []
    rem = n
    for r in seq.radices:
        digits.append(rem % r)
        rem //= r
    order = max((j for j, d in enumerate(digits) if d != 0), default=-1)
    return MixedRadixIndex(value=n, digits=tuple(digits), order=order)


def compose(digits, seq: RadixSequence) -> int:
    """Inverse of :func:`decompose`; accepts up to ``depth`` digits."""
    digs = tuple(int(d) for d in digits)
    if len(digs) > seq.depth:
        raise DigitOutOfRange(f"{len(digs)} digits but depth is {seq.depth}")
    n = 0
    for j, d in enumerate(digs):
        if d < 0 or d >= seq.radices[j]:
            raise DigitOutOfRange(f"digit {d} at position {j} outside 0..{seq.radices[j] - 1}")
        n += d * seq.scales[j]
    return n


@dataclass(frozen=True)
class GroupPoint:
    """A point of the truncated group: one digit per retained coordinate."""

    digits: tuple[int, ...]
    radix_seq: RadixSequence

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(int(d) for d in self.digits))
        if len(self.digits) != self.radix_seq.depth:
            raise DigitOutOfRange(
                f"point has {len(self.digits)} digits, depth is {self.radix_seq.depth}"
            )
        for j, d in enumerate(self.digits):
            if d < 0 or d >= self.radix_seq.radices[j]:
                raise DigitOutOfRange(
                    f"digit {d} at position {j} outside 0..{self.radix_seq.radices[j] - 1}"
                )

    @property
    def index(self) -> int:
        return compose(self.digits, self.radix_seq)


@dataclass(frozen=True)
class Cylinder:
    """Rank-n cylinder: all points sharing the first n digits of its anchor."""

    rank: int
    anchor: tuple[int, ...]
    measure: Fraction
    radix_seq: RadixSequence

    @property
    def anchor_index(self) -> int:
        """Linear index of the anchor inside 0..M_rank-1."""
        return compose(self.anchor, truncate(self.radix_seq, self.rank)) if self.rank else 0

    def member_indices(self) -> np.ndarray:
        """Linear indices of all rank-N cylinders contained in this one."""
        m_rank = self.radix_seq.scales[self.rank]
        count = self.radix_seq.size // m_rank
        return self.anchor_index + m_rank * np.arange(count)


def cylinder_of(point: GroupPoint, rank: int) -> Cylinder:
    """The rank-``rank`` cylinder through ``point``; measure exactly 1/M_rank."""
    seq = point.radix_seq
    if rank < 0 or rank > seq.depth:
        raise RankOutOfRange(f"rank {rank} outside 0..{seq.depth}")
    return Cylinder(
        rank=rank,
        anchor=point.digits[:rank],
        measure=Fraction(1, seq.scales[rank]),
        radix_seq=seq,
    )


@functools.lru_cache(maxsize=16)
def digit_table(seq: RadixSequence) -> np.ndarray:
    """(M_N, N) float64 array (digits are exact) whose row i holds the digits of i; read-only."""
    idx = np.arange(seq.size, dtype=np.int64)
    table = np.empty((seq.size, seq.depth), dtype=np.float64)
    for j in range(seq.depth):
        table[:, j] = (idx // seq.scales[j]) % seq.radices[j]
    table.flags.writeable = False
    return table
