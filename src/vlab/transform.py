"""Characters, analysis/synthesis transforms, Dirichlet kernels, partial sums.

The character with frequency n is psi_n(x) = prod_k r_k(x)^{n_k} where
r_k(x) = exp(2 pi i x_k / m_k), so psi_n(x) = exp(2 pi i sum_j n_j x_j / m_j)
factorizes over coordinates.  Analysis coefficients are integrals
c_k = int f conj(psi_k) dmu; at resolution N these are exact finite sums
over the M_N cylinders.

Characters are built as arrays in one place: ``character_rows`` gives a
block of rows psi_lo .. psi_{hi-1} from the digit table, at most ROW_BLOCK
entries at a time.  The naive oracle conjugates its blocks and the
partial-sum stacks of ``means`` scale theirs by the coefficients.

Two transform paths are provided.  ``forward_naive`` applies the full
character matrix (M_N^2 multiply-adds), one block of rows at a time, and
serves as the oracle; ``forward_naive_many`` shares each block across a
batch of functions.
``forward_fast`` runs one small DFT kernel along each digit axis, costing
M_N * sum_k m_k multiply-adds; radices are small and bounded, so no
in-axis FFT is needed.  Both count their work into an optional OpCount.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, RankOutOfRange, ResolutionMismatch
from .group_core import GroupPoint, RadixSequence, decompose, digit_table
from .step_functions import StepFunction, read_value_file, write_value_file


@dataclass
class OpCount:
    """Instrumentation counter for complex multiply-adds."""

    madds: int = 0

    def add(self, n: int) -> None:
        self.madds += int(n)


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Analysis coefficients c_k = int f conj(psi_k) dmu, k < M_N."""

    radix_seq: RadixSequence
    coeffs: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.coeffs, dtype=np.complex128).reshape(-1).copy()
        if vals.shape[0] != self.radix_seq.size:
            raise ResolutionMismatch(
                f"{vals.shape[0]} coefficients for a group of size {self.radix_seq.size}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("coefficients must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "coeffs", vals)


def vilenkin_char(n: int, x: GroupPoint) -> complex:
    """psi_n(x) = prod_k r_k(x)^{n_k}, evaluated via one accumulated phase."""
    seq = x.radix_seq
    idx = decompose(n, seq)  # raises IndexOutOfRange for n >= M_N
    phase = sum(nj * xj / mj for nj, xj, mj in zip(idx.digits, x.digits, seq.radices))
    return cmath.exp(2j * cmath.pi * phase)


# Entries of psi_k(x) built at once: 2^16 complex values (1 MiB), rounded
# down to whole rows k, and one row when M_N is larger.  Bounds the naive
# oracle and the partial-sum stacks alike.
ROW_BLOCK = 1 << 16


def character_rows(seq: RadixSequence, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, M_N) array whose row k - lo holds psi_k, lo <= k < hi.

    The phase sum_j k_j x_j / m_j is symmetric in (k, x), so the rows come
    from one digit table: the block of its rows lo..hi-1, scaled by 1/m_j,
    times the whole table.
    """
    if not 0 <= lo <= hi <= seq.size:
        raise IndexOutOfRange(f"character rows {lo}..{hi} outside 0..{seq.size}")
    digits = digit_table(seq)
    inv_m = np.array([1.0 / r for r in seq.radices], dtype=np.float64)
    rows = 2j * np.pi * ((digits[lo:hi] * inv_m) @ digits.T)
    return np.exp(rows, out=rows)


def forward_naive_many(
    fs: list[StepFunction], ops: OpCount | None = None
) -> list[CoefficientVector]:
    """Coefficients of every f in ``fs`` by the definition (the oracle).

    c_k = (1/M_N) sum_x f(x) conj(psi_k(x)).  Each block of conjugated
    :func:`character_rows` is applied to the whole batch before the next
    block is built: memory is O(ROW_BLOCK + S M_N) for S functions and
    M_N^2 ``exp`` calls are shared by the batch.  All functions must share
    one group.
    """
    if not fs:
        return []
    seq = fs[0].radix_seq
    if any(f.radix_seq != seq for f in fs):
        raise ResolutionMismatch("batch functions live on different radix sequences")
    coeffs = np.empty((len(fs), seq.size), dtype=np.complex128)
    step = max(1, ROW_BLOCK // seq.size)
    for lo in range(0, seq.size, step):
        block = character_rows(seq, lo, min(lo + step, seq.size))
        np.conj(block, out=block)
        # one matrix-vector product per function, so each c_k sums its M_N
        # terms in the same order whatever the block or batch size
        for row, f in zip(coeffs, fs):
            row[lo : lo + step] = block @ f.values
    coeffs /= seq.size
    if ops is not None:
        ops.add(len(fs) * seq.size * seq.size)
    return [CoefficientVector(seq, row) for row in coeffs]


def forward_naive(f: StepFunction, ops: OpCount | None = None) -> CoefficientVector:
    """Coefficients by the definition: c_k = (1/M_N) sum_x f(x) conj(psi_k(x))."""
    return forward_naive_many([f], ops)[0]


@functools.lru_cache(maxsize=64)
def dft_kernel(m: int, sign: int) -> np.ndarray:
    """(m, m) kernel K[a, b] = exp(sign * 2 pi i a b / m)."""
    grid = np.outer(np.arange(m), np.arange(m))
    mat = np.exp(sign * 2j * np.pi * grid / m)
    mat.flags.writeable = False
    return mat


def _axis_pass(flat: np.ndarray, seq: RadixSequence, j: int, kernel: np.ndarray) -> np.ndarray:
    # Index layout i = high*M_{j+1} + b*M_j + low puts digit j on the middle
    # axis of a (M_N/M_{j+1}, m_j, M_j) reshape.
    m_j = seq.radices[j]
    lo = seq.scales[j]
    tensor = flat.reshape(seq.size // (lo * m_j), m_j, lo)
    return np.einsum("ab,hbl->hal", kernel, tensor).reshape(seq.size)


def forward_fast(f: StepFunction, ops: OpCount | None = None) -> CoefficientVector:
    """Same coefficients as :func:`forward_naive` via per-axis DFT kernels."""
    seq = f.radix_seq
    flat = f.values
    for j in range(seq.depth):
        flat = _axis_pass(flat, seq, j, dft_kernel(seq.radices[j], -1))
        if ops is not None:
            ops.add(seq.size * seq.radices[j])
    coeffs = flat / seq.size
    if ops is not None:
        ops.add(seq.size)
    return CoefficientVector(seq, coeffs)


def inverse(cv: CoefficientVector, ops: OpCount | None = None) -> StepFunction:
    """Unnormalized synthesis sum_k c_k psi_k; inverts ``forward_fast``."""
    seq = cv.radix_seq
    flat = cv.coeffs
    for j in range(seq.depth):
        flat = _axis_pass(flat, seq, j, dft_kernel(seq.radices[j], +1))
        if ops is not None:
            ops.add(seq.size * seq.radices[j])
    return StepFunction(seq, flat)


def fast_op_bound(seq: RadixSequence) -> int:
    """4 * M_N * sum_k m_k, the budget the fast transform must stay under.

    At depth 0 the sum is empty, so the budget takes it as 1 to cover the
    M_N = 1 scaling multiply-add.
    """
    return 4 * seq.size * max(sum(seq.radices), 1)


def synthesize_multiplier(f: StepFunction, w: np.ndarray) -> StepFunction:
    """sum_{j < len(w)} w_j c_j psi_j, c_j the coefficients of f.

    One forward pass, the multiplier on the first len(w) coefficients (the
    rest zeroed) and one inverse pass.
    """
    seq = f.radix_seq
    coeffs = np.zeros(seq.size, dtype=np.complex128)
    coeffs[: w.size] = w * forward_fast(f).coeffs[: w.size]
    return inverse(CoefficientVector(seq, coeffs))


def partial_sum(f: StepFunction, n: int) -> StepFunction:
    """S_n f = sum_{k<n} c_k psi_k, with S_0 f = 0."""
    seq = f.radix_seq
    if n < 0 or n > seq.size:
        raise IndexOutOfRange(f"partial sum order {n} outside 0..{seq.size}")
    if n == 0:
        return StepFunction(seq, np.zeros(seq.size, dtype=np.complex128))
    return synthesize_multiplier(f, np.ones(n))


def dirichlet_kernel(seq: RadixSequence, n: int) -> StepFunction:
    """D_n = sum_{k<n} psi_k, synthesized from an all-ones coefficient prefix."""
    if n < 1 or n > seq.size:
        raise IndexOutOfRange(f"kernel order {n} outside 1..{seq.size}")
    ones = np.zeros(seq.size, dtype=np.complex128)
    ones[:n] = 1.0
    return inverse(CoefficientVector(seq, ones))


def dirichlet_closed_MN(seq: RadixSequence, n: int) -> StepFunction:
    """Closed form of D_{M_n}: M_n on the rank-n cylinder at 0, zero off it."""
    if n < 0 or n > seq.depth:
        raise RankOutOfRange(f"rank {n} outside 0..{seq.depth}")
    m_n = seq.scales[n]
    vals = np.zeros(seq.size, dtype=np.complex128)
    vals[::m_n] = m_n  # indices congruent to 0 mod M_n form I_n
    return StepFunction(seq, vals)


def save_coefficients(cv: CoefficientVector, path) -> None:
    write_value_file(path, cv.radix_seq, cv.coeffs, kind="coeffs")


def load_coefficients(path) -> CoefficientVector:
    seq, vals, kind = read_value_file(path)
    if kind != "coeffs":
        raise ValueError(f"file holds kind={kind!r}, not coefficients")
    return CoefficientVector(seq, vals)
