"""Characters, analysis/synthesis transforms, Dirichlet kernels, partial sums.

The character with frequency n is psi_n(x) = prod_k r_k(x)^{n_k} where
r_k(x) = exp(2 pi i x_k / m_k), so psi_n(x) = exp(2 pi i sum_j n_j x_j / m_j)
factorizes over coordinates.  Analysis coefficients are integrals
c_k = int f conj(psi_k) dmu; at resolution N these are exact finite sums
over the M_N cylinders.

With L = lcm(m_j), psi_n(x) = exp(2 pi i q / L) for the integer phase
q = sum_j n_j x_j (L / m_j) mod L, so every character value is one of the
L roots of unity.  Characters are built as arrays in one place: a block of
rows psi_lo .. psi_{hi-1}, at most ROW_BLOCK entries, sums the integer
phases k_j x_j (L / m_j), each reduced mod L, digit by digit straight from
the linear indices, and gathers a table of the L roots in wrap mode, which
reads each sum mod L.  ``character_rows`` gathers the complex roots;
``means`` gathers its blocks into the rows its partial-sum stacks share and
scales them by the coefficients.  ``vilenkin_char`` keeps a float phase
and serves as the independent scalar oracle.

Two transform paths are provided.  ``forward_naive`` is the oracle: the
conj character matrix is the Kronecker product of those of consecutive
digit groups, split at the largest rank s >= 1 with M_s^2 <= M_N and
again where a part of several digits has more than 256 points, and the
oracle applies the factors one after another, 1/32 of M_N^2
multiply-adds at M_N = 4096.
``forward_fast`` and ``inverse`` group consecutive digits into chunks of
at most CHUNK_POINTS points, or one larger digit, and apply each chunk's
character matrix along its axis of the values viewed in index order:
M_N c multiply-adds for a chunk of c points.  The first chunk's digits
vary fastest, so its kernel right-multiplies rows of c values where one
row fits the cap.  Kernels come from ``character_rows``: dyadic ones are
exactly +-1 and multiply the float64 view, as K (x) I_2 on rows.

Both paths share one kernel cache and one product routine, each product
within PRODUCT_MADDS.  An oracle factor of at most ROW_BLOCK entries is
the cached conj kernel of its digits; a larger one is one digit, taken
by numpy's FFT with no BLAS product.  The oracle keeps its own layout:
a factor's digits move from the fastest axis to the slowest.

Both paths take a (B, M_N) block of B functions, each product in its
one-row shape, so rows keep their bits; the object API is a block of one.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceeded, IndexOutOfRange, RankOutOfRange, ResolutionMismatch
from .group_core import RadixSequence, build_radix, check_memory, check_range, decompose
from .step_functions import StepFunction


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
        # NaN propagates to the extremes: no M_N-byte mask beside the copy
        if not np.isfinite((vals.view(np.float64).min(), vals.view(np.float64).max())).all():
            raise ValueError("coefficients must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "coeffs", vals)


def vilenkin_char(n: int, i: int, seq: RadixSequence) -> complex:
    """psi_n at the point of linear index i, evaluated via one accumulated float phase.

    The scalar oracle for :func:`character_rows`, which shares none of its
    integer-phase arithmetic.
    """
    # decompose raises IndexOutOfRange for n or i outside 0..M_N-1
    digits = zip(decompose(n, seq), decompose(i, seq), seq.radices)
    phase = sum(nj * xj / mj for nj, xj, mj in digits)
    return cmath.exp(2j * cmath.pi * phase)


# Entries of psi_k(x) built at once: 2^16 phases, rounded down to whole
# rows k, and one row when the group is larger.  A 1 MiB block of complex
# rows bounds the scratch of the rows behind the partial-sum stacks, and
# the naive oracle's kernel factors are no larger: 256 points at most.
ROW_BLOCK = 1 << 16

# Multiply-adds per BLAS product of the oracle and the fast passes, 2^16 / 2.
# Complex products of two or more rows kept their bits at 1 and 2 OpenBLAS
# threads up to 65,520 multiply-adds and lost them in many shapes from 65,610
# up; at 2^18 reports on M_N = 2500 and 19683 moved with the thread count.
PRODUCT_MADDS = 1 << 15


@functools.lru_cache(maxsize=16)
def _roots(period: int) -> np.ndarray:
    """Read-only exp(2 pi i q / L) for q < L = ``period``; quarter turns exact.

    q / L is rounded before the exponential, and division is correctly
    rounded, so equal fractions give equal roots whatever L is.
    """
    table = np.exp(2j * np.pi * (np.arange(period) / period))
    for k, root in enumerate((1, 1j, -1, -1j)):
        if k * period % 4 == 0:
            table[k * period // 4] = root
    table.flags.writeable = False
    return table


def character_rows(seq: RadixSequence, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, M_N) array whose row k - lo holds psi_k, lo <= k < hi.

    Entry (k - lo, x) gathers ``_roots(L)`` at an integer congruent mod L
    to q = sum_j k_j x_j (L / m_j), for L = lcm(m_j), in wrap mode.  The
    phases are built digit by digit from the linear indices: digit j adds
    the outer product of k_j (L / m_j), k_j = k div M_j mod m_j, with
    x_j = 0..m_j-1 on a new slower axis, each term reduced mod L, so the
    sums stay below L N and the wrap-mode gather subtracts L at most N
    times per entry.  All are exact integers below L sum_j m_j < 2^53, so
    rows are bitwise independent of their block.
    """
    if not 0 <= lo <= hi <= seq.size:
        raise IndexOutOfRange(f"character rows {lo}..{hi} outside 0..{seq.size}")
    period = math.lcm(*seq.radices)
    if period * sum(seq.radices) >= 2**53:
        raise CapacityExceeded(f"character phases of radices {seq} exceed 2^53")
    ks = np.arange(lo, hi)
    phases = np.zeros((hi - lo, 1), dtype=np.intp)
    for m, scale in zip(seq.radices, seq.scales):
        steps = np.outer(ks // scale % m * (period // m), np.arange(m))
        steps %= period
        phases = np.add(steps[:, :, None], phases[:, None, :]).reshape(hi - lo, scale * m)
    return np.take(_roots(period), phases, mode="wrap")


def _factors(radices: tuple[int, ...]):
    """Consecutive digit groups of ``radices`` whose conj character matrices
    are Kronecker factors of the group's: split at the largest rank s >= 1
    with M_s^2 <= M_N, again where a part of several digits has more than
    ROW_BLOCK entries."""
    size = math.prod(radices)
    s = max((r for r in range(2, len(radices)) if math.prod(radices[:r]) ** 2 <= size), default=1)
    for part in (radices[:s], radices[s:]):
        if len(part) > 1 and math.prod(part) ** 2 > ROW_BLOCK:
            yield from _factors(part)
        elif part:
            yield part


def _conj_factor(radices: tuple[int, ...], v: np.ndarray) -> np.ndarray:
    """Apply the conj character matrix A of the digit group ``radices`` to each row of ``v``.

    A row of the (B, M_N) block ``v``, viewed as X, an (M_N / m, m) array for m
    the group's order, becomes A X^T, flattened: the group's digits move from
    the fastest axis to the slowest.  An A of at most ROW_BLOCK entries is the
    cached complex :func:`_chunk_kernel`; a larger one is one digit, whose conj
    characters exp(-2 pi i k x / m) are the DFT that ``np.fft.fft`` applies.
    """
    m = math.prod(radices)
    x = v.reshape(len(v), -1, m)
    if m * m > ROW_BLOCK:
        return np.fft.fft(x).transpose(0, 2, 1).reshape(v.shape)
    out = np.empty((len(v), m, x.shape[1]), dtype=np.complex128)
    _apply_kernel(_chunk_kernel(radices, -1, "complex"), x.transpose(0, 2, 1), out)
    return out.reshape(v.shape)


def _scaled(values: np.ndarray, size: int) -> np.ndarray:
    """values / size as a real product on the float64 view, the bits of the
    complex division, which numpy takes through the same reciprocal."""
    return (values.view(np.float64) * (1.0 / size)).view(np.complex128)


def forward_naive_block(values: np.ndarray, seq: RadixSequence) -> np.ndarray:
    """Coefficients of each row of the (B, M_N) block ``values`` by the definition (the oracle).

    c_k = (1/M_N) sum_x f(x) conj(psi_k(x)), whose conj character matrix is
    the Kronecker product of those of the digit groups of :func:`_factors`,
    applied one after another by :func:`_conj_factor`: M_N times the sum of
    the kernel factors' orders of multiply-adds, O(ROW_BLOCK + B M_N) memory.
    """
    for radices in _factors(seq.radices):
        values = _conj_factor(radices, values)
    return _scaled(values, seq.size)


def forward_naive(f: StepFunction) -> CoefficientVector:
    """Coefficients of f by the definition (the oracle): a block of one."""
    return CoefficientVector(f.radix_seq, forward_naive_block(f.values[None], f.radix_seq))


# Points per chunk of digits: c <= 16 points is at most 4 times the chunk's
# radix sum, which keeps the passes within fast_op_bound; 64 points is not.
CHUNK_POINTS = 16


@functools.lru_cache(maxsize=64)
def _chunk_kernel(radices: tuple[int, ...], sign: int, form: str = "") -> np.ndarray:
    """Read-only psi_a(b) on the group ``radices``, conjugated for sign < 0, float64 where
    real unless form is "complex"; its build, below 40 c^2 bytes for c points, is checked
    first.  As psi_a(b) = psi_b(a), form "right" gives it for rows, or K (x) I_2 on Re, Im pairs."""
    if form:
        kernel = _chunk_kernel(radices, sign)
        if kernel.dtype != np.complex128:
            kernel = np.kron(kernel, np.eye(2)) if form == "right" else kernel.astype(np.complex128)
    else:
        c = math.prod(radices)
        check_memory(40 * c * c, f"transform kernel of {c} points")
        kernel = character_rows(build_radix(radices), 0, c)
        if sign < 0:
            np.conj(kernel, out=kernel)
        kernel = kernel if kernel.imag.any() else kernel.real.copy()
    kernel.flags.writeable = False
    return kernel


def _apply_kernel(kernel: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """out[t] = kernel @ x[t] for a (c, c) kernel and (T, c, n) arrays, in products
    within PRODUCT_MADDS: as many columns as fit, or all n if more kernel rows fit
    over them, then kernel rows, then spans of a row's sum, added in order.
    Whole column products are one ``np.matmul`` stack, then the short one."""
    c, n = kernel.shape[1], x.shape[2]
    cols = min(n, max(1, PRODUCT_MADDS // (c * c)))
    cols = n if cols < min(c, PRODUCT_MADDS // (c * n)) else cols
    rows = max(1, PRODUCT_MADDS // (c * cols))
    if cols == n and rows >= len(kernel):
        np.matmul(kernel, x, out=out)
        return
    span = max(1, PRODUCT_MADDS // (rows * cols))
    cut = n - n % cols
    for lo, hi, w in ((0, cut, cols), (cut, n, n - cut))[: 1 + (cut < n)]:
        xs, ys = (a[:, :, lo:hi].reshape(*a.shape[:2], -1, w).swapaxes(1, 2) for a in (x, out))
        for r0 in range(0, c, rows):
            res, k = ys[:, :, r0 : r0 + rows], kernel[r0 : r0 + rows]
            np.matmul(k[:, :span], xs[:, :, :span], out=res)
            for b0 in range(span, c, span):
                res += np.matmul(k[:, b0 : b0 + span], xs[:, :, b0 : b0 + span])


def _apply_rows(op: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """out = x @ op on (B, T, w) rows, per function in PRODUCT_MADDS blocks and a short one."""
    (b, n, w), step = x.shape, PRODUCT_MADDS // op.size
    cut = n - n % step
    for lo, hi, k in ((0, cut, step), (cut, n, n - cut))[(cut == 0) : 1 + (cut < n)]:
        np.matmul(x[:, lo:hi].reshape(b, -1, k, w), op, out=out[:, lo:hi].reshape(b, -1, k, w))


def _axis_passes(flat: np.ndarray, seq: RadixSequence, sign: int, ops: OpCount):
    """Apply each chunk's kernel along its digits to each row of the (B, M_N) block, counting
    B M_N c per chunk of c points: the first chunk's (digit 0 varies fastest) right-multiplies
    rows of w values while w^2 fits the cap, others take (B M_N / (M_j c), c, n) views, Re and
    Im as 2 columns."""
    start = 0
    for j in range(seq.depth):
        if j + 1 < seq.depth and seq.scales[j + 2] // seq.scales[start] <= CHUNK_POINTS:
            continue  # digit j + 1 joins the chunk of digits start..j
        kernel = _chunk_kernel(seq.radices[start : j + 1], sign)
        out = np.empty_like(flat)
        op = _chunk_kernel(seq.radices[: j + 1], sign, "right") if start == 0 else kernel
        if start == 0 and op.size <= PRODUCT_MADDS:  # w^2 multiply-adds per row
            _apply_rows(op, *(a.view(op.dtype).reshape(len(a), -1, len(op)) for a in (flat, out)))
        else:
            shape = (flat.size // seq.scales[j + 1], len(kernel), -1)
            _apply_kernel(kernel, *(a.view(kernel.dtype).reshape(shape) for a in (flat, out)))
        flat, start = out, j + 1
        ops.add(flat.size * len(kernel))
    return flat


def forward_fast_block(values: np.ndarray, seq: RadixSequence, ops: OpCount) -> np.ndarray:
    """Coefficients of each row of the C-contiguous complex (B, M_N) block ``values`` via
    the chunk kernels' passes; ``ops`` counts the multiply-adds of all B rows."""
    ops.add(values.size)
    return _scaled(_axis_passes(values, seq, -1, ops), seq.size)


def inverse_block(coeffs: np.ndarray, seq: RadixSequence) -> np.ndarray:
    """Unnormalized synthesis of each row of the C-contiguous complex (B, M_N) ``coeffs``."""
    return _axis_passes(coeffs, seq, +1, OpCount())


def forward_fast(f: StepFunction, ops: OpCount | None = None) -> CoefficientVector:
    """Same coefficients as :func:`forward_naive` via the chunk kernels' passes: a block of one."""
    seq = f.radix_seq
    return CoefficientVector(seq, forward_fast_block(f.values[None], seq, ops or OpCount()))


def inverse(cv: CoefficientVector) -> StepFunction:
    """Unnormalized synthesis sum_k c_k psi_k, a block of one; inverts ``forward_fast``."""
    return StepFunction(cv.radix_seq, inverse_block(cv.coeffs[None], cv.radix_seq))


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
    check_range(n, 0, seq.size, "partial sum order")
    if n == 0:
        return StepFunction(seq, np.zeros(seq.size, dtype=np.complex128))
    return synthesize_multiplier(f, np.ones(n))


def dirichlet_kernel(seq: RadixSequence, n: int) -> StepFunction:
    """D_n = sum_{k<n} psi_k, synthesized from an all-ones coefficient prefix."""
    check_range(n, 1, seq.size, "kernel order")
    ones = np.zeros(seq.size, dtype=np.complex128)
    ones[:n] = 1.0
    return inverse(CoefficientVector(seq, ones))


def dirichlet_closed_MN(seq: RadixSequence, n: int) -> StepFunction:
    """Closed form of D_{M_n}: M_n on the rank-n cylinder at 0, zero off it."""
    check_range(n, 0, seq.depth, "rank", RankOutOfRange)
    m_n = seq.scales[n]
    vals = np.zeros(seq.size, dtype=np.complex128)
    vals[::m_n] = m_n  # indices congruent to 0 mod M_n form I_n
    return StepFunction(seq, vals)
