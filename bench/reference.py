"""Independent numpy references for the benchmark's output checks.

The figures here are computed without vlab's transforms, means or norms.
On a group with radices m_0, m_1, ... the linear index is sum_j x_j M_j
(digit 0 varies fastest), so a value vector reshaped to the reversed
radices has one numpy axis per digit and numpy's FFT over all axes gives
the Vilenkin coefficients c_n = (1/M_N) sum_x f(x) conj(psi_n(x)).  Partial
sums S_n f come from masked inverse FFTs, and the martingale levels that
the Hardy norm needs from the identity E_n f = S_{M_n} f.

Inputs are drawn from the seed the way the CLI draws them.  Atoms are
built with vlab's own ``make_atom``: the atom is the input, the norms and
maximal functions of it are what is checked.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def _shape(radices) -> tuple[int, ...]:
    return tuple(reversed(radices))


def coefficients(values: np.ndarray, radices) -> np.ndarray:
    return np.fft.fftn(values.reshape(_shape(radices))).reshape(-1) / values.size


def synthesize(coeffs: np.ndarray, radices) -> np.ndarray:
    """sum_k c_k psi_k."""
    return np.fft.ifftn(coeffs.reshape(_shape(radices))).reshape(-1) * coeffs.size


def lp(values: np.ndarray, p: float) -> float:
    return float(np.mean(np.abs(values) ** p)) ** (1.0 / p)


@functools.lru_cache(maxsize=4)
def characters(radices: tuple, n_max: int) -> np.ndarray:
    """Rows psi_0 .. psi_{n_max-1} on all points, each the synthesis of a unit coefficient."""
    size = math.prod(radices)
    unit = np.zeros((n_max, size), dtype=np.complex128)
    unit[np.arange(n_max), np.arange(n_max)] = 1.0
    axes = tuple(range(1, len(radices) + 1))
    rows = np.fft.ifftn(unit.reshape((n_max, *_shape(radices))), axes=axes)
    return rows.reshape(n_max, size) * size


def partial_sums(values: np.ndarray, radices, n_max: int) -> np.ndarray:
    """(n_max + 1, M_N) array whose row n holds S_n f (row 0 is zero)."""
    c = coefficients(values, radices)
    stack = np.zeros((n_max + 1, values.size), dtype=np.complex128)
    stack[1:] = np.cumsum(c[:n_max, None] * characters(tuple(radices), n_max), axis=0)
    return stack


def log_means(stack: np.ndarray, n_max: int) -> np.ndarray:
    """Rows n = 2..n_max of L_n f = (1/l_n) sum_{k=1}^{n-1} S_k f / (n - k)."""
    return _log_mean_weights(n_max) @ stack[:n_max]


@functools.lru_cache(maxsize=4)
def _log_mean_weights(n_max: int) -> np.ndarray:
    tri = np.zeros((n_max - 1, n_max), dtype=np.float64)
    ell = 0.0
    for n in range(1, n_max + 1):
        ell = math.fsum((ell, 1.0 / n))
        if n >= 2:
            ks = np.arange(1, n)
            tri[n - 2, ks] = 1.0 / ((n - ks) * ell)
    return tri


def hardy_norm(values: np.ndarray, radices, p: float) -> float:
    """|| sup_n |E_n f| ||_p with E_n f = S_{M_n} f."""
    c = coefficients(values, radices)
    star = np.zeros(values.size)
    m_n = 1
    for m in (*radices, None):
        head = np.zeros_like(c)
        head[:m_n] = c[:m_n]
        np.maximum(star, np.abs(synthesize(head, radices)), out=star)
        m_n *= m or 1
    return lp(star, p)


def log_maximal_lp(values: np.ndarray, radices, p: float, n_max: int, alpha: float) -> float:
    """|| sup_{2<=n<=n_max} |L_n f| / (n+1)^alpha ||_p."""
    means = log_means(partial_sums(values, radices, n_max), n_max)
    weights = np.arange(3, n_max + 2, dtype=np.float64) ** alpha
    return lp(np.max(np.abs(means) / weights[:, None], axis=0), p)


def domination_slack(values: np.ndarray, radices, p: float, n_max: int) -> float:
    """max over n, x of |L_n f|/(n+1)^a - sup_{k<=n} |S_k f|/(k+1)^a, a = 1/p - 1."""
    a = 1.0 / p - 1.0
    stack = partial_sums(values, radices, n_max)
    lhs = np.abs(log_means(stack, n_max)) / (np.arange(3, n_max + 2.0) ** a)[:, None]
    running = np.maximum.accumulate(
        np.abs(stack[1:]) / (np.arange(2, n_max + 2.0) ** a)[:, None], axis=0
    )
    return float(np.max(lhs - running[1:]))


def _seq(radices):
    from vlab.group_core import build_radix

    return build_radix(tuple(radices), len(radices))


@functools.lru_cache(maxsize=4)
def domination(seed: int, radices: tuple, p: float, n_max: int, samples: int, checked: int):
    """theorem-a: slacks of the first ``checked`` samples, and per atom
    (rank, hardy, maximal), the norms only for the first ``checked`` atoms.
    """
    from vlab.operators import make_atom

    seq = _seq(radices)
    children = np.random.SeedSequence((seed, int(p * 1e9))).spawn(max(2 * samples, 1))
    slacks = []
    for i in range(min(checked, samples)):
        rng = np.random.default_rng(children[i])
        f = rng.standard_normal(seq.size) + 1j * rng.standard_normal(seq.size)
        slacks.append(domination_slack(f, radices, p, n_max))
    atoms = []
    for i in range(samples):
        rng = np.random.default_rng(children[samples + i])
        rank = int(rng.integers(0, len(radices)))
        if i >= checked:
            atoms.append((rank, None, None))
            continue
        values = make_atom(rng, seq, rank, p).function.values
        atoms.append((
            rank,
            hardy_norm(values, radices, p),
            log_maximal_lp(values, radices, p, n_max, 1.0 / p - 1.0),
        ))
    return slacks, atoms


@functools.lru_cache(maxsize=4)
def theta_atoms(seed: int, radices: tuple, p: float, samples: int) -> list[float]:
    """theorem-b theta bracket: flat-weight ratio of each atom, n_max = M_N."""
    from vlab.operators import make_atom

    seq = _seq(radices)
    children = np.random.SeedSequence(seed).spawn(samples)
    ratios = []
    for i in range(samples):
        rng = np.random.default_rng(children[i])
        rank = int(rng.integers(0, len(radices)))
        values = make_atom(rng, seq, rank, p).function.values
        maximal = log_maximal_lp(values, radices, p, seq.size, 0.0)
        ratios.append(maximal / hardy_norm(values, radices, p))
    return ratios


def transform_probe_names(samples: int) -> list[str]:
    return [
        f"sample {i} {what}"
        for i in sorted({0, samples - 1})
        for what in ("forward_naive = numpy fftn", "forward_fast = numpy fftn",
                     "inverse(numpy fftn) = f")
    ]


def transform_probe(seed: int, depth: int, samples: int) -> dict:
    """Max abs errors of vlab's transforms against numpy, by probe name.

    Runs inside the child after its timed CLI call, where the dense
    analysis matrix is already cached; f is sample i of the CLI's draw.
    """
    from vlab.step_functions import StepFunction
    from vlab.transform import CoefficientVector, forward_fast, forward_naive, inverse

    radices = (2,) * depth
    seq = _seq(radices)
    children = np.random.SeedSequence(seed).spawn(max(samples, 1))
    errors = []
    for i in sorted({0, samples - 1}):
        rng = np.random.default_rng(children[i])
        f = rng.standard_normal(seq.size) + 1j * rng.standard_normal(seq.size)
        c = coefficients(f, radices)
        step = StepFunction(seq, f)
        errors += [
            float(np.max(np.abs(forward_naive(step).coeffs - c))),
            float(np.max(np.abs(forward_fast(step).coeffs - c))),
            float(np.max(np.abs(inverse(CoefficientVector(seq, c)).values - f))),
        ]
    return dict(zip(transform_probe_names(samples), errors))
