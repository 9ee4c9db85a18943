"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear; plain `pytest` shows them for failing criteria only.
"""

import math

import numpy as np

from vlab.cli import main
from vlab.counterexample import (
    build_case,
    divergence_sweep,
    l_mean_identity,
    verify_coefficients,
    verify_hardy_bound,
    verify_partial_sums,
)
from vlab.group_core import build_radix
from vlab.means import log_mean
from vlab.operators import domination_check, log_weight
from vlab.step_functions import StepFunction, hardy_quasinorm, lp_quasinorm
from vlab.transform import (
    OpCount,
    dirichlet_closed_MN,
    dirichlet_kernel,
    fast_op_bound,
    forward_fast,
    forward_naive,
    inverse,
)


def _verdict(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line)
    assert ok, line


def _random(seq, seed):
    rng = np.random.default_rng(seed)
    return StepFunction(seq, rng.standard_normal(seq.size) + 1j * rng.standard_normal(seq.size))


def test_c01_kernel_closed_form():
    seq = build_radix((2, 3, 2, 4, 5))
    worst = 0.0
    for n in range(seq.depth + 1):
        closed = dirichlet_closed_MN(seq, n)
        kernel = dirichlet_kernel(seq, seq.scales[n])
        worst = max(worst, float(np.max(np.abs(closed.values - kernel.values))))
    _verdict(1, "closed kernel form matches prefix synthesis", worst <= 1e-9,
             f"max abs err {worst:.3e}")


def test_c02_fast_equals_naive_with_op_budget():
    seq = build_radix((2,) * 12)  # M_N = 4096
    bound = fast_op_bound(seq)
    worst = 0.0
    worst_ops = 0
    for seed in range(100):
        f = _random(seq, seed)
        naive = forward_naive(f)
        ops = OpCount()
        fast = forward_fast(f, ops)
        worst = max(worst, float(np.max(np.abs(fast.coeffs - naive.coeffs))))
        worst_ops = max(worst_ops, ops.madds)
    _verdict(2, "fast transform matches the naive oracle under the op budget",
             worst <= 1e-9 and worst_ops <= bound,
             f"max abs err {worst:.3e}, ops {worst_ops} <= {bound}")


def test_c03_parseval_and_reconstruction():
    seq = build_radix((2, 3, 2, 4, 5))
    worst_parseval = 0.0
    worst_roundtrip = 0.0
    for seed in range(100):
        f = _random(seq, seed)
        coeffs = forward_fast(f)
        energy = float(np.sum(np.abs(f.values) ** 2)) / seq.size
        coeff_energy = float(np.sum(np.abs(coeffs.coeffs) ** 2))
        worst_parseval = max(worst_parseval, abs(energy - coeff_energy) / energy)
        back = inverse(coeffs)
        scale = float(np.max(np.abs(f.values)))
        worst_roundtrip = max(
            worst_roundtrip, float(np.max(np.abs(back.values - f.values))) / scale
        )
    _verdict(3, "Parseval identity and round-trip reconstruction",
             worst_parseval <= 1e-9 and worst_roundtrip <= 1e-9,
             f"parseval {worst_parseval:.3e}, roundtrip {worst_roundtrip:.3e}")


def test_c04_scale_kernel_norm_identity():
    worst = 0.0
    for radices in ((2,) * 6, build_radix((2, 3), 6).radices):
        seq = build_radix(radices)
        for p in (0.3, 0.5, 0.8):
            for n in range(min(5, seq.depth) + 1):
                want = seq.scales[n] ** (1.0 - 1.0 / p)
                got = lp_quasinorm(dirichlet_closed_MN(seq, n), p)
                worst = max(worst, abs(got - want) / want)
    _verdict(4, "scale kernel norm identity M_n^(1-1/p)", worst <= 1e-9,
             f"max rel err {worst:.3e}")


def test_c05_domination_chain():
    seq = build_radix((2,) * 8)
    worst = -np.inf
    ok = True
    for seed in range(100):
        res = domination_check(_random(seq, seed), 0.5, 200)
        worst = max(worst, res.max_slack)
        ok = ok and res.passed
    _verdict(5, "log-mean domination by weighted partial sums",
             ok and worst <= 1e-12, f"max slack {worst:.3e}")


def test_c06_counterexample_structure():
    matrix = [
        (2,) * 7,
        build_radix((2, 3), 7).radices,
        (3,) * 7,
        build_radix((2, 3, 4, 2, 3), 7).radices,
    ]
    ok = True
    detail = []
    for radices in matrix:
        seq = build_radix(radices)
        for n_k in (1, 2, 3):
            case = build_case(n_k, seq)
            cc = verify_coefficients(case)
            ps = verify_partial_sums(case)
            ok = ok and cc.ok and ps.ok
            detail.append(max(cc.max_abs_error, ps.max_err_zero,
                              ps.max_err_middle, ps.max_err_tail))
    _verdict(6, "coefficient pattern and partial-sum branches",
             ok, f"max err {max(detail):.3e} over {len(detail)} cases")


def test_c07_exact_case_values():
    case = build_case(1, build_radix((2,) * 3))
    mean = log_mean(case.func, 6)
    moduli = np.abs(mean.values)
    modulus_err = float(np.max(np.abs(moduli - 20 / 49)))
    hardy = hardy_quasinorm(case.func, 0.5)
    li = l_mean_identity(case)
    ok = modulus_err <= 1e-12 and abs(hardy - 0.25) <= 1e-12 and li.levelset_measure == 1.0
    _verdict(7, "exact dyadic case: modulus 20/49, Hardy 1/4, level set 1",
             ok, f"modulus err {modulus_err:.3e}, hardy {hardy:.17g}, "
                 f"measure {li.levelset_measure:g}")


def test_c08_divergence_sweep():
    seq = build_radix((2,) * 9)
    weight = log_weight()
    report = divergence_sweep([build_case(k, seq) for k in [1, 2, 3, 4]], 0.5, weight)
    ratios = [row[9] for row in report.rows]

    # independent recomputation: the level set is the whole group, so
    # R_k = 1 / (l_{n*} phi(n*+1) ||f||_p) with the closed-form norm
    def oracle(n_k):
        lo = 2 ** (2 * n_k)
        hi = 2 * lo
        n_star = lo + 2
        ell = math.fsum(1.0 / j for j in range(1, n_star + 1))
        phi = max(1.0, math.log(n_star + 2.0))
        norm = (math.sqrt(hi - lo) / hi + math.sqrt(lo) * (1 / lo - 1 / hi)) ** 2
        return 1.0 / (ell * phi * norm)

    expected = [oracle(k) for k in (1, 2, 3, 4)]
    agrees = all(abs(r - e) <= 1e-12 * e for r, e in zip(ratios, expected))
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    growth = ratios[3] / ratios[0]
    _verdict(8, "weak-type ratios grow along the sweep",
             agrees and increasing and growth >= 4.0,
             f"R = {', '.join(f'{r:.4f}' for r in ratios)}; R4/R1 = {growth:.2f}")


def test_c09_uniform_hardy_bound():
    seq = build_radix((2,) * 9)
    ok = True
    detail = []
    for p in (0.3, 0.5, 0.8):
        sup = max(verify_hardy_bound(build_case(k, seq), p).measured for k in (1, 2, 3, 4))
        ceiling = 2.0 ** (1.0 / p)
        ok = ok and sup <= ceiling * (1 + 1e-12)
        detail.append(f"p={p}: {sup:.4f} <= {ceiling:.4f}")
    _verdict(9, "Hardy norms uniformly bounded over the sweep", ok, "; ".join(detail))


def test_c10_theorem_b_determinism(tmp_path):
    out = tmp_path / "run.csv"
    argv = ["theorem-b", "--k-list", "1,2,3,4", "--theta-samples", "3",
            "--seed", "0", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    first_theta = (tmp_path / "run.theta.csv").read_bytes()
    assert main(argv) == 0
    second = out.read_bytes()
    second_theta = (tmp_path / "run.theta.csv").read_bytes()
    _verdict(10, "theorem-b output is byte-identical across reruns",
             first == second and first_theta == second_theta,
             f"{len(first)} bytes compared")
