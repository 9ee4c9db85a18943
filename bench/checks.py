"""Independent checks of the CSV reports each workload writes.

The checks parse the reports as plain CSV.  They recompute closed forms
themselves, and compare norms, maximal functions and transforms with the
numpy references of ``reference.py`` for the same seed.  Each checker
walks the rows the workload must produce, not the rows it found, so a
missing or short report fails the same number of checks that a good one
passes: a crashed run counts all of its checks as failed.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import traceback

import reference

# Relative tolerances.  Forward summation of n* <= 4098 harmonic terms is
# within n* * 2^-53 ~ 5e-13 of the exact sum; the log mean is accumulated
# over n* character rows, and the program itself only promises 1e-9 there.
REL_HARMONIC = 1e-11
REL_ACCUMULATED = 1e-9
REL_CLOSED = 1e-12
ABS_TRANSFORM = 1e-9  # the transform command's own pass threshold
# Program against reference.  p-quasi-norms with p < 1 magnify roundoff:
# off an atom's cylinder both |E_n f| and its reference are ~1e-16 noise,
# and with p = 1/2 that noise moves the Hardy norm by up to ~1e-6.
REL_REFERENCE = 1e-9
REL_QUASINORM = 1e-5
# A maximal function that is 0 in exact arithmetic, relative to the Hardy norm.
ZERO_MAXIMAL = 1e-9
REFERENCE_SAMPLES = 10  # domination samples and atoms recomputed by reference.py


class Checks:
    """Named pass/fail tally."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    @property
    def failed(self) -> int:
        return len(self.failures)


def read_report(path):
    """(meta dict, list of row dicts); empty when the file is missing."""
    if not os.path.exists(path):
        return {}, []
    meta, lines = {}, []
    with open(path, encoding="ascii", newline="") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition("=")
                meta[key] = value
            else:
                lines.append(line)
    return meta, list(csv.DictReader(lines))


def _close(a, b, rel) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * abs(b)


def _num(row, key) -> float:
    try:
        return float(row[key])
    except (KeyError, TypeError, ValueError):
        return math.nan


def _int(row, key):
    try:
        return int(row[key])
    except (KeyError, TypeError, ValueError):
        return None


def _reference(fn, *args):
    """``fn(*args)``, or None (every reference check then fails) if it raises."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def harmonic(n: int) -> float:
    return math.fsum(1.0 / j for j in range(1, n + 1))


def lp_closed(m_lo: int, m_hi: int, p: float) -> float:
    """||D_{M_hi} - D_{M_lo}||_p; the Hardy norm too, since f* = |f|."""
    return ((m_hi - m_lo) ** p / m_hi + m_lo**p * (1.0 / m_lo - 1.0 / m_hi)) ** (1.0 / p)


def check_divergence(workdir: str, params: dict, seed: int, record, c: Checks) -> None:
    """theorem-b, radix 2: sweep identities, R_k growth, theta atoms."""
    p = params["p"]
    meta, rows = read_report(os.path.join(workdir, "sweep.csv"))
    _, theta = read_report(os.path.join(workdir, "sweep.theta.csv"))
    c.check("condition6 satisfied", meta.get(f"condition6_p{p}") == "satisfied")
    ratios = []
    for pos, n_k in enumerate(params["k_list"], start=1):
        row = rows[pos - 1] if pos <= len(rows) else {}
        tag = f"n_k={n_k}"
        c.check(f"{tag} case verified", meta.get(f"verify_nk{n_k}_p{p}") == "true")
        m_lo = 4**n_k
        m_hi = 2 * m_lo
        n_star = m_lo + 2
        ell = harmonic(n_star)
        phi = max(1.0, math.log(n_star + 2.0))
        norm = lp_closed(m_lo, m_hi, p)
        c.check(f"{tag} row position", _int(row, "k") == pos and _int(row, "n_k") == n_k)
        c.check(f"{tag} M_2nk = 4^k", _int(row, "M_2nk") == m_lo)
        c.check(f"{tag} n_star = M_2nk + 2", _int(row, "n_star") == n_star)
        c.check(f"{tag} l_nstar", _close(_num(row, "l_nstar"), ell, REL_HARMONIC))
        c.check(f"{tag} L_modulus = 1/l", _close(_num(row, "L_modulus"), 1.0 / ell, REL_ACCUMULATED))
        c.check(f"{tag} hardy_norm closed", _close(_num(row, "hardy_norm"), norm, REL_ACCUMULATED))
        c.check(f"{tag} phi", _close(_num(row, "phi"), phi, REL_CLOSED))
        # |L_{n*} f| = 1/l is above the threshold 1/(l phi) everywhere
        r_k = 1.0 / (ell * phi * norm)
        c.check(f"{tag} R_k", _close(_num(row, "R_k"), r_k, REL_ACCUMULATED))
        comparator = m_lo ** (1.0 / p - 1.0) / (math.log(m_lo + 2.0) * phi)
        c.check(f"{tag} comparator", _close(_num(row, "comparator"), comparator, REL_CLOSED))
        ratios.append(_num(row, "R_k"))
        point = [t for t in theta if t.get("source") == "sweep" and _int(t, "n") == n_star]
        y = 1.0 / (ell * norm)
        c.check(
            f"{tag} theta sweep point",
            len(point) == 1 and _close(_num(point[0], "measured_ratio"), y, REL_ACCUMULATED),
        )
    c.check("R_k strictly increasing", all(b > a for a, b in zip(ratios, ratios[1:])))
    atoms = [t for t in theta if t.get("source") == "atom"]
    samples = params["theta_samples"]
    # theta_bracket draws its atoms on the first 8 digits, with n_max = M_8
    ref = _reference(reference.theta_atoms, seed, (2,) * 8, p, samples) or []
    for i in range(samples):
        t = atoms[i] if i < len(atoms) else {}
        y, lo, hi = _num(t, "measured_ratio"), _num(t, "lower"), _num(t, "upper")
        c.check(
            f"theta atom {i} inside band",
            y > 0 and lo * (1 - REL_ACCUMULATED) <= y <= hi * (1 + REL_ACCUMULATED),
        )
        c.check(f"theta atom {i} ratio = reference", i < len(ref) and _close(y, ref[i], REL_QUASINORM))


def check_domination(workdir: str, params: dict, seed: int, record, c: Checks) -> None:
    """theorem-a: the domination chain holds strictly, atom ratios match the reference."""
    _, dom = read_report(os.path.join(workdir, "atoms.domination.csv"))
    _, atoms = read_report(os.path.join(workdir, "atoms.csv"))
    radices, p, nmax, samples = params["radices"], params["p"], params["nmax"], params["samples"]
    ref = _reference(reference.domination, seed, radices, p, nmax, samples, REFERENCE_SAMPLES)
    slacks, ref_atoms = ref or ([], [])
    for i in range(samples):
        row = dom[i] if i < len(dom) else {}
        slack = _num(row, "max_slack")
        # Equality in the chain needs |L_n f| to meet the running sup exactly,
        # which random f never does; all-zero partial sums give slack 0.
        c.check(
            f"domination {i} passes with negative slack",
            row.get("pass") == "true" and _int(row, "nmax") == nmax and slack < 0,
        )
        if i < REFERENCE_SAMPLES:
            c.check(
                f"domination {i} max_slack = reference",
                i < len(slacks) and _close(slack, slacks[i], REL_REFERENCE),
            )
        row = atoms[i] if i < len(atoms) else {}
        rank, ref_hardy, ref_maximal = ref_atoms[i] if i < len(ref_atoms) else (None, None, None)
        hardy, maximal, ratio = (_num(row, k) for k in ("hardy_norm", "maximal_lp", "ratio"))
        # An atom on a rank-r cylinder has c_k = 0 for k < M_r, so when
        # M_r > nmax its truncated maximal function is 0 up to roundoff.
        vanishes = rank is not None and math.prod(radices[:rank]) > nmax
        if vanishes:
            c.check(f"atom {i} maximal ~ 0 (M_rank > nmax)", hardy > 0 and maximal <= ZERO_MAXIMAL * hardy)
        else:
            c.check(f"atom {i} ratio positive", rank is not None and hardy > 0 and 0 < ratio < math.inf)
        c.check(f"atom {i} ratio = maximal/hardy", hardy > 0 and _close(ratio, maximal / hardy, REL_CLOSED))
        if i < REFERENCE_SAMPLES:
            c.check(
                f"atom {i} hardy_norm = reference",
                ref_hardy is not None and _close(hardy, ref_hardy, REL_QUASINORM),
            )
            c.check(
                f"atom {i} maximal_lp = reference",
                ref_maximal is not None
                and (ref_maximal <= ZERO_MAXIMAL * ref_hardy if vanishes
                     else _close(maximal, ref_maximal, REL_REFERENCE)),
            )


def check_oracle(workdir: str, params: dict, seed: int, record, c: Checks) -> None:
    """transform: every row passes within its budget; the child's numpy probe agrees."""
    _, rows = read_report(os.path.join(workdir, "table.csv"))
    m = 2 ** params["depth"]
    bound = 4 * m * 2 * params["depth"]  # 4 * M_N * sum m_k, all m_k = 2
    for i in range(params["samples"]):
        row = rows[i] if i < len(rows) else {}
        errs = [_num(row, k) for k in ("fast_naive_err", "parseval_rel_err", "roundtrip_err")]
        c.check(f"sample {i} pass", row.get("pass") == "true" and _int(row, "M_N") == m)
        c.check(f"sample {i} errors <= {ABS_TRANSFORM}", all(e <= ABS_TRANSFORM for e in errs))
        ops_fast = _int(row, "ops_fast")
        c.check(
            f"sample {i} ops_fast <= op_bound",
            _int(row, "op_bound") == bound and ops_fast is not None and ops_fast <= bound,
        )
        c.check(f"sample {i} ops_naive = M_N^2", _int(row, "ops_naive") == m * m)
    probe = (record or {}).get("reference", {})
    for name in reference.transform_probe_names(params["samples"]):
        c.check(name, probe.get(name, math.inf) <= ABS_TRANSFORM)
