"""Reproduction harness: deterministic experiment subcommands over the library.

Config handling is flat ``key=value`` text; command-line flags override
file values, which override per-command defaults.  A fixed seed pins all
randomness, so identical configs produce byte-identical CSV output (timing
figures go to the console only, never into reports).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import math
import os
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .counterexample import (
    SWEEP_COLUMNS,
    build_case,
    divergence_sweep,
    l_mean_identity,
    sweep_row,
    theta_bracket,
    verify_coefficients,
    verify_hardy_bound,
    verify_partial_sums,
)
from .errors import ConfigError, VilenkinError
from .group_core import build_radix, cycle_radices, parse_radices
from .means import norlund_mean, weight_sequence_from_spec
from .operators import (
    check_p_unit,
    critical_power_weight,
    domination_check,
    hardy_quasinorm,
    log_mean_tail_bound,
    make_atom,
    parse_weight_spec,
    weighted_maximal,
)
from .report import ExperimentReport
from .step_functions import (
    StepFunction,
    load_step_function,
    lp_quasinorm,
    save_step_function,
    weak_lp_quasinorm,
)
from .transform import (
    OpCount,
    dirichlet_kernel,
    fast_op_bound,
    forward_fast,
    forward_naive_many,
    inverse,
)

ATOM_COLUMNS = ["sample_id", "p", "weight", "nmax", "hardy_norm", "maximal_lp", "ratio"]
DOMINATION_COLUMNS = ["sample_id", "p", "nmax", "max_slack", "pass"]
TRANSFORM_COLUMNS = [
    "sample_id",
    "M_N",
    "fast_naive_err",
    "parseval_rel_err",
    "roundtrip_err",
    "ops_fast",
    "ops_naive",
    "op_bound",
    "ops_ratio",
    "pass",
]
NORMS_COLUMNS = ["fn", "p", "lp", "weak_lp", "hardy", "mean_family", "mean_n", "mean_lp"]


@dataclass
class RunConfig:
    radices: str = "2"
    depth: int | None = None
    p: tuple[float, ...] = (0.5,)
    weight: str | None = None
    nmax: int = 200
    samples: int = 20
    seed: int = 0
    out: str | None = None
    k_list: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    fn: str | None = None
    mean: str | None = None
    mean_n: int | None = None
    save_fn: str | None = None
    nk: int | None = None
    theta_samples: int = 5


def _parse_tuple(cast):
    """A parser of comma-separated lists of ``cast`` values (int or float)."""

    def parse(text: str) -> tuple:
        try:
            vals = tuple(cast(s) for s in str(text).split(",") if s.strip())
        except ValueError as exc:
            raise ConfigError(f"bad {cast.__name__} list {text!r}: {exc}") from None
        if not vals:
            raise ConfigError(f"empty {cast.__name__} list {text!r}")
        return vals

    return parse


def _parse_count(text: str) -> int:
    """A non-negative integer: a count, a mean order or a seed (numpy seeds are >= 0)."""
    value = int(text)
    if value < 0:
        raise ValueError("must be non-negative")
    return value


_COERCERS = {
    "radices": str,
    "depth": int,
    "p": _parse_tuple(float),
    "weight": str,
    "nmax": int,
    "samples": _parse_count,
    "seed": _parse_count,
    "out": str,
    "k_list": _parse_tuple(int),
    "fn": str,
    "mean": str,
    "mean_n": _parse_count,
    "save_fn": str,
    "nk": int,
    "theta_samples": _parse_count,
}


def load_config_file(path) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored."""
    raw: dict[str, str] = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _COERCERS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        raw[key] = value.strip()
    return raw


def resolve_config(defaults: RunConfig, args: argparse.Namespace) -> RunConfig:
    cfg = defaults
    file_vals = load_config_file(args.config) if getattr(args, "config", None) else {}
    for source in (file_vals, _cli_values(args)):
        updates = {}
        for key, value in source.items():
            try:
                updates[key] = _COERCERS[key](value)
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from None
        cfg = replace(cfg, **updates)
    return cfg


def _cli_values(args: argparse.Namespace) -> dict[str, str]:
    known = {f.name for f in fields(RunConfig)}
    return {k: v for k, v in vars(args).items() if k in known and v is not None}


def _threads() -> int:
    raw = os.environ.get("VLAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"VLAB_THREADS must be an integer, got {raw!r}") from None


def _parallel_map(fn, items):
    workers = _threads()
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


class _DefaultDepth(int):
    """A per-command default depth: a floor, raised to what the command needs."""


def _build_seq(cfg: RunConfig, min_depth: int = 0):
    pattern = parse_radices(cfg.radices)
    depth = cfg.depth
    if depth is None or isinstance(depth, _DefaultDepth):
        depth = max(depth or len(pattern), min_depth)
    elif depth < min_depth:
        raise ConfigError(f"depth {depth} too small, need at least {min_depth}")
    return build_radix(cycle_radices(pattern, depth), depth)


def _echo_config(report: ExperimentReport, cfg: RunConfig, command: str) -> None:
    report.add_meta("tool_version", __version__)
    report.add_meta("command", command)
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        report.add_meta(f.name, value)


def _status(ok: bool) -> str:
    return "ok" if ok else "FAIL"


@contextlib.contextmanager
def _writing(path):
    """An output path that cannot be written is an input error, not a crash."""
    try:
        yield
    except (OSError, UnicodeEncodeError) as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _sibling(path: str, tag: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}.{tag}{ext or '.csv'}"


# ---------------------------------------------------------------------------
# transform: round trip, Parseval, fast-vs-naive op-count and timing table
# ---------------------------------------------------------------------------


def cmd_transform(cfg: RunConfig) -> tuple[ExperimentReport, bool]:
    seq = _build_seq(cfg)
    report = ExperimentReport(columns=list(TRANSFORM_COLUMNS))
    _echo_config(report, cfg, "transform")
    bound = fast_op_bound(seq)
    children = np.random.SeedSequence(cfg.seed).spawn(max(cfg.samples, 1))
    rngs = [np.random.default_rng(children[i]) for i in range(cfg.samples)]
    fs = [
        StepFunction(seq, r.standard_normal(seq.size) + 1j * r.standard_normal(seq.size))
        for r in rngs
    ]
    # one batched oracle call: its M_N^2 character values are shared by all samples
    ops_batch = OpCount()
    t0 = time.perf_counter()
    naives = forward_naive_many(fs, ops_batch)
    naive_time = time.perf_counter() - t0
    ops_naive = ops_batch.madds // max(len(fs), 1)  # M_N^2 per transform
    all_ok = True
    fast_times = []
    for i, (f, naive) in enumerate(zip(fs, naives)):
        ops_fast = OpCount()
        t0 = time.perf_counter()
        fast = forward_fast(f, ops_fast)
        fast_times.append(time.perf_counter() - t0)
        err = float(np.max(np.abs(fast.coeffs - naive.coeffs)))
        energy = float(np.sum(np.abs(f.values) ** 2)) / seq.size
        parseval = abs(energy - float(np.sum(np.abs(fast.coeffs) ** 2))) / energy
        back = inverse(fast)
        roundtrip = float(np.max(np.abs(back.values - f.values)))
        ok = (
            err <= 1e-9
            and parseval <= 1e-9
            and roundtrip <= 1e-9
            and ops_fast.madds <= bound
        )
        all_ok = all_ok and ok
        report.add_row(
            i,
            seq.size,
            err,
            parseval,
            roundtrip,
            ops_fast.madds,
            ops_naive,
            bound,
            ops_fast.madds / ops_naive,
            ok,
        )
    if fast_times:
        print(
            f"timing (console only): fast {1e3 * sum(fast_times) / len(fast_times):.3f} ms, "
            f"naive {1e3 * naive_time / len(fs):.3f} ms per transform"
        )
    print(f"[{_status(all_ok)}] transform checks on {cfg.samples} samples, M_N={seq.size}")
    return report, all_ok


# ---------------------------------------------------------------------------
# theorem-a: domination checks plus the atom ratio sweep
# ---------------------------------------------------------------------------


def cmd_theorem_a(cfg: RunConfig) -> tuple[ExperimentReport, ExperimentReport, bool]:
    seq = _build_seq(cfg, min_depth=2)
    nmax = min(cfg.nmax, seq.size)
    atom_report = ExperimentReport(columns=list(ATOM_COLUMNS))
    dom_report = ExperimentReport(columns=list(DOMINATION_COLUMNS))
    _echo_config(atom_report, cfg, "theorem-a")
    _echo_config(dom_report, cfg, "theorem-a")
    all_ok = True
    for p in cfg.p:
        p = check_p_unit(p)  # before p seeds the sample draws
        weight = parse_weight_spec(cfg.weight) if cfg.weight else critical_power_weight(p)
        children = np.random.SeedSequence((cfg.seed, int(p * 1e9))).spawn(max(2 * cfg.samples, 1))

        def dom_one(i):
            rng = np.random.default_rng(children[i])
            f = StepFunction(
                seq, rng.standard_normal(seq.size) + 1j * rng.standard_normal(seq.size)
            )
            return domination_check(f, p, nmax)

        results = _parallel_map(dom_one, range(cfg.samples))
        for i, res in enumerate(results):
            dom_report.add_row(i, p, nmax, res.max_slack, res.passed)
            all_ok = all_ok and res.passed
        dom_ok = all(r.passed for r in results)
        print(f"[{_status(dom_ok)}] domination chain, p={p}, {cfg.samples} samples, n<= {nmax}")

        def atom_one(i):
            rng = np.random.default_rng(children[cfg.samples + i])
            rank = int(rng.integers(0, seq.depth))
            atom = make_atom(rng, seq, rank, p)
            hardy = hardy_quasinorm(atom.function, p)
            maximal = lp_quasinorm(weighted_maximal(atom.function, "log_mean", weight, nmax), p)
            tail = log_mean_tail_bound(atom.function, weight, nmax)
            return hardy, maximal, tail

        atom_rows = _parallel_map(atom_one, range(cfg.samples))
        worst_tail = 0.0
        for i, (hardy, maximal, tail) in enumerate(atom_rows):
            ratio = maximal / hardy
            ok = math.isfinite(ratio)
            all_ok = all_ok and ok
            worst_tail = max(worst_tail, tail)
            atom_report.add_row(i, p, weight.spec, nmax, hardy, maximal, ratio)
        ratios = [m / h for h, m, _ in atom_rows]
        if ratios:
            print(
                f"[{_status(all(math.isfinite(r) for r in ratios))}] atom sweep, p={p}: "
                f"max ratio {max(ratios):.6g} (truncated at n<={nmax}; "
                f"log-mean tail bound <= {worst_tail:.6g})"
            )
    return atom_report, dom_report, all_ok


# ---------------------------------------------------------------------------
# theorem-b: per-case verification, divergence sweep, theta bracket
# ---------------------------------------------------------------------------


def cmd_theorem_b(cfg: RunConfig) -> tuple[ExperimentReport, list[ExperimentReport], bool]:
    need = 2 * max(cfg.k_list) + 1
    seq = _build_seq(cfg, min_depth=need)
    weight_spec = cfg.weight or "log"
    weight = parse_weight_spec(weight_spec)
    master = ExperimentReport(columns=list(SWEEP_COLUMNS))
    _echo_config(master, cfg, "theorem-b")
    all_ok = True
    thetas = []
    for p in cfg.p:
        for n_k in cfg.k_list:
            case = build_case(n_k, seq)
            cc = verify_coefficients(case)
            ps = verify_partial_sums(case)
            hb = verify_hardy_bound(case, p)
            li = l_mean_identity(case)
            case_ok = cc.ok and ps.ok and hb.ok and li.ok
            all_ok = all_ok and case_ok
            print(
                f"[{_status(case_ok)}] case n_k={n_k}, p={p}: coeffs {_status(cc.ok)}, "
                f"partial sums {_status(ps.ok)}, hardy {_status(hb.ok)}, "
                f"log-mean identity {_status(li.ok)}"
            )
            master.add_meta(f"verify_nk{n_k}_p{p}", case_ok)
        sweep = divergence_sweep(seq, cfg.k_list, p, weight)
        for row in sweep.rows:
            master.add_row(*row)
        verdict = sweep.meta["condition6"]
        master.add_meta(f"condition6_p{p}", verdict)
        if verdict == "satisfied":
            mono = sweep.meta["monotone_ok"] == "true"
            all_ok = all_ok and mono
            print(f"[{_status(mono)}] divergence ratios strictly increasing, p={p}")
        else:
            print(f"[ok] condition6 {verdict} for weight {weight.spec}; growth not asserted, p={p}")
        theta = theta_bracket(seq, p, cfg.k_list, samples=cfg.theta_samples, seed=cfg.seed)
        thetas.append(theta)
    return master, thetas, all_ok


# ---------------------------------------------------------------------------
# norms: quasi-norm table for a stored or built-in function
# ---------------------------------------------------------------------------


def _spec_int(spec: str) -> int:
    try:
        return int(spec.split(":", 1)[1])
    except ValueError:
        raise ConfigError(f"bad integer in function spec {spec!r}") from None


def _resolve_fn(cfg: RunConfig) -> tuple[StepFunction, RunConfig]:
    """The function named by ``--fn``, and ``cfg`` echoing the depth it was built at."""
    spec = cfg.fn
    if not spec:
        raise ConfigError("norms needs --fn (file:<path> | dirichlet:<n> | case:<nk>)")
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        try:
            return load_step_function(path), cfg
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load step function {path}: {exc}") from None
    if spec.startswith("dirichlet:"):
        n = _spec_int(spec)
        seq = _build_seq(cfg)
        return dirichlet_kernel(seq, n), replace(cfg, depth=seq.depth)
    if spec.startswith("case:"):
        nk = _spec_int(spec)
        seq = _build_seq(cfg, min_depth=2 * nk + 1)
        return build_case(nk, seq).func, replace(cfg, depth=seq.depth)
    raise ConfigError(f"unknown function spec {spec!r}")


def cmd_norms(cfg: RunConfig) -> tuple[ExperimentReport, bool]:
    if bool(cfg.mean) != (cfg.mean_n is not None):
        raise ConfigError("--mean and --mean-n must be given together")
    if cfg.mean_n == 0:
        raise ConfigError("--mean-n must be at least 1")
    f, cfg = _resolve_fn(cfg)
    label = cfg.fn
    report = ExperimentReport(columns=list(NORMS_COLUMNS))
    _echo_config(report, cfg, "norms")
    mean_lp = None
    for p in cfg.p:
        if cfg.mean:
            w = weight_sequence_from_spec(cfg.mean, cfg.mean_n)
            mean_lp = lp_quasinorm(norlund_mean(f, cfg.mean_n, w), p)
        row = (
            label,
            p,
            lp_quasinorm(f, p),
            weak_lp_quasinorm(f, p),
            hardy_quasinorm(f, p),
            cfg.mean or "",
            cfg.mean_n,
            mean_lp,
        )
        report.add_row(*row)
        print(
            f"{label} p={p}: lp={row[2]:.12g} weak={row[3]:.12g} hardy={row[4]:.12g}"
            + (f" mean[{cfg.mean},n={cfg.mean_n}]={mean_lp:.12g}" if mean_lp is not None else "")
        )
    return report, True


# ---------------------------------------------------------------------------
# case: single counterexample case in detail
# ---------------------------------------------------------------------------


def cmd_case(cfg: RunConfig) -> tuple[ExperimentReport, bool]:
    if cfg.nk is None:
        raise ConfigError("case needs --nk")
    seq = _build_seq(cfg, min_depth=2 * cfg.nk + 1)
    weight = parse_weight_spec(cfg.weight or "log")
    case = build_case(cfg.nk, seq)
    report = ExperimentReport(columns=list(SWEEP_COLUMNS))
    _echo_config(report, cfg, "case")
    all_ok = True
    for p in cfg.p:
        cc = verify_coefficients(case)
        ps = verify_partial_sums(case)
        hb = verify_hardy_bound(case, p)
        li = l_mean_identity(case)
        ok = cc.ok and ps.ok and hb.ok and li.ok
        all_ok = all_ok and ok
        print(f"case n_k={cfg.nk}: M_lo={case.m_lo} M_hi={case.m_hi} n*={case.n_star}")
        print(f"  [{_status(cc.ok)}] coefficients: max err {cc.max_abs_error:.3e}")
        print(
            f"  [{_status(ps.ok)}] partial sums: zero {ps.max_err_zero:.3e} "
            f"middle {ps.max_err_middle:.3e} tail {ps.max_err_tail:.3e}"
        )
        print(
            f"  [{_status(hb.ok)}] hardy p={p}: measured {hb.measured:.12g} "
            f"closed {hb.closed_value:.12g} bound {hb.upper_bound:.12g}"
        )
        print(
            f"  [{_status(li.ok)}] log-mean identity: modulus {li.modulus:.12g} "
            f"predicted {li.predicted:.12g} levelset {li.levelset_measure:g}"
        )
        report.add_row(*sweep_row(1, cfg.nk, seq, p, weight))
    if cfg.save_fn:
        with _writing(cfg.save_fn):
            save_step_function(case.func, cfg.save_fn)
        print(f"saved case function to {cfg.save_fn}")
    return report, all_ok


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_common(sub, *names):
    flags = {
        "radices": ("--radices", "comma-separated radix pattern, cycled to depth"),
        "depth": ("--depth", "number of retained coordinates N"),
        "p": ("--p", "comma-separated exponent list"),
        "weight": ("--weight", "maximal-operator weight: power:<alpha> | log | custom:<file>"),
        "nmax": ("--nmax", "maximal-operator truncation order"),
        "samples": ("--samples", "number of random samples"),
        "seed": ("--seed", "master RNG seed"),
        "out": ("--out", "CSV output path"),
        "k_list": ("--k-list", "comma-separated case indices n_k"),
        "fn": ("--fn", "function spec: file:<path> | dirichlet:<n> | case:<nk>"),
        "mean": ("--mean", "Norlund weight family: ones | log | custom:<file>"),
        "mean_n": ("--mean-n", "Norlund mean order"),
        "save_fn": ("--save-fn", "write the case function to this path"),
        "nk": ("--nk", "case index n_k"),
        "theta_samples": ("--theta-samples", "atom samples for the theta bracket"),
    }
    sub.add_argument("--config", help="flat key=value config file")
    for name in names:
        flag, desc = flags[name]
        sub.add_argument(flag, dest=name, help=desc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlab",
        description="Harmonic-analysis experiments on truncated bounded Vilenkin groups.",
    )
    parser.add_argument("--version", action="version", version=f"vlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser(
        "transform",
        help="round trip, Parseval and op-count table (defaults: radices=2, depth=12, samples=3)",
    )
    _add_common(s, "radices", "depth", "samples", "seed", "out")

    s = subs.add_parser(
        "theorem-a",
        help="domination checks and atom ratio sweep "
        "(defaults: radices=2, depth=8, p=0.5, nmax=200, samples=20, weight=power:(1/p-1))",
    )
    _add_common(s, "radices", "depth", "p", "weight", "nmax", "samples", "seed", "out")

    s = subs.add_parser(
        "theorem-b",
        help="case verifications, divergence sweep and theta bracket "
        "(defaults: radices=2, k-list=1..6, p=0.5, weight=log)",
    )
    _add_common(s, "radices", "depth", "p", "weight", "k_list", "seed", "out", "theta_samples")

    s = subs.add_parser(
        "norms",
        help="quasi-norm table for a stored or built-in function "
        "(defaults: radices=2, depth=6, p=0.5)",
    )
    _add_common(s, "radices", "depth", "p", "fn", "mean", "mean_n", "out")

    s = subs.add_parser(
        "case",
        help="single divergence case in detail (defaults: radices=2, p=0.5, weight=log)",
    )
    _add_common(s, "radices", "depth", "p", "weight", "nk", "save_fn", "out")
    return parser


_DEFAULTS = {
    "transform": RunConfig(depth=_DefaultDepth(12), samples=3),
    "theorem-a": RunConfig(depth=_DefaultDepth(8), nmax=200, samples=20),
    "theorem-b": RunConfig(p=(0.5,), weight="log"),
    "norms": RunConfig(depth=_DefaultDepth(6)),
    "case": RunConfig(weight="log"),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(_DEFAULTS[args.command], args)
        if args.command == "transform":
            report, ok = cmd_transform(cfg)
            reports = {cfg.out: report}
        elif args.command == "theorem-a":
            atoms, dom, ok = cmd_theorem_a(cfg)
            reports = {cfg.out: atoms}
            if cfg.out:
                reports[_sibling(cfg.out, "domination")] = dom
        elif args.command == "theorem-b":
            master, thetas, ok = cmd_theorem_b(cfg)
            reports = {cfg.out: master}
            if cfg.out:
                for i, theta in enumerate(thetas):
                    tag = "theta" if len(thetas) == 1 else f"theta{i}"
                    reports[_sibling(cfg.out, tag)] = theta
        elif args.command == "norms":
            report, ok = cmd_norms(cfg)
            reports = {cfg.out: report}
        else:
            report, ok = cmd_case(cfg)
            reports = {cfg.out: report}
        for path, rep in reports.items():
            if path:
                with _writing(path):
                    rep.write(path)
                print(f"wrote {path}")
        return 0 if ok else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VilenkinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
