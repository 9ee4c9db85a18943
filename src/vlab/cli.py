"""Reproduction harness: deterministic experiment subcommands over the library.

Config handling is flat ``key=value`` text; command-line flags override
file values, which override per-command defaults.  A fixed seed pins all
randomness, so identical configs produce byte-identical CSV output (timing
figures go to the console only, never into reports).  A new ``RunConfig``
field needs one ``_OPTIONS`` entry, and a command is one ``_COMMANDS`` entry.
"""

from __future__ import annotations

import argparse
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
    theta_bracket,
    verify_hardy_bound,
    verify_partial_sums,
)
from .errors import ConfigError, VilenkinError
from .group_core import RadixSequence, build_radix, check_memory
from .means import norlund_mean, weight_sequence_from_spec
from .operators import (
    critical_power_weight,
    domination_check,
    make_atom,
    parse_weight_spec,
    weighted_maximal,
)
from .report import ExperimentReport
from .step_functions import (
    StepFunction,
    bounded_lines,
    check_exponent,
    hardy_quasinorm,
    load_step_function,
    lp_quasinorm,
    weak_lp_quasinorm,
)
from .transform import (
    BLOCK_POINTS,
    OpCount,
    dirichlet_kernel,
    fast_op_bound,
    forward_fast_block,
    forward_naive_block,
    inverse_block,
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
    radices: tuple[int, ...] = (2,)
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


# Each RunConfig field: (reader of its text value, help); the flag is the
# field name with "--" in front and "-" for "_".
_OPTIONS = {
    "radices": (_parse_tuple(int), "comma-separated radix pattern, cycled to depth"),
    "depth": (int, "number of retained coordinates N"),
    "p": (_parse_tuple(float), "comma-separated exponent list"),
    "weight": (str, "maximal-operator weight: power:<alpha> | log | custom:<file>"),
    "nmax": (int, "maximal-operator truncation order"),
    "samples": (_parse_count, "number of random samples"),
    "seed": (_parse_count, "master RNG seed"),
    "out": (str, "CSV output path"),
    "k_list": (_parse_tuple(int), "comma-separated case indices n_k"),
    "fn": (str, "function spec: file:<path> | dirichlet:<n> | case:<nk>"),
    "mean": (str, "Norlund weight family: ones | log | custom:<file>"),
    "mean_n": (_parse_count, "Norlund mean order"),
    "theta_samples": (_parse_count, "atom samples for the theta bracket"),
}


def load_config_file(path) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored."""
    raw: dict[str, str] = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(bounded_lines(fh), 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                key = key.strip()
                if key not in _OPTIONS:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                raw[key] = value.strip()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return raw


def resolve_config(defaults: RunConfig, args: argparse.Namespace) -> RunConfig:
    cfg = defaults
    file_vals = load_config_file(args.config) if getattr(args, "config", None) else {}
    if getattr(args, "command", None):
        for key in file_vals:
            if key not in _COMMANDS[args.command][2]:
                raise ConfigError(f"{args.config}: {args.command} takes no option {key!r}")
    for source in (file_vals, _cli_values(args)):
        updates = {}
        for key, value in source.items():
            try:
                updates[key] = _OPTIONS[key][0](value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from None
        cfg = replace(cfg, **updates)
    return cfg


def _cli_values(args: argparse.Namespace) -> dict[str, str]:
    return {k: v for k, v in vars(args).items() if k in _OPTIONS and v is not None}


class _DefaultDepth(int):
    """A per-command default depth: a floor, raised to what the command needs."""


def _fitting(seq: RadixSequence) -> RadixSequence:
    """``seq``, refused before any array on it if 192 bytes per point exceed
    physical memory: above the largest tracemalloc peak per point of a
    command at its default sample count (theorem-b, 143-145 B at depths
    16-18; transform, 64-170 B at depths 12-18 with 3 or 20 samples)."""
    check_memory(192 * seq.size, f"a group of M_N={seq.size}")
    return seq


def _build_seq(cfg: RunConfig, min_depth: int = 0):
    depth = cfg.depth
    if depth is None or isinstance(depth, _DefaultDepth):
        depth = max(depth or len(cfg.radices), min_depth)
    elif depth < min_depth:
        raise ConfigError(f"depth {depth} too small, need at least {min_depth}")
    return _fitting(build_radix(cfg.radices, depth))


def _echo_config(report: ExperimentReport, cfg: RunConfig, command: str) -> None:
    report.add_meta("tool_version", __version__)
    report.add_meta("command", command)
    names = _COMMANDS[command][2]
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None or f.name not in names:
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


def _check_writable(path: str) -> None:
    """Refuse an --out path whose directory, shared by its siblings, cannot take it."""
    folder = os.path.dirname(path) or "."
    if not path or os.path.isdir(path) or not os.access(folder, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot write {path}")


def _sibling(path: str, tag: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}.{tag}{ext or '.csv'}"


# ---------------------------------------------------------------------------
# transform: round trip, Parseval, fast-vs-naive op-count and timing table
# ---------------------------------------------------------------------------


def cmd_transform(cfg: RunConfig) -> tuple[dict[str, ExperimentReport], bool]:
    seq = _build_seq(cfg)
    report = ExperimentReport(columns=list(TRANSFORM_COLUMNS))
    _echo_config(report, cfg, "transform")
    bound = fast_op_bound(seq)
    # the definition's M_N^2 multiply-adds per transform, not the oracle's work
    ops_naive = seq.size * seq.size
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.samples)
    size = max(1, BLOCK_POINTS // seq.size)
    all_ok = True
    naive_time = fast_time = 0.0
    # one block at a time: the oracle's kernel factors stay cached between
    # blocks, and memory does not grow with the number of samples
    for lo in range(0, cfg.samples, size):
        block = children[lo : lo + size]
        values = np.empty((len(block), seq.size), dtype=np.complex128)
        for row, child in zip(values, block):  # each sample from its own seed
            rng = np.random.default_rng(child)
            row.real, row.imag = rng.standard_normal(seq.size), rng.standard_normal(seq.size)
        # an oversized kernel is the fast path's: the oracle's have at most 256 points
        t0 = time.perf_counter()
        ops = OpCount()
        fast = forward_fast_block(values, seq, ops)
        t1 = time.perf_counter()
        naive = forward_naive_block(values, seq)
        t2 = time.perf_counter()
        naive_time, fast_time = naive_time + t2 - t1, fast_time + t1 - t0
        # axis-1 reductions give each row's own bits; differences are taken in
        # place, |a - b| = |b - a|, so a block holds at most four arrays of its size
        naive -= fast
        err = np.max(np.abs(naive), axis=1)
        del naive
        energy = np.sum(np.abs(values) ** 2, axis=1) / seq.size
        parseval = np.abs(energy - np.sum(np.abs(fast) ** 2, axis=1)) / energy
        back = inverse_block(fast, seq)  # fast itself at depth 0, not read again
        back -= values
        roundtrip = np.max(np.abs(back), axis=1)
        ops_fast = ops.madds // len(block)
        for i, errs in enumerate(zip(err.tolist(), parseval.tolist(), roundtrip.tolist()), lo):
            ok = all(e <= 1e-9 for e in errs) and ops_fast <= bound
            report.add_row(i, seq.size, *errs, ops_fast, ops_naive, bound, ops_fast / ops_naive, ok)
            all_ok = all_ok and ok
        del values, row, fast, back  # before the next block's arrays
    if cfg.samples:
        print(
            f"timing (console only): fast {1e3 * fast_time / cfg.samples:.3f} ms, "
            f"naive {1e3 * naive_time / cfg.samples:.3f} ms per transform"
        )
    print(f"[{_status(all_ok)}] transform checks on {cfg.samples} samples, M_N={seq.size}")
    return {"": report}, all_ok


# ---------------------------------------------------------------------------
# theorem-a: domination checks plus the atom ratio sweep
# ---------------------------------------------------------------------------


def _p_list(cfg: RunConfig, seq: RadixSequence) -> tuple[float, ...]:
    """The exponents of a theorem command on ``seq``, all checked before any
    work: each in 0 < p < 1, none repeated, and none so small that
    (2 M_N)^{1/p}, which bounds the 1/p powers the command takes, overflows."""
    ps = tuple(check_exponent(p, 1.0) for p in cfg.p)
    if len(set(ps)) < len(ps):
        raise ConfigError(f"p list must not repeat a value, got {cfg.p}")
    for p in ps:
        if math.log(2 * seq.size) / p >= math.log(sys.float_info.max):
            raise ConfigError(f"p={p} too small for M_N={seq.size}: (2 M_N)^(1/p) overflows")
    return ps


def cmd_theorem_a(cfg: RunConfig) -> tuple[dict[str, ExperimentReport], bool]:
    seq = _build_seq(cfg, min_depth=2)
    p_list = _p_list(cfg, seq)
    nmax = min(cfg.nmax, seq.size)
    atom_report = ExperimentReport(columns=list(ATOM_COLUMNS))
    dom_report = ExperimentReport(columns=list(DOMINATION_COLUMNS))
    _echo_config(atom_report, cfg, "theorem-a")
    _echo_config(dom_report, cfg, "theorem-a")
    all_ok = True
    # only the default weight depends on p, so a weight file is read once
    fixed_weight = parse_weight_spec(cfg.weight) if cfg.weight is not None else None
    for p in p_list:
        weight = fixed_weight or critical_power_weight(p)
        children = np.random.SeedSequence((cfg.seed, int(p * 1e9))).spawn(max(2 * cfg.samples, 1))
        results = []
        for i in range(cfg.samples):
            rng = np.random.default_rng(children[i])
            f = StepFunction(
                seq, rng.standard_normal(seq.size) + 1j * rng.standard_normal(seq.size)
            )
            res = domination_check(f, p, nmax)
            dom_report.add_row(i, p, nmax, res.max_slack, res.passed)
            results.append(res)
        dom_ok = all(r.passed for r in results)
        all_ok = all_ok and dom_ok
        print(f"[{_status(dom_ok)}] domination chain, p={p}, {cfg.samples} samples, n<= {nmax}")

        ratios = []
        for i in range(cfg.samples):
            rng = np.random.default_rng(children[cfg.samples + i])
            rank = int(rng.integers(0, seq.depth))
            atom = make_atom(rng, seq, rank, p)
            hardy = hardy_quasinorm(atom.function, p)
            maximal = lp_quasinorm(weighted_maximal(atom.function, weight, nmax), p)
            ratio = maximal / hardy
            ratios.append(ratio)
            atom_report.add_row(i, p, weight.spec, nmax, hardy, maximal, ratio)
        atoms_ok = all(math.isfinite(r) for r in ratios)
        all_ok = all_ok and atoms_ok
        if ratios:
            print(
                f"[{_status(atoms_ok)}] atom sweep, p={p}: "
                f"max ratio {max(ratios):.6g} (truncated at n<={nmax})"
            )
    return {"": atom_report, "domination": dom_report}, all_ok


# ---------------------------------------------------------------------------
# theorem-b: per-case verification, divergence sweep, theta bracket
# ---------------------------------------------------------------------------


def cmd_theorem_b(cfg: RunConfig) -> tuple[dict[str, ExperimentReport], bool]:
    if any(b <= a for a, b in zip(cfg.k_list, cfg.k_list[1:])):
        raise ConfigError(f"k_list must be strictly increasing, got {cfg.k_list}")
    need = 2 * max(cfg.k_list) + 1
    seq = _build_seq(cfg, min_depth=need)
    p_list = _p_list(cfg, seq)
    weight = parse_weight_spec(cfg.weight)
    master = ExperimentReport(columns=list(SWEEP_COLUMNS))
    _echo_config(master, cfg, "theorem-b")
    cases = [build_case(n_k, seq) for n_k in cfg.k_list]
    # the partial-sum certificate, which bounds every coefficient's error,
    # and the log-mean identity do not depend on p
    fixed = [(verify_partial_sums(case), l_mean_identity(case)) for case in cases]
    all_ok = True
    reports = {"": master}
    for i, p in enumerate(p_list):
        for case, (ps, li) in zip(cases, fixed):
            hb = verify_hardy_bound(case, p)
            case_ok = ps.ok and hb.ok and li.ok
            all_ok = all_ok and case_ok
            print(
                f"[{_status(case_ok)}] case n_k={case.n_k}, p={p}: "
                f"partial sums {_status(ps.ok)} (zero {ps.max_err_zero:.3e} "
                f"middle {ps.max_err_middle:.3e} tail {ps.max_err_tail:.3e}), "
                f"hardy {_status(hb.ok)} (measured {hb.measured:.12g} "
                f"closed {hb.closed_value:.12g} bound {hb.upper_bound:.12g}), "
                f"log-mean identity {_status(li.ok)} (modulus {li.modulus:.12g} "
                f"predicted {li.predicted:.12g} levelset {li.levelset_measure:g})"
            )
            master.add_meta(f"verify_nk{case.n_k}_p{p}", case_ok)
        sweep = divergence_sweep(cases, p, weight)
        for row in sweep.rows:
            master.add_row(*row)
        verdict = sweep.condition6
        master.add_meta(f"condition6_p{p}", verdict)
        if verdict == "satisfied":
            all_ok = all_ok and sweep.monotone
            print(
                f"[{_status(sweep.monotone)}] divergence ratios strictly increasing, p={p} "
                f"({sweep.asserted} of {len(sweep.rows) - 1} steps)"
            )
        else:
            print(f"[ok] condition6 {verdict} for weight {weight.spec}; growth not asserted, p={p}")
        tag = "theta" if len(p_list) == 1 else f"theta{i}"
        reports[tag] = theta_bracket(seq, p, cases, samples=cfg.theta_samples, seed=cfg.seed)
    return reports, all_ok


# ---------------------------------------------------------------------------
# norms: quasi-norm table for a stored or built-in function
# ---------------------------------------------------------------------------


def _spec_int(spec: str) -> int:
    try:
        return int(spec.split(":", 1)[1])
    except ValueError:
        raise ConfigError(f"bad integer in function spec {spec!r}") from None


def _resolve_fn(cfg: RunConfig) -> tuple[StepFunction, RunConfig]:
    """The function named by ``--fn``, and ``cfg`` echoing the group it lives on."""
    spec = cfg.fn
    if spec is None:
        raise ConfigError("norms needs --fn (file:<path> | dirichlet:<n> | case:<nk>)")
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        try:
            f = load_step_function(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load step function {path}: {exc}") from None
        _fitting(f.radix_seq)
        return f, replace(cfg, radices=f.radix_seq.radices, depth=f.radix_seq.depth)
    if spec.startswith("dirichlet:"):
        n = _spec_int(spec)
        seq = _build_seq(cfg)
        return dirichlet_kernel(seq, n), replace(cfg, depth=seq.depth)
    if spec.startswith("case:"):
        nk = _spec_int(spec)
        seq = _build_seq(cfg, min_depth=2 * nk + 1)
        return build_case(nk, seq).func, replace(cfg, depth=seq.depth)
    raise ConfigError(f"unknown function spec {spec!r}")


def cmd_norms(cfg: RunConfig) -> tuple[dict[str, ExperimentReport], bool]:
    if (cfg.mean is None) != (cfg.mean_n is None):
        raise ConfigError("--mean and --mean-n must be given together")
    if cfg.mean_n == 0:
        raise ConfigError("--mean-n must be at least 1")
    f, cfg = _resolve_fn(cfg)
    label = cfg.fn
    report = ExperimentReport(columns=list(NORMS_COLUMNS))
    _echo_config(report, cfg, "norms")
    mean = None
    if cfg.mean is not None:
        mean = norlund_mean(f, cfg.mean_n, weight_sequence_from_spec(cfg.mean, cfg.mean_n))
    for p in cfg.p:
        mean_lp = None if mean is None else lp_quasinorm(mean, p)
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
    return {"": report}, True


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


# Each command: (handler, defaults, option names, help).  A handler returns
# its reports keyed by sibling tag ("" for the --out file) and whether every
# assertion row passed.
_COMMANDS = {
    "transform": (
        cmd_transform,
        RunConfig(depth=_DefaultDepth(12), samples=3),
        ("radices", "depth", "samples", "seed", "out"),
        "round trip, Parseval and op-count table (defaults: radices=2, depth=12, samples=3)",
    ),
    "theorem-a": (
        cmd_theorem_a,
        RunConfig(depth=_DefaultDepth(8), nmax=200, samples=20),
        ("radices", "depth", "p", "weight", "nmax", "samples", "seed", "out"),
        "domination checks and atom ratio sweep "
        "(defaults: radices=2, depth=8, p=0.5, nmax=200, samples=20, weight=power:(1/p-1))",
    ),
    "theorem-b": (
        cmd_theorem_b,
        RunConfig(p=(0.5,), weight="log"),
        ("radices", "depth", "p", "weight", "k_list", "seed", "out", "theta_samples"),
        "case verifications, divergence sweep and theta bracket "
        "(defaults: radices=2, k-list=1..6, p=0.5, weight=log)",
    ),
    "norms": (
        cmd_norms,
        RunConfig(depth=_DefaultDepth(6)),
        ("radices", "depth", "p", "fn", "mean", "mean_n", "out"),
        "quasi-norm table for a stored or built-in function "
        "(defaults: radices=2, depth=6, p=0.5)",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlab",
        description="Harmonic-analysis experiments on truncated bounded Vilenkin groups.",
    )
    parser.add_argument("--version", action="version", version=f"vlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, _, names, help_text) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument("--config", help="flat key=value config file")
        for name in names:
            sub.add_argument("--" + name.replace("_", "-"), dest=name, help=_OPTIONS[name][1])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, defaults, _, _ = _COMMANDS[args.command]
    try:
        cfg = resolve_config(defaults, args)
        if cfg.out is not None:
            _check_writable(cfg.out)
        reports, ok = handler(cfg)
        if cfg.out is not None:
            for tag, rep in reports.items():
                path = _sibling(cfg.out, tag) if tag else cfg.out
                with _writing(path):
                    rep.write(path)
                print(f"wrote {path}")
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return 0 if ok else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VilenkinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # devnull takes what stdout still buffers, so exit flushes
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        print("error: standard output closed before the run ended", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
