import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vlab.cli import (
    ATOM_COLUMNS,
    DOMINATION_COLUMNS,
    RunConfig,
    _COMMANDS,
    _echo_config,
    build_parser,
    load_config_file,
    main,
    resolve_config,
)
import vlab
import vlab.counterexample as counterexample_mod
import vlab.group_core as group_core
import vlab.means as means_mod
import vlab.transform as transform_mod
from vlab.counterexample import SWEEP_COLUMNS, build_case, sweep_row
from vlab.errors import ConfigError
from vlab.group_core import build_radix
from vlab.operators import log_weight
from vlab.report import format_cell
from vlab.step_functions import StepFunction, lp_quasinorm
from vlab.transform import OpCount, fast_op_bound, forward_fast, forward_naive, inverse


def run(argv):
    return main(argv)


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, lines[1:]


def test_transform_small(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = run(["transform", "--radices", "2,3", "--depth", "4", "--samples", "2",
                "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header[0] == "sample_id"
    assert len(rows) == 2
    assert all(row.endswith("true") for row in rows)
    text = capsys.readouterr().out
    assert "timing (console only)" in text
    # depth 0: the one-point group, whose only op is the 1/M_N scaling
    assert run(["transform", "--depth", "0", "--samples", "1", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert rows[0].endswith("true")


def test_transform_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["transform", "--radices", "2,3", "--depth", "4", "--samples", "2", "--seed", "5"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes().replace(b"a.csv", b"") == b.read_bytes().replace(b"b.csv", b"")


def test_transform_empty_radices_is_config_error(tmp_path):
    code = run(["transform", "--radices", "", "--out", str(tmp_path / "t.csv")])
    assert code == 2


def _reports_under_blas_threads(tmp_path, argv, names):
    """Run ``vlab <argv> --out r.csv`` in a fresh process under 1 and 2
    OpenBLAS threads; the reports ``names`` of each run, without the
    ``# out=`` line."""
    src = Path(vlab.__file__).resolve().parents[1]
    runs = []
    for threads in ("1", "2"):
        work = tmp_path / f"t{threads}"
        work.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-m", "vlab", *argv, "--out", str(work / "r.csv")],
                       env=env, check=True, capture_output=True, timeout=120)
        runs.append([[l for l in (work / name).read_text().splitlines()
                      if not l.startswith("# out=")] for name in names])
    return runs


# M_N = 288, 900, 1296, 2500 and 19683, none a multiple of OpenBLAS's inner
# block; there the oracle's complex products would split their sums by
# thread count if they exceeded transform.PRODUCT_MADDS (at 2500 and 19683
# they did under a cap of 2^18).  The oracle's kernel factors go through
# the fast path's left-hand product rule: at M_N = 4096 dyadic each
# 64-point factor takes products of all 64 rows on 8 columns, at 2^14
# each 128-point factor of 2 columns.  At 2^17 the 512-point half is
# split again into kernels of 16 and 32 points beside the 256-point one,
# whose products take 128 rows of one column.  The 250-point factor of
# (10,25,10) takes 13 kernel rows over all 10 columns.  One digit of
# more than 256 points, the 300-point digit of (3,300) and the digit of
# 1296, is numpy's FFT, with no BLAS product; the fast path's kernel of
# 1296 takes 25-row products from the left.  The fast path's first chunk
# is applied from the right, in stacked products of rows: 32 rows of 32
# floats on dyadic groups (K (x) I_2 of the 16-point kernel), up to 227
# rows of 12 values on (2,3,2).  At 2^14 and 2^16 its later chunk products at
# scales of 256 and more split their columns under the cap.
@pytest.mark.parametrize("argv", [
    ["--radices", "2,3,2,4", "--depth", "6", "--samples", "10", "--seed", "7"],
    ["--radices", "2,3", "--depth", "8", "--samples", "4", "--seed", "7"],
    ["--radices", "2", "--depth", "12", "--samples", "2", "--seed", "7"],
    ["--radices", "2", "--depth", "14", "--samples", "2", "--seed", "7"],
    ["--radices", "1296", "--depth", "1", "--samples", "2", "--seed", "7"],
    ["--radices", "10,25", "--depth", "3", "--samples", "2", "--seed", "7"],
    ["--radices", "3", "--depth", "9", "--samples", "2", "--seed", "7"],
    ["--radices", "2", "--depth", "16", "--samples", "2", "--seed", "7"],
    ["--radices", "3,300", "--depth", "2", "--samples", "2", "--seed", "7"],
    ["--radices", "2", "--depth", "17", "--samples", "1", "--seed", "7"],
])
def test_transform_report_is_independent_of_blas_threads(tmp_path, argv):
    one, two = _reports_under_blas_threads(tmp_path, ["transform", *argv], ["r.csv"])
    assert one == two


# theorem-a's log-mean blocks are products of several shapes: at nmax 150
# on (2,3) the blocks cross the level cut at M_5 = 72, and at nmax = M_N
# = 512 dyadic every scale from 64 up cuts a level; the domination
# workload's setting, and nmax 1500 on 2^11, whose widest level products
# (64 orders by 2048 points) are the largest of these
@pytest.mark.parametrize("argv, names", [
    (["theorem-a", "--radices", "2,3", "--depth", "6", "--nmax", "150", "--samples", "10",
      "--seed", "7"], ["r.csv", "r.domination.csv"]),
    (["theorem-a", "--radices", "2", "--depth", "9", "--nmax", "512", "--samples", "6",
      "--seed", "7"], ["r.csv", "r.domination.csv"]),
    (["theorem-a", "--radices", "2,3", "--depth", "8", "--nmax", "300", "--samples", "4",
      "--seed", "7"], ["r.csv", "r.domination.csv"]),
    (["theorem-a", "--radices", "2", "--depth", "11", "--nmax", "1500", "--samples", "2",
      "--seed", "7"], ["r.csv", "r.domination.csv"]),
    (["theorem-b", "--radices", "2", "--k-list", "1,2,3,4,5,6", "--theta-samples", "5",
      "--seed", "7"], ["r.csv", "r.theta.csv"]),
], ids=["theorem-a-2,3-150", "theorem-a-2-MN", "theorem-a-domination", "theorem-a-2-1500",
        "theorem-b"])
def test_mean_reports_are_independent_of_blas_threads(tmp_path, argv, names):
    one, two = _reports_under_blas_threads(tmp_path, argv, names)
    assert one == two


@pytest.mark.parametrize("argv", [
    ["theorem-b", "--k-list", "1,2,3", "--theta-samples", "2"],
    ["norms", "--fn", "dirichlet:5"],
])
def test_commands_leave_numpy_ma_unimported(tmp_path, argv):
    # numpy imports numpy.ma on the first np.unique call, 10-15 ms of a
    # short command's start-up
    src = Path(vlab.__file__).resolve().parents[1]
    code = ("import sys; from vlab.cli import main; "
            "print(main(sys.argv[1:]), 'numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(tmp_path / "r.csv")],
                         env=env, check=True, capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "0 False"


def test_oracle_workload_report_is_the_object_api_rows(tmp_path):
    # the benchmark's oracle run, whose samples are checked two to a block:
    # each row as its sample alone gives it through StepFunction and
    # CoefficientVector, drawn from its own seed
    out = tmp_path / "table.csv"
    assert run(["transform", "--radices", "2", "--depth", "12", "--samples", "100",
                "--seed", "1", "--out", str(out)]) == 0
    seq = build_radix((2,), 12)
    bound, ops_naive = fast_op_bound(seq), seq.size**2
    want = []
    for i, child in enumerate(np.random.SeedSequence(1).spawn(100)):
        rng = np.random.default_rng(child)
        f = StepFunction(seq, rng.standard_normal(seq.size) + 1j * rng.standard_normal(seq.size))
        ops = OpCount()
        fast = forward_fast(f, ops)
        err = float(np.max(np.abs(fast.coeffs - forward_naive(f).coeffs)))
        energy = float(np.sum(np.abs(f.values) ** 2)) / seq.size
        parseval = abs(energy - float(np.sum(np.abs(fast.coeffs) ** 2))) / energy
        roundtrip = float(np.max(np.abs(inverse(fast).values - f.values)))
        ok = max(err, parseval, roundtrip) <= 1e-9 and ops.madds <= bound
        assert ops.madds == 200_704
        row = (i, seq.size, err, parseval, roundtrip, ops.madds, ops_naive, bound,
               ops.madds / ops_naive, ok)
        want.append(",".join(map(format_cell, row)))
    assert read_rows(out)[1] == want


def test_transform_default_scale_op_ratio(tmp_path):
    # at the default dyadic M_N = 4096 the fast path needs fewer than a
    # tenth of the naive multiply-adds
    out = tmp_path / "t.csv"
    code = run(["transform", "--samples", "1", "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    ratio = float(rows[0].split(",")[header.index("ops_ratio")])
    assert ratio < 0.1
    assert int(rows[0].split(",")[header.index("ops_naive")]) == 4096**2


def test_theorem_a_small(tmp_path):
    out = tmp_path / "a.csv"
    code = run(["theorem-a", "--depth", "6", "--nmax", "40", "--samples", "3",
                "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ATOM_COLUMNS
    assert len(rows) == 3
    dom_path = tmp_path / "a.domination.csv"
    dheader, drows = read_rows(dom_path)
    assert dheader == DOMINATION_COLUMNS
    assert len(drows) == 3
    assert all(row.endswith("true") for row in drows)


def test_theorem_a_zero_samples_gives_empty_valid_csv(tmp_path):
    out = tmp_path / "a.csv"
    code = run(["theorem-a", "--depth", "5", "--samples", "0", "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ATOM_COLUMNS
    assert rows == []


def test_theorem_b_small(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code = run(["theorem-b", "--k-list", "1,2,3", "--theta-samples", "2", "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == SWEEP_COLUMNS
    assert len(rows) == 3
    # the first case row carries the 20/49 modulus
    first = rows[0].split(",")
    assert abs(float(first[7]) - 20 / 49) <= 1e-12
    ratios = [float(r.split(",")[9]) for r in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert (tmp_path / "b.theta.csv").exists()
    text = capsys.readouterr().out
    assert "strictly increasing" in text


@pytest.mark.parametrize("p", ["0.7", "0.9"])
def test_theorem_b_asserts_growth_where_the_comparator_grows(capsys, p):
    # the comparator falls over the first cases at these p, and R_k with it
    assert run(["theorem-b", "--p", p, "--theta-samples", "1"]) == 0
    assert f"[ok] divergence ratios strictly increasing, p={p}" in capsys.readouterr().out


@pytest.mark.parametrize("p, asserted", [("0.5", 5), ("0.9", 0)])
def test_theorem_b_counts_the_growth_steps_it_asserts(capsys, p, asserted):
    # the comparator grows on every step at p = 0.5 and on none at p = 0.9
    assert run(["theorem-b", "--p", p, "--theta-samples", "1"]) == 0
    want = f"[ok] divergence ratios strictly increasing, p={p} ({asserted} of 5 steps)"
    assert want in capsys.readouterr().out.splitlines()


def test_theorem_b_fails_when_r_k_falls_where_the_comparator_grows(monkeypatch, capsys):
    real = counterexample_mod.sweep_row

    def last_falls(position, case, p, weight):
        row = real(position, case, p, weight)
        return (*row[:9], row[9] / 100, row[10]) if position == 6 else row

    monkeypatch.setattr(counterexample_mod, "sweep_row", last_falls)
    assert run(["theorem-b", "--p", "0.7", "--theta-samples", "1"]) == 1
    assert "[FAIL] divergence ratios strictly increasing, p=0.7" in capsys.readouterr().out


def test_theorem_b_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["theorem-b", "--k-list", "1,2,3,4", "--theta-samples", "2", "--seed", "3"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes().replace(b"a.csv", b"") == b.read_bytes().replace(b"b.csv", b"")
    assert (tmp_path / "a.theta.csv").read_bytes() == (tmp_path / "b.theta.csv").read_bytes()


def test_theorem_b_flags_condition6_violation(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code = run(["theorem-b", "--k-list", "1,2", "--weight", "power:1",
                "--theta-samples", "1", "--out", str(out)])
    assert code == 0  # growth is not asserted for a violating weight
    text = capsys.readouterr().out
    assert "condition6 violated" in text
    assert "condition6_p0.5=violated" in out.read_text()


def test_norms_on_dirichlet(tmp_path):
    out = tmp_path / "n.csv"
    code = run(["norms", "--fn", "dirichlet:4", "--radices", "2", "--depth", "3",
                "--p", "0.5,0.8", "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert len(rows) == 2
    lp = float(rows[0].split(",")[2])
    # synthesized kernels carry ~1e-16 cell noise, which a p = 1/2
    # quasi-norm amplifies to ~1e-8 relative
    assert lp == pytest.approx(0.25, rel=1e-6)  # ||D_4||_{1/2} on the dyadic group


def test_norms_round_trips_function_file(tmp_path, write_step):
    from vlab.group_core import build_radix
    from vlab.step_functions import StepFunction

    seq = build_radix((2, 3, 2))
    rng = np.random.default_rng(1)
    f = StepFunction(seq, rng.standard_normal(seq.size))
    path = tmp_path / "f.step"
    write_step(path, f)
    out = tmp_path / "n.csv"
    code = run(["norms", "--fn", f"file:{path}", "--p", "0.5", "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    assert float(rows[0].split(",")[2]) == pytest.approx(lp_quasinorm(f, 0.5), rel=1e-12)


def test_norms_file_report_echoes_the_files_group(tmp_path, write_step):
    from vlab.step_functions import StepFunction

    path = tmp_path / "f.step"
    write_step(path, StepFunction(build_radix((2, 3, 2)), np.arange(12.0)))
    out = tmp_path / "n.csv"
    assert run(["norms", "--fn", f"file:{path}", "--out", str(out)]) == 0
    meta = [l for l in out.read_text().splitlines() if l.startswith("#")]
    # the report names the group the file lives on, not the command's default
    assert "# radices=2,3,2" in meta and "# depth=3" in meta


def test_reports_echo_the_parsed_radix_pattern(tmp_path):
    out = tmp_path / "n.csv"
    assert run(["norms", "--fn", "dirichlet:2", "--radices", " 2 , 3 ", "--out", str(out)]) == 0
    assert "# radices=2,3\n" in out.read_text()


@pytest.mark.parametrize("tail,code", [(" \n", 0), ("0,0\n", 2)], ids=["blank", "values"])
def test_step_file_tail_is_read_in_chunks(tmp_path, capsys, tail, code):
    # a 2-point file with a 16 MiB tail: blank lines load, and extra value
    # lines are refused at the tail's first chunk; neither read holds the tail
    path = tmp_path / "f.step"
    path.write_text("radices=2;N=1\n1,0\n0,0\n" + tail * (2**24 // len(tail)))
    tracemalloc.start()
    try:
        rc = run(["norms", "--fn", f"file:{path}"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (rc, peak < 2**20) == (code, True), peak
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == (1 if code else 0)


def test_norms_with_mean_families(tmp_path):
    wfile = tmp_path / "w.txt"
    wfile.write_text("\n".join("1" for _ in range(10)) + "\n")
    for mean in ("ones", "log", f"custom:{wfile}"):
        code = run(["norms", "--fn", "dirichlet:2", "--radices", "2", "--depth", "3",
                    "--mean", mean, "--mean-n", "5"])
        assert code == 0


def test_norms_needs_fn():
    assert run(["norms"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem-a", "--depth", "4", "--weight", "custom:{missing}"],
        ["theorem-a", "--depth", "4", "--weight", "custom:{bad}"],
        ["norms", "--fn", "dirichlet:2", "--mean", "custom:{bad}", "--mean-n", "3"],
        ["norms", "--fn", "dirichlet:abc"],
        ["norms", "--fn", "case:abc"],
        ["norms", "--fn", "file:{missing}"],
        ["norms", "--fn", "file:{deep}"],
        ["norms", "--fn", "file:{short}"],
        ["norms", "--fn", "file:{garbage}"],
        ["norms", "--fn", "dirichlet:3", "--out", "{missing}/x.csv"],
        ["transform", "--depth", "2", "--samples", "1", "--seed", "-1"],
        ["theorem-b", "--k-list", "1", "--theta-samples", "-1"],
        ["theorem-a", "--depth", "2", "--samples", "0", "--weight", "log", "--p", "inf"],
        ["norms", "--fn", "dirichlet:1", "--mean", "ones", "--mean-n", "-1"],
        ["norms", "--fn", "dirichlet:1", "--config", "{latin}"],
        ["norms", "--fn", "dirichlet:3", "--mean", "log"],
        ["norms", "--fn", "dirichlet:3", "--mean", "log", "--mean-n", "0"],
        ["norms", "--fn", "dirichlet:3", "--mean-n", "3"],
        ["norms", "--fn", "file:{coeffs}"],
        ["norms", "--fn", "file:{long}"],
        # an empty value is an error, not the default
        ["theorem-a", "--depth", "3", "--samples", "1", "--nmax", "4", "--weight", ""],
        ["theorem-b", "--k-list", "1", "--theta-samples", "0", "--weight", ""],
        ["norms", "--fn", "dirichlet:2", "--mean", "", "--mean-n", "3"],
        ["norms", "--fn", "dirichlet:2", "--out", ""],
        # case indices must be strictly increasing
        ["theorem-b", "--k-list", "1,1", "--theta-samples", "0"],
        ["theorem-b", "--k-list", "3,1,2", "--theta-samples", "0"],
        ["theorem-b", "--config", "{unordered}", "--theta-samples", "0"],
        # p so small that (2 M_N)^(1/p) overflows a float
        ["theorem-b", "--p", "0.01"],
        ["theorem-b", "--k-list", "1", "--theta-samples", "0", "--p", "1e-4"],
        ["theorem-a", "--p", "1e-3", "--samples", "5"],
        ["theorem-a", "--depth", "3", "--nmax", "4", "--samples", "2", "--p", "1e-4"],
        # a radix pattern is a non-empty list of integers
        ["transform", "--radices", "", "--samples", "1"],
        ["transform", "--radices", "2,x", "--samples", "1"],
    ],
)
def test_bad_input_is_one_line_exit_two(tmp_path, capsys, argv):
    files = {
        "bad": "abc\n",
        "deep": "radices=2;N=2\n",  # cycled to 2,2: none of four value lines
        "short": "radices=2;N=1\n0,0\n",  # one of two value lines
        "garbage": "garbage\n",
        "coeffs": "radices=2;N=1;kind=coeffs\n1,0\n0,0\n",  # not a step function
        "long": "radices=2;N=1\n1,0\n0,0\n0,0\n",  # three of two value lines
        "unordered": "k_list=2,1\n",
    }
    paths = {"missing": tmp_path / "missing.txt", "latin": tmp_path / "latin.cfg"}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    paths["latin"].write_bytes(b"fn=caf\xe9\n")  # not ascii
    argv = [a.format(**paths) for a in argv]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem-a", "--depth", "3", "--nmax", "8", "--samples", "2", "--p", "0.5,1.5"],
        ["theorem-a", "--depth", "3", "--nmax", "8", "--samples", "2", "--p", "0.5,0.5"],
        ["theorem-b", "--k-list", "1", "--theta-samples", "0", "--p", "0.5,1.5"],
        ["theorem-b", "--k-list", "1", "--theta-samples", "0", "--p", "0.5,1"],
        ["theorem-b", "--k-list", "1", "--theta-samples", "0", "--p", "0.5,0.3,0.50"],
        ["theorem-b", "--p", "0.5,0.01"],
    ],
    ids=["a-above-one", "a-repeat", "b-above-one", "b-one", "b-repeat", "b-tiny"],
)
def test_p_list_is_checked_before_any_work(capsys, argv):
    # an exponent outside 0 < p < 1, a repeated one or one too small for the
    # group fails the run before the first p is worked on: no [ok] line, one
    # error line
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("out", ["{tmp}/missing/x.csv", "{tmp}"], ids=["no_dir", "is_dir"])
def test_unwritable_out_fails_before_the_run(tmp_path, capsys, out):
    # a missing directory or a directory as the path is refused before
    # any case is verified, and no file is created
    out = out.format(tmp=tmp_path)
    assert run(["theorem-b", "--k-list", "1", "--out", out]) == 2
    captured = capsys.readouterr()
    assert "[ok]" not in captured.out
    assert captured.err.strip().splitlines() == [f"config error: cannot write {out}"]
    assert list(tmp_path.iterdir()) == []


def test_theorem_b_single_case(tmp_path, capsys):
    # --k-list <nk> is the one-case run: one sweep row per p, and the
    # console line carries the magnitudes behind each check
    out = tmp_path / "b.csv"
    assert run(["theorem-b", "--k-list", "1", "--p", "0.5,0.3", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == SWEEP_COLUMNS
    case = build_case(1, build_radix((2, 2, 2)))
    assert rows == [
        ",".join(format_cell(c) for c in sweep_row(1, case, p, log_weight())) for p in (0.5, 0.3)
    ]
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("[ok] case n_k=1")]
    assert len(lines) == 2
    for word in ("max err", "zero", "middle", "tail", "measured", "closed", "bound",
                 "modulus", "predicted", "levelset 1"):
        assert all(word in line for line in lines), word


def test_default_depth_is_a_floor(tmp_path):
    # norms defaults to depth 6; case:3 needs 7, which an unset depth grows to
    out = tmp_path / "n.csv"
    assert run(["norms", "--fn", "case:3", "--out", str(out)]) == 0
    assert "# depth=7\n" in out.read_text()
    assert run(["norms", "--fn", "dirichlet:4", "--out", str(out)]) == 0
    assert "# depth=6\n" in out.read_text()
    # a depth the user sets is never raised
    assert run(["norms", "--fn", "case:3", "--depth", "6"]) == 2
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("depth=6\n")
    assert run(["norms", "--fn", "case:3", "--config", str(cfg_path)]) == 2


def test_failing_assertion_rows_give_exit_one(monkeypatch):
    import vlab.cli as cli_mod
    from vlab.report import ExperimentReport

    def broken(cfg):
        return {"": ExperimentReport(columns=["x"])}, False

    _, defaults, names, help_text = cli_mod._COMMANDS["transform"]
    monkeypatch.setitem(cli_mod._COMMANDS, "transform", (broken, defaults, names, help_text))
    assert run(["transform"]) == 1


@pytest.mark.parametrize("argv", [
    ["norms", "--fn", "dirichlet:3"],
    ["theorem-b", "--k-list", "1,2", "--theta-samples", "0"],
], ids=["norms", "theorem-b"])
def test_closed_stdout_is_one_line_exit_two(argv):
    # stdout is a pipe whose read end is closed, as after `| head -c 10`
    # exits: exit 1 is kept for a failed assertion row
    src = Path(vlab.__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "vlab", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(src)},
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == [
        "error: standard output closed before the run ended"
    ]


def test_option_and_command_tables_agree():
    import argparse
    from dataclasses import fields

    import vlab.cli as cli_mod

    assert set(cli_mod._OPTIONS) == {f.name for f in fields(RunConfig)}
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subs.choices) == list(cli_mod._COMMANDS)
    for command, (_, defaults, names, _) in cli_mod._COMMANDS.items():
        assert isinstance(defaults, RunConfig)
        assert set(names) <= set(cli_mod._OPTIONS)
        dests = {a.dest for a in subs.choices[command]._actions if a.dest != "help"}
        assert dests == {"config", *names}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_reports_echo_only_the_options_a_command_takes(command):
    from dataclasses import fields

    from vlab.report import ExperimentReport

    # every field set, so only the command's option list can drop one
    cfg = RunConfig(depth=3, weight="log", out="x.csv", fn="dirichlet:1", mean="ones",
                    mean_n=2)
    report = ExperimentReport(columns=["x"])
    _echo_config(report, cfg, command)
    names = _COMMANDS[command][2]
    assert list(report.meta) == [
        "tool_version", "command", *(f.name for f in fields(RunConfig) if f.name in names)
    ]


def test_config_file_and_flag_precedence(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("# comment\nradices=2,3\ndepth=4\nsamples=2\nseed=9\n")
    raw = load_config_file(cfg_path)
    assert raw == {"radices": "2,3", "depth": "4", "samples": "2", "seed": "9"}

    import argparse

    args = argparse.Namespace(config=str(cfg_path), samples="7", radices=None)
    cfg = resolve_config(RunConfig(), args)
    assert cfg.radices == (2, 3)  # from file
    assert cfg.samples == 7  # flag wins over file
    assert cfg.seed == 9


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("volume=11\n")

    import argparse

    with pytest.raises(ConfigError):
        resolve_config(RunConfig(), argparse.Namespace(config=str(cfg_path)))


def test_theorem_a_reruns_same_bytes(tmp_path):
    # the first run builds the cached stack plan, the second reads it: its
    # character rows are psi_0 .. psi_39 on all 72 points of the group,
    # 40 * 72 entries
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["theorem-a", "--radices", "2,3", "--depth", "5", "--nmax", "40", "--samples", "4"]
    means_mod._stack_plan.cache_clear()
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert means_mod._stack_plan.cache_info().misses == 1
    shared, _ = means_mod._stack_plan(build_radix((2, 3), 5), 40)
    assert shared.nbytes == 40 * 72 * 16
    assert shared.flags.writeable is False
    assert a.read_bytes().replace(b"a.csv", b"") == b.read_bytes().replace(b"b.csv", b"")
    dom_a = (tmp_path / "a.domination.csv").read_bytes()
    dom_b = (tmp_path / "b.domination.csv").read_bytes()
    assert dom_a.replace(b"a.csv", b"") == dom_b.replace(b"b.csv", b"")


@pytest.mark.parametrize("argv", [
    ["theorem-a", "--weight", "power:400", "--samples", "2"],
    ["theorem-b", "--weight", "power:400", "--k-list", "1,2"],
], ids=["theorem-a", "theorem-b"])
def test_overflowing_weight_is_exit_two(tmp_path, capsys, argv):
    # phi(n) = n^400 overflows a float from n = 6 on; the run stops with
    # one error line and writes no report, where the sup used to skip
    # every order with phi = inf and pass
    assert run([*argv, "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: weight power:400 is not finite at n=")
    assert list(tmp_path.iterdir()) == []


def test_theorem_a_reads_a_weight_file_once(tmp_path, monkeypatch):
    import vlab.operators as operators_mod

    wfile = tmp_path / "w.txt"
    wfile.write_text("\n".join(str(1 + n) for n in range(40)) + "\n")
    reads = []
    real = operators_mod.weights_from_file

    def counting(path):
        reads.append(path)
        return real(path)

    monkeypatch.setattr(operators_mod, "weights_from_file", counting)
    argv = ["theorem-a", "--depth", "4", "--nmax", "12", "--samples", "2",
            "--p", "0.5,0.7", "--weight", f"custom:{wfile}"]
    assert run(argv) == 0
    assert reads == [str(wfile)]


def test_theorem_a_builds_character_rows_once(monkeypatch):
    # nmax = 300 puts the stacks on M_7 = 432 of the 1296 points,
    # packed in levels of 72, 216 and 432 points that each fit one block,
    # so psi_0..psi_299 are 3 builds; every domination check and atom
    # maximal of the run shares them
    calls = []
    real = means_mod.character_rows

    def counting(seq, lo, hi):
        calls.append((lo, hi))
        return real(seq, lo, hi)

    monkeypatch.setattr(means_mod, "character_rows", counting)
    means_mod._stack_plan.cache_clear()
    argv = ["theorem-a", "--radices", "2,3", "--depth", "8", "--nmax", "300", "--samples", "4"]
    assert run(argv) == 0
    assert calls == [(0, 72), (72, 216), (216, 300)]


def test_theorem_b_builds_each_case_once(monkeypatch):
    # each case is built, transformed, averaged at n* and maximized once
    # per run (the mean runs its own forward pass); only the Hardy check,
    # the sweep and the bracket repeat per p
    import collections

    import vlab.cli as cli_mod
    import vlab.counterexample as cx_mod
    import vlab.step_functions as sf_mod
    import vlab.transform as transform_mod

    calls = collections.Counter()
    names = ["build_case", "forward_fast", "log_mean", "maximal_function",
             "verify_coefficients", "verify_partial_sums", "l_mean_identity",
             "verify_hardy_bound"]
    for module in (cli_mod, cx_mod, sf_mod, transform_mod):
        for name in names:
            if hasattr(module, name):
                real = getattr(module, name)

                def counting(*args, _real=real, _name=name, **kwargs):
                    calls[_name] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)
    argv = ["theorem-b", "--k-list", "1,2,3", "--p", "0.4,0.6", "--theta-samples", "0"]
    assert run(argv) == 0
    assert calls == {
        "build_case": 3,
        "forward_fast": 6,
        "log_mean": 3,
        "maximal_function": 3,
        "verify_coefficients": 3,
        "verify_partial_sums": 3,
        "l_mean_identity": 3,
        "verify_hardy_bound": 6,
    }


def test_stack_beyond_physical_memory_is_exit_two(monkeypatch, capsys):
    # packed rows plus stack would take 2 * 700416 * 16 bytes (21 MiB),
    # beside 557056 * 8 bytes of log-mean triangles, one (len(ns), max(ns))
    # per block of at most 64 orders of a level; a 1 MiB budget stands in
    # for physical memory, so nothing that size is allocated
    monkeypatch.setattr(group_core, "_physical_memory", lambda: 2**20)
    means_mod._stack_plan.cache_clear()
    argv = ["theorem-a", "--radices", "2", "--depth", "10", "--nmax", "1024", "--samples", "2"]
    tracemalloc.start()
    try:
        rc = run(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "error: partial-sum stack for n_max=1024, M_r=1024 needs 26869760 bytes, "
        "physical memory is 1048576"
    ]
    assert peak < 2**20


def _transform_peak(argv):
    """Exit code and tracemalloc peak of one transform run, no kernels,
    factor matrices or roots cached before it."""
    transform_mod._chunk_kernel.cache_clear()
    transform_mod._roots.cache_clear()
    tracemalloc.start()
    try:
        rc = run(["transform", *argv])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return rc, peak


@pytest.mark.parametrize("depth", [12, 13, 14, 15, 16, 17])
@pytest.mark.parametrize("samples", [3, 20])
def test_group_rule_covers_the_transform_peak(depth, samples):
    # the group rule's 192 bytes per point cover what a run really holds: at
    # depth 12 a block of two samples, from depth 13 on one; at depth 17 the
    # 512-point half is split again into cached kernels of 16 and 32 points
    rc, peak = _transform_peak(["--depth", str(depth), "--samples", str(samples)])
    assert rc == 0
    assert 192 * 2**depth >= peak


def test_warm_transform_takes_few_page_faults(tmp_path):
    # a block's arrays at 4096 points, 128 KiB each, are handed back to glibc
    # and taken again by the next block without faulting in pages; blocks of
    # four samples, whose 256 KiB arrays glibc trims and faults in again,
    # took about 5,600 faults per warm run (TRANSFORM_POINTS = 2^14)
    resource = pytest.importorskip("resource")
    argv = ["transform", "--depth", "12", "--samples", "100", "--out", str(tmp_path / "t.csv")]
    assert run(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert run(argv) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 400, faults


def test_transform_peak_is_flat_in_samples():
    # one block at a time, of one sample at 2^14: 20 samples peak within 5%
    # of 2, where the batch layout held all of them at once
    assert run(["transform", "--depth", "2", "--samples", "1"]) == 0  # first-run imports
    (rc2, two), (rc20, twenty) = (
        _transform_peak(["--depth", "14", "--samples", str(s)]) for s in (2, 20)
    )
    assert rc2 == rc20 == 0
    assert abs(twenty - two) <= 0.05 * two


@pytest.mark.parametrize("depth, builds", [(12, 2 + 1), (14, 4 + 1)], ids=["12", "14"])
def test_transform_builds_factor_rows_once_per_run(monkeypatch, depth, builds):
    # both factors of 2^12 and 2^14 are one group of 64 or 128 points, one
    # cached matrix, built once whatever the number of samples, beside the
    # forward and inverse kernels of the fast path's chunks of 16 points
    # (and of 4 at depth 14)
    real = transform_mod.character_rows
    calls = []

    def counting(seq, lo, hi):
        calls.append((seq, lo, hi))
        return real(seq, lo, hi)

    monkeypatch.setattr(transform_mod, "character_rows", counting)
    counts = []
    for samples in (2, 20):
        calls.clear()
        transform_mod._chunk_kernel.cache_clear()
        assert run(["transform", "--depth", str(depth), "--samples", str(samples)]) == 0
        counts.append(len(calls))
    assert counts == [builds, builds]


def test_transform_kernel_beyond_physical_memory_is_exit_two(monkeypatch, capsys):
    # on the one-digit group (400,) the inverse transform behind dirichlet:3
    # needs a 400 x 400 kernel, refused at 40 * 400^2 bytes (6.4 MB; its
    # build peaks at 5.1 MB); the check runs before the build
    monkeypatch.setattr(group_core, "_physical_memory", lambda: 2**20)
    transform_mod._chunk_kernel.cache_clear()
    tracemalloc.start()
    try:
        rc = run(["norms", "--radices", "400", "--depth", "1", "--fn", "dirichlet:3"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "error: transform kernel of 400 points needs 6400000 bytes, "
        "physical memory is 1048576"
    ]
    assert peak < 2**20


def test_transform_refuses_the_kernel_before_the_oracle(monkeypatch, capsys):
    # on the one-digit group (400,) a 5 MiB budget passes the group check
    # (76,800 B) but not the fast path's 400 x 400 kernel (6,400,000 B),
    # which is refused before the oracle runs
    import vlab.cli as cli_mod

    calls = []
    real = cli_mod.forward_naive_block
    monkeypatch.setattr(cli_mod, "forward_naive_block", lambda v, seq: calls.append(v) or real(v, seq))
    monkeypatch.setattr(group_core, "_physical_memory", lambda: 5 * 2**20)
    transform_mod._chunk_kernel.cache_clear()
    assert run(["transform", "--radices", "400", "--depth", "1"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: transform kernel of 400 points needs 6400000 bytes, physical memory is 5242880"
    ]
    assert calls == []


def _refused(argv, capsys):
    """Exit code, stderr lines and tracemalloc peak of one run."""
    tracemalloc.start()
    try:
        rc = run(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return rc, capsys.readouterr().err.splitlines(), peak


@pytest.mark.parametrize(
    "argv, size",
    [
        (["norms", "--fn", "dirichlet:3", "--depth", "16"], 2**16),
        (["theorem-a", "--depth", "16", "--samples", "1", "--nmax", "4"], 2**16),
        (["theorem-b", "--k-list", "7", "--theta-samples", "1"], 2**15),
        (["transform", "--depth", "16", "--samples", "1"], 2**16),
    ],
    ids=["norms", "theorem-a", "theorem-b", "transform"],
)
def test_group_beyond_physical_memory_is_exit_two(monkeypatch, capsys, argv, size):
    # a command's arrays on a group take up to 192 bytes per point; under a
    # 1 MiB budget the group is refused where it is built, before any array
    # of M_N complex values (1 MiB at M_N = 2^16) is allocated
    monkeypatch.setattr(group_core, "_physical_memory", lambda: 2**20)
    rc, err, peak = _refused(argv, capsys)
    assert rc == 2
    assert err == [
        f"error: a group of M_N={size} needs {192 * size} bytes, physical memory is 1048576"
    ]
    assert peak < 2**20


def test_step_file_group_beyond_physical_memory_is_exit_two(
    monkeypatch, capsys, tmp_path, write_step
):
    # a file on 2^14 points loads within a 1 MiB budget (its values and their
    # copy take 512 KiB), but the norms it is read for would not fit
    path = tmp_path / "f.txt"
    seq = build_radix((2,) * 14)
    write_step(path, StepFunction(seq, np.zeros(seq.size)))
    monkeypatch.setattr(group_core, "_physical_memory", lambda: 2**20)
    rc, err, peak = _refused(["norms", "--fn", f"file:{path}"], capsys)
    assert rc == 2
    assert err == ["error: a group of M_N=16384 needs 3145728 bytes, physical memory is 1048576"]
    assert peak < 2**20


def test_step_file_header_beyond_physical_memory_is_exit_two(monkeypatch, capsys, tmp_path):
    # a header naming 2^16 points is refused before the loader's 2 MiB of
    # values and copy are allocated, whether or not value lines follow
    path = tmp_path / "f.txt"
    path.write_text("radices=" + ",".join(["2"] * 16) + ";N=16\n")
    monkeypatch.setattr(group_core, "_physical_memory", lambda: 2**20)
    rc, err, peak = _refused(["norms", "--fn", f"file:{path}"], capsys)
    assert rc == 2
    assert err == [
        "error: step function file on M_N=65536 needs 2097152 bytes, physical memory is 1048576"
    ]
    assert peak < 2**20


@pytest.mark.parametrize("lines", [["radices=2;N=1" + " " * 2**24, "1,0", "2,0"],
                                   ["radices=2;N=1", "1," + "0" * 2**24, "2,0"]],
                         ids=["header", "value"])
def test_step_file_long_line_is_exit_two(capsys, tmp_path, lines):
    # a 16 MiB line of a 2-point file is refused after its first 4 KiB, not
    # read whole; an unbounded readline peaked at 48 MiB on it
    path = tmp_path / "f.txt"
    path.write_text("\n".join(lines) + "\n")
    rc, err, peak = _refused(["norms", "--fn", f"file:{path}"], capsys)
    assert rc == 2
    assert err == [
        f"config error: cannot load step function {path}: a line is longer than 4095 characters"
    ]
    assert peak < 2**20


@pytest.mark.parametrize("kind", ["weights", "config"])
def test_weight_and_config_long_lines_are_exit_two(capsys, tmp_path, kind):
    # a one-line 16 MiB weights file, and a config file whose comment line
    # holds 16 MiB, are refused after their first 4 KiB, through the step
    # files' line reader; whole reads peaked at 32 MiB and took the config
    path = tmp_path / "f.txt"
    if kind == "weights":
        path.write_text("1" + "0" * 2**24 + "\n")
        argv = ["norms", "--fn", "dirichlet:2", "--mean", f"custom:{path}", "--mean-n", "2"]
        want = f"error: cannot read weights from {path}: a line is longer than 4095 characters"
    else:
        path.write_text("#" + " " * 2**24 + "\nfn=dirichlet:2\n")
        argv = ["norms", "--config", str(path)]
        want = f"config error: cannot read config {path}: a line is longer than 4095 characters"
    rc, err, peak = _refused(argv, capsys)
    assert rc == 2
    assert err == [want]
    assert peak < 2**20


def test_cli_config_file_end_to_end(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    out = tmp_path / "out.csv"
    cfg_path.write_text(f"k_list=1,2\ntheta_samples=1\nout={out}\n")
    assert run(["theorem-b", "--config", str(cfg_path)]) == 0
    assert out.exists()


def test_config_file_rejects_keys_the_command_does_not_take(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("k_list=1,2\n")
    argv = ["theorem-a", "--config", str(cfg_path), "--depth", "3", "--nmax", "4",
            "--samples", "1"]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert "theorem-a" in err[0] and "'k_list'" in err[0]
    with pytest.raises(SystemExit) as exc:  # the same option as a flag
        run(argv[:3] + ["--k-list", "1"])
    assert exc.value.code == 2


# -- fuzz: a small grammar of flags, config files and paths -----------------

# name -> (usual values, odd values); an odd value is drawn one time in four,
# so most runs get past input checking and reach their report writes.
_FUZZ_VALUES = {
    "radices": (["2", "2,3", "3", "5,2"], ["", "1", "a", "2,,3", "-2"]),
    "depth": (["0", "1", "2", "3", "4"], ["-1", "x"]),
    "samples": (["0", "1", "2"], ["-1", "y"]),
    "p": (["0.5", "0.3,0.8"], ["0", "-1", "1", "2", "nan", "inf", "abc", ",", "1e-4"]),
    "weight": (["log", "power:1", "power:0.5", "custom:{weights}"],
               ["power:-1", "power:abc", "bogus", "custom:{bad}", "custom:{missing}"]),
    "nmax": (["2", "8"], ["0", "1", "-3"]),
    "seed": (["0", "7"], ["-1", "z"]),
    "k_list": (["1"], ["1,1", "0", "-1", "a", ","]),
    "theta_samples": (["0", "1"], ["-1"]),
    "fn": (["dirichlet:1", "dirichlet:3", "case:1", "file:{step}"],
           ["dirichlet:0", "dirichlet:999", "dirichlet:abc", "case:abc", "file:{bad}",
            "file:{missing}", "file:{big}", "nope"]),
    "mean": (["ones", "log", "custom:{weights}"], ["custom:{bad}", "bogus"]),
    "mean_n": (["1", "3"], ["0", "-1"]),
    "out": (["{dir}/o.csv"], ["{missing}/o.csv", "{dir}", "{dir}/\u00e9.csv"]),
}
_FUZZ_FLAGS = {
    "transform": ("radices", "samples", "seed", "out"),
    "theorem-a": ("radices", "p", "weight", "nmax", "samples", "seed", "out"),
    "theorem-b": ("radices", "p", "weight", "seed", "out", "theta_samples"),
    "norms": ("radices", "p", "fn", "mean", "mean_n", "out"),
}
# Flags always given: the sizes keep every run small (depth <= 4,
# samples <= 2, n_k <= 1), and every run writes a report.
_FUZZ_PINNED = {
    "transform": ("depth", "samples", "out"),
    "theorem-a": ("depth", "samples", "nmax", "out"),
    "theorem-b": ("k_list", "theta_samples", "out"),
    "norms": ("depth", "out"),
}
_FUZZ_CONFIG_LINES = ["depth=3", "depth=abc", "samples=1", "p=0.5", "p=", "# note", "",
                      "garbage", "volume=11", "seed=4", "radices=2,3", "k_list=1"]


def _fuzz_files(root, write_step):
    names = ("weights", "bad", "step", "big", "dir", "missing", "cfg")
    paths = {name: root / name for name in names}
    paths["weights"].write_text("1\n2\n3\n")
    # a header naming 2^31 points, whose values alone would take 32 GiB
    paths["big"].write_text("radices=" + ",".join(["2"] * 31) + ";N=31\n")
    paths["bad"].write_text("abc\n")
    from vlab.group_core import build_radix
    from vlab.step_functions import StepFunction

    seq = build_radix((2, 3))
    write_step(paths["step"], StepFunction(seq, np.arange(seq.size, dtype=float)))
    paths["dir"].mkdir()
    paths["latin"] = root / "latin.cfg"
    paths["latin"].write_bytes(b"depth=3\nfn=caf\xe9\n")
    return paths


def _fuzz_value(data, name):
    usual, odd = _FUZZ_VALUES[name]
    pool = odd if data.draw(st.integers(0, 3)) == 0 else usual
    return data.draw(st.sampled_from(pool))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzz_exit_codes(tmp_path_factory, write_step, data):
    import contextlib
    import io

    paths = _fuzz_files(tmp_path_factory.mktemp("fuzz"), write_step)
    command = data.draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    chosen = {name: _fuzz_value(data, name) for name in _FUZZ_PINNED[command]}
    for name in _FUZZ_FLAGS[command]:
        if data.draw(st.booleans()):
            chosen[name] = _fuzz_value(data, name)
    argv = [command]
    for name, value in chosen.items():
        argv += ["--" + name.replace("_", "-"), value.format(**paths)]
    config = data.draw(st.sampled_from([None, None, "cfg", "cfg", "latin", "dir", "missing"]))
    if config == "cfg":
        lines = data.draw(st.lists(st.sampled_from(_FUZZ_CONFIG_LINES), max_size=4))
        paths["cfg"].write_text("\n".join(lines) + "\n")
    if config:
        argv += ["--config", str(paths[config])]
    if data.draw(st.integers(0, 9)) == 0:
        argv.insert(data.draw(st.integers(1, len(argv))), "--bogus-flag")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects unknown flags with exit 2
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


def test_readme_lists_the_commands():
    # the CLI section's code block shows one `vlab <command>` line per
    # command, in _COMMANDS order, under the count the text states
    import re

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```\n", 2)[1]
    shown = [line.split()[1] for line in block.splitlines() if line.startswith("vlab ")]
    assert shown == list(_COMMANDS)
    count = re.search(r"exposes (\w+) subcommands", section).group(1)
    words = ["zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine"]
    assert count in (words[len(_COMMANDS)], str(len(_COMMANDS)))
