import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vlab.cli import (
    ATOM_COLUMNS,
    DOMINATION_COLUMNS,
    RunConfig,
    load_config_file,
    main,
    resolve_config,
)
from vlab.counterexample import SWEEP_COLUMNS
from vlab.errors import ConfigError
from vlab.step_functions import load_step_function, lp_quasinorm, save_step_function


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


def test_transform_default_scale_op_ratio(tmp_path):
    # at the default dyadic M_N = 4096 the fast path needs fewer than a
    # tenth of the naive multiply-adds
    out = tmp_path / "t.csv"
    code = run(["transform", "--samples", "1", "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    ratio = float(rows[0].split(",")[header.index("ops_ratio")])
    assert ratio < 0.1


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


def test_norms_round_trips_function_file(tmp_path):
    from vlab.group_core import build_radix
    from vlab.step_functions import StepFunction

    seq = build_radix((2, 3, 2))
    rng = np.random.default_rng(1)
    f = StepFunction(seq, rng.standard_normal(seq.size))
    path = tmp_path / "f.step"
    save_step_function(f, path)
    out = tmp_path / "n.csv"
    code = run(["norms", "--fn", f"file:{path}", "--p", "0.5", "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    assert float(rows[0].split(",")[2]) == pytest.approx(lp_quasinorm(f, 0.5), rel=1e-12)


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
        ["case", "--nk", "1", "--save-fn", "{missing}/x.step"],
        ["transform", "--depth", "2", "--samples", "1", "--seed", "-1"],
        ["theorem-b", "--k-list", "1", "--theta-samples", "-1"],
        ["theorem-a", "--depth", "2", "--samples", "0", "--weight", "log", "--p", "inf"],
        ["norms", "--fn", "dirichlet:1", "--mean", "ones", "--mean-n", "-1"],
        ["norms", "--fn", "dirichlet:1", "--config", "{latin}"],
        ["norms", "--fn", "dirichlet:3", "--mean", "log"],
        ["norms", "--fn", "dirichlet:3", "--mean", "log", "--mean-n", "0"],
        ["norms", "--fn", "dirichlet:3", "--mean-n", "3"],
    ],
)
def test_bad_input_is_one_line_exit_two(tmp_path, capsys, argv):
    files = {
        "bad": "abc\n",
        "deep": "radices=2;N=2\n",  # depth beyond the listed radices
        "short": "radices=2;N=1\n0,0\n",  # one of two value lines
        "garbage": "garbage\n",
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


def test_case_subcommand(tmp_path, capsys):
    out = tmp_path / "c.csv"
    fn_path = tmp_path / "case.step"
    code = run(["case", "--nk", "1", "--save-fn", str(fn_path), "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == SWEEP_COLUMNS
    assert len(rows) == 1
    f = load_step_function(fn_path)
    assert sorted(np.unique(f.values.real).tolist()) == [-4.0, 0.0, 4.0]
    text = capsys.readouterr().out
    assert "log-mean identity" in text


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


def test_case_needs_nk():
    assert run(["case"]) == 2


def test_failing_assertion_rows_give_exit_one(monkeypatch):
    import vlab.cli as cli_mod
    from vlab.report import ExperimentReport

    def broken(cfg):
        return ExperimentReport(columns=["x"]), False

    monkeypatch.setattr(cli_mod, "cmd_transform", broken)
    assert run(["transform"]) == 1


def test_config_file_and_flag_precedence(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("# comment\nradices=2,3\ndepth=4\nsamples=2\nseed=9\n")
    raw = load_config_file(cfg_path)
    assert raw == {"radices": "2,3", "depth": "4", "samples": "2", "seed": "9"}

    import argparse

    args = argparse.Namespace(config=str(cfg_path), samples="7", radices=None)
    cfg = resolve_config(RunConfig(), args)
    assert cfg.radices == "2,3"  # from file
    assert cfg.samples == 7  # flag wins over file
    assert cfg.seed == 9


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("volume=11\n")

    import argparse

    with pytest.raises(ConfigError):
        resolve_config(RunConfig(), argparse.Namespace(config=str(cfg_path)))


def test_vlab_threads_same_bytes(tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["theorem-a", "--radices", "2,3", "--depth", "5", "--nmax", "40", "--samples", "4"]
    monkeypatch.delenv("VLAB_THREADS", raising=False)
    assert run(argv + ["--out", str(a)]) == 0
    monkeypatch.setenv("VLAB_THREADS", "3")
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes().replace(b"a.csv", b"") == b.read_bytes().replace(b"b.csv", b"")
    dom_a = (tmp_path / "a.domination.csv").read_bytes()
    dom_b = (tmp_path / "b.domination.csv").read_bytes()
    assert dom_a.replace(b"a.csv", b"") == dom_b.replace(b"b.csv", b"")


def test_cli_config_file_end_to_end(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    out = tmp_path / "out.csv"
    cfg_path.write_text(f"k_list=1,2\ntheta_samples=1\nout={out}\n")
    assert run(["theorem-b", "--config", str(cfg_path)]) == 0
    assert out.exists()


# -- fuzz: a small grammar of flags, config files and paths -----------------

# name -> (usual values, odd values); an odd value is drawn one time in four,
# so most runs get past input checking and reach their report writes.
_FUZZ_VALUES = {
    "radices": (["2", "2,3", "3", "5,2"], ["", "1", "a", "2,,3", "-2"]),
    "depth": (["0", "1", "2", "3", "4"], ["-1", "x"]),
    "samples": (["0", "1", "2"], ["-1", "y"]),
    "p": (["0.5", "0.3,0.8"], ["0", "-1", "1", "2", "nan", "inf", "abc", ","]),
    "weight": (["log", "power:1", "power:0.5", "custom:{weights}"],
               ["power:-1", "power:abc", "bogus", "custom:{bad}", "custom:{missing}"]),
    "nmax": (["2", "8"], ["0", "1", "-3"]),
    "seed": (["0", "7"], ["-1", "z"]),
    "k_list": (["1", "1,1"], ["0", "-1", "a", ","]),
    "theta_samples": (["0", "1"], ["-1"]),
    "fn": (["dirichlet:1", "dirichlet:3", "case:1", "file:{step}"],
           ["dirichlet:0", "dirichlet:999", "dirichlet:abc", "case:abc", "file:{bad}",
            "file:{missing}", "nope"]),
    "mean": (["ones", "log", "custom:{weights}"], ["custom:{bad}", "bogus"]),
    "mean_n": (["1", "3"], ["0", "-1"]),
    "nk": (["1"], ["-1", "0", "q"]),
    "out": (["{dir}/o.csv"], ["{missing}/o.csv", "{dir}", "{dir}/\u00e9.csv"]),
    "save_fn": (["{dir}/f.step"], ["{missing}/f.step", "{dir}"]),
}
_FUZZ_FLAGS = {
    "transform": ("radices", "samples", "seed", "out"),
    "theorem-a": ("radices", "p", "weight", "nmax", "samples", "seed", "out"),
    "theorem-b": ("radices", "p", "weight", "seed", "out", "theta_samples"),
    "norms": ("radices", "p", "fn", "mean", "mean_n", "out"),
    "case": ("radices", "p", "weight", "nk", "save_fn", "out"),
}
# Flags always given: the sizes keep every run small (depth <= 4,
# samples <= 2, n_k <= 1), and every run writes a report.
_FUZZ_PINNED = {
    "transform": ("depth", "samples", "out"),
    "theorem-a": ("depth", "samples", "nmax", "out"),
    "theorem-b": ("k_list", "theta_samples", "out"),
    "norms": ("depth", "out"),
    "case": ("nk", "out"),
}
_FUZZ_CONFIG_LINES = ["depth=3", "depth=abc", "samples=1", "p=0.5", "p=", "# note", "",
                      "garbage", "volume=11", "seed=4", "radices=2,3", "nk=1"]


def _fuzz_files(root):
    paths = {name: root / name for name in ("weights", "bad", "step", "dir", "missing", "cfg")}
    paths["weights"].write_text("1\n2\n3\n")
    paths["bad"].write_text("abc\n")
    from vlab.group_core import build_radix
    from vlab.step_functions import StepFunction

    seq = build_radix((2, 3))
    save_step_function(StepFunction(seq, np.arange(seq.size, dtype=float)), paths["step"])
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
def test_cli_fuzz_exit_codes(tmp_path_factory, data):
    import contextlib
    import io

    paths = _fuzz_files(tmp_path_factory.mktemp("fuzz"))
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
