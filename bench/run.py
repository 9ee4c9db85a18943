"""End-to-end and per-layer benchmark of the vlab CLI.

    python3 bench/run.py --workload divergence --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all          # every workload, one table
    python3 bench/run.py --selftest              # traced == untraced reports

Run from the root of a source checkout; vlab is imported from ``src/``.
Each workload is a closed loop with one client: one ``vlab`` command in a
fresh child process (``bench/child.py``), the next started only after the
previous one ends, all with the same ``--seed``, until the next one would
end more than half a child after ``--seconds`` (at least three children).
Children run with one vlab thread and one BLAS thread.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (spawn until the
CLI call starts; median over the children), ``run_s`` (the CLI call, lazy tables included; median),
``peak_rss_mb`` (the child's high-water RSS, VmHWM; median) and ``pass_ratio`` (checks
passed over checks attempted).  ``--trace 1`` alternates untraced and
traced children; the first traced child's spans give the per-layer metrics
of ``layers.py``, and the two kinds of child give the tracing overhead.

Every child's reports are checked by ``checks.py``, against closed forms
and the numpy references of ``reference.py``; reports of one run must be
byte-identical across children, and in a traced run the traced reports
must equal the untraced ones.  A child that raises or exits non-zero fails
all of its checks.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the run record
(machine, versions, commit, source size) is the line before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import checks
import layers

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(BENCH_DIR, "child.py")
sys.path.append(SRC)  # reference.py builds its atoms with vlab's make_atom

CHILD_ENV = {
    "VLAB_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONPATH": SRC,
}
MIN_CHILDREN = 3
HARD_LIMIT_S = 165.0  # a run must end within 180 s


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    reports: tuple[str, ...]
    checker: object
    params: dict
    probe: bool = False  # the child compares vlab's transforms with numpy


WORKLOADS = {
    "divergence": Workload(
        argv=("theorem-b", "--radices", "2", "--k-list", "1,2,3,4,5,6", "--p", "0.5",
              "--weight", "log", "--theta-samples", "5", "--out", "sweep.csv"),
        reports=("sweep.csv", "sweep.theta.csv"),
        checker=checks.check_divergence,
        params={"p": 0.5, "k_list": (1, 2, 3, 4, 5, 6), "theta_samples": 5},
    ),
    "domination": Workload(
        argv=("theorem-a", "--radices", "2,3", "--depth", "8", "--p", "0.5", "--nmax", "300",
              "--samples", "40", "--out", "atoms.csv"),
        reports=("atoms.csv", "atoms.domination.csv"),
        checker=checks.check_domination,
        params={"radices": (2, 3) * 4, "p": 0.5, "nmax": 300, "samples": 40},
    ),
    "oracle": Workload(
        argv=("transform", "--radices", "2", "--depth", "12", "--samples", "100",
              "--out", "table.csv"),
        reports=("table.csv",),
        checker=checks.check_oracle,
        params={"depth": 12, "samples": 100},
        probe=True,
    ),
}
END_TO_END = {  # name -> unit
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "pass_ratio": "ratio",
}


@dataclass
class Child:
    workdir: str
    trace: bool
    rc: int | None  # None when killed at the time limit
    wall_s: float
    record: dict | None
    setup_s: float | None

    @property
    def ok(self) -> bool:
        return self.rc == 0 and self.record is not None


def spawn(workdir: str, argv, trace: bool, probe: str, timeout: float) -> Child:
    """Run one child to completion."""
    os.makedirs(workdir)
    result = os.path.join(workdir, "result.json")
    cmd = [sys.executable, CHILD, result, SRC, "1" if trace else "0", probe, *argv]
    env = dict(os.environ, **CHILD_ENV)
    with open(os.path.join(workdir, "child.log"), "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            if proc.poll() is None:  # timed out, or this process is being stopped
                proc.kill()
                proc.wait()
    wall = time.monotonic() - t_spawn
    record = None
    if rc == 0 and os.path.exists(result):
        with open(result, encoding="utf-8") as fh:
            record = json.load(fh)
    setup = record["t_call"] - t_spawn if record else None
    return Child(workdir, trace, rc, wall, record, setup)


def _read(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def check_child(w: Workload, seed: int, child: Child, ref: Child | None,
                tally: checks.Checks) -> None:
    """Independent output checks, plus byte equality with ``ref``'s reports."""
    # a failed child is checked against a directory that holds nothing
    where = child.workdir if child.ok else os.path.join(child.workdir, "failed-run")
    w.checker(where, w.params, seed, child.record, tally)
    if ref is None:
        return
    for name in w.reports:
        mine = _read(os.path.join(where, name))
        theirs = _read(os.path.join(ref.workdir, name))
        tally.check(f"{name} identical across runs", mine is not None and mine == theirs)


def closed_loop(w: Workload, workdir: str, seed: int, seconds: float, t0: float,
                traced: tuple[bool, ...], tally: checks.Checks):
    """Run children back to back for about ``seconds``, tracing them by ``traced``.

    The pattern cycles; at least ``max(MIN_CHILDREN, len(traced))`` children
    run.  Every child's reports must equal those of the first good child.
    """
    argv = (*w.argv, "--seed", str(seed))
    probe = json.dumps({"seed": seed, **w.params}) if w.probe else "-"
    children = []
    ref = None
    t_loop = time.monotonic()
    while True:
        trace = traced[len(children) % len(traced)]
        timeout = HARD_LIMIT_S - (time.monotonic() - t0)
        child = spawn(os.path.join(workdir, f"{'traced' if trace else 'run'}-{len(children)}"),
                      argv, trace, probe, timeout)
        children.append(child)
        check_child(w, seed, child, ref, tally)
        ref = ref or (child if child.ok else None)
        if child.rc is None:
            break
        now = time.monotonic()
        typical = statistics.median(c.wall_s for c in children)
        if now - t0 + typical > HARD_LIMIT_S:
            break
        # the next child is expected to end within half a child of ``seconds``
        enough = len(children) >= max(MIN_CHILDREN, len(traced))
        if enough and now - t_loop + typical / 2 > seconds:
            break
    return children


def run_untraced(name: str, seed: int, seconds: float, t0: float, tally: checks.Checks):
    w = WORKLOADS[name]
    workdir = os.path.join(WORK, f"{name}-seed{seed}")
    children = closed_loop(w, workdir, seed, seconds, t0, (False,), tally)
    good = [c for c in children if c.ok]
    if not good:
        return None, children
    metrics = {
        "setup_s": statistics.median(c.setup_s for c in good),
        "run_s": statistics.median(c.record["run_s"] for c in good),
        "peak_rss_mb": statistics.median(c.record["maxrss_kib"] / 1024 for c in good),
        "pass_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }
    return metrics, children


def run_traced(name: str, seed: int, seconds: float, t0: float, tally: checks.Checks):
    """Untraced and traced children in turn; spans of the first traced one.

    Alternating keeps drift in machine speed out of the overhead ratio, and
    the byte comparison in :func:`closed_loop` shows that tracing changes no
    report.
    """
    w = WORKLOADS[name]
    workdir = os.path.join(WORK, f"{name}-seed{seed}-traced")
    children = closed_loop(w, workdir, seed, seconds, t0, (False, True), tally)
    plain = [c.record["run_s"] for c in children if c.ok and not c.trace]
    traced = [c for c in children if c.ok and c.trace]
    if not plain or not traced:
        return None, children
    spans = layers.load_spans(traced[0].record["spans"])
    metrics = layers.layer_metrics(
        spans,
        statistics.median(c.record["run_s"] for c in traced),
        statistics.median(plain),
    )
    return metrics, children


def _probe(cmd) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def source_loc() -> int:
    """Non-blank lines of src/vlab/*.py (informational, not a gate)."""
    pkg = os.path.join(SRC, "vlab")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for line in fh if line.strip())
    return total


def run_record(seed: int) -> dict:
    import numpy  # the parent's copy; children import their own

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "vlab_threads": CHILD_ENV["VLAB_THREADS"],
        "l2_bytes": _probe(["getconf", "LEVEL2_CACHE_SIZE"]),
        "l3_bytes": _probe(["getconf", "LEVEL3_CACHE_SIZE"]),
        "commit": _probe(["git", "rev-parse", "HEAD"]),
        "src_vlab_loc_nonblank": source_loc(),
    }


def spec_matches() -> bool:
    """BENCHMARK.json names exactly the workloads and metrics reported here."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        and {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
        and {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        == {name: (unit, better) for name, (unit, better, _) in layers.PER_LAYER.items()}
    )


def describe(name: str, children, tally: checks.Checks) -> None:
    kinds = ", ".join(f"{os.path.basename(c.workdir)} rc={c.rc} {c.wall_s:.2f}s" for c in children)
    print(f"{name}: {len(children)} children (closed loop, 1 client): {kinds}")
    ratio = tally.failed / tally.attempted
    print(f"  fail_ratio   {ratio:.4g} ({tally.failed} of {tally.attempted} checks failed)")
    for failure in tally.failures[:10]:
        print(f"    failed: {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="traced and untraced runs of every workload; exit 1 if any check fails")
    args = ap.parse_args(argv)
    if args.selftest:
        args.workload, args.trace, args.seconds = "all", 1, 0
    if not os.path.isfile(os.path.join(SRC, "vlab", "cli.py")):
        print(f"no vlab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    t0 = time.monotonic()
    shutil.rmtree(WORK, ignore_errors=True)
    total = checks.Checks()
    if args.selftest:
        total.check("BENCHMARK.json matches the reported metrics", spec_matches())
    metrics = {}
    for name in names:
        tally = checks.Checks()
        runner = run_traced if args.trace else run_untraced
        got, children = runner(name, args.seed, args.seconds, time.monotonic(), tally)
        describe(name, children, tally)
        total.attempted += tally.attempted
        total.failures += tally.failures
        if got is None:
            # every check of this workload has failed; report the tally, no timings
            print(f"{name}: no child completed; nothing was measured", file=sys.stderr)
            if not args.trace:
                ratio = (tally.attempted - tally.failed) / tally.attempted
                key = "pass_ratio" if len(names) == 1 else f"{name}.pass_ratio"
                metrics[key] = {"value": ratio, "unit": END_TO_END["pass_ratio"]}
            continue
        units = END_TO_END if not args.trace else {k: v[0] for k, v in layers.PER_LAYER.items()}
        for key, value in got.items():
            if not args.trace or len(names) == 1:
                moves = "" if not args.trace else f"   -> {layers.PER_LAYER[key][2]}"
                print(f"  {key:<44} {value:.6g} {units[key]}{moves}")
            metrics[key if len(names) == 1 else f"{name}.{key}"] = {"value": value, "unit": units[key]}
    print(f"elapsed {time.monotonic() - t0:.1f} s")
    print("run record: " + json.dumps(run_record(args.seed)))
    result = {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 1 if args.selftest and total.failed else 0


if __name__ == "__main__":
    sys.exit(main())
