"""One benchmark child: import vlab, run one CLI command, report timings.

Usage: python child.py <result.json> <src dir> <trace: 0|1> <probe> <vlab CLI args...>

The parent takes the spawn time on CLOCK_MONOTONIC, which all processes
share; this process records the instant set-up ends on the same clock,
then the CLI call's duration.  With trace 1 the tracer is installed after
the set-up instant and its spans are written next to the result file when
the run ends.  ``probe`` is ``-`` or the JSON keyword arguments of
``reference.transform_probe``, which then runs after the timed call.
"""

import sys
import time

import vlab.cli

t_call = time.monotonic()

import json  # noqa: E402  (after the set-up instant on purpose)
import os  # noqa: E402
import resource  # noqa: E402


def peak_rss_kib() -> int:
    """High-water RSS of this process image (VmHWM).

    ru_maxrss is not used: after vfork + exec, which is how ``subprocess``
    starts children, it also holds the parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    result_path, src_dir, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    probe, argv = sys.argv[4], sys.argv[5:]
    record = {"t_call": t_call}
    if not os.path.realpath(vlab.cli.__file__).startswith(os.path.realpath(src_dir) + os.sep):
        print(f"vlab imported from {vlab.cli.__file__}, not from {src_dir}", file=sys.stderr)
        return 3
    tracer = None
    if trace:
        from tracer import Tracer  # this file's directory leads sys.path

        child_dir = os.path.dirname(os.path.abspath(result_path))
        run_id = os.path.join(*child_dir.split(os.sep)[-2:])  # e.g. oracle-seed1-traced/traced-1
        tracer = Tracer(run_id=run_id)
        tracer.install()
    start = time.monotonic()
    rc = vlab.cli.main(argv)
    record["run_s"] = time.monotonic() - start
    record["maxrss_kib"] = peak_rss_kib()
    if tracer is not None:
        spans_path = os.path.join(os.path.dirname(result_path), "spans.jsonl")
        tracer.dump(spans_path)
        record["spans"] = spans_path
    if probe != "-":
        from reference import transform_probe

        record["reference"] = transform_probe(**json.loads(probe))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


sys.exit(main())
