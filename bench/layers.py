"""Per-layer metrics of the traced run, and what each should move.

A metric is named ``<span>.<stat>`` where the span is
``<module>.<function>``, or ``<module>.<stat>`` for whole-module figures.
Each entry records the end-to-end metric and workloads it should move, so
a later change can say in advance where its saving ought to show.

Stats: ``calls`` (spans), ``s`` (summed span time, children included),
``p50_ms``/``p75_ms`` (per-call span time), ``distinct_ratio`` (distinct
inputs over calls), ``madds`` (computed from argument shapes), ``bytes``
(result or file sizes; computed for ``forward_naive``, see ``tracer.WORK``),
``max_out_mb`` (largest result, MiB), ``self_s`` (span time minus the time
covered by child spans, summed over the module) and ``errors`` (spans an
exception escaped from).
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from tracer import MODULES

UNITS = {
    "calls": ("count", "lower"),
    "s": ("s", "lower"),
    "p50_ms": ("ms", "lower"),
    "p75_ms": ("ms", "lower"),
    "distinct_ratio": ("ratio", "higher"),
    "madds": ("madds_computed", "lower"),
    "bytes": ("bytes", "lower"),
    "max_out_mb": ("MiB", "lower"),
    "self_s": ("s", "lower"),
    "errors": ("count", "lower"),
    "overhead_ratio": ("ratio", "lower"),
    "run_s_traced": ("s", "lower"),
    "run_s_untraced": ("s", "lower"),
    # the bytes a naive pass streams are computed, not measured
    "transform.forward_naive.bytes": ("bytes_computed", "lower"),
}

_CASE = "run_s on divergence only"
_SMALL = "small shares of run_s on divergence and domination"
# (span or module, stats, what it should move)
_GROUPS = [
    ("transform.character_row", ("calls", "s", "distinct_ratio", "madds"),
     "run_s on divergence (most), domination (about a fifth); no change on oracle"),
    ("transform.analysis_matrix", ("calls", "s", "bytes"), "run_s and peak_rss_mb on oracle only"),
    ("transform.forward_naive", ("calls", "s", "bytes", "madds"),
     "run_s and peak_rss_mb on oracle only"),
    ("transform.forward_fast", ("calls", "s", "madds"),
     "run_s on oracle (small); on domination once means become multipliers"),
    ("transform.inverse", ("calls", "s", "madds"),
     "run_s on oracle (small); on domination once means become multipliers"),
    ("means.log_mean", ("calls", "s", "distinct_ratio"), "run_s on divergence"),
    ("means.partial_sum_stack", ("calls", "s", "bytes", "max_out_mb"),
     "run_s and peak_rss_mb on domination"),
    ("operators.domination_check", ("calls", "s", "p50_ms", "p75_ms"), "run_s on domination"),
    ("operators.weighted_maximal", ("calls", "s", "p50_ms", "p75_ms"), "run_s on domination"),
    ("operators.boundedness_ratio", ("s",), "run_s on divergence (theta atoms, small)"),
    ("counterexample.verify_partial_sums", ("calls", "s"), _CASE),
    ("counterexample.l_mean_identity", ("calls", "s"), _CASE),
    ("counterexample.sweep_row", ("calls", "s"), _CASE),
    ("counterexample.verify_coefficients", ("calls", "s"), _CASE),
    ("counterexample.verify_hardy_bound", ("calls", "s"), _CASE),
    ("counterexample.theta_bracket", ("calls", "s"), _CASE),
    ("counterexample.build_case", ("calls", "s"), _CASE),
    ("step_functions.hardy_quasinorm", ("calls", "s"), _SMALL),
    ("step_functions.lp_quasinorm", ("calls", "s"), _SMALL),
    ("step_functions.weak_lp_quasinorm", ("calls", "s"), _SMALL),
    ("step_functions.to_martingale", ("calls", "s"), _SMALL),
    ("group_core.digit_table", ("calls", "s"), "run_s on every workload (lazy set-up)"),
    ("report.write", ("calls", "s", "bytes"), "run_s on every workload (small)"),
]
_GROUPS += [(m, ("self_s", "errors"), "run_s where the module's spans run; errors stay 0")
            for m in MODULES]
_GROUPS.append(("trace", ("run_s_traced", "run_s_untraced", "overhead_ratio"),
                "nothing: tracing cost, median traced run_s over median untraced run_s"))

# name -> (unit, better, moves); a full metric name in UNITS overrides its stat
PER_LAYER = {
    f"{target}.{stat}": (*UNITS.get(f"{target}.{stat}", UNITS[stat]), moves)
    for target, stats, moves in _GROUPS
    for stat in stats
}


def load_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _quantile_ms(durations, q: int) -> float:
    """q-th quartile of the per-call times in ms; 0 when never called."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1e3 * durations[0]
    return 1e3 * statistics.quantiles(durations, n=4, method="inclusive")[q - 1]


def layer_metrics(spans: list[dict], traced_run_s: float, untraced_run_s: float) -> dict:
    """Every :data:`PER_LAYER` metric from one traced run's spans."""
    durations = defaultdict(list)
    keys = defaultdict(set)
    sums = defaultdict(int)
    biggest = defaultdict(int)
    covered = defaultdict(float)
    for sp in spans:
        if sp["parent"] is not None:
            covered[sp["parent"]] += sp["end"] - sp["start"]
    self_s = defaultdict(float)
    errors = defaultdict(int)
    for sp in spans:
        name = sp["name"]
        dur = sp["end"] - sp["start"]
        module = name.split(".", 1)[0]
        durations[name].append(dur)
        self_s[module] += dur - covered[sp["id"]]
        errors[module] += bool(sp["error"])
        if "key" in sp:
            keys[name].add(sp["key"])
        for work in ("madds", "bytes"):
            sums[(name, work)] += sp.get(work, 0)
        biggest[name] = max(biggest[name], sp.get("bytes", 0))

    out = {}
    for metric in PER_LAYER:
        target, stat = metric.rsplit(".", 1)
        durs = durations[target]
        if stat == "self_s":
            value = self_s[target]
        elif stat == "errors":
            value = errors[target]
        elif stat == "run_s_traced":
            value = traced_run_s
        elif stat == "run_s_untraced":
            value = untraced_run_s
        elif stat == "overhead_ratio":
            value = traced_run_s / untraced_run_s
        elif stat == "calls":
            value = len(durs)
        elif stat == "s":
            value = sum(durs)
        elif stat in ("p50_ms", "p75_ms"):
            value = _quantile_ms(durs, 2 if stat == "p50_ms" else 3)
        elif stat == "distinct_ratio":
            value = len(keys[target]) / len(durs) if durs else 0.0
        elif stat == "max_out_mb":
            value = biggest[target] / 2**20
        else:
            value = sums[(target, stat)]
        out[metric] = value
    return out
