"""Spans around the public calls the benchmark makes, and the per-layer
metrics derived from them.

A Tracer replaces each traced public function of mktinfo with a wrapper, in
every mktinfo module namespace that binds it (so calls the package makes to
itself, and the names mktinfo.cli imports, are traced too).  Each call
records a span: name, start, end, parent span and round.  A layer's self
time is its span minus the time of its child spans.  Spans stay in memory
and are reduced to metrics when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager

# (module, function) -> span name.  The span name's prefix is the layer.
TRACED = {
    ("mktinfo.series", "load_prices"): "series.load_prices",
    ("mktinfo.series", "compute_returns"): "series.returns",
    ("mktinfo.series", "to_indicators"): "series.indicators",
    ("mktinfo.information", "profile_from_prices"): "information.profile_from_prices",
    ("mktinfo.information", "information_profile"): "information.information_profile",
    ("mktinfo.information", "significance_bound"): "information.significance_bound",
    ("mktinfo.information", "profile_to_json"): "information.profile_to_json",
    ("mktinfo.information", "profile_to_csv"): "information.profile_to_csv",
    ("mktinfo.simulate", "simulate_fbm"): "simulate.fbm",
    ("mktinfo.simulate", "simulate_delampertized"): "simulate.delampertized",
    ("mktinfo.simulate", "simulate_pseudo_periodic"): "simulate.pseudo_periodic",
    ("mktinfo.simulate", "to_price_series"): "simulate.to_price_series",
    ("mktinfo.scaling", "structure_function"): "scaling.structure_function",
    ("mktinfo.scaling", "fit_loglog"): "scaling.fit_loglog",
    ("mktinfo.scaling", "estimate_hurst"): "scaling.estimate_hurst",
    ("mktinfo.theory", "theory_curve"): "theory.theory_curve",
    ("mktinfo.cli", "main"): "cli.main",
    ("mktinfo.cli", "cmd_simulate"): "cli.cmd_simulate",
    ("mktinfo.cli", "cmd_analyze"): "cli.cmd_analyze",
    ("mktinfo.cli", "cmd_hurst"): "cli.cmd_hurst",
    ("mktinfo.cli", "cmd_theory"): "cli.cmd_theory",
}

# Samplers whose factorisation is cached per (params, n, dt): the first call
# with a key after the caches were cleared is cold, later ones are warm.
CACHED_SAMPLERS = {"simulate.fbm", "simulate.delampertized"}


def _sampler_key(args, kwargs):
    params, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
    dt = args[2] if len(args) > 2 else kwargs.get("dt", 1.0)
    return (params, n, dt)


# Work counted at the span, from the call's result.
def _count(name, result):
    if name == "series.load_prices":
        return len(result)
    if name == "information.information_profile":
        return int(result[0].n_obs.sum())
    if name in CACHED_SAMPLERS or name == "simulate.pseudo_periodic":
        return len(result.values)
    return 0


class Tracer:
    """In-memory span recorder; `installed()` patches mktinfo while active."""

    def __init__(self):
        self.spans: list[dict] = []
        self.round = 0
        self._stack: list[int] = []
        self._seen_keys: set = set()

    def reset_cache_state(self):
        """Call after the package's caches were cleared."""
        self._seen_keys.clear()

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            span_name = name
            if name in CACHED_SAMPLERS:
                key = (name, _sampler_key(args, kwargs))
                span_name += "_warm" if key in self._seen_keys else "_cold"
                self._seen_keys.add(key)
            index = len(self.spans)
            span = {"name": span_name, "parent": self._stack[-1] if self._stack else None,
                    "round": self.round, "count": 0, "start": time.perf_counter()}
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span["count"] = _count(name, result)
            return result

        return functools.wraps(fn)(wrapper)

    @contextmanager
    def installed(self):
        """Patch every mktinfo namespace binding a traced function; undo on exit."""
        wrappers = {}
        for (module, attr), name in TRACED.items():
            fn = getattr(sys.modules[module], attr)
            wrappers[fn] = self._wrap(name, fn)
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "mktinfo" and not modname.startswith("mktinfo."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


# Span name -> per-layer metric that receives its self time (per round).
SELF_TIME_METRIC = {
    "series.load_prices": "series.load_prices_s",
    "series.returns": "series.returns_indicators_s",
    "series.indicators": "series.returns_indicators_s",
    "information.profile_from_prices": "information.count_entropy_s",
    "information.information_profile": "information.count_entropy_s",
    "information.significance_bound": "information.bound_s",
    "information.profile_to_json": "information.serialize_s",
    "information.profile_to_csv": "information.serialize_s",
    "simulate.pseudo_periodic": "simulate.pseudo_periodic_s",
    "simulate.to_price_series": "simulate.to_price_series_s",
    "scaling.structure_function": "scaling.structure_function_s",
    "scaling.fit_loglog": "scaling.fit_s",
    "scaling.estimate_hurst": "scaling.fit_s",
    "theory.theory_curve": "theory.curve_s",
    "cli.main": "cli.format_s",
    "cli.cmd_simulate": "cli.format_s",
    "cli.cmd_analyze": "cli.format_s",
    "cli.cmd_hurst": "cli.format_s",
    "cli.cmd_theory": "cli.format_s",
}

# Metrics that are the median duration of one call of a kind, not per round.
PER_CALL_METRIC = {
    "simulate.fbm_cold": "simulate.fbm_cold_s",
    "simulate.fbm_warm": "simulate.fbm_warm_s",
    "simulate.delampertized_cold": "simulate.delampertized_cold_s",
    "simulate.delampertized_warm": "simulate.delampertized_warm_s",
}

SIMULATORS = set(PER_CALL_METRIC) | {"simulate.pseudo_periodic"}


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans, n_rounds):
    """Per-layer metrics from the spans of `n_rounds` traced rounds.

    Self times are summed per round and reported as the median over rounds;
    cold/warm sampler times are the median of one call of that kind, set-up
    spans (round None) included; rates are total work in the rounds over the
    total self time of the layer that did it.
    """
    selfs = self_times(spans)
    per_round = {m: [0.0] * n_rounds for m in SELF_TIME_METRIC.values()}
    per_round["information.bound_calls"] = [0.0] * n_rounds
    per_call = {m: [] for m in PER_CALL_METRIC.values()}
    work = {"rows": 0, "rows_s": 0.0, "windows": 0, "windows_s": 0.0,
            "samples": 0, "samples_s": 0.0}
    for span, own in zip(spans, selfs):
        name, r = span["name"], span["round"]
        if name in PER_CALL_METRIC:
            per_call[PER_CALL_METRIC[name]].append(own)
        if r is None:  # set-up, not a round
            continue
        if name in SELF_TIME_METRIC:
            per_round[SELF_TIME_METRIC[name]][r] += own
        if name == "information.significance_bound":
            per_round["information.bound_calls"][r] += 1
        if name == "series.load_prices":
            work["rows"] += span["count"]
            work["rows_s"] += own
        if name == "information.information_profile":
            work["windows"] += span["count"]
            work["windows_s"] += own
        if name in SIMULATORS:
            work["samples"] += span["count"]
            work["samples_s"] += own
    metrics = {m: statistics.median(v) for m, v in per_round.items()}
    metrics.update({m: statistics.median(v) if v else 0.0 for m, v in per_call.items()})
    metrics["series.rows_per_s"] = _ratio(work["rows"], work["rows_s"])
    metrics["information.windows_per_s"] = _ratio(work["windows"], work["windows_s"])
    metrics["simulate.samples_per_s"] = _ratio(work["samples"], work["samples_s"])
    return metrics


def summary(spans, n_rounds):
    """Lines of `name  calls/round  self s/round`, slowest first (rounds only)."""
    totals: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        if span["round"] is None:
            continue
        entry = totals.setdefault(span["name"], [0, 0.0])
        entry[0] += 1
        entry[1] += own
    lines = [f"{'span':<34}{'calls/round':>12}{'self s/round':>14}"]
    for name, (calls, own) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:<34}{calls / n_rounds:>12.1f}{own / n_rounds:>14.4f}")
    return lines
