"""Metric names, units, and how they are computed from per-job records.

Every workload reports every metric.  Where a workload lacks the thing a
metric counts (no PPO iteration in ``bc_gather``, no grid cell in a
single training run), the definition below says what it reports instead;
``README.md`` has the full table.
"""

from __future__ import annotations

import statistics

from tracer import P99_MIN_CALLS, P99_SPANS, SPANS

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "env_steps_per_s": ("1/s", "higher"),
    "bc_samples_per_s": ("1/s", "higher"),
    "eval_episodes_per_s": ("1/s", "higher"),
    "grid_cell_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# derived per-layer metrics, after the per-span ones
DERIVED = {
    "ppo.iter_s_p50": ("s", "lower"),
    "ppo.iter_s_p90": ("s", "lower"),
    "policy.eval_steps": ("count", "lower"),
    "twostage.eval_useful_ratio": ("ratio", "higher"),
    "twostage.cells_failed": ("count", "lower"),
    "trace.top_level_frac": ("ratio", "higher"),
    "trace_overhead_frac": ("ratio", "lower"),
}


def per_layer_names() -> dict:
    """Every per-layer metric name -> (unit, better), in report order."""
    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = ("count", "lower")
        out[f"{span}.self_s"] = ("s", "lower")
        out[f"{span}.us_p50"] = ("us", "lower")
        if span in P99_SPANS:
            out[f"{span}.us_p99"] = ("us", "lower")
    out.update(DERIVED)
    return out


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when a failed job left nothing to divide by."""
    return num / den if den else 0.0


def _percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def end_to_end(jobs: list[dict], peak_rss_mb: float, setup_s: float) -> dict:
    """Medians over the coarse-timed jobs of one run."""
    plain = [j for j in jobs if not j["traced"]]

    def med(fn):
        return statistics.median(fn(j) for j in plain)

    values = {
        "setup_s": setup_s,
        "wall_s": med(lambda j: j["wall_s"]),
        # BC gathers its training data in generate_demos, PPO while it trains
        "env_steps_per_s": med(
            lambda j: _ratio(j["demo_steps"], j["demo_s"]) if j["demo_steps"]
            else _ratio(j["transitions"], j["wall_s"])
        ),
        "bc_samples_per_s": med(lambda j: _ratio(j["trainer_samples"], j["trainer_s"])),
        "eval_episodes_per_s": med(lambda j: _ratio(j["eval_steps"] / j["horizon"], j["eval_s"])),
        "grid_cell_s": med(lambda j: j["wall_s"] / j["rows"]),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": END_TO_END[name][0]} for name in END_TO_END}


def per_layer(jobs: list[dict]) -> dict:
    """Per-span counts and times from the traced jobs of one run, plus the
    derived ratios; times per call are pooled over the traced jobs."""
    traced = [j for j in jobs if j["traced"]]
    plain = [j for j in jobs if not j["traced"]]
    values = {}
    for span in SPANS:
        stats = [j["trace"]["spans"][span] for j in traced]
        calls = statistics.median(s["calls"] for s in stats)
        pooled = [d for s in stats for d in s["durations"]]
        values[f"{span}.calls"] = calls
        values[f"{span}.self_s"] = statistics.median(s["self_s"] for s in stats)
        values[f"{span}.us_p50"] = _percentile(pooled, 50) * 1e6
        if span in P99_SPANS:
            values[f"{span}.us_p99"] = _percentile(pooled, 99) * 1e6 if calls >= P99_MIN_CALLS else 0.0
    iterations = [t for j in traced for t in j["trace"]["iterations"]]
    values["ppo.iter_s_p50"] = _percentile(iterations, 50)
    values["ppo.iter_s_p90"] = _percentile(iterations, 90)
    values["policy.eval_steps"] = statistics.median(j["eval_steps"] for j in traced)
    values["twostage.eval_useful_ratio"] = statistics.median(
        _ratio(len(set(j["trace"]["eval_keys"])), len(j["trace"]["eval_keys"])) for j in traced
    )
    values["twostage.cells_failed"] = max(j["nan_rows"] for j in jobs)
    values["trace.top_level_frac"] = statistics.median(
        j["trace"]["top_level_s"] / j["wall_s"] for j in traced
    )
    values["trace_overhead_frac"] = (
        statistics.median(j["wall_s"] for j in traced) / statistics.median(j["wall_s"] for j in plain) - 1.0
    )
    names = per_layer_names()
    return {name: {"value": values[name], "unit": names[name][0]} for name in names}
