"""Metrics from workload outcomes, and the human-readable report.

End-to-end metrics come from an untraced pass.  Per-layer metrics come
from a traced pass that repeats the same work, read from three places:
the benchmark's own probes (:mod:`probes`), the ``repro.obs`` spans and
counters the program emits, and the serve ``/metrics`` counters.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any

import layers
import probes
from common import (NETWORKS, TooFewSamples, interquartile_mean, median,
                    percentile)
from workloads import Outcome

E2E_UNITS = {name: unit for name, unit, _, _ in layers.END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _, _ in layers.PER_LAYER}


def end_to_end(outcome: Outcome) -> dict[str, float]:
    ok = outcome.latencies_s
    return {
        "evals_per_s": outcome.evals_per_s,
        "eval_iqm_ms": 1000.0 * interquartile_mean(ok),
        "peak_rss_mb": outcome.rss_mb,
        "setup_s": median(outcome.setup_s),
    }


def _pct(values: list[float], q: float) -> str:
    try:
        return f"{1000.0 * percentile(values, q):.3f}"
    except TooFewSamples as exc:
        return f"refused ({exc})"


def print_end_to_end(workload: str, outcome: Outcome,
                     metrics: dict[str, float]) -> None:
    """Every named metric with its unit and sample count."""
    n = len(outcome.latencies_s)
    samples = {"evals_per_s": n, "eval_iqm_ms": n, "peak_rss_mb": 1,
               "setup_s": len(outcome.setup_s)}
    print(f"{'metric':<22} {'value':>14} {'unit':<6} samples")
    for name, value in metrics.items():
        print(f"{name:<22} {value:>14.6g} {E2E_UNITS[name]:<6} "
              f"{samples[name]}")
    mean = 1000.0 * sum(outcome.latencies_s) / n
    print(f"{'eval_mean_ms':<22} {mean:>14.6g} {'ms':<6} {n}")
    print(f"{'eval_p50_ms':<22} {_pct(outcome.latencies_s, 0.5):>14} "
          f"{'ms':<6} {n}")
    print(f"{'eval_p99_ms':<22} {_pct(outcome.latencies_s, 0.99):>14} "
          f"{'ms':<6} {n}")
    print(f"{'failed_share':<22} "
          f"{outcome.failed / outcome.attempted:>14.6g} {'ratio':<6} "
          f"{outcome.attempted}")
    extra = outcome.extra
    if workload == "cold-eval":
        print(f"{'sim_macs_per_s':<22} "
              f"{extra['sim_macs'] / extra['sim_s']:>14.6g} {'MAC/s':<6} "
              f"{extra['sim_n']}")
        print(f"max model-vs-sim deviation {extra['max_deviation']:.4f}")
    if workload == "serve-open":
        late = extra["late_s"]
        print(f"{'generator_late_ms':<22} "
              f"{1000.0 * sum(late) / len(late):>14.6g} {'ms':<6} "
              f"{len(late)} (mean; p99 {_pct(late, 0.99)})")
        print(f"{'backlog_end':<22} {extra['backlog']:>14} {'count':<6} "
              f"(limit {extra['backlog_limit']})")
        print(f"request mix {extra['kinds']}")
    print(f"units run {outcome.units}; digest {outcome.digest}")


# -- the traced pass -------------------------------------------------------
def _obs_totals(trace_dir: Path, since: float
                ) -> tuple[dict[str, float], dict[str, int]]:
    """Summed ``repro.obs`` span durations and counter values."""
    spans: dict[str, float] = defaultdict(float)
    counters: dict[str, int] = defaultdict(int)
    for path in trace_dir.glob("trace-*.jsonl"):
        for line in path.read_text().splitlines():
            try:
                event = json.loads(line)
            except ValueError:
                continue  # a torn trailing line
            if event.get("ts", 0.0) < since:
                continue
            if event.get("t") == "span":
                spans[event["name"]] += event["dur_s"]
            elif event.get("t") == "counter":
                counters[event["name"]] += event["n"]
    return spans, counters


class Probed:
    """Probe totals summed over every process of a traced pass."""

    def __init__(self, snaps: list[dict[str, Any]]) -> None:
        self.frames: dict[tuple[str, str], list[float]] = defaultdict(
            lambda: [0, 0.0, 0.0])
        self.roots = [0, 0.0, 0.0]
        self.layers: dict[tuple[str, str], int] = defaultdict(int)
        self.loads = self.load_bytes = 0
        for snap in snaps:
            for layer, net, calls, total, own in snap["frames"]:
                entry = self.frames[(layer, net)]
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            for _, calls, total, own in snap["roots"]:
                self.roots[0] += calls
                self.roots[1] += total
                self.roots[2] += own
            for net, name, calls in snap["layers"]:
                if net != "other":
                    self.layers[(net, name)] += calls
            self.loads += snap["loads"]
            self.load_bytes += snap["load_bytes"]

    def total(self, layer: str, column: int = 1) -> float:
        return sum(v[column] for (name, _), v in self.frames.items()
                   if name == layer)

    def coverage(self) -> float:
        """Share of root (evaluation) time spent inside named layers."""
        _, total, own = self.roots
        return (total - own) / total if total else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload: str, plain: Outcome, traced: Outcome,
                  probe_dir: Path, trace_dir: Path) -> dict[str, float]:
    probed = Probed(probes.load(probe_dir))
    since = traced.extra.get("since", 0.0)
    spans, counters = _obs_totals(trace_dir, since)
    serve = traced.extra.get("counters", {})
    misses = {"cold-eval": traced.attempted,
              "arch-sweep": traced.extra.get("evaluated", 0),
              "serve-open": serve.get("serve.cache.miss", 0)}[workload]
    jobs = traced.extra.get("jobs", 1)
    requests = serve.get("serve.requests", 0)
    useful = sum(serve.get(k, 0) for k in (
        "serve.cache.hot_hit", "serve.cache.store_hit", "serve.coalesced"))
    late = traced.extra.get("late_s", [])
    cost = ((lambda o: sum(o.latencies_s)) if workload == "serve-open"
            else (lambda o: o.work_s))

    metrics = {
        "workloads.synth_s": probed.total("workloads.synth"),
        "sparsity.profile_s": probed.total("sparsity.profile"),
        **{f"sparsity.profile_s.{net}":
           probed.frames.get(("sparsity.profile", net), [0, 0.0])[1]
           for net in NETWORKS},
        "sparsity.profile_calls_per_layer": _ratio(
            sum(probed.layers.values()), len(probed.layers)),
        "model.evaluate_s": probed.total("model.evaluate"),
        "sim.layer_s": probed.total("sim.layer"),
        "sim.stats_s": probed.total("sim.stats"),
        "sim.column_ops": counters.get("sim.column_ops", 0),
        "sim.macs_per_s": _ratio(plain.extra.get("sim_macs", 0),
                                 plain.extra.get("sim_s", 0)),
        "store.put_s": probed.total("store.put"),
        "store.put_calls": probed.total("store.put", column=0),
        "store.lock_wait_s": spans.get("store.lock_wait", 0.0),
        "store.load_s": probed.total("store.load"),
        "store.loads_per_miss": _ratio(probed.loads, misses),
        "store.bytes_per_load": _ratio(probed.load_bytes, probed.loads),
        "store.result_s": probed.total("store.result"),
        "dse.point_s": spans.get("dse.point", 0.0),
        "dse.queue_wait_s": spans.get("dse.worker.queue_wait", 0.0),
        "dse.busy_share": _ratio(spans.get("dse.point", 0.0),
                                 jobs * spans.get("dse.drive", 0.0)),
        "serve.hot_hit": serve.get("serve.cache.hot_hit", 0),
        "serve.store_hit": serve.get("serve.cache.store_hit", 0),
        "serve.coalesced": serve.get("serve.coalesced", 0),
        "serve.miss": serve.get("serve.cache.miss", 0),
        "serve.rejected": serve.get("serve.rejected", 0),
        "serve.useful_share": _ratio(useful, requests),
        "serve.point_s": spans.get("serve.point", 0.0),
        "serve.generator_late_ms": 1000.0 * _ratio(sum(late), len(late)),
        "serve.backlog_end": traced.extra.get("backlog", 0),
        "trace.overhead_share": _ratio(cost(traced) - cost(plain),
                                       cost(plain)),
        "trace.coverage_share": probed.coverage(),
    }
    assert list(metrics) == list(LAYER_UNITS), "metric list out of sync"
    print_self_times(probed, cost(plain), cost(traced))
    print(f"{'metric':<34} {'value':>14} {'unit':<6} moves")
    for name, unit, _, moves in layers.PER_LAYER:
        print(f"{name:<34} {metrics[name]:>14.6g} {unit:<6} {moves}")
    return metrics


def print_self_times(probed: Probed, untraced_s: float,
                     traced_s: float) -> None:
    """Per-layer self time, per network, and the tracing overhead."""
    all_self = sum(v[2] for v in probed.frames.values())
    print(f"{'layer':<20} {'network':<12} {'calls':>7} {'total_s':>10} "
          f"{'self_s':>10} {'self%':>6}")
    for (layer, net), (calls, total, own) in sorted(probed.frames.items()):
        print(f"{layer:<20} {net or '-':<12} {calls:>7} {total:>10.4f} "
              f"{own:>10.4f} {_ratio(own, all_self):>6.1%}")
    print(f"evaluation host time {probed.roots[1]:.4f} s over "
          f"{probed.roots[0]} evaluations; named layers cover "
          f"{probed.coverage():.1%}")
    print(f"tracing overhead: traced {traced_s:.4f} s - untraced "
          f"{untraced_s:.4f} s = {traced_s - untraced_s:+.4f} s "
          f"({_ratio(traced_s - untraced_s, untraced_s):+.1%})")
