"""What the benchmark measures, and which end-to-end number each layer
metric should move on which workload.

``BENCHMARK.json`` lists the same workloads and metric names; the
self-tests check that the two agree.  The predictions these maps imply
are recorded in ``README.md``.
"""

from __future__ import annotations

#: Why each workload was chosen (one line each; ``README.md`` says more).
WORKLOADS = {
    "cold-eval": (
        "Closed loop of cold evaluate() calls: 3 networks on a seeded model "
        "accelerator and on sim-vectorized. What every fresh process pays; "
        "the only workload on the sim datapath."),
    "arch-sweep": (
        "run_campaign at jobs=2 into a fresh store: 3 networks x 6 "
        "accelerators x all 48 arch overrides in seeded order, model "
        "backend. Each worker re-profiles every network; no sim."),
    "serve-open": (
        "repro.serve on a prewarmed store under seeded open-loop Poisson "
        "load, 50 req/s, <=2 in flight: hot, store-hit, coalesced and miss "
        "requests. The only workload on the serve tiers."),
}

#: ``(name, unit, better, meaning)`` -- reported with tracing off.
END_TO_END = (
    ("evals_per_s", "1/s", "higher",
     "evaluations completed OK per host second of the timed phase"),
    ("eval_iqm_ms", "ms", "lower",
     "interquartile mean latency per evaluation: the middle half "
     "(serve-open: timed from when each request was due)"),
    ("peak_rss_mb", "MB", "lower",
     "peak resident memory of the process(es) doing the work"),
    ("setup_s", "s", "lower",
     "start to first timed request; median of the run's set-ups"),
)

_COLD = "cold-eval evals_per_s"
_SWEEP = "arch-sweep evals_per_s"
_SERVE = "serve-open eval_iqm_ms"
#: ``(name, unit, better, moves)`` -- from the traced pass.  ``moves``
#: names the end-to-end metric(s) a change to the layer should move.
PER_LAYER = (
    ("workloads.synth_s", "s", "lower", _COLD),
    ("sparsity.profile_s", "s", "lower", f"{_COLD}; {_SWEEP}"),
    ("sparsity.profile_s.cnn_lstm", "s", "lower", _COLD),
    ("sparsity.profile_s.mobilenetv2", "s", "lower", _COLD),
    ("sparsity.profile_s.resnet18", "s", "lower", _COLD),
    ("sparsity.profile_calls_per_layer", "count", "lower", _SWEEP),
    ("model.evaluate_s", "s", "lower", f"{_SWEEP}; serve-open p99"),
    ("sim.layer_s", "s", "lower", f"{_COLD} (sim MAC/s)"),
    ("sim.stats_s", "s", "lower", f"{_COLD} (sim MAC/s)"),
    ("sim.column_ops", "count", "lower",
     "nothing: stays exact under a simulator-only speed-up"),
    ("sim.macs_per_s", "MAC/s", "higher", _COLD),
    ("store.put_s", "s", "lower", _SWEEP),
    ("store.put_calls", "count", "lower", _SWEEP),
    ("store.lock_wait_s", "s", "lower", _SWEEP),
    ("store.load_s", "s", "lower", "serve-open p99"),
    ("store.loads_per_miss", "count", "lower", "serve-open p99"),
    ("store.bytes_per_load", "B", "lower", "serve-open p99"),
    ("store.result_s", "s", "lower", _SERVE),
    ("dse.point_s", "s", "lower", _SWEEP),
    ("dse.queue_wait_s", "s", "lower", _SWEEP),
    ("dse.busy_share", "ratio", "higher", _SWEEP),
    ("serve.hot_hit", "count", "higher", _SERVE),
    ("serve.store_hit", "count", "higher", _SERVE),
    ("serve.coalesced", "count", "higher", _SERVE),
    ("serve.miss", "count", "lower", _SERVE),
    ("serve.rejected", "count", "lower", "serve-open failed share"),
    ("serve.useful_share", "ratio", "higher", _SERVE),
    ("serve.point_s", "s", "lower", "serve-open p99"),
    ("serve.generator_late_ms", "ms", "lower",
     "nothing: checks the load generator kept its schedule"),
    ("serve.backlog_end", "count", "lower",
     "nothing: checks the backlog stayed bounded"),
    ("trace.overhead_share", "ratio", "lower",
     "nothing: traced minus untraced time over untraced time"),
    ("trace.coverage_share", "ratio", "higher",
     "nothing: share of evaluation host time the named layers explain"),
)
