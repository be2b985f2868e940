"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench/check_bench.py -q

(The file is not named ``test_*.py`` so the program's own test suite
does not collect it; the smokes start real processes and take ~1 min.)
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import streams  # noqa: E402
from common import (BENCH_DIR, ROOT, TooFewSamples, check_totals,  # noqa: E402
                    digest, load_expected, percentile, interquartile_mean)

WORKLOADS = ("cold-eval", "arch-sweep", "serve-open")


# -- seeded request streams ------------------------------------------------
def test_cold_stream_is_a_function_of_the_seed() -> None:
    same = [streams.cold_cycle(7, c) for c in range(3)]
    assert same == [streams.cold_cycle(7, c) for c in range(3)]
    assert same != [streams.cold_cycle(8, c) for c in range(3)]


def test_cold_cycle_composition_is_fixed() -> None:
    for seed in range(20):
        cycle = streams.cold_cycle(seed, 0)
        assert sorted((r["workload"], r["backend"]) for r in cycle) == sorted(
            (net, backend) for net in ("cnn_lstm", "mobilenetv2", "resnet18")
            for backend in ("model", "sim-vectorized"))


def test_sweep_stream_is_a_function_of_the_seed() -> None:
    assert streams.sweep_archs(3, 0) == streams.sweep_archs(3, 0)
    assert streams.sweep_archs(3, 0) != streams.sweep_archs(4, 0)


def test_serve_stream_is_a_function_of_the_seed() -> None:
    one, two = streams.serve_plan(5, 1000), streams.serve_plan(5, 1000)
    assert one.schedule == two.schedule and one.warmup == two.warmup
    assert streams.serve_plan(6, 1000).schedule != one.schedule


def test_serve_mix_is_fixed_across_seeds() -> None:
    kinds = {tuple(sorted(streams.serve_plan(s, 1000).kinds().items()))
             for s in range(10)}
    assert kinds == {(("hot", 868), ("miss", 40), ("pair", 20),
                      ("store", 72))}


def test_serve_kinds_target_the_right_keys() -> None:
    plan = streams.serve_plan(11, 1000)

    def sent(*kinds: str) -> list[dict[str, str]]:
        return [r for _, r, kind in plan.schedule if kind in kinds]

    assert all(r["arch"] in plan.store_archs for r in sent("store"))
    assert not any(r["arch"] in plan.store_archs
                   for r in sent("miss", "pair"))
    first_seen: dict[str, float] = {}
    for due, request, kind in plan.schedule:
        key = json.dumps(request, sort_keys=True)
        if kind == "hot":
            assert key in first_seen or request in plan.warmup
            assert request in plan.warmup or \
                first_seen[key] <= due - streams.HOT_AGE_S
        first_seen.setdefault(key, due)


# -- the percentile helper -------------------------------------------------
def test_percentile_refuses_thin_tails() -> None:
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 0.5)
    assert percentile(list(range(20)), 0.5) == 9
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 0.99)
    assert percentile(list(range(1000)), 0.99) == 989
    with pytest.raises(TooFewSamples):
        percentile([1.0] * 6, 0.5)


def test_interquartile_mean_keeps_the_middle_half() -> None:
    assert interquartile_mean([0.0, 1.0, 1.0, 100.0]) == 1.0
    assert interquartile_mean([0.0] * 2 + [1.0] * 4 + [100.0] * 2) == 1.0
    assert interquartile_mean([1.0, 2.0, 30.0]) == 11.0  # too few to cut


# -- pinned outputs and BENCHMARK.json -----------------------------------
def test_pinned_totals_match_their_digest() -> None:
    pinned = json.loads((BENCH_DIR / "expected.json").read_text())
    rows = [(name, c, e) for name, (c, e) in pinned["totals"].items()]
    assert digest(rows) == pinned["digest"]


def test_check_totals_flags_a_changed_total() -> None:
    expected = load_expected()
    name, (cycles, energy) = next(iter(expected.items()))
    assert check_totals([(name, cycles, energy)], expected) == []
    assert check_totals([(name, cycles * (1 + 1e-9), energy)], expected)
    assert check_totals([("model|nope|SCNN|x", 1.0, 1.0)], expected)


def test_benchmark_json_matches_the_metric_lists() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(layers.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == list(
        layers.WORKLOADS.values())
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == [
        (name, unit, better) for name, unit, better, _ in layers.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER]


# -- smokes: every workload, untraced and traced ---------------------------
def _run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_passes_its_output_checks(workload: str, trace: int) -> None:
    result, stdout = _run(workload, trace)
    assert result["correct"], stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    names = ([m[0] for m in layers.END_TO_END] if trace == 0
             else [m[0] for m in layers.PER_LAYER])
    assert list(result["metrics"]) == names
    assert "output checks: ok" in stdout


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
