"""Processes that run the program for the benchmark.

``python3 perfbench/child.py cold|sweep`` imports what the workload
needs, prints ``ready`` (the end of set-up), then reads one line from
stdin: ``quit``, or a JSON job it runs and answers with one JSON line
(``cold``: one cold request; ``sweep``: campaigns for ``seconds``).
``python3 perfbench/child.py server PROBE_DIR -- ARGS`` is
``python -m repro.serve ARGS`` with the traced pass's probes installed.

Program output is sent to stderr so stdout carries only the protocol.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, TextIO

import probes
import streams
from common import SIM, SIM_DEVIATION_BOUND, another_unit, label, rss_mb


def _row(name: str, latency: float | None, result: Any) -> dict[str, Any]:
    row = {"label": name, "latency_s": latency, "ok": result is not None}
    if result is not None:
        row.update(cycles=result.total_cycles,
                   energy=result.total_energy_pj, macs=result.total_macs)
        # The bound's established scope: FC, conv and pointwise layers;
        # it was never claimed for depthwise ones.
        bounded = [layer for layer in result.layers
                   if "model_deviation" in layer.detail
                   and layer.detail["kind"] != "dwconv"]
        if bounded:
            row["max_deviation"] = max(layer.detail["model_deviation"]
                                       for layer in bounded)
            row["over_bound"] = [
                layer.name for layer in bounded
                if layer.detail["model_deviation"] >= SIM_DEVIATION_BOUND]
    return row


def cold_setup() -> Callable[[dict[str, Any]], dict[str, Any]]:
    import repro.dse.records  # noqa: F401 -- evaluate() imports it lazily
    from repro.eval import api
    from repro.eval.registry import get_backend
    from repro.eval.request import EvalRequest

    for backend in ("model", SIM):
        get_backend(backend).fingerprint()

    def run(job: dict[str, Any]) -> dict[str, Any]:
        """One cold request: a fresh process and a fresh store."""
        request = EvalRequest(**job["request"])
        store = api.eval_store(request.backend, job["work"])
        start = time.perf_counter()
        result = api.evaluate(request, store=store)
        latency = time.perf_counter() - start
        return {"row": _row(label(request.backend, request.workload,
                                  request.accelerator, job["request"]["arch"]),
                            latency, result)}

    return run


def sweep_setup() -> Callable[[dict[str, Any]], dict[str, Any]]:
    from repro.dse.executor import run_campaign
    from repro.dse.spec import CampaignSpec
    from repro.dse.store import ResultStore
    from repro.eval.registry import get_backend

    get_backend("model").fingerprint()

    def run(job: dict[str, Any]) -> dict[str, Any]:
        rows: list[dict[str, Any]] = []
        walls: list[float] = []
        work = Path(job["work"])

        index = 0
        while index == 0 or another_unit(index, sum(walls), job["units"],
                                         job["seconds"]):
            gc.collect()
            spec = CampaignSpec(
                name=f"sweep{index}", accelerators=tuple(job["accelerators"]),
                networks=tuple(job["networks"]),
                archs=streams.sweep_archs(job["seed"], index,
                                          job["archs_per_campaign"]))
            latency: dict[str, float] = {}

            def progress(done: int, total: int, point_label: str,
                         cached: bool = False,
                         elapsed_s: float | None = None) -> None:
                if elapsed_s is not None:
                    latency[point_label] = elapsed_s

            start = time.perf_counter()
            run = run_campaign(spec, ResultStore(work / f"s{index}"),
                               jobs=job["jobs"], progress=progress)
            walls.append(time.perf_counter() - start)
            for point in run.points:
                key = point.key()
                rows.append(_row(
                    label(point.backend, point.network, point.accelerator,
                          point.arch),
                    latency.get(point.label),
                    None if key in run.failed else run.results.get(key)))
            index += 1
        return {"rows": rows, "walls": walls, "units": index}

    return run


SETUPS = {"cold": cold_setup, "sweep": sweep_setup}


def serve_with_probes(argv: list[str]) -> int:
    probe_dir, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: child.py server PROBE_DIR -- ARGS")
    import repro.serve.__main__ as serve_main

    probes.install(probe_dir, reset_signal=True)
    return serve_main.main(args)


def main(argv: list[str]) -> int:
    if argv[0] == "server":
        return serve_with_probes(argv[1:])
    protocol: TextIO = sys.stdout
    sys.stdout = sys.stderr
    run = SETUPS[argv[0]]()
    protocol.write("ready\n")
    protocol.flush()
    line = sys.stdin.readline().strip()
    if not line or line == "quit":
        return 0
    job = json.loads(line)
    if job.get("probe_dir"):
        probes.install(job["probe_dir"])
    answer = run(job)
    answer["rss_mb"] = rss_mb()
    protocol.write(json.dumps(answer) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
