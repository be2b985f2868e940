"""Shared pieces of the benchmark: the request universe, the percentile
helper, the pinned-output checks and the child-process plumbing.

Nothing here imports :mod:`repro`; the benchmark's parent process only
generates requests, starts the processes that do the work, and checks
what comes back.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path
from typing import Any, Iterable, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for stores and traces; removed after each run.
WORK_ROOT = ROOT / ".perfbench_work"

NETWORKS = ("cnn_lstm", "mobilenetv2", "resnet18")
ACCELERATORS = ("SCNN", "Stripes", "Pragmatic", "Bitlet", "HUAA", "BitWave")
BASE_ARCH = "bitwave-16nm"
MODEL = "model"
SIM = "sim-vectorized"

#: Seeded ArchSpec overrides the workloads draw from.  Every entry is a
#: canonical spelling (one override field, or fields in sorted order) so
#: a label names exactly one store key.
ARCH_POOL = tuple(f"{BASE_ARCH}@{spec}" for spec in (
    "group=4", "group=16", "ku=16", "ku=64", "oxu=8", "oxu=32",
    "weight_bw=128", "weight_bw=512", "act_bw=512", "act_bw=2048",
    "sram_kb=256", "sram_kb=1024", "clock_mhz=500.0", "clock_mhz=125.0",
    "dram_pj=30.0", "dram_pj=120.0", "sram_pj=0.5", "sram_pj=2.0",
    "reg_pj=0.06", "mac_pj=0.1", "bce_pj=0.01", "dram_bits=256",
    "sram_bits=512", "group=4+oxu=8",
    "group=32", "group=64", "ku=8", "ku=128", "oxu=4", "oxu=64",
    "weight_bw=64", "weight_bw=1024", "act_bw=256", "act_bw=4096",
    "sram_w=512", "sram_w=2048", "sram_a=512", "sram_a=2048",
    "sram_kb=128", "sram_kb=2048", "n_bce=256", "n_bce=1024",
    "clock_mhz=1000.0", "dram_pj=15.0", "reg_pj=0.015", "serial_pj=0.05",
    "bce_pj=0.02", "dram_bits=1024",
))

#: The model-vs-sim bound of the paper's Section V-B validation.
SIM_DEVIATION_BOUND = 0.06

#: A percentile needs at least this many samples beyond it.
MIN_TAIL = 10

#: Environment variables that would change what the program does.
_PROGRAM_ENV = ("REPRO_TRACE", "REPRO_FAULTS", "REPRO_CONE_FINGERPRINTS",
                "REPRO_DSE_STORE")


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-quantile's rank."""
    return n - math.ceil(q * n - 1e-9)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile; refuses fewer than 10 samples beyond."""
    n = len(values)
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    if samples_beyond(n, q) < MIN_TAIL:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {samples_beyond(n, q)} "
            f"beyond it; at least {MIN_TAIL} are needed")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * n - 1e-9) - 1)]


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half: the slowest and fastest quarter dropped.

    One stalled stretch of a run (a host hiccup that queues dozens of
    open-loop requests) or a handful of rare slow requests moves the
    plain mean by tens of percent; this barely moves.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def another_unit(done: int, spent: float, units: int | None,
                 seconds: float) -> bool:
    """Whether a workload runs another unit (cycle, campaign).

    A fixed ``units`` count is honoured exactly; otherwise units run
    while the next one, at the mean pace so far, still fits in
    ``seconds``.  Callers always run the first unit.
    """
    if units:
        return done < units
    return spent + spent / done <= seconds


def label(backend: str, network: str, accelerator: str, arch: str) -> str:
    """The request name the pinned totals are keyed by."""
    return f"{backend}|{network}|{accelerator}|{arch}"


def request_label(request: dict[str, str]) -> str:
    return label(request.get("backend", MODEL), request["workload"],
                 request.get("accelerator", "BitWave"),
                 request.get("arch", BASE_ARCH))


def fmt_total(value: float) -> str:
    """12 significant digits: exact enough to catch any model change."""
    return f"{value:.12g}"


def digest(rows: Iterable[tuple[str, float, float]]) -> str:
    """Order-independent digest of (label, cycles, energy) totals."""
    lines = sorted(f"{name} {fmt_total(c)} {fmt_total(e)}"
                   for name, c, e in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def load_expected() -> dict[str, list[float]]:
    with open(BENCH_DIR / "expected.json") as fh:
        return json.load(fh)["totals"]


def check_totals(rows: Iterable[tuple[str, float, float]],
                 expected: dict[str, list[float]]) -> list[str]:
    """Mismatches of per-request totals against the pinned values."""
    errors = []
    for name, cycles, energy in rows:
        pinned = expected.get(name)
        if pinned is None:
            errors.append(f"{name}: no pinned totals")
        elif (fmt_total(cycles), fmt_total(energy)) != (
                fmt_total(pinned[0]), fmt_total(pinned[1])):
            errors.append(f"{name}: totals ({cycles!r}, {energy!r}) != "
                          f"pinned ({pinned[0]!r}, {pinned[1]!r})")
    return errors


def rss_mb() -> float:
    """Peak resident memory of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def program_env(trace_dir: Path | None = None,
                store_root: Path | None = None) -> dict[str, str]:
    """Environment for a process that runs the program."""
    env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Never fall back to the per-user default store outside the checkout.
    env["REPRO_DSE_STORE"] = str(store_root or WORK_ROOT / "default-store")
    if trace_dir is not None:
        env["REPRO_TRACE"] = str(trace_dir)
    return env


def spawn(args: Sequence[str], env: dict[str, str],
          **kwargs: Any) -> "subprocess.Popen[str]":
    return subprocess.Popen([sys.executable, *args], env=env, text=True,
                            cwd=str(ROOT), **kwargs)


def stop(proc: "subprocess.Popen[str]", timeout: float = 30.0) -> int:
    """Wait for ``proc`` (killing it if it outlives ``timeout``)."""
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    for pipe in (proc.stdin, proc.stdout):
        if pipe is not None:
            pipe.close()
    return code
