"""The three workloads, driven from the benchmark's parent process.

Each workload starts the processes that run the program, timing every
set-up, runs the timed phase, checks every answer, and returns an
:class:`Outcome` of raw samples.  Metrics are derived from outcomes in
:mod:`report`.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import signal
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any
from urllib.parse import urlencode

import streams
from common import (ACCELERATORS, BENCH_DIR, NETWORKS, SIM, another_unit,
                    check_totals, digest, load_expected, program_env,
                    request_label, rss_mb, spawn, stop)


@dataclass
class Outcome:
    """Raw samples of one pass of one workload."""

    setup_s: list[float]
    latencies_s: list[float]
    #: Host seconds of timed work the rate is measured over.
    work_s: float
    rss_mb: float
    attempted: int
    failed: int
    #: Units run (cycles, campaigns, requests); a traced pass repeats it.
    units: int
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    #: Workload-specific samples (sim MACs, serve counters, lateness...).
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def evals_per_s(self) -> float:
        return (self.attempted - self.failed) / self.work_s


@dataclass
class Pass:
    """Where one pass keeps its files, and whether it is traced."""

    work: Path
    seed: int
    seconds: float
    #: Set-ups per pass (cold-eval instead starts, and times, one fresh
    #: process per request).
    reps: int = 3
    units: int | None = None
    smoke: bool = False
    trace_dir: Path | None = None
    probe_dir: Path | None = None


def _check_rows(rows: list[dict[str, Any]]) -> tuple[list[str], str]:
    ok = [(r["label"], r["cycles"], r["energy"]) for r in rows if r["ok"]]
    errors = check_totals(ok, load_expected())
    for row in rows:
        if row.get("over_bound"):
            errors.append(f"{row['label']}: model-vs-sim deviation >= 6% "
                          f"on {', '.join(row['over_bound'])}")
    return errors, digest(ok)


def _start(kind: str, env: dict[str, str]
           ) -> tuple["subprocess.Popen[str]", float]:
    """Start ``child.py kind``; returns it once set up, with the time."""
    start = time.perf_counter()
    proc = spawn([str(BENCH_DIR / "child.py"), kind], env,
                 stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    assert proc.stdout is not None
    if proc.stdout.readline().strip() != "ready":
        stop(proc, timeout=5.0)
        raise RuntimeError(f"{kind} process failed to start")
    return proc, time.perf_counter() - start


def _finish(proc: "subprocess.Popen[str]",
            job: dict[str, Any] | None) -> dict[str, Any]:
    """Hand ``proc`` its job (``None``: quit) and wait for the answer."""
    assert proc.stdin is not None and proc.stdout is not None
    try:
        proc.stdin.write((json.dumps(job) if job else "quit") + "\n")
        proc.stdin.flush()
        answer = proc.stdout.readline() if job else "{}"
    finally:
        code = stop(proc, timeout=170.0)
    if code != 0 or not answer:
        raise RuntimeError(f"{proc.args} exited with {code}")
    return json.loads(answer)


def _env(run: Pass) -> dict[str, str]:
    return program_env(run.trace_dir, run.work / "default-store")


def _probe_dir(run: Pass) -> str | None:
    return str(run.probe_dir) if run.probe_dir else None


# -- cold-eval -------------------------------------------------------------
def cold_eval(run: Pass) -> Outcome:
    """Cycles of cold requests, each in a fresh process (a set-up sample)."""
    networks = ("cnn_lstm",) if run.smoke else NETWORKS
    rows, setups, rss = [], [], 0.0
    spent, cycles = 0.0, 0
    while cycles == 0 or another_unit(cycles, spent, run.units, run.seconds):
        for index, request in enumerate(
                streams.cold_cycle(run.seed, cycles, networks)):
            proc, setup = _start("cold", _env(run))
            setups.append(setup)
            answer = _finish(proc, {
                "request": request, "probe_dir": _probe_dir(run),
                "work": str(run.work / f"c{cycles}-{index}")})
            rows.append(answer["row"])
            rss = max(rss, answer["rss_mb"])
            spent += answer["row"]["latency_s"]
        cycles += 1
    errors, run_digest = _check_rows(rows)
    sim = [r for r in rows if r["label"].startswith(SIM)]
    latencies = [r["latency_s"] for r in rows if r["ok"]]
    return Outcome(
        setup_s=setups, latencies_s=latencies, work_s=sum(latencies),
        rss_mb=rss, attempted=len(rows),
        failed=sum(not r["ok"] for r in rows), units=cycles,
        errors=errors, digest=run_digest,
        extra={"sim_n": len(sim), "sim_macs": sum(r["macs"] for r in sim),
               "sim_s": sum(r["latency_s"] for r in sim),
               "max_deviation": max(r["max_deviation"] for r in sim)})


# -- arch-sweep ------------------------------------------------------------
def arch_sweep(run: Pass) -> Outcome:
    job = dict(seed=run.seed, seconds=run.seconds, units=run.units,
               work=str(run.work / "timed"), probe_dir=_probe_dir(run),
               jobs=streams.SWEEP_JOBS,
               networks=("cnn_lstm",) if run.smoke else NETWORKS,
               accelerators=ACCELERATORS[:2] if run.smoke else ACCELERATORS,
               archs_per_campaign=2 if run.smoke else streams.SWEEP_ARCHS)
    setups = []
    for rep in range(run.reps):
        proc, setup = _start("sweep", _env(run))
        setups.append(setup)
        answer = _finish(proc, job if rep == run.reps - 1 else None)
    rows = answer["rows"]
    errors, run_digest = _check_rows(rows)
    per_campaign = len(rows) // answer["units"]
    for index in range(answer["units"]):
        store = run.work / "timed" / f"s{index}"
        stored = sum(len(path.read_bytes().splitlines())
                     for path in store.glob("*/results.jsonl"))
        if stored != per_campaign:
            errors.append(f"campaign {index}: {stored} stored records for "
                          f"{per_campaign} points")
    latencies = [r["latency_s"] for r in rows if r["ok"]]
    return Outcome(
        setup_s=setups, latencies_s=latencies, work_s=sum(answer["walls"]),
        rss_mb=answer["rss_mb"], attempted=len(rows),
        failed=sum(not r["ok"] for r in rows), units=answer["units"],
        errors=errors, digest=run_digest,
        extra={"jobs": streams.SWEEP_JOBS, "evaluated": len(latencies)})


# -- serve-open ------------------------------------------------------------
#: With two or more CPUs the server runs on the last one and the load
#: generator on the first, so the two never compete for one CPU.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU, CLIENT_CPU = (_CPUS[-1], _CPUS[0]) if len(_CPUS) > 1 else (
    None, None)


def _pin(cpu: int | None) -> Any:
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


_LISTENING = re.compile(r"listening on http://([0-9.]+):([0-9]+)")


def _get(port: int, path: str) -> tuple[int, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _eval_path(request: dict[str, str]) -> str:
    return "/eval?" + urlencode({k: request[k] for k in
                                 ("workload", "accelerator", "arch")})


class _Server:
    """A prewarmed ``repro.serve`` process, ready for timed requests."""

    def __init__(self, run: Pass, plan: streams.ServePlan, store: Path,
                 traced: bool) -> None:
        store.mkdir(parents=True)
        env = program_env(None, store)
        prewarm = spawn(
            ["-m", "repro.dse", "run", "--name", "prewarm", "--quiet",
             "--jobs", "2", "--store", str(store),
             "--networks", ",".join(streams.SERVE_NETWORKS),
             "--accelerators", ",".join(streams.SERVE_ACCELERATORS),
             "--archs", ",".join(plan.store_archs)],
            env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if stop(prewarm, timeout=170.0) != 0:
            raise RuntimeError("store prewarm failed")
        args = ["--port", "0", "--store", str(store), "--workers", "0"]
        if traced:
            assert run.probe_dir is not None
            command = [str(BENCH_DIR / "child.py"), "server",
                       str(run.probe_dir), "--", *args]
            env = program_env(run.trace_dir, store)
        else:
            command = ["-m", "repro.serve", *args]
        self.log = store / "server.log"
        with open(self.log, "w") as log:
            self.proc = spawn(command, env, stdout=subprocess.DEVNULL,
                              stderr=log, preexec_fn=_pin(SERVER_CPU))
        try:
            self.port = self._wait_listening()
            for request in plan.warmup:
                status, _ = _get(self.port, _eval_path(request))
                if status != 200:
                    raise RuntimeError(f"warm-up request failed: {status}")
        except BaseException:
            self.close()
            raise

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log.read_text())
            if match:
                return int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError("server did not start")

    def peak_rss_mb(self) -> float:
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return rss_mb()
        match = re.search(r"VmHWM:\s+([0-9]+) kB", status)
        return int(match.group(1)) / 1024.0 if match else rss_mb()

    def close(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        return stop(self.proc, timeout=60.0)


async def _fetch(port: int, path: str) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     f"Connection: close\r\n\r\n".encode())
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


async def _open_loop(port: int, schedule: list[tuple[float, dict[str, str],
                                                      str]],
                     in_flight: int = 2) -> list[tuple[float, ...]]:
    """Send ``schedule`` open-loop, at most ``in_flight`` at a time.

    Returns ``(due, woke, done, status, body)`` per request: when it was
    due, when the generator got to it, and when its answer was in.
    """
    loop = asyncio.get_running_loop()
    gate = asyncio.Semaphore(in_flight)
    start = loop.time() + 0.05
    records: list[Any] = [None] * len(schedule)

    async def one(index: int, due: float, request: dict[str, str]) -> None:
        await asyncio.sleep(max(0.0, start + due - loop.time()))
        woke = loop.time()
        async with gate:
            status, body = await _fetch(port, _eval_path(request))
        records[index] = (start + due, woke, loop.time(), status, body)

    await asyncio.gather(*(one(i, due, req)
                           for i, (due, req, _) in enumerate(schedule)))
    return records


def _store_records(store: Path) -> dict[str, dict[str, Any]]:
    records: dict[str, dict[str, Any]] = {}
    for path in store.glob("*/results.jsonl"):
        for line in path.read_text().splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue
            records[record["key"]] = record
    return records


def _counter_delta(after: dict[str, int],
                   before: dict[str, int]) -> dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def serve_open(run: Pass) -> Outcome:
    n_requests = max(40, round(streams.SERVE_RATE * run.seconds))
    if run.units:
        n_requests = run.units
    plan = streams.serve_plan(run.seed, n_requests,
                              store_archs=2 if run.smoke else
                              streams.SERVE_STORE_ARCHS)
    traced = run.probe_dir is not None
    setups = []
    for rep in range(run.reps):
        start = time.perf_counter()
        server = _Server(run, plan, run.work / f"serve{rep}", traced)
        setups.append(time.perf_counter() - start)
        if rep < run.reps - 1:
            server.close()
    errors: list[str] = []
    try:
        _, before = _get(server.port, "/metrics")
        if traced:
            server.proc.send_signal(signal.SIGUSR1)
        since = time.time()
        if CLIENT_CPU is not None:
            os.sched_setaffinity(0, {CLIENT_CPU})
        try:
            records = asyncio.run(_open_loop(server.port, plan.schedule))
        finally:
            os.sched_setaffinity(0, _CPUS)
        _, after = _get(server.port, "/metrics")
        peak = server.peak_rss_mb()
    finally:
        code = server.close()
    if code != 128 + signal.SIGTERM:
        errors.append(f"server exited with {code} after SIGTERM")

    stored = _store_records(run.work / f"serve{run.reps - 1}")
    expected = load_expected()
    latencies, late, rows = [], [], []
    failed = 0
    for (due, woke, done, status, body), (_, request, _) in zip(
            records, plan.schedule):
        late.append(woke - due)
        if status != 200:
            failed += 1
            continue
        latencies.append(done - due)
        answer = json.loads(body)
        result = answer["result"]
        record = stored.get(answer["key"])
        if record is None or record["result"] != result:
            errors.append(f"{request_label(request)}: answer differs from "
                          f"its stored record")
        rows.append((request_label(request),
                     sum(layer["cycles"] for layer in result["layers"]),
                     sum(layer["energy_pj"] for layer in result["layers"])))
    errors += check_totals(rows, expected)

    last_due = max(r[0] for r in records)
    backlog = sum(1 for r in records if r[0] <= last_due and r[2] > last_due)
    backlog_limit = max(8, round(streams.SERVE_RATE))
    if backlog > backlog_limit:
        # A backlog that grew means the rate is above capacity: the
        # latencies describe the queue, not the service, so every
        # request of the run counts as failed.
        failed = len(records)
    first_due = min(r[0] for r in records)
    return Outcome(
        setup_s=setups, latencies_s=latencies,
        work_s=max(r[2] for r in records) - first_due,
        rss_mb=peak, attempted=len(records), failed=failed,
        units=n_requests, errors=errors, digest=digest(rows),
        extra={"late_s": late, "backlog": backlog,
               "backlog_limit": backlog_limit, "since": since,
               "counters": _counter_delta(after["counters"],
                                          before["counters"]),
               "kinds": plan.kinds()})


WORKLOADS = {
    "cold-eval": cold_eval,
    "arch-sweep": arch_sweep,
    "serve-open": serve_open,
}
