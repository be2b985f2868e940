"""Seeded request streams, one generator per workload.

Each stream is a pure function of ``(seed, index)``: the same seed
gives the same requests, and the program only ever sees the generated
requests.  A stream's *composition* (how many requests of each kind,
on which networks and backends) is fixed; the seed picks accelerators,
arch overrides, keys and order, so runs on different seeds measure the
same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from common import (ACCELERATORS, ARCH_POOL, BASE_ARCH, MODEL, NETWORKS,
                    SIM)

#: arch-sweep: ArchSpec overrides per campaign (the whole pool, in
#: seeded order), and pool workers.
SWEEP_ARCHS = len(ARCH_POOL)
SWEEP_JOBS = 2

#: serve-open: one network on every accelerator.  cnn_lstm keeps each
#: miss's compute small next to the store re-read it triggers.
SERVE_NETWORKS = ("cnn_lstm",)
SERVE_ACCELERATORS = ACCELERATORS
#: Archs whose records the store is prewarmed with (x networks x accs).
SERVE_STORE_ARCHS = 12
#: Open-loop arrival rate (requests/s) and request mix.
SERVE_RATE = 50.0
SERVE_MISS_SHARE = 0.04
SERVE_PAIR_SHARE = 0.01
SERVE_STORE_SHARE = 0.10
#: A hot repeat only targets keys first requested this long before.
HOT_AGE_S = 2.0


def _rng(workload: str, seed: int, *parts: object) -> random.Random:
    return random.Random(":".join(map(str, (workload, seed, *parts))))


def _request(network: str, accelerator: str, arch: str = BASE_ARCH,
             backend: str = MODEL) -> dict[str, str]:
    return {"workload": network, "accelerator": accelerator,
            "arch": arch, "backend": backend}


def cold_cycle(seed: int, cycle: int,
               networks: tuple[str, ...] = NETWORKS) -> list[dict[str, str]]:
    """One cold-eval cycle: every network on a seeded model accelerator
    and on the BitWave simulator, in seeded order."""
    rng = _rng("cold-eval", seed, cycle)
    accelerators = rng.sample(ACCELERATORS, len(networks))
    requests = [_request(net, acc) for net, acc in zip(networks,
                                                      accelerators)]
    requests += [_request(net, "BitWave", backend=SIM) for net in networks]
    rng.shuffle(requests)
    return requests


def sweep_archs(seed: int, campaign: int,
                k: int = SWEEP_ARCHS) -> tuple[str, ...]:
    """The arch overrides one arch-sweep campaign crosses its grid with:
    ``k`` of the pool in seeded order (the whole pool by default)."""
    return tuple(_rng("arch-sweep", seed, campaign).sample(ARCH_POOL, k))


@dataclass
class ServePlan:
    """Everything serve-open sends: store prewarm, warm-up, schedule."""

    store_archs: tuple[str, ...]
    warmup: list[dict[str, str]]
    #: ``(due_s, request, kind)`` sorted by due time; kind is one of
    #: ``hot``, ``store``, ``miss``, ``pair``.
    schedule: list[tuple[float, dict[str, str], str]] = field(
        default_factory=list)

    def kinds(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for _, _, kind in self.schedule:
            counts[kind] = counts.get(kind, 0) + 1
        return counts


def serve_plan(seed: int, n_requests: int,
               store_archs: int = SERVE_STORE_ARCHS) -> ServePlan:
    """A seeded open-loop (Poisson) schedule of ``n_requests``.

    Arrival times are ``n_requests`` uniform draws over the schedule's
    span, sorted: a Poisson process conditioned on its count, so every
    seed offers exactly the same load.  Pairs share one due time so the
    second request coalesces onto the first one's evaluation.
    """
    rng = _rng("serve-open", seed)
    archs = rng.sample((BASE_ARCH,) + ARCH_POOL, store_archs)
    stored = [_request(n, a, arch) for n in SERVE_NETWORKS
              for a in SERVE_ACCELERATORS for arch in archs]
    fresh = [_request(n, a, arch) for n in SERVE_NETWORKS
             for a in SERVE_ACCELERATORS
             for arch in (BASE_ARCH,) + ARCH_POOL if arch not in archs]
    rng.shuffle(stored)
    rng.shuffle(fresh)
    warmup = []
    for net in SERVE_NETWORKS:
        pick = next(r for r in fresh if r["workload"] == net)
        fresh.remove(pick)
        warmup.append(pick)

    n_miss = round(SERVE_MISS_SHARE * n_requests)
    n_pair = round(SERVE_PAIR_SHARE * n_requests)
    n_store = min(round(SERVE_STORE_SHARE * n_requests), len(stored))
    n_hot = n_requests - n_miss - 2 * n_pair - n_store
    if n_hot < 0 or n_miss + n_pair > len(fresh):
        raise ValueError(f"{n_requests} requests do not fit the serve mix")
    # Misses and pairs are stratified: one at a seeded spot in each of
    # equal stretches of the schedule.  Two misses falling together
    # block both connections, and how often that happens would
    # otherwise vary from seed to seed more than anything measured.
    slow = ["miss"] * n_miss + ["pair"] * n_pair
    rng.shuffle(slow)
    fast = ["store"] * n_store + ["hot"] * n_hot
    rng.shuffle(fast)
    n_slots = len(slow) + len(fast)
    slots: list[str] = []
    for i, kind in enumerate(slow):
        end = (i + 1) * n_slots // len(slow)
        spot = rng.randrange(len(slots), end)
        slots += [fast.pop() for _ in range(spot - len(slots))] + [kind]
    slots += fast
    span = n_requests / SERVE_RATE
    times = sorted(rng.uniform(0.0, span) for _ in slots)

    # Keys a hot repeat may target: (first due time, request).
    answered: list[tuple[float, dict[str, str]]] = [
        (-HOT_AGE_S, r) for r in warmup]
    schedule: list[tuple[float, dict[str, str], str]] = []
    for due, kind in zip(times, slots):
        if kind == "hot":
            ready = [r for t, r in answered if t <= due - HOT_AGE_S]
            schedule.append((due, rng.choice(ready), kind))
            continue
        request = (stored if kind == "store" else fresh).pop()
        schedule.append((due, request, kind))
        if kind == "pair":
            schedule.append((due, request, kind))
        answered.append((due, request))
    return ServePlan(store_archs=tuple(archs), warmup=warmup,
                     schedule=schedule)
