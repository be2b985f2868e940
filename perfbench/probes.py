"""Host-time probes around each layer's public functions (traced pass only).

:func:`install` wraps the functions each layer is entered through and
keeps, per thread, a stack of open calls: a call's *self* time is its
duration minus the time spent in probed calls it made.  Totals are
kept per ``(layer, network)`` in memory and written as one JSON file per
process (``probe-<pid>.json``), rewritten after every top-level call so
pool workers that leave through ``os._exit`` lose nothing.

The probes only observe: every wrapper calls the original function with
the original arguments and returns its result unchanged.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: ``(layer, module, attribute)`` of every probed entry point.
TARGETS = (
    ("eval.request", "repro.eval.api", "evaluate"),
    ("dse.eval_point", "repro.dse.executor", "evaluate_point"),
    ("serve.eval", "repro.serve.service", "_serve_worker"),
    ("workloads.synth", "repro.workloads.synthetic", "synthetic_weights"),
    ("sparsity.profile", "repro.sparsity.stats", "compute_layer_stats"),
    ("model.evaluate", "repro.accelerators.base",
     "Accelerator.evaluate_workload"),
    ("sim.layer", "repro.eval.lowering", "simulate_layer"),
    ("sim.stats", "repro.eval.lowering", "layer_stats_for_sim"),
    ("store.load", "repro.dse.store", "ResultStore._load"),
    ("store.put", "repro.dse.store", "ResultStore.put"),
    ("store.result", "repro.dse.store", "ResultStore.result"),
)
#: The entry points one evaluation's host time is measured from.
ROOTS = frozenset({"eval.request", "dse.eval_point", "serve.eval"})
#: Minimum gap between rewrites triggered by non-root top-level calls.
_FLUSH_EVERY_S = 0.5

_LOCK = threading.Lock()
_LOCAL = threading.local()
_STATE: dict[str, Any] = {}
_OUT: list[Path] = []
_RESET = [False]
_LAST_FLUSH = [0.0]
#: id(weights array) -> (array, network, layer), so a profile call on a
#: freshly synthesized tensor is attributed to its layer.
_WEIGHTS: dict[int, tuple[Any, str, str]] = {}


def _clear() -> None:
    _STATE.clear()
    _STATE.update(frames={}, roots={}, layers={}, loads=0, load_bytes=0)
    _WEIGHTS.clear()


def _network(layer: str, args: tuple[Any, ...],
             kwargs: dict[str, Any]) -> tuple[str, str]:
    """``(network, network layer)`` a probed call works on."""
    if layer == "eval.request":
        return args[0].workload, ""
    if layer == "dse.eval_point":
        return args[0].network, ""
    if layer == "serve.eval":
        return args[0].request.workload, ""
    if layer in ("workloads.synth", "sim.layer", "sim.stats"):
        return args[0].network, args[0].name
    if layer == "model.evaluate":
        return (args[3] if len(args) > 3
                else kwargs.get("label", "custom")), ""
    if layer == "sparsity.profile":
        weights = args[0] if args else kwargs["weights"]
        _, net, name = _WEIGHTS.get(id(weights), (None, "other", "?"))
        return net, name
    return "", ""


def _record(layer: str, net: str, name: str, dur: float, own: float,
            top: bool, load_bytes: int) -> None:
    with _LOCK:
        if _RESET[0]:
            _RESET[0] = False
            _clear()
        entry = _STATE["frames"].setdefault((layer, net), [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += dur
        entry[2] += own
        if top and layer in ROOTS:
            root = _STATE["roots"].setdefault(layer, [0, 0.0, 0.0])
            root[0] += 1
            root[1] += dur
            root[2] += own
        if layer == "sparsity.profile":
            key = (net, name)
            _STATE["layers"][key] = _STATE["layers"].get(key, 0) + 1
        if layer == "store.load":
            _STATE["loads"] += 1
            _STATE["load_bytes"] += load_bytes


def _wrap(layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def probe(*args: Any, **kwargs: Any) -> Any:
        load_bytes = 0
        if layer == "store.load":
            store = args[0]
            if store._loaded:  # a no-op call: nothing is read
                return fn(*args, **kwargs)
            try:
                load_bytes = os.path.getsize(store.path)
            except OSError:
                load_bytes = 0
        stack = getattr(_LOCAL, "stack", None)
        if stack is None:
            stack = _LOCAL.stack = []
        net, name = _network(layer, args, kwargs)
        frame = [0.0]
        top = not stack
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += dur
            _record(layer, net, name, dur, dur - frame[0], top, load_bytes)
            if top:
                _maybe_flush(force=layer in ROOTS)
        if layer == "workloads.synth":
            if len(_WEIGHTS) > 32:
                _WEIGHTS.pop(next(iter(_WEIGHTS)))
            _WEIGHTS[id(result)] = (result, net, name)
        return result

    return probe


def snapshot() -> dict[str, Any]:
    """This process's totals as a JSON-ready dict."""
    with _LOCK:
        if _RESET[0]:
            _RESET[0] = False
            _clear()
        return {
            "pid": os.getpid(),
            "frames": [[layer, net, *v]
                       for (layer, net), v in _STATE["frames"].items()],
            "roots": [[layer, *v] for layer, v in _STATE["roots"].items()],
            "layers": [[net, name, n]
                       for (net, name), n in _STATE["layers"].items()],
            "loads": _STATE["loads"],
            "load_bytes": _STATE["load_bytes"],
        }


def flush() -> None:
    if not _OUT:
        return
    path = _OUT[0] / f"probe-{os.getpid()}.json"
    tmp = path.with_suffix(f".tmp{threading.get_ident()}")
    tmp.write_text(json.dumps(snapshot()))
    os.replace(tmp, path)


def _maybe_flush(force: bool) -> None:
    now = time.monotonic()
    if force or now - _LAST_FLUSH[0] >= _FLUSH_EVERY_S:
        _LAST_FLUSH[0] = now
        flush()


def _request_reset(signum: int, frame: Any) -> None:
    _RESET[0] = True


def install(out_dir: str | Path, reset_signal: bool = False) -> None:
    """Wrap every target in this process (and the processes it forks).

    ``reset_signal`` makes ``SIGUSR1`` drop the totals gathered so far,
    so a long-lived server can be probed from the start of a timed phase.
    """
    _OUT[:] = [Path(out_dir)]
    _clear()
    for layer, module_name, attr in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, name, _wrap(layer, getattr(owner, name)))
            continue
        original = getattr(module, name)
        wrapped = _wrap(layer, original)
        # Rebind every ``from module import name`` copy as well.
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and \
                    getattr(mod, name, None) is original:
                setattr(mod, name, wrapped)
    os.register_at_fork(after_in_child=_clear)
    atexit.register(flush)
    if reset_signal:
        signal.signal(signal.SIGUSR1, _request_reset)


def load(out_dir: str | Path) -> list[dict[str, Any]]:
    """Every process's probe file under ``out_dir``."""
    snaps = []
    for path in sorted(Path(out_dir).glob("probe-*.json")):
        try:
            snaps.append(json.loads(path.read_text()))
        except (OSError, ValueError):
            continue
    return snaps
