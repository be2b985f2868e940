"""The benchmark's one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-eval|arch-sweep|serve-open \
        --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs it untraced and then traced over the same
work, and reports the per-layer metrics (and the tracing overhead).
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, WORK_ROOT  # noqa: E402


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("cold-eval", "arch-sweep", "serve-open"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a tiny version of the workload (self-tests)")
    return parser.parse_args(argv)


def measure(args: argparse.Namespace, work: Path) -> dict[str, object]:
    import report
    from workloads import WORKLOADS, Pass

    workload = WORKLOADS[args.workload]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if not args.trace:
        outcome = workload(Pass(work / "run", args.seed, args.seconds,
                                smoke=args.smoke))
        metrics = report.end_to_end(outcome)
        report.print_end_to_end(args.workload, outcome, metrics)
        units, outcomes = report.E2E_UNITS, [outcome]
    else:
        plain = workload(Pass(work / "plain", args.seed, args.seconds,
                              reps=1, smoke=args.smoke))
        trace_dir, probe_dir = work / "obs", work / "probes"
        trace_dir.mkdir()
        probe_dir.mkdir()
        traced = workload(Pass(work / "traced", args.seed, args.seconds,
                               reps=1, units=plain.units, smoke=args.smoke,
                               trace_dir=trace_dir, probe_dir=probe_dir))
        metrics = report.layer_metrics(args.workload, plain, traced,
                                       probe_dir, trace_dir)
        units, outcomes = report.LAYER_UNITS, [plain, traced]
    errors = [e for o in outcomes for e in o.errors]
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(f"output checks: {'FAILED' if errors else 'ok'}")
    return {
        "correct": not errors,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv: list[str]) -> int:
    args = parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
