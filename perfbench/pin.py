"""Pin the (cycles, energy) totals of every request the workloads can send.

Usage (from the repository root)::

    python3 perfbench/pin.py

writes ``perfbench/expected.json``.  The benchmark checks every answer
it gets against these totals, so re-pin only when a change is meant to
move the model's or the simulator's numbers.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from common import (ACCELERATORS, ARCH_POOL, BASE_ARCH, BENCH_DIR,
                    NETWORKS, SIM, SRC, WORK_ROOT, digest, label)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro.dse.executor import run_campaign
    from repro.dse.spec import CampaignSpec
    from repro.dse.store import ResultStore

    WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="pin-", dir=WORK_ROOT)
    try:
        archs = (BASE_ARCH,) + ARCH_POOL
        specs = (
            CampaignSpec(name="pin-model", accelerators=ACCELERATORS,
                         networks=NETWORKS, archs=archs),
            CampaignSpec(name="pin-sim", accelerators=("BitWave",),
                         networks=NETWORKS, backends=(SIM,)),
        )
        rows = []
        for spec in specs:
            run = run_campaign(spec, ResultStore(work), jobs=2)
            if run.failed:
                raise SystemExit(f"pinning failed: {run.failed}")
            for point in run.points:
                if point.arch not in archs:
                    raise SystemExit(
                        f"non-canonical arch spelling {point.arch}")
                result = run.result_for(point)
                rows.append((label(point.backend, point.network,
                                   point.accelerator, point.arch),
                             result.total_cycles, result.total_energy_pj))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    entries = ",\n".join(f"  {json.dumps(name)}: [{c!r}, {e!r}]"
                          for name, c, e in sorted(rows))
    with open(BENCH_DIR / "expected.json", "w") as fh:
        fh.write(f'{{"digest": "{digest(rows)}", "totals": {{\n'
                 f"{entries}\n}}}}\n")
    print(f"pinned {len(rows)} requests, digest {digest(rows)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
