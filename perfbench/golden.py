"""Golden ``SimResult`` fingerprints for the benchmark's workload points.

A fingerprint hashes every field of a ``SimResult``.  ``golden.json``
holds one per point for each golden seed: the default seed and one seed
held out from tuning.  Campaign points are keyed by pass index, because
each campaign pass runs at its own derived seed (``grids.pass_seed``).
The golden values are computed by plain in-process ``simulate()`` /
serial campaign calls, so a ``-j 2`` campaign that matches them matches
serial execution point for point.

Regenerate explicitly; the command prints the diff against the stored
file and rewrites it only with ``--write``::

    python3 perfbench/golden.py            # show the diff, exit 1 if any
    python3 perfbench/golden.py --write    # show the diff and rewrite
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from typing import Dict, Optional

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")
DEFAULT_SEED = 0
HELD_OUT_SEED = 1
#: Campaign passes with golden fingerprints per seed; later passes of a
#: run are checked against an in-process serial re-simulation instead.
CAMPAIGN_PASSES = 12


def fingerprint(result) -> list:
    """``[sha256-prefix over every field, cycles, ipc]`` of a SimResult."""
    doc = json.dumps(dataclasses.asdict(result), sort_keys=True)
    digest = hashlib.sha256(doc.encode()).hexdigest()[:24]
    return [digest, result.cycles, result.ipc]


def load() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def table(doc: dict, workload: str, seed: int) -> Optional[Dict[str, list]]:
    """``{key: fingerprint}`` for *workload* at *seed*, or ``None``."""
    return doc.get("seeds", {}).get(str(seed), {}).get(workload)


def campaign_key(k: int, bench: str, scheme: str) -> str:
    return f"{k}:{bench}/{scheme}"


def compute(seed: int, log=print) -> Dict[str, Dict[str, list]]:
    """Every workload's fingerprints at *seed*, by serial simulation."""
    import grids
    from repro import simulate
    from repro.analysis.campaign import run_point
    from repro.workloads import clear_workload_cache

    out: Dict[str, Dict[str, list]] = {}
    for workload in grids.SIM_WORKLOADS:
        out[workload] = {
            grids.point_label(b, s): fingerprint(simulate(b, s, seed=seed))
            for b, s in grids.sim_grid(workload)
        }
        log(f"  seed {seed} {workload}: {len(out[workload])} points")
    camp = out[grids.CAMPAIGN_WORKLOAD] = {}
    for k in range(CAMPAIGN_PASSES):
        clear_workload_cache()
        for point in grids.campaign_points(grids.pass_seed(seed, k)):
            key = campaign_key(k, point.bench, point.scheme)
            camp[key] = fingerprint(run_point(point))
        log(f"  seed {seed} {grids.CAMPAIGN_WORKLOAD} pass {k}")
    clear_workload_cache()
    return out


def diff(old: dict, new: dict):
    """Lines describing every changed, added or removed fingerprint."""
    lines = []
    seeds = sorted(set(old.get("seeds", {})) | set(new["seeds"]), key=int)
    for seed in seeds:
        a = old.get("seeds", {}).get(seed, {})
        b = new["seeds"].get(seed, {})
        for workload in sorted(set(a) | set(b)):
            ta, tb = a.get(workload, {}), b.get(workload, {})
            for key in sorted(set(ta) | set(tb)):
                if ta.get(key) != tb.get(key):
                    lines.append(
                        f"seed {seed} {workload} {key}: "
                        f"{ta.get(key)} -> {tb.get(key)}"
                    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite golden.json with the new values")
    args = parser.parse_args(argv)
    import run  # puts the checkout's src/ on sys.path

    run.import_repro()
    new = {
        "format": "perfbench-golden/1",
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seeds": {
            str(s): compute(s, log=lambda m: print(m, file=sys.stderr))
            for s in (DEFAULT_SEED, HELD_OUT_SEED)
        },
    }
    old = load() if os.path.exists(GOLDEN_PATH) else {}
    lines = diff(old, new)
    for line in lines:
        print(line)
    print(f"{len(lines)} fingerprint(s) differ from {GOLDEN_PATH}")
    if args.write:
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(new, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("rewrote golden fingerprints")
        return 0
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
