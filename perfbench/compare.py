"""Compare two benchmark reports written by ``run.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints, per end-to-end metric of the untraced pass, the base and new values
and the change as a share of the base, marking a change worse than the
metric's bound in ``BENCHMARK.json``.  Results taken on hosts whose
fingerprints differ (cores, affinity, BLAS and its threads, numpy, Python,
WAL filesystem) are flagged: their difference says nothing about the code.
Exits 1 when a metric is worse than its bound or the fingerprints differ.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

from host import COMPARABLE_KEYS

ROOT = Path(__file__).resolve().parent.parent


def fingerprint_differences(base: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    return [
        f"{key}: {base.get(key)!r} -> {new.get(key)!r}"
        for key in COMPARABLE_KEYS
        if base.get(key) != new.get(key)
    ]


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    status = 0
    differences = fingerprint_differences(base["fingerprint"], new["fingerprint"])
    if differences:
        status = 1
        print("DIFFERENT HOST: the results are not comparable")
        for line in differences:
            print(f"  {line}")
    if base["workload"] != new["workload"]:
        print(f"different workloads: {base['workload']} vs {new['workload']}")
        return 1
    for spec in specs:
        name = spec["name"]
        before = base["untraced"]["metrics"][name]
        after = new["untraced"]["metrics"][name]
        change = (after - before) / before
        worse = -change if spec["better"] == "higher" else change
        flag = "WORSE THAN BOUND" if worse > spec["bound"] else ""
        if flag:
            status = 1
        print(f"{name:20s} {before:12.4f} -> {after:12.4f} {spec['unit']:6s} {change:+8.1%} {flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
