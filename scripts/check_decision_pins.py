#!/usr/bin/env python3
"""Gate the 100k-job decision CSVs against e2ebench/pins.json.

`bench_profile --dump-csv PREFIX` writes PREFIX.conservative.csv and
PREFIX.easy.csv: the per-job decisions (id,submit,start,end,procs,
restarts, sorted by id) of the seeded 100k-job Lublin'99 replay. Their
sha256 must equal the pinned hashes of the same trace in
e2ebench/pins.json; any scheduler or profile change that moves one
decision fails here (exit 1).

Usage:
    check_decision_pins.py PREFIX [--pins e2ebench/pins.json]
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

# bench_profile dump name -> e2ebench workload whose pin covers it.
PINNED = {"conservative": "batch_conservative", "easy": "batch_easy_traced"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("prefix", help="the bench_profile --dump-csv PATH")
    parser.add_argument("--pins", default=str(
        Path(__file__).resolve().parent.parent / "e2ebench" / "pins.json"))
    args = parser.parse_args()

    pins = json.loads(Path(args.pins).read_text())["decisions_sha256"]
    failures = 0
    for dump, workload in PINNED.items():
        path = Path(f"{args.prefix}.{dump}.csv")
        got = hashlib.sha256(path.read_bytes()).hexdigest()
        want = pins[workload]
        if got == want:
            print(f"{path}: {got} matches {workload}")
        else:
            print(f"{path}: {got} != pinned {workload} {want}",
                  file=sys.stderr)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
