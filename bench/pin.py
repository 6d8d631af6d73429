#!/usr/bin/env python3
"""Rewrite pins.json from the program as it is now.

    python3 bench/pin.py

Runs one pass of every workload at the default seed and stores the sha256 of
each command's stdout.  The benchmark then counts any later difference as a
failed operation, so run this only when a change to kcir's output is meant.
Every other gate must pass first, or nothing is written.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    pins: dict[str, str] = {}
    for workload in run.WORKLOADS.values():
        with run.scratch_dir() as workdir:
            bench = run.Bench(workload, run.DEFAULT_SEED, {}, workdir)
            bench.set_up()
            bench.run_pass()
        if bench.failed:
            print(f"error: {workload.name} failed its gates; pins not written", file=sys.stderr)
            return 1
        pins.update(bench.digests)
    run.PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
