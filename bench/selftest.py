#!/usr/bin/env python3
"""Fast self-test of the benchmark harness, on tiny versions of every workload.

    python3 bench/selftest.py

Horizons are cut to at most 3, stimuli to 50 ticks and checks to 20 trials.
It checks that

- every metric BENCHMARK.json names is emitted, with its unit, by an
  untraced run (end-to-end) and a traced run (per-layer) of each workload;
- the traced run still works when a name it wraps does not exist;
- a wrong pinned fingerprint, a wrong expected verdict and a wrong expected
  work count each make a run fail (``failed`` above 0).

Prints one line per check and exits with 1 if any of them does not hold.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
from contextlib import redirect_stderr

import run
from tracing import SPAN_TARGETS

MISSING_TARGETS = SPAN_TARGETS + (
    ("kcir.classifier", "no_such_stage", "classifier.no_such_stage", None),
    ("kcir.no_such_module", "main", "no_such_module.main", None),
)


def tiny(case: run.Case) -> run.Case:
    return dataclasses.replace(
        case,
        horizon=min(case.horizon, 3) if case.command == "classify" else case.horizon,
        ticks=min(case.ticks, 50),
        trials=min(case.trials, 20),
    )


def tiny_workload(workload: run.Workload, *cases: run.Case) -> run.Workload:
    return dataclasses.replace(workload, cases=cases or tuple(map(tiny, workload.cases)))


def quiet_run(workload: run.Workload, trace: bool, pins=None, targets=SPAN_TARGETS):
    """Run one workload for a single pass; returns (result, stderr text)."""
    err = io.StringIO()
    with redirect_stderr(err):
        result = run.run_workload(workload, run.DEFAULT_SEED, 0, trace, pins or {}, targets)
    return result, err.getvalue()


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json lists exactly the defined workloads")
    for workload in run.WORKLOADS.values():
        for trace in (False, True):
            result, _ = quiet_run(tiny_workload(workload), trace)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == wanted[trace] and result["failed"] == 0 and result["correct"],
                   f"{workload.name} trace={int(trace)}: every metric with its unit, no failures")

    witness = run.WORKLOADS["classify-witness"]
    result, stderr = quiet_run(tiny_workload(witness), True, targets=MISSING_TARGETS)
    expect(result["correct"] and set(result["metrics"]) == set(wanted[True])
           and "no_such_stage" in stderr and "no_such_module" in stderr,
           "traced run tolerates wrapped names that do not exist")

    dff = tiny(run.WORKLOADS["classify-tp"].cases[0])
    one_case = tiny_workload(run.WORKLOADS["classify-tp"], dff)
    result, stderr = quiet_run(one_case, False, pins={dff.name: "0" * 64})
    expect(result["failed"] > 0 and "pinned" in stderr, "a wrong pinned fingerprint fails")

    wrong_verdict = dataclasses.replace(dff, verdict=run.NTP)
    result, stderr = quiet_run(tiny_workload(one_case, wrong_verdict), False)
    expect(result["failed"] > 0 and "verdict" in stderr, "a wrong expected verdict fails")

    wrong_count = dataclasses.replace(dff, alphabet=3)
    result, stderr = quiet_run(tiny_workload(one_case, wrong_count), False)
    expect(result["failed"] > 0 and "explored" in stderr, "a wrong expected work count fails")

    sim = tiny(run.WORKLOADS["simulate"].cases[0])
    result, stderr = quiet_run(tiny_workload(run.WORKLOADS["simulate"], sim), False,
                               pins={sim.name: "0" * 64})
    expect(result["failed"] > 0 and "pinned" in stderr,
           "a wrong simulate fingerprint fails at the default seed")

    print(f"{len(failures)} of the checks failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
