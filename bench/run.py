#!/usr/bin/env python3
"""Outside-in benchmark for kcir.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread and one client in a closed loop: a workload is a fixed
list of ``kcir`` commands, each issued in process through
``kcir.cli.main(argv)`` with stdout captured, the next only after the previous
returns.  Commands use default options; ``--jobs`` is never passed.  Every
command's output goes through the correctness gates below, and a command that
raises, exits with an unexpected code or misses a gate counts as failed.

``--trace 0`` repeats whole passes of the command list until ``--seconds``
have passed and prints the end-to-end metrics, as medians scaled to a
reference host speed measured beside every command (see ``hostspeed.py``).  ``--trace 1`` runs a traced
pass between two untraced ones and prints the per-layer metrics; spans are
recorded by wrapping the package from outside (see ``tracing.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Gate misses go to stderr.
Run ``python3 bench/selftest.py`` to check the harness itself in seconds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterator, Optional

import hostspeed
import reference
from tracing import EVALUATE, READ_MAP, SPAN_TARGETS, Tracer

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "pins.json"
#: Simulate and check fingerprints in pins.json hold for this seed only;
#: classify reports do not depend on the seed and are pinned for every seed.
DEFAULT_SEED = 0
#: Set-ups per untraced run; setup_s is their median.  Each set-up re-imports
#: kcir, which leaves some memory behind, so the count is fixed and
#: peak_rss_mb does not grow with the number of passes.
SETUP_REPEATS = 11

TP = "time-preserving"
NTP = "not-time-preserving"
NFF = "not-fundamental-form"


@dataclass(frozen=True)
class Case:
    """One command of a workload; ``name`` keys its pin and its case metric."""

    name: str
    command: str  # "classify", "simulate" or "check"
    circuit: str  # file stem under circuits/
    horizon: int = 0
    verdict: str = ""  # classify: the paper's verdict for the circuit
    alphabet: int = 0  # classify: control alphabet size, for the work-count gate
    ticks: int = 0  # simulate: stimulus length
    trials: int = 0  # check: --trials

    def expected_counts(self) -> tuple[int, int]:
        """(signals, relation_pairs) the classifier must explore: Σ|Σ|^(t+1), Σ(t+1)|Σ|^(t+1)."""
        if self.verdict == NFF:
            return 0, 0  # no read map, so nothing is enumerated
        powers = [(t + 1, self.alphabet ** (t + 1)) for t in range(self.horizon + 1)]
        return sum(p for _, p in powers), sum(k * p for k, p in powers)

    def work(self) -> int:
        """Units counted by work_per_s: signals, stimulus ticks or check trials."""
        if self.command == "classify":
            return self.expected_counts()[0]
        return self.ticks if self.command == "simulate" else self.trials


def classify_case(circuit: str, horizon: int, alphabet: int, verdict: str) -> Case:
    return Case(f"{circuit}_h{horizon}", "classify", circuit, horizon, verdict, alphabet)


def simulate_case(circuit: str, ticks: int) -> Case:
    return Case(f"sim_{circuit}", "simulate", circuit, ticks=ticks)


def check_case(circuit: str, horizon: int, trials: int) -> Case:
    return Case(f"check_{circuit}", "check", circuit, horizon=horizon, trials=trials)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cases: tuple[Case, ...]


STREAM_CIRCUITS = ("dff", "counter", "twoclock", "mux", "abmem")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "classify-tp",
            # Enumeration, the prefix relation, the read map, derive and the
            # axioms do all the work; the witness search does none.  Circuits
            # with a small finite image (dff, mux) sit beside circuits whose
            # read sets grow with history (counter, twoclock), the property
            # that subtree memoisation of the read map depends on.  Horizons
            # keep each command well under a second, so a run times every
            # case many times over.
            "time-preserving circuits: enumeration, prefix relation, read map, derive and axioms; no witness search",
            (
                classify_case("dff", 10, 2, TP),
                classify_case("mux", 10, 2, TP),
                classify_case("counter", 9, 2, TP),
                classify_case("twoclock", 4, 4, TP),
                classify_case("srlatch", 4, 4, NFF),
            ),
        ),
        Workload(
            "classify-witness",
            # abmem is the only built-in that is not time-preserving.  Its
            # 9-symbol alphabet makes a wide, shallow tree in which most
            # relation pairs touch an undefined read, and the witness search
            # runs in no other workload.  h=4 takes about 6 s a command, too
            # long to time many times in one run, so h=3 and h=2 stand in.
            "not-time-preserving abmem: wide shallow tree, undefined reads and the witness search",
            (
                classify_case("abmem", 3, 9, NTP),
                classify_case("abmem", 2, 9, NTP),
            ),
        ),
        Workload(
            "simulate",
            # One long seeded history per circuit, which kcir re-folds from
            # tick 0 at every tick (quadratic in T).  No classifier code runs.
            "long seeded stimuli through simulate: one history re-folded at every tick; no classifier code",
            tuple(simulate_case(c, 500) for c in STREAM_CIRCUITS),
        ),
        Workload(
            "check",
            # Thousands of short random histories through the same circuits.
            # Kept apart from simulate so a rewrite of the circuits layer that
            # speeds one use and slows the other shows on its own metric.
            "randomized causality and read-soundness checks: thousands of short histories; no classifier code",
            tuple(check_case(c, 16, 200) for c in STREAM_CIRCUITS),
        ),
    )
}

ALL_CASES = tuple(dict.fromkeys(c.name for w in WORKLOADS.values() for c in w.cases))

#: (name, unit) of every metric, in output order.
END_TO_END = (("setup_s", "s"), ("work_per_s", "1/s"), ("peak_rss_mb", "MB"))


def _layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    read_calls, read_s = tracer.leaf_totals(READ_MAP)
    eval_calls, eval_s = tracer.leaf_totals(EVALUATE)
    source_pairs = tracer.count("classifier.derive", "source_pairs")
    image_pairs = tracer.count("classifier.derive", "image_pairs")
    return {
        "signals.enumerate.s": (tracer.total_seconds("signals.enumerate"), "s"),
        "signals.enumerate.count": (tracer.count("signals.enumerate", "count"), "count"),
        "signals.prefix_relation.s": (tracer.total_seconds("signals.prefix_relation"), "s"),
        "signals.prefix_relation.pairs": (
            tracer.count("signals.prefix_relation", "pairs"), "count"),
        "circuits.read_map.calls": (read_calls, "count"),
        "circuits.read_map.s": (read_s, "s"),
        "classifier.evaluate_reads.self_s": (
            tracer.self_seconds("classifier.evaluate_reads"), "s"),
        "classifier.classify.self_s": (tracer.self_seconds("classifier.classify"), "s"),
        "classifier.derive.s": (tracer.total_seconds("classifier.derive"), "s"),
        "classifier.derive.image_pair_ratio": (
            image_pairs / source_pairs if source_pairs else 0.0, "ratio"),
        "classifier.axioms.s": (tracer.total_seconds("classifier.axioms"), "s"),
        "classifier.witness.s": (tracer.total_seconds("classifier.witness"), "s"),
        "classifier.excluded_undefined": (
            tracer.count("classifier.derive", "excluded_undefined"), "count"),
        "circuits.evaluate.calls": (eval_calls, "count"),
        "circuits.evaluate.s": (eval_s, "s"),
        "circuits.output_stream.s": (tracer.total_seconds("circuits.output_stream"), "s"),
        "circuits.causality_check.s": (tracer.total_seconds("circuits.causality_check"), "s"),
        "circuits.read_soundness_check.s": (
            tracer.total_seconds("circuits.read_soundness_check"), "s"),
        "dsl.parse.s": (tracer.total_seconds("dsl.parse"), "s"),
        "dsl.elaborate.s": (tracer.total_seconds("dsl.elaborate"), "s"),
        "cli.main.self_s": (tracer.self_seconds("cli.main"), "s"),
    }


# ---------------------------------------------------------------------------
# Set-up and gates


@dataclass
class Prepared:
    """What set-up leaves for the timed loop: the package, elements and argv."""

    kcir: object
    cli: object
    elements: dict
    argv: dict[str, list[str]]
    stimuli: dict[str, reference.Stimulus]


def _import_kcir():
    """Import ``kcir`` afresh from the checkout, so each set-up pays for it."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "kcir" or m.startswith("kcir.")]:
        del sys.modules[name]
    return importlib.import_module("kcir"), importlib.import_module("kcir.cli")


def set_up(workload: Workload, seed: int, workdir: Path) -> Prepared:
    """Import kcir, parse and elaborate the circuits, write the seeded stimuli."""
    kcir, cli = _import_kcir()
    elements = {
        circuit: kcir.load_circuit(
            (ROOT / "circuits" / f"{circuit}.kcir").read_text(encoding="utf-8"))
        for circuit in dict.fromkeys(c.circuit for c in workload.cases)
    }
    argv, stimuli = {}, {}
    for case in workload.cases:
        circuit = str(ROOT / "circuits" / f"{case.circuit}.kcir")
        case_seed = f"{seed}:{case.name}"
        if case.command == "classify":
            argv[case.name] = ["classify", "--circuit", circuit,
                               "--horizon", str(case.horizon), "--format", "json"]
        elif case.command == "simulate":
            stimulus = reference.make_stimulus(case.circuit, case.ticks, case_seed)
            path = workdir / f"{case.name}.csv"
            reference.write_stimulus(path, stimulus)
            stimuli[case.name] = stimulus
            argv[case.name] = ["simulate", "--circuit", circuit,
                               "--stimulus", str(path), "--allow-undef"]
        else:
            check_seed = random.Random(case_seed).randrange(2**31)
            argv[case.name] = ["check", "--circuit", circuit,
                               "--horizon", str(case.horizon), "--trials", str(case.trials),
                               "--seed", str(check_seed), "--format", "json"]
    return Prepared(kcir, cli, elements, argv, stimuli)


def _witness_holds(kcir, element, witness: dict) -> bool:
    """Rebuild a JSON witness and re-check it with the public ``holds``."""

    def signal(data):
        s = kcir.CausalSignal.from_samples(element.control_alphabet, data["samples"])
        if s.t != data["t"]:
            raise ValueError("witness tick does not match its samples")
        return s

    def reads(refs):
        return kcir.ReadSet(tuple(kcir.RefPoint(r["channel"], r["tick"]) for r in refs))

    try:
        rebuilt = kcir.AntisymmetryWitness(
            signal(witness["a0"]), signal(witness["a1"]),
            signal(witness["b0"]), signal(witness["b1"]),
            reads(witness["x_reads"]), reads(witness["y_reads"]),
        )
    except (KeyError, TypeError, ValueError):
        return False
    return rebuilt.holds(element.reads)


def _classify_problems(case: Case, report: dict, prepared: Prepared) -> list[str]:
    problems = []
    if report.get("verdict") != case.verdict:
        problems.append(f"verdict {report.get('verdict')!r}, the paper says {case.verdict!r}")
    stats = report.get("stats") or {}
    signals, pairs = case.expected_counts()
    if (stats.get("signals"), stats.get("relation_pairs")) != (signals, pairs):
        problems.append(
            f"explored {stats.get('signals')} signals and {stats.get('relation_pairs')} "
            f"pairs, expected {signals} and {pairs}")
    if case.verdict == NTP:
        witness = report.get("witness")
        element = prepared.elements[case.circuit]
        if not witness or not _witness_holds(prepared.kcir, element, witness):
            problems.append("witness missing or does not re-check")
    return problems


def _simulate_problems(case: Case, stdout: str, prepared: Prepared) -> list[str]:
    expected = reference.expected_csv(case.circuit, prepared.stimuli[case.name])
    if stdout == expected:
        return []
    got, want = stdout.splitlines(), expected.splitlines()
    for line, (g, w) in enumerate(zip(got, want)):
        if g != w:
            where = f"tick {line - 1}" if line else "header"
            return [f"{where}: printed {g!r}, reference model gives {w!r}"]
    return [f"printed {len(got)} lines, reference model gives {len(want)}"]


def _check_problems(case: Case, report: dict) -> list[str]:
    stats = report.get("stats") or {}
    parts = [stats.get("causality") or {}, stats.get("read_soundness") or {}]
    if report.get("verdict") != "pass" or any(
        p.get("violations") != 0 or p.get("trials") != case.trials for p in parts
    ):
        return [f"check verdict {report.get('verdict')!r} with stats {stats}"]
    return []


def gate(case: Case, code: Optional[int], stdout: str, prepared: Prepared,
         pin: Optional[str]) -> list[str]:
    """Every reason ``stdout`` is not the right answer; empty when it is."""
    if code != 0:
        return [f"exit code {code}"]
    problems = []
    if pin is not None and hashlib.sha256(stdout.encode()).hexdigest() != pin:
        problems.append("output differs from its pinned sha256")
    if case.command == "simulate":
        return problems + _simulate_problems(case, stdout, prepared)
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None
    if not isinstance(report, dict):
        return problems + ["stdout is not one JSON report"]
    if case.command == "classify":
        return problems + _classify_problems(case, report, prepared)
    return problems + _check_problems(case, report)


# ---------------------------------------------------------------------------
# The closed loop


class Bench:
    """One workload in one process: set-up, then commands one after another."""

    def __init__(self, workload: Workload, seed: int, pins: dict[str, str], workdir: Path):
        self.workload = workload
        self.seed = seed
        self.pins = pins
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.setup_seconds: list[float] = []
        self.kernel_seconds: list[float] = []
        self.prepared: Optional[Prepared] = None

    def set_up(self) -> None:
        """Set up afresh; the commands after it run on what it prepared."""
        self.kernel_seconds.append(hostspeed.time_kernel())
        start = perf_counter()
        self.prepared = set_up(self.workload, self.seed, self.workdir)
        self.setup_seconds.append(perf_counter() - start)

    def _pin(self, case: Case) -> Optional[str]:
        if case.command != "classify" and self.seed != DEFAULT_SEED:
            return None
        return self.pins.get(case.name)

    def run(self, case: Case) -> float:
        """Issue one command, gate its output and return its wall seconds."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        self.kernel_seconds.append(hostspeed.time_kernel())
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.prepared.cli.main(self.prepared.argv[case.name])
            except Exception:  # a crash is a failed operation, not the end of the run
                code = None
                traceback.print_exc()
            seconds = perf_counter() - start
        stdout = out.getvalue()
        self.digests[case.name] = hashlib.sha256(stdout.encode()).hexdigest()
        problems = gate(case, code, stdout, self.prepared, self._pin(case))
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"{case.name}: {'; '.join(problems)}", file=sys.stderr)
            if err.getvalue():
                print(err.getvalue().rstrip()[-2000:], file=sys.stderr)
        return seconds

    def run_pass(self) -> dict[str, float]:
        return {case.name: self.run(case) for case in self.workload.cases}

    def end_to_end(self, seconds: float) -> dict[str, float]:
        """Run whole passes of the command list until ``seconds`` have passed.

        ``SETUP_REPEATS`` set-ups are spread evenly over the run, each followed
        by the passes that run on what it prepared, so set-ups and commands
        meet the same mix of host load.  ``setup_s`` is the median set-up and
        ``work_per_s`` counts each case at its median time; both are scaled
        to the reference host speed (see ``hostspeed.py``) by the median
        kernel time of the run.
        """
        times: dict[str, list[float]] = {c.name: [] for c in self.workload.cases}
        start = perf_counter()
        while True:
            for name, taken in self.run_pass().items():
                times[name].append(taken)
            elapsed = perf_counter() - start
            if elapsed >= seconds:
                break
            if len(self.setup_seconds) < SETUP_REPEATS * elapsed / seconds:
                self.set_up()
        while len(self.setup_seconds) < SETUP_REPEATS:
            self.set_up()
        kernel_s = statistics.median(self.kernel_seconds)
        speed = hostspeed.REFERENCE_S / kernel_s
        setup = statistics.median(self.setup_seconds)
        busy = sum(statistics.median(t) for t in times.values())
        work = sum(c.work() for c in self.workload.cases)
        print(f"host: median kernel {kernel_s:.5f} s over {len(self.kernel_seconds)} runs, "
              f"reference {hostspeed.REFERENCE_S} s; unscaled median set-up {setup:.4f} s "
              f"and pass {busy:.4f} s", file=sys.stderr)
        return {
            "setup_s": setup * speed,
            "work_per_s": work / (busy * speed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self, targets=SPAN_TARGETS) -> dict[str, tuple[float, str]]:
        """A traced pass between two untraced ones; layer figures come from the traced one.

        The untraced figures are the mean of the passes before and after, so
        the first pass's cold start is not charged to tracing.
        """
        before = self.run_pass()
        tracer = Tracer()
        with tracer.installed(targets):
            traced = self.run_pass()
        after = self.run_pass()
        if tracer.missing:
            print(f"trace: not found, not traced: {', '.join(tracer.missing)}", file=sys.stderr)
        untraced = {name: (before[name] + after[name]) / 2 for name in before}
        metrics = _layer_metrics(tracer)
        for name in ALL_CASES:
            metrics[f"case.{name}.s"] = (untraced.get(name, 0.0), "s")
        metrics["trace.overhead_s"] = (sum(traced.values()) - sum(untraced.values()), "s")
        return metrics


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """A directory for stimuli inside the checkout, removed afterwards."""
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="kcir-", dir=build))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 pins: dict[str, str], targets=SPAN_TARGETS) -> dict:
    """Set up and measure one workload; returns the result object to print."""
    with scratch_dir() as workdir:
        bench = Bench(workload, seed, pins, workdir)
        bench.set_up()
        if trace:
            metrics = bench.per_layer(targets)
        else:
            units = dict(END_TO_END)
            metrics = {k: (v, units[k]) for k, v in bench.end_to_end(seconds).items()}
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def load_pins() -> dict[str, str]:
    return json.loads(PINS.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "kcir", ROOT / "circuits"):
        if not needed.is_dir():
            print(f"error: {needed} not found; run from a kcir checkout", file=sys.stderr)
            return 2
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), load_pins())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
