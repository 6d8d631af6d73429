"""The benchmark's hooks into ``kcir`` must keep working.

``bench/`` reaches into the package beyond the command line: it reads
``element.reads``, passes a wrapper of it to ``dataclasses.replace`` in traced
runs, and rebuilds witnesses from ``RefPoint``, ``ReadSet``,
``AntisymmetryWitness`` and ``CausalSignal.from_samples``.  A ``reads`` given
beside a read step gives way to the step's fold, so a traced run walks the
element's own read step, per-domain route included, and never the wrapper.
``bench/selftest.py`` runs every workload on tiny inputs, traced and
untraced, so a package change that breaks any of these fails here.  The run
writes no bytecode into ``bench/``.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kcir import (
    ReadSet,
    RefPoint,
    Verdict,
    classify,
    load_circuit,
    parse,
    read_soundness_check,
    toggler_pair_element,
)

from .oracle import enumerate_causal_signals

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.rstrip().endswith("all checks passed")


def test_the_benchs_read_set_rebuild_equals_the_read_map():
    # bench/run.py rebuilds a JSON read set as ReadSet(tuple(RefPoint(c, t) ...)).
    element = toggler_pair_element()
    for signal in enumerate_causal_signals(element.control_alphabet, 3):
        image = element.reads(signal)
        rebuilt = ReadSet(tuple(RefPoint(c, t) for c, t in reversed(image)))
        assert rebuilt == image and hash(rebuilt) == hash(image)
        assert str(rebuilt) == str(image)


@pytest.mark.parametrize("path", sorted((ROOT / "circuits").glob("*.kcir")),
                         ids=lambda path: path.name)
def test_the_tracers_read_map_wrapper_is_never_walked(path):
    # bench/tracing.py's loader wraps a loaded element's ``reads`` in a
    # counting leaf and swaps it in with dataclasses.replace, as here.
    text = path.read_text()
    element = load_circuit(text)
    if element.reads is None:  # the loader leaves such an element as it is
        assert classify(element, 2).verdict is Verdict.NOT_FUNDAMENTAL_FORM
        return
    calls = []

    def wrapper(control):
        calls.append(control)
        return element.reads(control)

    wrapped = dataclasses.replace(element, reads=wrapper)
    assert wrapped.read_step is element.read_step
    assert hasattr(wrapped.read_step, "domains") == (parse(text).kind == "multiclock")
    for horizon in range(4):
        assert classify(wrapped, horizon) == classify(element, horizon)
    assert (read_soundness_check(wrapped, horizon=6, trials=200, seed=3)
            == read_soundness_check(element, horizon=6, trials=200, seed=3))
    for signal in enumerate_causal_signals(element.control_alphabet, 3):
        assert wrapped.reads(signal) == element.reads(signal)
    assert not calls
