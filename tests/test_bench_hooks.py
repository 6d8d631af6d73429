"""The benchmark's hooks into ``kcir`` must keep working.

``bench/`` reaches into the package beyond the command line: it reads
``element.reads``, swaps it with ``dataclasses.replace`` in traced runs, and
rebuilds witnesses from ``RefPoint``, ``ReadSet``, ``AntisymmetryWitness`` and
``CausalSignal.from_samples``.  ``bench/selftest.py`` runs every workload on
tiny inputs, traced and untraced, so a package change that breaks any of
these fails here.  The run writes no bytecode into ``bench/``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from kcir import ReadSet, RefPoint, toggler_pair_element

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
