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
