"""The one-pass classifier must agree exactly with the brute-force oracle.

Agreement is on whole :class:`Classification` objects: verdict, stats, the
axiom report with its witnesses, and the antisymmetry witness.
"""

from __future__ import annotations

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from kcir import (
    Alphabet,
    CircuitElement,
    ReadSet,
    abmem_element,
    classify,
    counter_element,
    dff_element,
    enumerate_causal_signals,
    load_circuit,
    mux_element,
    sr_latch_element,
    toggler_pair_element,
)

from . import oracle
from .conftest import CIRCUITS_DIR

BUILT_INS = [
    (dff_element, 6),
    (mux_element, 6),
    (counter_element, 6),
    (toggler_pair_element, 4),
    (abmem_element, 3),
    (sr_latch_element, 3),
]


@pytest.mark.parametrize(
    "factory,horizon",
    [(factory, h) for factory, top in BUILT_INS for h in range(top + 1)],
)
def test_built_ins_match_the_oracle(factory, horizon):
    element = factory()
    assert classify(element, horizon) == oracle.classify(element, horizon)


@pytest.mark.parametrize("path", sorted(CIRCUITS_DIR.glob("*.kcir")), ids=lambda p: p.name)
def test_circuit_files_match_the_oracle(path):
    element = load_circuit(path.read_text(encoding="utf-8"))
    for horizon in range(4):
        assert classify(element, horizon) == oracle.classify(element, horizon)


# --- arbitrary read maps -----------------------------------------------------

PALETTE = (
    None,
    ReadSet.of(("D", 0)),
    ReadSet.of(("D", 1)),
    ReadSet.of(("D", 2)),
    ReadSet.of(("D", 0), ("D", 1)),
)


@st.composite
def table_circuits(draw):
    """A circuit whose read map is an arbitrary table over every control history."""
    size = draw(st.integers(1, 3))
    horizon = draw(st.integers(0, 3))
    alphabet = Alphabet(tuple("abc"[:size]))
    signals = enumerate_causal_signals(alphabet, horizon)
    images = draw(st.lists(st.sampled_from(PALETTE), min_size=len(signals),
                           max_size=len(signals)))
    table = {s.samples: image for s, image in zip(signals, images)}
    element = CircuitElement(
        name="table",
        control_channels=("C",),
        control_alphabet=alphabet,
        input_channels=(("D", alphabet),),
        output_alphabet=alphabet,
        evaluate=lambda control, inputs: None,
        reads=lambda signal: table[signal.samples],
    )
    return element, horizon


@settings(max_examples=300, deadline=None)
@given(table_circuits())
def test_table_read_maps_match_the_oracle(case):
    element, horizon = case
    assert classify(element, horizon) == oracle.classify(element, horizon)


def _failures(case) -> tuple[bool, bool]:
    """(antisymmetric, transitive) of a drawn table circuit, by the oracle."""
    report = oracle.classify(*case).axiom_report
    return report.antisymmetric, report.transitive


@pytest.mark.parametrize(
    "wanted", [(False, True), (True, False)], ids=["antisymmetry-only", "transitivity-only"]
)
def test_table_strategy_reaches_single_axiom_failures(wanted):
    case = find(
        table_circuits(),
        lambda case: _failures(case) == wanted,
        settings=settings(max_examples=5000, deadline=None, database=None),
    )
    assert classify(*case) == oracle.classify(*case)
