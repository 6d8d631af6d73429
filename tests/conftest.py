from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import Phase, settings

from kcir import (
    BINARY,
    Alphabet,
    CausalSignal,
    CircuitElement,
    dff_element,
    output_stream,
    sr_latch_element,
)
from kcir.classifier import AxiomReport, _axiom_report

CIRCUITS_DIR = Path(__file__).resolve().parents[1] / "circuits"

#: Hypothesis without its shrink phase, selected with ``--hypothesis-profile
#: mutants``: a run stops at the first failing example it draws instead of
#: spending minutes shrinking it.  ``tests/mutants.py`` uses it, since a
#: mutant needs only to fail; a plain pytest run keeps the default profile.
settings.register_profile("mutants", phases=[phase for phase in Phase if phase != Phase.shrink])


def bits(text: str) -> CausalSignal:
    """Binary causal signal from a compact bit string, e.g. bits('0101')."""
    return CausalSignal.from_samples(BINARY, tuple(text))


def sig(alphabet: Alphabet, *samples: str) -> CausalSignal:
    return CausalSignal.from_samples(alphabet, samples)


def latch_control(set_bits: str, reset_bits: str) -> CausalSignal:
    """The SR latch's paired control signal from set and reset bit strings."""
    return CausalSignal.from_samples(
        sr_latch_element().control_alphabet,
        tuple(f"{s}/{r}" for s, r in zip(set_bits, reset_bits)),
    )


def last_output(element: CircuitElement, control: CausalSignal, **inputs: CausalSignal) -> Optional[str]:
    """The output at the current tick of the given signals: their ``output_stream``'s last entry."""
    columns = {name: signal.samples for name, signal in inputs.items()}
    return output_stream(element, control.samples, columns)[-1]


def short_sighted_dff() -> CircuitElement:
    """A flip-flop whose read step claims ``(D, tick)`` in place of its latest edge.

    Its output is the sample latched at that edge, which the read step no
    longer claims, so the read-soundness check finds violations.
    """
    dff = dff_element()

    def read_step(state, clock, tick):
        state, refs = dff.read_step(state, clock, tick)
        return state, None if refs is None else (("D", tick),)

    return dataclasses.replace(dff, read_step=read_step)


def ranked_axiom_report(relation) -> AxiomReport:
    """``_axiom_report`` on a relation of read sets, as rank bit sets like ``classify``'s.

    ``relation`` has ``nodes`` and ``pairs`` of read sets, like the oracle's
    ``DerivedRelation``; every endpoint of a pair must be a node.
    """
    images = sorted(relation.nodes)
    rank = {image: i for i, image in enumerate(images)}
    after = [0] * len(images)
    for x, y in relation.pairs:
        after[rank[x]] |= 1 << rank[y]
    return _axiom_report(images, after)[0]


@pytest.fixture
def circuits_dir() -> Path:
    return CIRCUITS_DIR
