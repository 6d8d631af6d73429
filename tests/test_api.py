"""The public surface of ``kcir``: the exported names and its records' fields."""

from __future__ import annotations

import dataclasses

import kcir

PUBLIC_NAMES = [
    "Alphabet",
    "AntisymmetryWitness",
    "AxiomReport",
    "BINARY",
    "BoolExpr",
    "Call",
    "CausalSignal",
    "CausalityReport",
    "CircuitAst",
    "CircuitElement",
    "Classification",
    "ClassifyStats",
    "DomainAst",
    "ElaborationError",
    "Lit",
    "ParseError",
    "ReadMap",
    "ReadSet",
    "ReadSoundnessReport",
    "RefPoint",
    "SimulationError",
    "SourceSpan",
    "Tick",
    "Var",
    "Verdict",
    "abmem_element",
    "causality_check",
    "classify",
    "counter_element",
    "dff_element",
    "elaborate",
    "history_count",
    "load_circuit",
    "mux_element",
    "output_stream",
    "parse",
    "prefix_leq",
    "pretty_print",
    "read_soundness_check",
    "split_symbol",
    "sr_latch_element",
    "toggler_pair_element",
]


def test_exported_names_are_exactly_the_public_surface():
    assert len(PUBLIC_NAMES) == 42
    assert sorted(kcir.__all__) == PUBLIC_NAMES
    for name in kcir.__all__:
        assert getattr(kcir, name) is not None, name


def test_a_circuit_is_its_steps_and_read_steps():
    fields = [field.name for field in dataclasses.fields(kcir.CircuitElement)]
    assert fields == [
        "name",
        "control_channels",
        "control_alphabet",
        "input_channels",
        "init",
        "step",
        "reads",
        "read_init",
        "read_step",
    ]


def test_a_circuit_description_is_its_clock_domains():
    fields = [field.name for field in dataclasses.fields(kcir.CircuitAst)]
    assert fields == ["name", "kind", "domains"]
    fields = [field.name for field in dataclasses.fields(kcir.DomainAst)]
    assert fields == ["name", "clock", "init_bits", "inputs", "next_exprs", "outputs"]


def test_a_signal_is_its_alphabet_and_samples():
    fields = [field.name for field in dataclasses.fields(kcir.CausalSignal)]
    assert fields == ["alphabet", "samples"]
