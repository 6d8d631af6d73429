"""The public surface of ``kcir``: the exported names and its records' fields."""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import io
import re
from pathlib import Path

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
        "read_init",
        "read_step",
    ]
    # The read map is no field but stays an attribute: the fold of read_step.
    element = kcir.dff_element()
    control = kcir.CausalSignal.from_samples(kcir.BINARY, ("0", "1", "1"))
    assert element.reads(control) == kcir.ReadSet.of(("D", 1))


def test_a_circuit_description_is_its_clock_domains():
    fields = [field.name for field in dataclasses.fields(kcir.CircuitAst)]
    assert fields == ["name", "kind", "domains"]
    fields = [field.name for field in dataclasses.fields(kcir.DomainAst)]
    assert fields == ["name", "clock", "init_bits", "inputs", "next_exprs", "outputs"]


def test_a_signal_is_its_alphabet_and_samples():
    fields = [field.name for field in dataclasses.fields(kcir.CausalSignal)]
    assert fields == ["alphabet", "samples"]


SOURCE = Path(kcir.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def test_no_module_reads_a_private_name_of_another():
    """A name that opens with '_' is read only in the kcir module that defines it."""
    modules = {path.stem for path in SOURCE.glob("*.py")}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()  # names this module binds to other kcir modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None and alias.name in modules:
                        aliases.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        found.append(f"{path.name}: from {node.module or '.'} import {alias.name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and node.attr.startswith("_")
            ):
                found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert found == []


def test_readme_examples_print_what_they_show():
    """The README's python blocks, run in order in one namespace, print their comments.

    A print's expected line is the ``# ...`` comment beside it or, when it
    has none, on the comment-only line under it.
    """
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    expected = []
    for block in blocks:
        waiting = False
        for line in block.splitlines():
            code, mark, comment = line.partition("# ")
            if code.strip():
                waiting = code.lstrip().startswith("print(")
            if mark and waiting:
                expected.append(comment.strip())
                waiting = False
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(block, namespace)
    assert out.getvalue().splitlines() == expected
