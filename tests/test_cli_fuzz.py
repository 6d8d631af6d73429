"""Fuzzing ``kcir.cli.main`` with drawn circuit text and stimulus CSV.

Whatever the files hold, a command must end in exit 0, 2 (with one
``error:`` line on stderr) or 3 (undefined output in ``simulate``); no
exception may escape ``main``.  Circuit text is drawn as grammar-token soup
and as small edits of the files in ``circuits/``; stimulus CSV is drawn from
the channel names and sample values those circuits use, with cells that are
sometimes padded with whitespace, quoted, or several values joined by '/'.
A drawn text that parses must also parse back from its canonical text to
the same description, ``elaborate`` must accept that description, and the
element must simulate a short random stimulus as the oracle's prefix
evaluator for that description does.
"""

from __future__ import annotations

import csv
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kcir.circuits import output_stream
from kcir.cli import main
from kcir.dsl import ParseError, elaborate, load_circuit, parse, pretty_print
from kcir.signals import split_symbol

from . import oracle
from .conftest import CIRCUITS_DIR

SOURCES = [path.read_text(encoding="utf-8") for path in sorted(CIRCUITS_DIR.glob("*.kcir"))]

TOKENS = (
    "circuit", "kind", "clock", "state", "init", "in", "next", "out", "domain",
    "dff", "srlatch", "mux", "sync", "multiclock", "abmem",
    "not", "and", "or", "xor",
    "c", "clk", "en", "x", "d", "q0", "q1", "q9", "y", "a_1",
    "0", "1", "2", "00", "01", "007", "99999999999999999999",
    "{", "}", "(", ")", ";", ",", "=", "#", "\n", "\r\n", "\t",
)
CHARACTERS = st.characters(codec="utf-8")

CHANNELS = ("tick", "C", "D", "S", "A", "B", "W", "R", "C1", "C2", "D1", "D2",
            "clk", "en", "cf", "cs", "df", "ds", "x", "")
VALUES = ("0", "1", "a", "b", "A", "B", "-", "2", "", " 1 ", "x", "é", "0/1", '"', "1,0")


@st.composite
def edited_sources(draw):
    """A file from ``circuits/`` after one to three small edits."""
    text = draw(st.sampled_from(SOURCES))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        insert = draw(st.one_of(st.sampled_from(TOKENS), st.text(CHARACTERS, max_size=3)))
        text = text[:i] + insert + text[j:]
    return text


@st.composite
def bit_stimuli(draw, element):
    """A short random stimulus: control symbols and one bit column per input."""
    ticks = draw(st.integers(1, 8))

    def column(values):
        return draw(st.lists(st.sampled_from(values), min_size=ticks, max_size=ticks))

    control = column(element.control_alphabet.values)
    return control, {name: column(("0", "1")) for name in element.input_names}


token_soup = st.lists(st.sampled_from(TOKENS), max_size=40).map(" ".join)
kcir_texts = st.one_of(edited_sources(), token_soup)


@st.composite
def stimulus_cells(draw, values):
    """One cell: a value, sometimes joined to more by '/', padded or quoted."""
    cell = draw(st.sampled_from(values))
    if not draw(st.integers(0, 11)):
        more = draw(st.lists(st.sampled_from(values), min_size=1, max_size=2))
        cell = "/".join([cell, *more])
    if not draw(st.integers(0, 5)):
        pads = st.sampled_from(("", " ", "  ", "\t"))
        cell = draw(pads) + cell + draw(pads)
    if not draw(st.integers(0, 5)):
        cell = '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def stimulus_csvs(draw, channels=None):
    """A stimulus table: a header of channel names and rows of ticks and values.

    ``channels`` maps a circuit's channels to the values they take.  Then the
    header is mostly ``tick`` and those channels in drawn order, and a cell
    mostly one of its channel's values; else names and values are drawn from
    every one the circuits use.
    """
    channels = channels or {}
    if channels and draw(st.integers(0, 3)):
        header = ["tick", *draw(st.permutations(list(channels)))]
    else:
        header = draw(st.lists(st.sampled_from(CHANNELS), min_size=1, max_size=5))
        if draw(st.booleans()):
            header[0] = "tick"
    rows = [",".join(header)]
    for t in range(draw(st.integers(0, 6))):
        tick = str(t) if draw(st.integers(0, 9)) else draw(st.sampled_from(("x", "-1", "7", "")))
        names = header[1:] + [""] * (draw(st.integers(0, 9)) == 0)
        cells = [
            draw(stimulus_cells(channels[name] if name in channels and draw(st.integers(0, 19))
                                else VALUES))
            for name in names
        ]
        rows.append(",".join([tick, *cells]))
    return "\n".join(rows) + "\n"


@st.composite
def commands(draw, circuit: str, stimulus: str):
    """One well-formed command line over the drawn files."""
    command = draw(st.sampled_from(("classify", "simulate", "chi-dump", "check")))
    argv = [command, "--circuit", circuit]
    if command == "classify":
        argv += ["--horizon", str(draw(st.integers(-1, 3)))]
    elif command == "simulate":
        argv += ["--stimulus", stimulus]
        if draw(st.booleans()):
            argv.append("--allow-undef")
    elif command == "chi-dump":
        argv += ["--control", ",".join(draw(st.lists(st.sampled_from(VALUES), max_size=4)))]
    else:
        argv += ["--horizon", str(draw(st.integers(0, 4))),
                 "--trials", str(draw(st.integers(0, 3)))]
    if command != "simulate" and draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return root / "drawn.kcir", root / "drawn.csv"


def run_main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=kcir_texts, csv_text=stimulus_csvs(), data=st.data())
def test_drawn_files_end_in_a_known_exit_code(files, text, csv_text, data):
    try:
        ast = parse(text)
    except ParseError:
        pass
    else:
        assert parse(pretty_print(ast)) == ast
        element = elaborate(ast)
        control, inputs = data.draw(bit_stimuli(element))
        assert output_stream(element, control, inputs) == oracle.output_stream(
            element, oracle.ast_evaluator(ast), control, inputs
        )
    circuit, stimulus = files
    circuit.write_text(text, encoding="utf-8")
    stimulus.write_text(csv_text, encoding="utf-8")
    argv = data.draw(commands(str(circuit), str(stimulus)))
    code, err = run_main(argv)
    assert code in (0, 2, 3), (argv, err)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if code == 3:
        assert argv[0] == "simulate" and "--allow-undef" not in argv


def _channels(source: str) -> dict[str, tuple[str, ...]]:
    """Each channel of the circuit ``source`` describes, with the values it takes."""
    element = load_circuit(source)
    symbols = [split_symbol(symbol) for symbol in element.control_alphabet.values]
    channels = {
        name: tuple(sorted({parts[i] for parts in symbols}))
        for i, name in enumerate(element.control_channels)
    }
    channels.update((name, ("0", "1")) for name in element.input_names)
    return channels


SIMULATED = [(source, _channels(source)) for source in SOURCES]
DFF = next(case for case in SIMULATED if set(case[1]) == {"C", "D"})
#: A dff stimulus with one cell longer than the csv module reads.
OVERSIZED = "tick,C,D\n0,0," + "1" * (csv.field_size_limit() + 1) + "\n"


@settings(max_examples=150, deadline=None)
@given(
    drawn=st.sampled_from(SIMULATED).flatmap(
        lambda case: st.tuples(st.just(case), stimulus_csvs(case[1]))
    ),
    allow_undef=st.booleans(),
)
@example(drawn=(DFF, OVERSIZED), allow_undef=False)
def test_drawn_stimuli_simulate_or_exit_2(files, drawn, allow_undef):
    (source, channels), csv_text = drawn
    circuit, stimulus = files
    circuit.write_text(source, encoding="utf-8")
    stimulus.write_text(csv_text, encoding="utf-8")
    argv = ["simulate", "--circuit", str(circuit), "--stimulus", str(stimulus)]
    code, err = run_main(argv + ["--allow-undef"] * allow_undef)
    assert code in ((0, 2) if allow_undef else (0, 2, 3)), err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
