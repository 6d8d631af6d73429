"""The batched stimulus reader against the row-by-row reference.

``kcir.cli._read_stimulus`` checks a stimulus CSV a batch of rows at a time,
one column at a time, scans a batch row by row only to name its first bad
row, and yields each batch once it passes.  ``oracle.read_stimulus`` reads
and checks one row at a time.  On every drawn file the batches joined back
into columns must equal the columns the oracle returns, or both readers
must refuse the file with the same message.  The drawn files run with a
small batch size, a lowered csv field limit (which lowers the line bound
with it) and sometimes a lowered ``MAX_SAMPLES``, so batch boundaries,
overlong lines, oversized cells and the sample limit all fall within a few
rows, and so does the bound on the lines of one row that quoted cells carry
across line ends.
"""

from __future__ import annotations

import csv
import tracemalloc
from contextlib import contextmanager
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kcir import cli, load_circuit
from kcir.cli import UsageError, main

from . import oracle
from .conftest import CIRCUITS_DIR
from .test_cli_fuzz import _channels

SOURCES = {
    name: (CIRCUITS_DIR / f"{name}.kcir").read_text(encoding="utf-8")
    for name in ("dff", "twoclock", "abmem")
}
ELEMENTS = {name: load_circuit(source) for name, source in SOURCES.items()}
#: Each stimulus column of each circuit, with the values it takes.
CHANNELS = {name: _channels(source) for name, source in SOURCES.items()}
#: The csv field limit the drawn files are read under: dff's line bound is then 3 * 19 + 1.
FIELD_LIMIT = 8
#: Stands for bytes that are not UTF-8 in a drawn line.
NOT_UTF8 = "\0"


@contextmanager
def reading_under(batch_rows: int, max_samples: int = cli.MAX_SAMPLES,
                  field_limit: int = FIELD_LIMIT):
    """Both readers with these batch rows, sample limit and csv field limit."""
    old_limit = csv.field_size_limit(field_limit)
    try:
        with mock.patch.object(cli, "STIMULUS_BATCH_ROWS", batch_rows), \
                mock.patch.object(cli, "MAX_SAMPLES", max_samples):
            yield
    finally:
        csv.field_size_limit(old_limit)


def read_batches(path: str, element) -> tuple[list[str], dict[str, list[str]]]:
    """The batches ``cli._read_stimulus`` yields, joined back into columns.

    Each batch must start at the tick after the one before it and hold one
    input row per control symbol.
    """
    control: list[str] = []
    inputs: dict[str, list[str]] = {name: [] for name in element.input_names}
    for first, symbols, rows in cli._read_stimulus(path, element):
        rows = list(rows)
        assert first == len(control) and len(rows) == len(symbols) > 0
        control += symbols
        for name, column in zip(element.input_names, zip(*rows)):
            inputs[name] += column
    return control, inputs


def outcome(read, path: str, element):
    try:
        return read(path, element)
    except UsageError as exc:
        return f"error: {exc}"


#: Ways to spoil one row of a drawn stimulus.
FAULTS = ("tick x", "tick +1", "tick t_0", "short row", "long row", "unknown symbol",
          "blank cell line", "oversized cell", "overlong line", "spanning row", "not utf-8")


@st.composite
def cells(draw, values: tuple[str, ...]) -> str:
    """One good cell: one of ``values``, sometimes padded or quoted."""
    cell = draw(st.sampled_from(values))
    if draw(st.booleans()):
        cell = draw(st.sampled_from(("", " ", "\t"))) + cell + draw(st.sampled_from(("", "  ")))
    if draw(st.booleans()):
        inside = draw(st.sampled_from(("", "\n", "\r\n")))
        cell = '"' + cell + inside + '"'
    return cell


@st.composite
def stimulus_lines(draw, values: dict[str, tuple[str, ...]]) -> list[str]:
    """The lines of a stimulus CSV over the columns in ``values``, without line ends.

    The rows are good but for up to two drawn faults, and blank lines may
    fall between them.
    """
    names = draw(st.permutations(list(values)))
    header = ["tick", *names]
    if not draw(st.integers(0, 11)):
        header = draw(st.sampled_from((header[:-1], header + [names[0]], [" tick ", *names])))
    ticks = draw(st.integers(0, 12))
    faults = dict(draw(st.lists(st.tuples(st.integers(0, ticks), st.sampled_from(FAULTS)),
                                max_size=2)))
    lines = [",".join(header)]
    for t in range(ticks):
        lines += [""] * draw(st.integers(0, 1))
        tick = draw(st.sampled_from((str(t), f" {t} ", f"0{t}", f"+{t}", f'"{t}"')))
        row = [tick, *(draw(cells(values[name])) for name in names)]
        fault = faults.get(t)
        if fault == "tick x":
            row[0] = draw(st.sampled_from(("x", "", "1_0", "1.0")))
        elif fault == "tick +1":
            row[0] = str(t + 1)
        elif fault == "tick t_0":
            row[0] = f"{t}_0"
        elif fault == "short row":
            row.pop()
        elif fault == "long row":
            row.append("0")
        elif fault == "unknown symbol":
            row[1 + names.index(draw(st.sampled_from(names)))] = draw(
                st.sampled_from(("2", "q", "0/1", "é", "")))
        elif fault == "blank cell line":
            lines.append(" ")
        elif fault == "oversized cell":
            row[-1] = "1" * (FIELD_LIMIT + 1)
        elif fault == "overlong line":
            row[-1] += " " * 200
        elif fault == "spanning row":
            # Extra cells quoted across line ends: short lines, but a row
            # that may pass the line bound.
            row += ['"' + draw(st.sampled_from(("0", ""))) + '\n"'] * draw(st.integers(1, 40))
        elif fault == "not utf-8":
            row[-1] += NOT_UTF8
        lines.append(",".join(row))
    return lines


@st.composite
def stimulus_files(draw):
    """A circuit name and the bytes of a drawn stimulus file for it."""
    name = draw(st.sampled_from(sorted(ELEMENTS)))
    lines = draw(stimulus_lines(CHANNELS[name]))
    ends = st.sampled_from(("\n", "\r\n", "\r"))
    text = "".join(line + draw(ends) for line in lines)
    return name, text.encode("utf-8").replace(NOT_UTF8.encode(), b"\xff")


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    drawn=stimulus_files(),
    batch_rows=st.integers(1, 5),
    limit_rows=st.one_of(st.none(), st.integers(1, 10)),
)
# The first bad row before, at and after the end of the first batch of three.
@example(drawn=("dff", b"tick,C,D\n0,0,0\n1,2,0\n2,0,0\n3,0,0\n"), batch_rows=3, limit_rows=None)
@example(drawn=("dff", b"tick,C,D\n0,0,0\n1,1,0\n2,2,0\n3,0,0\n"), batch_rows=3, limit_rows=None)
@example(drawn=("dff", b"tick,C,D\n0,0,0\n1,1,0\n2,0,0\n3,2,0\n"), batch_rows=3, limit_rows=None)
# A bad row, then a read error later in its batch: the bad row is named.
@example(drawn=("dff", b"tick,C,D\n0,0,0\nx,1,0\n2,0,0\n" + b"," * 200 + b"\n"),
         batch_rows=5, limit_rows=None)
@example(drawn=("dff", b"tick,C,D\n0,0,0\n1,1,0\n2,0,0\n" + b"," * 200 + b"\n"),
         batch_rows=5, limit_rows=None)
# The row of tick 1 spans lines of five characters: 12 of them pass dff's
# bound of 58, 11 and a closing quote do not (that row has too many cells).
@example(drawn=("dff", b"tick,C,D\n0,0,0\n\n1" + b',"1\n"' * 12 + b"\n"), batch_rows=2,
         limit_rows=None)
@example(drawn=("dff", b"tick,C,D\n0,0,0\n\n1" + b',"1\n"' * 11 + b"\n"), batch_rows=2,
         limit_rows=None)
def test_batched_reader_matches_the_row_by_row_reader(tmp_path_factory, drawn, batch_rows,
                                                     limit_rows):
    name, data = drawn
    element = ELEMENTS[name]
    path = tmp_path_factory.getbasetemp() / "drawn.csv"
    path.write_bytes(data)
    channels = len(CHANNELS[name])
    max_samples = cli.MAX_SAMPLES if limit_rows is None else limit_rows * channels
    with reading_under(batch_rows, max_samples):
        expected = outcome(oracle.read_stimulus, str(path), element)
        assert outcome(read_batches, str(path), element) == expected


def dff_stimulus(rows: int) -> str:
    return "tick,C,D\n" + "".join(f"{t},{t % 2},1\n" for t in range(rows))


def test_sample_limit_at_a_batch_boundary(tmp_path):
    element = ELEMENTS["dff"]
    path = tmp_path / "stim.csv"
    batch = cli.STIMULUS_BATCH_ROWS
    for batches in (1, 2):
        # dff has two channels per tick, so the limit falls after whole batches.
        with mock.patch.object(cli, "MAX_SAMPLES", 2 * batches * batch):
            path.write_text(dff_stimulus(batches * batch))
            control, inputs = read_batches(str(path), element)
            assert len(control) == len(inputs["D"]) == batches * batch
            assert (control, inputs) == oracle.read_stimulus(str(path), element)
            path.write_text(dff_stimulus(batches * batch + 1))
            message = (
                f"stimulus row {batches * batch + 1} takes it past the limit of "
                f"{2 * batches * batch:,} samples (2 channels per tick)"
            )
            assert outcome(read_batches, str(path), element) == f"error: {message}"
            assert outcome(oracle.read_stimulus, str(path), element) == f"error: {message}"


def test_bad_first_row_before_long_lines_is_refused_after_one_bounded_batch(tmp_path, capsys):
    # Under a field limit of 1,000 dff's line bound is 3 * 2,003 + 1 = 6,010
    # characters, which a row of three fully quoted cells reaches exactly.
    limit = 1000
    cell = '"' + '""' * limit + '"'
    line = ",".join([cell] * 3) + "\r\n"
    assert len(line) == 3 * (2 * limit + 3) + 1
    path = tmp_path / "stim.csv"
    path.write_text("tick,C,D\nx,0,1\n" + line * 3000, newline="")
    with reading_under(cli.STIMULUS_BATCH_ROWS, field_limit=limit):
        tracemalloc.start()
        try:
            code = main(["simulate", "--circuit", str(CIRCUITS_DIR / "dff.kcir"),
                         "--stimulus", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: stimulus row 1 has non-integer tick 'x'\n"
    # A batch of 256 such rows would hold over 750,000 characters.
    assert peak < 300_000
