"""The chunked stimulus reader against the row-by-row reference.

``kcir.cli._read_stimulus`` decodes a stimulus CSV a chunk of bytes at a
time and checks the rows of each chunk's complete lines as one batch, one
column at a time: a chunk with no quote is split with ``str.split``, any
other is read by csv.  It scans a batch row by row only to name its first
bad row, and yields each batch once it passes.  ``oracle.read_stimulus``
reads and checks one row at a time through a file opened in text mode.  On
every drawn file the batches joined back into columns must equal the
columns the oracle returns, or both readers must refuse the file with the
same message.  The drawn files mostly run with a decode chunk of a few bytes
(on both readers), always with a lowered csv field limit (which lowers the
line bound with it) and sometimes with a lowered ``MAX_SAMPLES``, so chunk
edges, overlong lines, oversized cells and the sample limit all fall within
a few rows, and so does the bound on the lines of one row that quoted cells
carry across line ends.  Half the drawn files are plain: no cell is padded
or quoted but by a fault, so most of their chunks take the split path.
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
NOT_UTF8 = "\ue000"


@contextmanager
def reading_under(chunk_bytes: int, max_samples: int = cli.MAX_SAMPLES,
                  field_limit: int = FIELD_LIMIT):
    """Both readers with this decode chunk, sample limit and csv field limit."""
    old_limit = csv.field_size_limit(field_limit)
    try:
        with mock.patch.object(cli, "STIMULUS_CHUNK_BYTES", chunk_bytes), \
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
          "blank cell line", "oversized cell", "overlong line", "spanning row", "not utf-8",
          "nul")


@st.composite
def cells(draw, values: tuple[str, ...], plain: bool) -> str:
    """One good cell: one of ``values``, unless ``plain`` sometimes padded or quoted."""
    cell = draw(st.sampled_from(values))
    if plain:
        return cell
    if draw(st.booleans()):
        cell = (draw(st.sampled_from(("", " ", "\t", "\u3000"))) + cell
                + draw(st.sampled_from(("", "  "))))
    if draw(st.booleans()):
        inside = draw(st.sampled_from(("", "\n", "\r\n")))
        cell = '"' + cell + inside + '"'
    return cell


@st.composite
def stimulus_lines(draw, values: dict[str, tuple[str, ...]]) -> list[str]:
    """The lines of a stimulus CSV over the columns in ``values``, without line ends.

    The rows are good but for up to two drawn faults, and blank lines may
    fall between them.  In a plain file only a fault pads or quotes a cell.
    """
    plain = draw(st.booleans())
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
        ticks_as = (str(t), f"0{t}", f"+{t}") + ((f" {t} ", f'"{t}"') * (not plain))
        row = [draw(st.sampled_from(ticks_as)), *(draw(cells(values[name], plain))
                                                  for name in names)]
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
            row[-1] += ("," if plain else " ") * 200
        elif fault == "spanning row":
            # Extra cells quoted across line ends: short lines, but a row
            # that may pass the line bound.
            row += ['"' + draw(st.sampled_from(("0", ""))) + '\n"'] * draw(st.integers(1, 40))
        elif fault == "not utf-8":
            row[-1] += NOT_UTF8
        elif fault == "nul":
            # csv refuses a NUL on Python 3.10 and reads it as a character after.
            k = draw(st.integers(0, len(row) - 1))
            row[k] = draw(st.sampled_from(("\0", row[k] + "\0", "\0" + row[k])))
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


#: dff ticks 0 to 1,499: 12,399 bytes, so a chunk edge falls at byte 8,192,
#: inside the row of tick 1,032.
LONG_DFF = "tick,C,D\n" + "".join(f"{t},{t % 2},1\n" for t in range(1500))


def long_dff(*edits: tuple[str, str]) -> tuple[str, bytes]:
    """``LONG_DFF`` with each (old, new) edit made once, as a drawn dff file."""
    text = LONG_DFF
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    return "dff", text.encode("utf-8").replace(NOT_UTF8.encode(), b"\xff")


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    drawn=stimulus_files(),
    chunk_bytes=st.one_of(st.integers(1, 64), st.just(cli.STIMULUS_CHUNK_BYTES)),
    limit_rows=st.one_of(st.none(), st.integers(1, 10)),
)
# The first bad row before, at and after the end of the first batch, which
# holds the header and ticks 0 to 2 (27 bytes).
@example(drawn=("dff", b"tick,C,D\n0,0,0\n1,2,0\n2,0,0\n3,0,0\n"), chunk_bytes=27,
         limit_rows=None)
@example(drawn=("dff", b"tick,C,D\n0,0,0\n1,1,0\n2,2,0\n3,0,0\n"), chunk_bytes=27,
         limit_rows=None)
@example(drawn=("dff", b"tick,C,D\n0,0,0\n1,1,0\n2,0,0\n3,2,0\n"), chunk_bytes=27,
         limit_rows=None)
# A bad row, then a read error later in its batch: the bad row is named.
@example(drawn=("dff", b"tick,C,D\n0,0,0\nx,1,0\n2,0,0\n" + b"," * 200 + b"\n"),
         chunk_bytes=cli.STIMULUS_CHUNK_BYTES, limit_rows=None)
@example(drawn=("dff", b"tick,C,D\n0,0,0\n1,1,0\n2,0,0\n" + b"," * 200 + b"\n"),
         chunk_bytes=cli.STIMULUS_CHUNK_BYTES, limit_rows=None)
# The row of tick 1 spans lines of five characters, and chunk edges: 12 of
# them pass dff's bound of 58, 11 and a closing quote do not (that row has
# too many cells).
@example(drawn=("dff", b"tick,C,D\n0,0,0\n\n1" + b',"1\n"' * 12 + b"\n"), chunk_bytes=16,
         limit_rows=None)
@example(drawn=("dff", b"tick,C,D\n0,0,0\n\n1" + b',"1\n"' * 11 + b"\n"), chunk_bytes=16,
         limit_rows=None)
# Line 2 is 59 characters with its line end, one past dff's bound; without
# it, the line would be read and its padded cell refused as oversized.
@example(drawn=("dff", b"tick,C,D\r\n0,0," + b" " * 53 + b"\r\n"),
         chunk_bytes=cli.STIMULUS_CHUNK_BYTES, limit_rows=None)
# Line 2 passes the bound in the first chunk of 64 bytes, and an undecodable
# byte follows its end in the fourth: the line is refused before that chunk
# is decoded.
@example(drawn=("dff", b"tick,C,D\n0,0," + b" " * 200 + b"\n1,0,1\xff\n"), chunk_bytes=64,
         limit_rows=None)
# Line 2 is 58 characters and a "\r" that ends the first chunk of 68 bytes:
# within dff's bound until the next chunk shows whether "\n" follows, and
# that chunk does not decode.
@example(drawn=("dff", b"tick,C,D\n0,0," + b" " * 54 + b"\r\xff\n"), chunk_bytes=68,
         limit_rows=None)
# Files past one chunk of the real size: a bad row before the chunk edge and
# an undecodable byte after it, and the reverse.  A bad row in the line the
# edge cuts is read only once the next chunk decodes, so an undecodable byte
# in that chunk is named first, as a file opened in text mode names it.
@example(drawn=long_dff(("\n500,0,1\n", "\n500,2,1\n"), ("\n1200,0,1\n", f"\n1200,0,1{NOT_UTF8}\n")),
         chunk_bytes=cli.STIMULUS_CHUNK_BYTES, limit_rows=None)
@example(drawn=long_dff(("\n500,0,1\n", f"\n500,0,1{NOT_UTF8}\n"), ("\n1200,0,1\n", "\n1200,2,1\n")),
         chunk_bytes=cli.STIMULUS_CHUNK_BYTES, limit_rows=None)
@example(drawn=long_dff(("\n1032,0,1\n", "\n1032,2,1\n"), ("\n1034,0,1\n", f"\n{NOT_UTF8}\n")),
         chunk_bytes=cli.STIMULUS_CHUNK_BYTES, limit_rows=None)
def test_batched_reader_matches_the_row_by_row_reader(tmp_path_factory, drawn, chunk_bytes,
                                                     limit_rows):
    name, data = drawn
    element = ELEMENTS[name]
    path = tmp_path_factory.getbasetemp() / "drawn.csv"
    path.write_bytes(data)
    channels = len(CHANNELS[name])
    max_samples = cli.MAX_SAMPLES if limit_rows is None else limit_rows * channels
    with reading_under(chunk_bytes, max_samples):
        expected = outcome(oracle.read_stimulus, str(path), element)
        assert outcome(read_batches, str(path), element) == expected


def test_long_files_match_the_row_by_row_reader(tmp_path):
    # The examples above past the first chunk edge, and what both readers say.
    path = tmp_path / "stim.csv"
    for edits, message in [
        ((("\n500,0,1\n", "\n500,2,1\n"), ("\n1200,0,1\n", f"\n1200,0,1{NOT_UTF8}\n")),
         "control value '2' is not in the circuit's control alphabet ('0', '1')"),
        ((("\n500,0,1\n", f"\n500,0,1{NOT_UTF8}\n"), ("\n1200,0,1\n", "\n1200,2,1\n")),
         f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 3906: "
         "invalid start byte"),
        ((("\n1032,0,1\n", "\n1032,2,1\n"), ("\n1034,0,1\n", f"\n{NOT_UTF8}\n")),
         f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 13: "
         "invalid start byte"),
        ((), None),
    ]:
        path.write_bytes(long_dff(*edits)[1])
        got = outcome(read_batches, str(path), ELEMENTS["dff"])
        assert got == outcome(oracle.read_stimulus, str(path), ELEMENTS["dff"])
        if message is None:
            assert len(got[0]) == 1500
        else:
            assert got == f"error: {message}"


def test_a_plain_chunk_is_stripped_if_it_holds_what_strip_removes():
    ascii_space = {c for c in map(chr, range(128)) if c.isspace()}
    assert set(cli._ASCII_PADDING) == ascii_space - {"\n", "\r"}


def dff_stimulus(rows: int) -> str:
    """A dff stimulus of ``rows`` rows, each of nine bytes like its header."""
    return "tick,C,D\n" + "".join(f"{t:04},{t % 2},1\n" for t in range(rows))


def test_sample_limit_at_a_batch_boundary(tmp_path):
    # Under chunks of 16 lines the header and ticks 0 to 14 are the first
    # batch, and each later batch holds 16 rows.
    element = ELEMENTS["dff"]
    path = tmp_path / "stim.csv"
    for rows in (15, 31):
        # dff has two channels per tick, so the limit falls after whole batches.
        with reading_under(9 * 16, max_samples=2 * rows):
            path.write_text(dff_stimulus(rows))
            control, inputs = read_batches(str(path), element)
            assert len(control) == len(inputs["D"]) == rows
            assert (control, inputs) == oracle.read_stimulus(str(path), element)
            path.write_text(dff_stimulus(rows + 1))
            message = (
                f"stimulus row {rows + 1} takes it past the limit of "
                f"{2 * rows:,} samples (2 channels per tick)"
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
    with reading_under(cli.STIMULUS_CHUNK_BYTES, field_limit=limit):
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
    # The file holds 18 MB; the batch that is refused, one chunk's lines.
    assert peak < 300_000
