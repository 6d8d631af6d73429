"""Command-line front end: classify, simulate, chi-dump, and check.

Exit codes: 0 means the command ran (whatever the verdict — classification
results are data, not failures), 2 means a parse or usage error, and 3 means
simulation hit an undefined output without ``--allow-undef``.  A command
refuses by raising :class:`UsageError`, or lets the library's
:class:`~kcir.classifier.BudgetError` or
:class:`~kcir.circuits.SimulationError` pass; :func:`main` alone turns each
into one ``error:`` line on stderr and exit 2.

JSON reports carry the top-level keys circuit, command, verdict, axioms,
witness, stats, and timing, serialized with sorted keys so identical inputs
produce byte-identical output on every rerun.  One encoder, ``_json``, turns
each result record into JSON data field by field.  The timing key is null in JSON
for that reason; wall time is printed by text ``classify`` and ``check``, and
the text ``chi-dump`` listing holds read sets only.

``classify`` and ``check`` write their reports through one function,
``_report``: JSON as above, or text as the ``circuit:``, ``command:`` and
``verdict:`` lines, then the command's own lines, then one ``timing:`` line.
Each command builds only its own lines, a record's among them as
``key=value`` words (``_pairs``).  ``chi-dump`` and ``simulate`` have no such
frame and write their own output.

``classify`` refuses (exit 2) a run whose walk passes one of the classifier's
budgets, at the level it reached, and before it starts a run whose stats
would pass 1,000 digits; ``check``
refuses a horizon whose trials would each draw more than ``MAX_SAMPLES``
samples, and ``simulate`` a stimulus of more than ``MAX_SAMPLES`` samples.
``simulate`` decodes its stimulus 8 KB at a time and checks the rows of each
chunk's complete lines as one batch, split on commas with ``str.split`` where
the chunk holds no quote and read by csv where it does; it steps the circuit
over each batch once it passes, so it holds one chunk's batch and the output
text.  One line, and one row however many lines its quoted cells span, is
bounded by the characters the circuit's cells can take.
``chi-dump`` folds the circuit's read step once over the control symbols,
and refuses a dump that would hold more than ``MAX_SAMPLES`` refs.

Run as the ``kcir`` program (:func:`entry`), a command whose write to stdout
fails, such as into a closed pipe or onto a full disk, exits 2 with one
``error:`` line; :func:`main` leaves such an error to its caller.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import sys
import time
from typing import Callable, Iterable, Iterator, NoReturn, Optional, Sequence

from .circuits import (
    CircuitElement,
    SimulationError,
    causality_check,
    fold,
    read_soundness_check,
)
from .classifier import BudgetError, ReadSet, Refs, classify, refs_text
from .dsl import ParseError, load_circuit
from .signals import CausalSignal

UNDEF = "UNDEF"

#: Most samples one ``check`` trial may draw (ticks 0..horizon on every
#: channel, which a read-soundness trial draws; a causality trial draws only
#: the ticks before its mutated one) or one ``simulate`` stimulus may hold
#: (rows times channels), and most refs one ``chi-dump`` may hold over all its
#: prefixes.  A ``check`` trial holds its sample columns in memory, but no
#: rows, no list of free positions and no output stream, and it frees the
#: last trial's columns before it draws its own: at the limit, a run of one
#: or of three trials of mux (horizon 1,333,332) peaks at 47-54 MB max RSS,
#: of dff (1,999,999) at 47-62 MB, and one of abmem at 1,333,332 at 37 MB.
#: A register block's trial also holds the refs at its tick, one per edge:
#: one trial of counter (1,999,999) peaks at 84 MB, three at 95 MB, and one
#: of twoclock (999,999) at 80 MB.  A trial's time is linear in the horizon,
#: since a register block's read step carries a one-pass fold: one
#: soundness trial of counter takes 0.006 s, 0.015 s, 0.032 s and 0.061 s
#: at horizons 10,000, 20,000, 40,000 and 100,000, and a whole one-trial
#: ``check`` at the limit takes 3.1-3.6 s for counter, 1.9-2.6 s for
#: twoclock and 1.7-2.5 s for dff (CPython 3.11 on a shared 2-core host).
#: ``simulate`` holds only its output text, about 10 bytes per tick, so a
#: stimulus of one channel is its largest:
#: 4,000,000 ticks of a one-register toggle take 54 MB max RSS, and 1,000,000
#: ticks of twoclock 28 MB.  A JSON ``chi-dump`` of counter just below the limit (3,980
#: ticks, 3,962,090 refs) peaks at 47 MB.
MAX_SAMPLES = 4_000_000

#: Most characters a ``.kcir`` file may hold.  The largest file in
#: ``circuits/`` is under a kilobyte; the bound only keeps a file that never
#: ends, such as ``/dev/zero``, from being read into memory whole.
MAX_CIRCUIT_CHARS = 100_000

#: Bytes of a stimulus file decoded at a time: as many as a file opened in
#: text mode decodes at a time, so an undecodable byte is named at the same
#: position.  A batch of rows is the complete lines of one chunk.
STIMULUS_CHUNK_BYTES = 8192


class UsageError(Exception):
    pass


def _unknown_control(symbol: str, element: CircuitElement) -> UsageError:
    """The refusal of a control symbol outside the circuit's control alphabet."""
    return UsageError(f"control value {symbol!r} is not in the circuit's control alphabet "
                      f"{element.control_alphabet.values!r}")


class _ArgumentParser(argparse.ArgumentParser):
    """Argument parsing whose errors end in one ``error:`` line like every other."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Serialization helpers

def _json(record):
    """A result record as JSON data, field by field.

    A :class:`CausalSignal` becomes ``{"t", "samples"}``, a :class:`ReadSet`
    a list of ``{"channel", "tick"}`` objects, any other tuple a list, and a
    dataclass a dict of its fields; other values are kept.
    """
    if isinstance(record, CausalSignal):
        return {"t": record.t, "samples": list(record.samples)}
    if isinstance(record, ReadSet):
        return [{"channel": channel, "tick": tick} for channel, tick in record]
    if isinstance(record, tuple):
        return [_json(item) for item in record]
    if dataclasses.is_dataclass(record):
        return {field.name: _json(getattr(record, field.name))
                for field in dataclasses.fields(record)}
    return record


#: Stands for the images in the encoded report until they are written.
_IMAGES = "\0images\0"


def _write_report(element: CircuitElement, command: str, verdict: Optional[str], stats: dict,
                  axioms: Optional[dict] = None, witness: Optional[dict] = None,
                  images: Optional[Sequence[Optional[Refs]]] = None) -> None:
    """Write a JSON report to stdout: sorted keys, indented by two spaces.

    A ``chi-dump`` report's ``images``, the refs of every prefix, can hold
    millions of refs.  They are written an image at a time, each ref as the
    fixed lines the json module's indented encoder would give it, so the
    output is the same bytes as encoding the whole report at once.
    """
    report = dict(circuit=element.name, command=command, verdict=verdict, axioms=axioms,
                  witness=witness, stats=stats, timing=None)
    if images is not None:
        report["images"] = _IMAGES
    head, _, tail = json.dumps(report, indent=2, sort_keys=True).partition(json.dumps(_IMAGES))
    sys.stdout.write(head)
    if images is not None:
        @functools.cache  # one text per distinct ref, shared by every prefix that holds it
        def ref_json(ref: tuple[str, int]) -> str:
            channel, tick = json.dumps(ref[0]), ref[1]
            return f'{{\n        "channel": {channel},\n        "tick": {tick}\n      }}'

        def image_json(refs: Optional[Refs]) -> str:
            if refs is None:
                return "null"
            if not refs:
                return "[]"
            return "[\n      " + ",\n      ".join(map(ref_json, refs)) + "\n    ]"

        texts = map(image_json, images)
        sys.stdout.write("[\n    " + next(texts))
        sys.stdout.writelines(",\n    " + text for text in texts)
        sys.stdout.write("\n  ]" + tail)
    sys.stdout.write("\n")


def _pairs(record: dict) -> str:
    """A record's items as ``key=value`` words."""
    return " ".join(f"{key}={value}" for key, value in record.items())


def _report(args, element: CircuitElement, verdict: str, stats: dict, lines: Iterable[str],
            elapsed: float, axioms: Optional[dict] = None, witness: Optional[dict] = None) -> int:
    """Write ``args.command``'s report in ``args.format``, and return exit code 0.

    JSON is :func:`_write_report`'s.  Text is the ``circuit:``, ``command:``
    and ``verdict:`` lines, then the command's own ``lines``, then the
    ``timing:`` line with ``elapsed`` seconds.  Only text reads ``lines``, so
    a command passes them lazily and a JSON report never builds them.
    """
    if args.format == "json":
        _write_report(element, args.command, verdict, stats, axioms, witness)
    else:
        print(f"circuit: {element.name}", f"command: {args.command}", f"verdict: {verdict}",
              *lines, f"timing: {elapsed:.3f}s", sep="\n")
    return 0


# ---------------------------------------------------------------------------
# Circuit and stimulus loading

def _load_element(path: str) -> CircuitElement:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read(MAX_CIRCUIT_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if len(text) > MAX_CIRCUIT_CHARS:
        raise UsageError(f"{path} is longer than the limit of {MAX_CIRCUIT_CHARS:,} characters")
    try:
        return load_circuit(text)
    except ParseError as exc:
        raise UsageError(f"{path}:{exc.span.line}:{exc.span.column}: {exc.message}") from exc


#: A checked stimulus batch: its first tick, its control symbols and its input
#: rows, one tuple of samples per tick in the circuit's input channel order
#: (empty tuples when it has none).  The rows are made lazily as they are
#: stepped on.
Batch = tuple[int, list[str], Iterable[tuple[str, ...]]]

#: The ASCII characters ``str.strip`` removes, but for the line ends.
_ASCII_PADDING = " \t\v\f\x1c\x1d\x1e\x1f"


def _read_stimulus(path: str, element: CircuitElement) -> Iterator[Batch]:
    """The batches of a stimulus CSV, each yielded once it is read and checked.

    The file is decoded ``STIMULUS_CHUNK_BYTES`` at a time, and a batch is the
    rows of the complete lines of one chunk; a line the chunk's end cuts waits
    for the next chunk.  A chunk with no quote (nor NUL, which csv refuses on
    Python 3.10) is split into columns with ``str.split``.  If each of its
    lines then has a cell per header column, and no cell passes the csv field
    limit, the split reads it as csv would, and each of its lines is within
    the bound below.  csv reads any other chunk a line at a time, and a plain
    chunk that fails, so its errors are csv's; a row whose quoted cells carry
    line ends past a chunk's end is read on into the next chunk.

    Each line is held to a bound that no row of the circuit's cells within
    the csv field limit reaches, even with every character quoted, so a line
    that never ends is refused once a chunk takes it past the bound.  A row
    whose quoted cells span lines is held to the same bound: the line that
    takes the characters read since the last row past it is refused.  A
    UTF-8 byte order mark at the start of the file is skipped.  The file is
    opened at the first batch asked for and closed after the last.
    """
    cells = 1 + len(set(element.control_channels) | set(element.input_names))
    limit = csv.field_size_limit()
    bound = cells * (2 * limit + 3) + 1
    number = read = row_start = 0  # lines read; characters read, and before the row being read

    def texts(handle):
        """The complete lines of each chunk as one text, and the rest of the file at its end.

        A cut line already past the bound ends its text, to be refused.
        """
        # Decoded as in text mode, which holds back a last "\r" until it sees
        # whether "\n" follows.
        utf8 = codecs.getincrementaldecoder("utf-8-sig")()
        decoder, carry = io.IncrementalNewlineDecoder(utf8, translate=False), ""
        while data := handle.read1(STIMULUS_CHUNK_BYTES):
            text = carry + decoder.decode(data)
            cut = max(text.rfind("\n"), text.rfind("\r")) + 1
            if len(text) - cut > bound:
                cut = len(text)
            text, carry = text[:cut], text[cut:]
            yield text
        yield carry + decoder.decode(b"", True)

    def lines(text):
        """The lines of ``text``, checked, and of the texts after it while csv reads a row."""
        nonlocal number, read
        for text in itertools.chain((text,), chunks):
            for line in io.StringIO(text, newline=""):
                number += 1
                if len(line) > bound:
                    raise UsageError(f"stimulus line {number} is longer than the limit of "
                                     f"{bound:,} characters")
                read += len(line)
                if read - row_start > bound:
                    raise UsageError(f"stimulus line {number} takes its row past the limit of "
                                     f"{bound:,} characters")
                yield line
            if read == row_start:
                return

    def parsed(text):
        """The non-blank rows csv reads from ``text`` on, and the error that cut them short."""
        nonlocal row_start
        rows = []
        try:
            for row in csv.reader(lines(text)):
                row_start = read
                if row:
                    rows.append(row)
        except (UsageError, OSError, UnicodeDecodeError, csv.Error) as error:
            return rows, error
        return rows, None

    def split(text, width):
        """The columns of ``text``'s non-blank lines, or None where csv must read it.

        That is where ``text`` holds a quote or NUL, or a line that has other
        than ``width`` cells or a cell past the field limit.  Before the
        header is read, ``width`` is None and the first line sets it.
        """
        nonlocal number
        if '"' in text or "\0" in text:
            return None
        body = "\n" + text.replace("\r\n", "\n").replace("\r", "\n") + "\n"
        ends = body.count("\n") - 2
        while "\n\n" in body:
            body = body.replace("\n\n", "\n")
        rows = body.count("\n") - 1
        width = width or body.count(",", 0, body.find("\n", 1)) + 1
        # With a comma after each line end, a line end closes a cell, so each
        # line has ``width`` cells exactly when every ``width``-th cell, and
        # no other, closes with one.
        flat = body.replace("\n", "\n,").split(",")[1:-1]
        last = "".join(flat[width - 1::width]).split("\n")
        if not rows or len(flat) != rows * width or len(last) != rows + 1:
            return None
        columns = [flat[j::width] for j in range(width - 1)] + [last[:-1]]
        if len(body) > limit and max(map(len, itertools.chain(*columns))) > limit:
            return None
        if not body.isascii() or any(c in body for c in _ASCII_PADDING):
            columns = [list(map(str.strip, column)) for column in columns]
        number += ends
        return columns

    try:
        with open(path, "rb") as handle:
            chunks, check, first, width = texts(handle), None, 0, None
            for text in chunks:
                columns = split(text, width)
                rows, error = ([], None) if columns else parsed(text)
                if check is None and (columns or rows):
                    header = [column.pop(0) for column in columns] if columns else rows.pop(0)
                    check, width = _stimulus_check(header, element), len(header)
                if columns and columns[0] or rows:
                    yield (batch := check(columns, rows, first))
                    first += len(batch[1])
                if error:
                    raise error
            if check is None:
                raise UsageError("stimulus file is empty")
            if not first:
                raise UsageError("stimulus must contain at least one row")
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _stimulus_check(header: list[str], element: CircuitElement) -> Callable[..., Batch]:
    """Validate a stimulus's ``header`` row, and return the check of its other rows.

    The check takes a batch as the stripped cells of its columns, or else as
    its non-blank rows, and the number of rows before it.  Each column of the
    rows is stripped once, its ticks are compared with their range, and its
    control symbols are joined and checked against the control alphabet
    together.  Only a batch that fails is scanned row by row, to name its
    first bad row; the row that takes the stimulus past ``MAX_SAMPLES``
    samples is one.
    """
    header = [cell.strip() for cell in header]
    if header[0] != "tick":
        raise UsageError("stimulus header must start with 'tick'")
    columns = header[1:]
    expected = set(element.control_channels) | set(element.input_names)
    if set(columns) != expected:
        raise UsageError(
            f"stimulus columns {sorted(columns)} do not match circuit channels "
            f"{sorted(expected)}"
        )
    if len(set(columns)) != len(columns):
        raise UsageError("stimulus has a duplicate column")

    at = {name: k for k, name in enumerate(header)}
    control_at = [at[channel] for channel in element.control_channels]
    input_at = [at[name] for name in element.input_names]
    known = frozenset(element.control_alphabet.values)
    width = {len(header)}
    max_rows = MAX_SAMPLES // len(columns)

    def refuse(batch: Iterable[Sequence[str]], first: int) -> NoReturn:
        """Name the first bad row of ``batch``, whose rows are numbered from ``first``."""
        for i, row in enumerate(batch, first):
            if i > max_rows:
                raise UsageError(
                    f"stimulus row {i} takes it past the limit of {MAX_SAMPLES:,} samples "
                    f"({len(columns)} channels per tick)"
                )
            cells = list(map(str.strip, row))
            if len(cells) != len(header):
                raise UsageError(
                    f"stimulus row {i} has {len(cells)} cells, expected {len(header)}"
                )
            try:
                tick = int(cells[0])
            except ValueError:
                raise UsageError(f"stimulus row {i} has non-integer tick {cells[0]!r}") from None
            if tick != i - 1:
                raise UsageError(
                    f"stimulus ticks must be contiguous from 0: row {i} has tick {tick}"
                )
            symbol = "/".join([cells[k] for k in control_at])
            if symbol not in known:
                raise _unknown_control(symbol, element)
        raise AssertionError("a stimulus batch failed a check that none of its rows fails")

    def check(columns: Optional[list[list[str]]], rows: list[list[str]], first: int) -> Batch:
        """The batch of ``columns``, or else of ``rows``, after ``first`` rows, once it passes."""
        if not columns:
            if set(map(len, rows)) != width:
                refuse(rows, first + 1)
            columns = [list(map(str.strip, column)) for column in zip(*rows)]
        count = len(columns[0])
        try:
            ticks = list(map(int, columns[0]))
        except ValueError:
            ticks = None
        symbols = list(map("/".join, zip(*[columns[k] for k in control_at])))
        if (first + count > max_rows or ticks != list(range(first, first + count))
                or not known.issuperset(symbols)):
            refuse(rows or zip(*columns), first + 1)
        return first, symbols, zip(*[columns[k] for k in input_at]) if input_at else [()] * count

    return check


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_classify(args) -> int:
    element = _load_element(args.circuit)
    if args.horizon < 0:
        raise UsageError("--horizon must be >= 0")
    width = len(element.control_alphabet)
    # The stats count histories and prefix pairs exactly; past a thousand
    # digits they are not worth printing, and past 4,300 Python cannot.
    if element.read_step is not None and (args.horizon + 2) * math.log10(width) > 1000:
        raise UsageError(
            f"--horizon {args.horizon} would walk over 10^1000 control histories "
            f"({width} symbols, ticks 0..{args.horizon}), whose stats pass 1,000 "
            f"digits from level {math.floor(1000 / math.log10(width)) - 1:,}"
        )
    started = time.perf_counter()
    result = classify(element, args.horizon)
    elapsed = time.perf_counter() - started

    stats, axioms, witness = _json(result.stats), result.axiom_report, result.witness

    def lines() -> Iterator[str]:
        if axioms is not None:
            yield "axioms: " + _pairs({name: "yes" if getattr(axioms, name) else "no"
                                       for name in ("reflexive", "antisymmetric", "transitive")})
        if witness is not None:
            yield "witness:"
            for label in ("a0", "a1", "b0", "b1"):
                signal = getattr(witness, label)
                yield f"  {label}: t={signal.t} samples={','.join(signal.samples)}"
            yield f"  x_reads: {witness.x_reads}"
            yield f"  y_reads: {witness.y_reads}"
        yield "stats: " + _pairs(stats)

    return _report(args, element, result.verdict.value, stats, lines(), elapsed,
                   _json(axioms), _json(witness))


def _cmd_simulate(args) -> int:
    """Fold ``step`` over each stimulus batch as it is read, keeping one text per batch.

    A refusal of the stimulus comes before a step error, and a step error
    before an undefined output, wherever each falls: after a step error the
    rest of the stimulus is read only to be checked, and the run writes
    nothing until the stimulus has been read to its end.  ``--out`` is opened
    only then, so it may name the stimulus itself.
    """
    element = _load_element(args.circuit)
    state, undefined, chunks = element.init, None, ["tick,output\n"]
    batches = _read_stimulus(args.stimulus, element)
    for first, symbols, rows in batches:
        try:
            state, outputs = fold(element.step, state, symbols, rows)
        except SimulationError:
            for _ in batches:
                pass
            raise
        if undefined is None and None in outputs:
            undefined = first + outputs.index(None)
        chunks.append("".join([f"{t},{UNDEF if value is None else value}\n"
                               for t, value in enumerate(outputs, first)]))
    if undefined is not None and not args.allow_undef:
        print(
            f"error: output undefined at tick {undefined}; rerun with --allow-undef "
            "to emit UNDEF entries",
            file=sys.stderr,
        )
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.writelines(chunks)
    return 0


def _cmd_chi_dump(args) -> int:
    element = _load_element(args.circuit)
    if element.read_step is None:
        raise UsageError(f"circuit {element.name!r} has no read map to dump")
    tokens = [token.strip() for token in args.control.split(",")]
    if not all(tokens):
        raise UsageError("--control must be a comma-separated list of control symbols")
    for token in tokens:
        if token not in element.control_alphabet:
            raise _unknown_control(token, element)
    # Every prefix's refs are held for the report, and they grow with the
    # ticks, so their total is bounded like a stimulus's samples.
    state, images, held = element.read_init, [], 0
    for tick, token in enumerate(tokens):
        state, refs = element.read_step(state, token, tick)
        held += 0 if refs is None else len(refs)
        if held > MAX_SAMPLES:
            raise UsageError(
                f"--control tick {tick} takes the dump past the limit of "
                f"{MAX_SAMPLES:,} refs"
            )
        images.append(refs)
    if args.format == "json":
        _write_report(element, "chi-dump", None, {"ticks": len(tokens)}, images=images)
        return 0
    for tick, refs in enumerate(images):
        print(f"{tick}: {'undefined' if refs is None else refs_text(refs)}")
    return 0


def _cmd_check(args) -> int:
    element = _load_element(args.circuit)
    if args.horizon < 1:
        raise UsageError("--horizon must be >= 1")
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    channels = len(element.control_channels) + len(element.input_channels)
    samples = (args.horizon + 1) * channels
    if samples > MAX_SAMPLES:
        raise UsageError(
            f"--horizon {args.horizon} would draw {samples:,} samples per trial "
            f"({channels} channels, ticks 0..{args.horizon}), above the limit of "
            f"{MAX_SAMPLES:,}"
        )
    started = time.perf_counter()
    causality = _json(causality_check(element, args.horizon, args.trials, args.seed))
    soundness = ({"skipped": "circuit has no read map"} if element.read_step is None else
                 _json(read_soundness_check(element, args.horizon, args.trials, args.seed)))
    elapsed = time.perf_counter() - started
    stats = {"horizon": args.horizon, "seed": args.seed,
             "causality": causality, "read_soundness": soundness}
    failed = causality["violations"] or soundness.get("violations")
    lines = (f"{name}: {_pairs(record)}"
             for name, record in (("causality", causality), ("read-soundness", soundness)))
    return _report(args, element, "fail" if failed else "pass", stats, lines, elapsed)


# ---------------------------------------------------------------------------
# Entry points

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves no state in it."""
    parser = _ArgumentParser(
        prog="kcir",
        description="Simulate and classify sequential circuits described in .kcir files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a circuit as time-preserving or not")
    p.add_argument("--circuit", required=True, help="path to a .kcir file")
    p.add_argument("--horizon", type=int, default=4, help="highest tick enumerated")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("simulate", help="run a circuit over a stimulus CSV")
    p.add_argument("--circuit", required=True)
    p.add_argument("--stimulus", required=True, help="CSV with tick and channel columns")
    p.add_argument("--out", help="write the output CSV here instead of stdout")
    p.add_argument(
        "--allow-undef",
        action="store_true",
        help="emit UNDEF entries instead of failing on undefined outputs",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("chi-dump", help="print the read set of every control prefix")
    p.add_argument("--circuit", required=True)
    p.add_argument(
        "--control",
        required=True,
        help="comma-separated control symbols, e.g. '0,1,0,1' or 'A/-,B/A,-/B'",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_chi_dump)

    p = sub.add_parser("check", help="randomized read-soundness and causality checks")
    p.add_argument("--circuit", required=True)
    p.add_argument("--horizon", type=int, default=4)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    # argparse takes a value that opens with '-' (the abmem control "-/B,A/A")
    # for an option, so such a value is glued to its flag: --control or any
    # abbreviation argparse accepts for it (--co and longer; --c is ambiguous).
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 2, -1, -1):
        flag = argv[i]
        if len(flag) >= 4 and "--control".startswith(flag) and argv[i + 1].startswith("-"):
            argv[i:i + 2] = [f"{flag}={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, BudgetError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help, once its text is printed
        return exc.code


def entry() -> None:
    """The ``kcir`` program: ``main`` on the command line, with stdout flushed before exit.

    A failed write to stdout, such as a closed pipe or a full disk, exits 2
    with one error line.  Every file kcir opens by name turns its errors
    into usage errors, so an ``OSError`` that reaches here came from stdout.
    """
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        # The interpreter flushes stdout again at exit; send what is left to
        # the null device so that flush cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        code = 2
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
