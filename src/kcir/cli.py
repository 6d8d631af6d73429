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

``classify`` refuses (exit 2) a run whose walk passes one of the classifier's
budgets, at the level it reached, and before it starts a run whose stats
would pass 1,000 digits; ``check``
refuses a horizon whose trials would each draw more than ``MAX_SAMPLES``
samples, and ``simulate`` a stimulus of more than ``MAX_SAMPLES`` samples.
``simulate`` checks its stimulus a bounded batch of rows at a time and steps
the circuit over each batch once it passes, so it holds one bounded batch and
the output text; one line, and one row however many lines its quoted cells
span, is bounded by the characters the circuit's cells can take.
``chi-dump`` folds the circuit's read step once over the control symbols,
and refuses a dump that would hold more than ``MAX_SAMPLES`` refs.

Run as the ``kcir`` program (:func:`entry`), a command whose write to stdout
fails, such as into a closed pipe or onto a full disk, exits 2 with one
``error:`` line; :func:`main` leaves such an error to its caller.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import time
from typing import Iterable, Iterator, NoReturn, Optional, Sequence

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
#: channel) or one ``simulate`` stimulus may hold (rows times channels), and
#: most refs one ``chi-dump`` may hold over all its prefixes.  A ``check``
#: trial holds its sample columns and output streams in memory, at up to about
#: 95 bytes per sample (counter at horizon 1,999,999: 362 MB max RSS), so it
#: stays under about 0.5 GB.  ``simulate`` holds only its output text, about
#: 10 bytes per tick, so a stimulus of one channel is its largest: 4,000,000
#: ticks of a one-register toggle take 55 MB max RSS, and 1,000,000 ticks of
#: twoclock 27 MB.  A JSON ``chi-dump`` of counter just below the limit (3,980
#: ticks, 3,962,090 refs) peaks at 47 MB.
MAX_SAMPLES = 4_000_000

#: Most characters a ``.kcir`` file may hold.  The largest file in
#: ``circuits/`` is under a kilobyte; the bound only keeps a file that never
#: ends, such as ``/dev/zero``, from being read into memory whole.
MAX_CIRCUIT_CHARS = 100_000

#: Most rows one stimulus batch holds.  A batch also ends at the line that
#: takes its characters past the stimulus line bound, so at most one bounded
#: batch is held whatever the lines hold.
STIMULUS_BATCH_ROWS = 256


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
#: stepped on: a list of row tuples made ``simulate`` about 3% slower.
Batch = tuple[int, list[str], Iterable[tuple[str, ...]]]


def _read_stimulus(path: str, element: CircuitElement) -> Iterator[Batch]:
    """The batches of a stimulus CSV, each yielded once it is read and checked.

    Each line is read with a bound on its length that no row of the circuit's
    cells within the csv field limit reaches, even with every character
    quoted, so a line that never ends is refused before it is held.  A row
    whose quoted cells span lines is held to the same bound: the line that
    takes the characters read since the last row past it is refused.  The
    rows are checked in batches, each cut once it holds
    ``STIMULUS_BATCH_ROWS`` rows or its lines pass that bound, so at most one
    bounded batch is held.
    A UTF-8 byte order mark at the start of the file is skipped.  The file is
    opened at the first batch asked for and closed after the last.
    """
    cells = 1 + len(set(element.control_channels) | set(element.input_names))
    bound = cells * (2 * csv.field_size_limit() + 3) + 1
    read = row_start = 0  # characters read so far, and before the row being read

    def lines(handle):
        nonlocal read
        for number, line in enumerate(iter(functools.partial(handle.readline, bound + 1), ""), 1):
            if len(line) > bound:
                raise UsageError(
                    f"stimulus line {number} is longer than the limit of {bound:,} characters"
                )
            read += len(line)
            if read - row_start > bound:
                raise UsageError(
                    f"stimulus line {number} takes its row past the limit of {bound:,} characters"
                )
            yield line

    def non_blank(rows):
        """The non-blank rows; each row read, blank or not, starts the next row's count."""
        nonlocal row_start
        for row in rows:
            row_start = read
            if row:
                yield row

    def batches(rows):
        """The rows in lists cut as above.

        A read error cuts its batch short: the rows before it are yielded to
        be checked, and the error is raised only once they pass, where the
        rows read one by one would have met it.
        """
        while True:
            batch, start = [], read
            try:
                for row in rows:
                    batch.append(row)
                    if len(batch) == STIMULUS_BATCH_ROWS or read - start > bound:
                        break
            except (UsageError, OSError, UnicodeDecodeError, csv.Error):
                if batch:
                    yield batch
                raise
            if not batch:
                return
            yield batch

    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = non_blank(csv.reader(lines(handle)))
            yield from _stimulus_batches(next(rows, []), batches(rows), element)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _stimulus_batches(
    header: list[str], batches: Iterable[list[list[str]]], element: CircuitElement
) -> Iterator[Batch]:
    """Validate a stimulus's ``header`` and its other non-blank rows, a batch at a time.

    Each column of a batch is stripped once, its ticks are compared with
    their range, and its control symbols are joined and checked against the
    control alphabet together.  Only a batch that fails is scanned row by
    row, to name its first bad row; the row that takes the stimulus past
    ``MAX_SAMPLES`` samples is one.  Each batch is yielded once it passes, and
    none is held after it.
    """
    header = [cell.strip() for cell in header]
    if not header:
        raise UsageError("stimulus file is empty")
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

    def refuse(batch: list[list[str]], first: int) -> NoReturn:
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

    first = 0
    for batch in batches:
        if first + len(batch) > max_rows or set(map(len, batch)) != width:
            refuse(batch, first + 1)
        cells = [list(map(str.strip, column)) for column in zip(*batch)]
        try:
            ticks = list(map(int, cells[0]))
        except ValueError:
            refuse(batch, first + 1)
        symbols = list(map("/".join, zip(*[cells[k] for k in control_at])))
        if ticks != list(range(first, first + len(batch))) or not known.issuperset(symbols):
            refuse(batch, first + 1)
        yield first, symbols, zip(*[cells[k] for k in input_at]) if input_at else [()] * len(batch)
        first += len(batch)
    if not first:
        raise UsageError("stimulus must contain at least one row")


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

    stats = _json(result.stats)
    if args.format == "json":
        _write_report(element, "classify", result.verdict.value, stats,
                      _json(result.axiom_report), _json(result.witness))
        return 0

    print(f"circuit: {element.name}")
    print("command: classify")
    print(f"verdict: {result.verdict.value}")
    if result.axiom_report is not None:
        report = result.axiom_report
        flags = " ".join(
            f"{name}={'yes' if ok else 'no'}"
            for name, ok in (
                ("reflexive", report.reflexive),
                ("antisymmetric", report.antisymmetric),
                ("transitive", report.transitive),
            )
        )
        print(f"axioms: {flags}")
    if result.witness is not None:
        print("witness:")
        for label in ("a0", "a1", "b0", "b1"):
            signal = getattr(result.witness, label)
            print(f"  {label}: t={signal.t} samples={','.join(signal.samples)}")
        print(f"  x_reads: {result.witness.x_reads}")
        print(f"  y_reads: {result.witness.y_reads}")
    print(
        "stats: " + " ".join(f"{key}={value}" for key, value in stats.items())
    )
    print(f"timing: {elapsed:.3f}s")
    return 0


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
    causality = causality_check(element, args.horizon, args.trials, args.seed)
    if element.read_step is not None:
        soundness = read_soundness_check(element, args.horizon, args.trials, args.seed)
        soundness_stats = _json(soundness)
        failed = causality.violations > 0 or soundness.violations > 0
    else:
        soundness_stats = {"skipped": "circuit has no read map"}
        failed = causality.violations > 0
    elapsed = time.perf_counter() - started
    stats = {
        "horizon": args.horizon,
        "seed": args.seed,
        "causality": _json(causality),
        "read_soundness": soundness_stats,
    }
    verdict = "fail" if failed else "pass"
    if args.format == "json":
        _write_report(element, "check", verdict, stats)
        return 0
    print(f"circuit: {element.name}")
    print("command: check")
    print(f"verdict: {verdict}")
    print(
        "causality: "
        + " ".join(f"{key}={value}" for key, value in stats["causality"].items())
    )
    print(
        "read-soundness: "
        + " ".join(f"{key}={value}" for key, value in soundness_stats.items())
    )
    print(f"timing: {elapsed:.3f}s")
    return 0


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
