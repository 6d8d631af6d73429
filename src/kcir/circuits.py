"""Built-in sequential circuit elements: step functions and read steps.

Each element is a causal function written as one step per tick: ``step``
maps (state, control symbol, current input samples) to (next state, output),
starting from ``init``.  A stimulus is plain sample columns: the control
symbols and one sample sequence per input channel.  Simulating it is one left
fold over those columns, so ``output_stream`` costs O(T) steps for T ticks,
and the output at a tick of any history is the same fold cut off at that
tick.  ``step`` and ``read_step`` refuse a control symbol outside the
element's ``control_alphabet`` with :class:`SimulationError`.

Where the circuit admits one, a read step describes exactly which input
samples the output depends on: ``read_step`` maps (read state, control
symbol, tick) to (next read state, refs), starting from ``read_init``, where
refs are the sorted ``(channel, tick)`` pairs read at that tick.  It sees the
control history only and tracks edge and write ticks, never sample values,
so it is a route independent of ``step``.  The read map ``reads`` is derived
from it as a fold over the prefix, and the classifier steps it once per node
of the read-state DAG.  These two pairs are the only definitions of a circuit:
there are no per-circuit evaluators or read maps beside them.

The randomized property checks fold ``step`` over the ticks a trial
compares and no more: a causality trial folds ticks 0..m-1 before and after
the mutation at tick m, and a read-soundness trial folds the ticks before the
mutated one once and runs the baseline and the mutated run from that shared
state to the compared tick.  Their random columns are drawn in one inline
loop over ``rng.getrandbits`` that makes the same draws as ``rng.choice``,
so a seed gives the same report as a per-sample ``choice`` would.

Conventions shared by the built-ins here:

- clock and bit values are the strings "0" and "1"; a positive edge is a
  0-to-1 transition, so tick 0 is never an edge;
- product-shaped control values (latch set/reset, memory write/read
  addresses) are single '/'-joined symbols;
- an element's data inputs are routed, not interpreted.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import InitVar, dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from .classifier import ReadMap, ReadSet, ReadStepFn, Refs
from .signals import BINARY, Alphabet, CausalSignal, Tick


class SimulationError(ValueError):
    """Raised when control symbols or samples fed to a circuit are malformed for it."""


StepFn = Callable[[Any, str, tuple[str, ...]], tuple[Any, Optional[str]]]


def _fold_refs(read_init: Any, read_step: ReadStepFn, symbols: Iterable[str]) -> Optional[Refs]:
    """The refs at the last of ``symbols``: ``read_step`` folded over them from tick 0."""
    state, refs = read_init, None
    for tick, symbol in enumerate(symbols):
        state, refs = read_step(state, symbol, tick)
    return refs


def _fold_reads(read_init: Any, read_step: ReadStepFn) -> ReadMap:
    """The read map of a read step, marked as a fold by ``folds``: the pair it folds."""

    def reads(control: CausalSignal) -> Optional[ReadSet]:
        refs = _fold_refs(read_init, read_step, control.samples)
        return None if refs is None else ReadSet(refs)

    reads.folds = (read_init, read_step)
    return reads


@dataclass(frozen=True)
class CircuitElement:
    """An immutable circuit description usable by simulator and classifier.

    ``control_channels`` names the columns that assemble into one control
    symbol per tick (joined with '/' when there are several).  ``step`` is
    the circuit's transition: given the state, the control symbol at a tick
    and the input samples at that tick (in ``input_channels`` order), it
    returns the next state and the output at that tick (``None`` when
    undefined).  ``init`` is the state before tick 0; states are never
    mutated in place, so one ``init`` serves every run.

    ``read_step`` is the control-only read transition: given the read state,
    the control symbol at a tick and the tick, it returns the next read state
    and the refs read at that tick, sorted and duplicate-free, or ``None``
    when the output is undefined there; ``read_init`` is the read state before
    tick 0.  Read states must be hashable, since the classifier keys the
    nodes of its read-state DAG on them.  A multiclock read step also
    carries its clock domains for :func:`kcir.classify`, which uses them
    only with the ``read_init`` they were made for.

    ``reads`` is the fold of ``read_step`` over a control history from
    ``read_init``: the history's read set, or ``None`` when there is no
    ``read_step``.  It is an init-only argument rather than a field so that
    ``dataclasses.replace(element, reads=...)``, which the benchmark's tracer
    calls, keeps working: a ``reads`` given beside a ``read_step`` is replaced
    by the fold, a derived fold given alone is dropped, and any other
    ``reads`` given alone is refused with :class:`ValueError`.  A replaced
    read step carries no domains.
    """

    name: str
    control_channels: tuple[str, ...]
    control_alphabet: Alphabet
    input_channels: tuple[tuple[str, Alphabet], ...]
    init: Any
    step: StepFn
    reads: InitVar[Optional[ReadMap]] = None
    read_init: Any = None
    read_step: Optional[ReadStepFn] = None

    def __post_init__(self, reads: Optional[ReadMap]) -> None:
        step = self.read_step
        if step is None and reads is not None and not hasattr(reads, "folds"):
            raise ValueError(f"circuit {self.name!r}: give its read map as read_step, not reads")
        object.__setattr__(self, "reads", None if step is None else _fold_reads(self.read_init, step))

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.input_channels)


def _rows(columns: Sequence[Sequence[str]]) -> Iterable[tuple[str, ...]]:
    """Per-tick sample tuples of aligned columns; empty tuples when there are none."""
    return zip(*columns) if columns else itertools.repeat(())


def _require_bit_clock(sample: str) -> None:
    if sample != "0" and sample != "1":
        raise SimulationError(f"clock sample {sample!r} is not a bit")


# ---------------------------------------------------------------------------
# D flip-flop

def _dff_read_step(state, clock: str, tick: Tick):
    """The single data sample a flip-flop reads: its latest positive edge.

    The read state is (previous clock sample, refs of the latest edge or
    ``None``); the refs are kept whole so a step without an edge builds none.
    Undefined while the clock has not risen yet, because the flip-flop has
    latched nothing.
    """
    previous, refs = state
    if clock == "1":
        if previous == "0":
            refs = (("D", tick),)
    elif clock != "0":
        _require_bit_clock(clock)
    return (clock, refs), refs


def _dff_step(state, clock: str, samples: tuple[str, ...]):
    """State: (previous clock sample, data latched at the latest edge or ``None``)."""
    _require_bit_clock(clock)
    previous, held = state
    if previous == "0" and clock == "1":
        held = samples[0]
    return (clock, held), held


def dff_element(name: str = "dff") -> CircuitElement:
    return CircuitElement(
        name=name,
        control_channels=("C",),
        control_alphabet=BINARY,
        input_channels=(("D", BINARY),),
        init=(None, None),
        step=_dff_step,
        read_init=(None, None),
        read_step=_dff_read_step,
    )


# ---------------------------------------------------------------------------
# SR latch

#: The latch output each set/reset symbol forces; "0/0" holds it instead.
_SR_FORCES = {"1/0": "1", "0/1": "0", "1/1": "0"}


def _sr_step(q: Optional[str], symbol: str, _samples: tuple[str, ...]):
    """Level-sensitive set/reset latch; (0,0) holds the previous output.

    Undefined until the first tick whose inputs are not (0,0), since no
    previous output exists to hold.
    """
    if symbol in _SR_FORCES:
        q = _SR_FORCES[symbol]
    elif symbol != "0/0":
        raise SimulationError(f"latch control symbol {symbol!r} is not two bits")
    return q, q


def sr_latch_element(name: str = "srlatch") -> CircuitElement:
    # Neither input restricts the other, so the latch exposes no read map.
    return CircuitElement(
        name=name,
        control_channels=("S", "R"),
        control_alphabet=Alphabet.product(("0", "1"), ("0", "1")),
        input_channels=(),
        init=None,
        step=_sr_step,
    )


# ---------------------------------------------------------------------------
# Multiplexer

def _mux_channel(select: str) -> int:
    """Index of the input channel a select value routes: 0 for 'a', 1 for 'b'."""
    if select == "a":
        return 0
    if select == "b":
        return 1
    raise SimulationError(f"select value {select!r} is not 'a' or 'b'")


def _mux_read_step(state, select: str, tick: Tick):
    """The selected channel at the current tick; the other channel is never read."""
    return state, ((("A", "B")[_mux_channel(select)], tick),)


def _mux_step(state, select: str, samples: tuple[str, ...]):
    """Route one of two current inputs according to the select value."""
    return state, samples[_mux_channel(select)]


def mux_element(name: str = "mux") -> CircuitElement:
    return CircuitElement(
        name=name,
        control_channels=("S",),
        control_alphabet=Alphabet(("a", "b")),
        input_channels=(("A", BINARY), ("B", BINARY)),
        init=None,
        step=_mux_step,
        read_step=_mux_read_step,
    )


# ---------------------------------------------------------------------------
# Two-address read/write memory

#: Each address's cell, and ``None`` for the idle address '-'.
_SLOTS = {"A": 0, "B": 1, "-": None}
_EMPTY_CELLS: tuple[Optional[str], ...] = (None, None)
#: (written cell, read cell) of each memory control symbol.
_CELLS = {f"{w}/{r}": (_SLOTS[w], _SLOTS[r]) for w in _SLOTS for r in _SLOTS}


def _cell_indices(symbol: str) -> tuple[Optional[int], Optional[int]]:
    """(written cell, read cell) of a memory control symbol; ``None`` for no cell."""
    try:
        return _CELLS[symbol]
    except KeyError:
        raise SimulationError(
            f"memory control symbol {symbol!r} is not a write/read pair of A, B or '-'"
        ) from None


def _abmem_read_step(written, symbol: str, tick: Tick):
    """The data sample last written to the address read at the current tick.

    Control symbols pair a write address and a read address per tick, either
    of which may be idle ('-').  A same-tick write is visible to a same-tick
    read.  Undefined when nothing is read or the read address was never
    written.  The read state is, per address, the refs of its latest write
    (``None`` while unwritten), never a value.
    """
    i, j = _cell_indices(symbol)
    if i is not None:
        written = (*written[:i], (("D", tick),), *written[i + 1:])
    return written, None if j is None else written[j]


def _abmem_step(cells: tuple[Optional[str], ...], symbol: str, samples: tuple[str, ...]):
    """State: the value last written to each address, ``None`` while unwritten.

    Simulated over actual cell values, while the read step tracks only write
    ticks, so the randomized soundness check compares two independent routes.
    """
    i, j = _cell_indices(symbol)
    if i is not None:
        cells = (*cells[:i], samples[0], *cells[i + 1:])
    return cells, None if j is None else cells[j]


def abmem_element(name: str = "abmem") -> CircuitElement:
    return CircuitElement(
        name=name,
        control_channels=("W", "R"),
        control_alphabet=Alphabet.product(_SLOTS, _SLOTS),
        input_channels=(("D", BINARY),),
        init=_EMPTY_CELLS,
        step=_abmem_step,
        read_init=_EMPTY_CELLS,
        read_step=_abmem_read_step,
    )


# ---------------------------------------------------------------------------
# Stream construction and randomized property checks

def output_stream(
    element: CircuitElement,
    control: Sequence[str],
    inputs: Mapping[str, Sequence[str]],
) -> list[Optional[str]]:
    """Per-tick outputs over whole sample columns: one left fold of ``step``.

    ``control`` holds the control symbol of every tick and ``inputs`` maps
    each input channel to its samples.  Entry ``t`` is the output at tick
    ``t``, which by causality depends on the prefixes at ``t`` alone; the cost
    is one step per tick.
    """
    names = element.input_names
    if set(inputs) != set(names):
        raise SimulationError(
            f"input channels {sorted(inputs)} do not match {sorted(names)}"
        )
    if len({len(control), *(len(samples) for samples in inputs.values())}) != 1:
        raise SimulationError("control and input columns must have equal length")
    if len(control) == 0:
        raise SimulationError("columns must cover at least tick 0")
    return fold(element.step, element.init, control, _rows([inputs[name] for name in names]))[1]


def fold(
    step: StepFn, state: Any, symbols: Iterable[str], rows: Iterable[tuple[str, ...]]
) -> tuple[Any, list[Optional[str]]]:
    """The state after ``step`` folded over ``symbols`` and ``rows``, and every output.

    The fold stops at the end of ``symbols``, so ``rows`` may run longer.
    ``kcir simulate`` folds a stimulus one batch at a time, each batch from
    the state the one before it left; ``fold`` is not in ``kcir.__all__``.
    """
    outputs = []
    for symbol, samples in zip(symbols, rows):
        state, output = step(state, symbol, samples)
        outputs.append(output)
    return state, outputs


def _stream_alphabets(element: CircuitElement) -> list[Alphabet]:
    """The control alphabet, then each input channel's in channel order."""
    return [element.control_alphabet, *(alphabet for _, alphabet in element.input_channels)]


def _random_streams(
    rng: random.Random, alphabets: Sequence[Alphabet], length: int
) -> list[list[str]]:
    """One random column per alphabet: the control symbols, then the input columns.

    Each sample is drawn as ``rng.choice(values)`` draws it, without its two
    method calls: for n values, ``k = n.bit_length()`` bits are drawn until
    they read below n, which is ``Random._randbelow_with_getrandbits``
    behind ``choice`` in CPython 3.10 to 3.13.  So the columns and the
    generator state after them equal those of ``choice``, and every seeded
    report with them.  An alphabet is never empty, so n >= 1 and k >= 1.
    Columns are lists, which ``causality_check`` mutates in place.
    """
    getrandbits = rng.getrandbits
    columns = []
    for alphabet in alphabets:
        values = alphabet.values
        n = len(values)
        k = n.bit_length()
        column = []
        append = column.append
        for _ in range(length):
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            append(values[r])
        columns.append(column)
    return columns


@dataclass(frozen=True)
class ReadSoundnessReport:
    trials: int
    mutations: int
    undefined: int
    unmutable: int
    violations: int


def read_soundness_check(
    element: CircuitElement, horizon: int, trials: int, seed: int
) -> ReadSoundnessReport:
    """Mutate input samples outside the read set; the output must not move.

    Each trial draws random control and input columns, picks a tick, and flips
    one input sample at a position the read step does not claim at ``t``; the
    outputs at ``t`` before and after are ``step`` folded over ticks 0..t.
    The two runs agree before the mutated tick ``u``, so ticks 0..u-1 are
    folded once and both runs go on from that shared state, which no step
    mutates in place: a trial costs u + 2(t+1-u) steps.  Trials whose read
    set is undefined, or where every position up to ``t`` is claimed, are
    counted but not mutated.
    """
    if element.read_step is None:
        raise ValueError(f"circuit {element.name!r} has no read map")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    alphabets = _stream_alphabets(element)
    step, init = element.step, element.init
    rng = random.Random(seed)
    mutations = undefined = unmutable = violations = 0
    for _ in range(trials):
        control, *columns = _random_streams(rng, alphabets, horizon + 1)
        t = rng.randint(0, horizon)
        refs = _fold_refs(element.read_init, element.read_step, control[: t + 1])
        if refs is None:
            undefined += 1
            continue
        claimed = set(refs)
        free = [
            (k, u, alphabet)
            for k, (name, alphabet) in enumerate(element.input_channels)
            for u in range(t + 1)
            if (name, u) not in claimed and len(alphabet) > 1
        ]
        if not free:
            unmutable += 1
            continue
        k, u, alphabet = free[rng.randrange(len(free))]
        old = columns[k][u]
        new = rng.choice([v for v in alphabet.values if v != old])
        mutations += 1
        rows = list(itertools.islice(zip(*columns), t + 1))
        shared = fold(step, init, control[:u], rows)[0]
        tail = control[u : t + 1]
        baseline = fold(step, shared, tail, rows[u:])[1][-1]
        row = rows[u]
        rows[u] = (*row[:k], new, *row[k + 1:])
        if fold(step, shared, tail, rows[u:])[1][-1] != baseline:
            violations += 1
    return ReadSoundnessReport(trials, mutations, undefined, unmutable, violations)


@dataclass(frozen=True)
class CausalityReport:
    trials: int
    mutations: int
    violations: int


def causality_check(
    element: CircuitElement, horizon: int, trials: int, seed: int
) -> CausalityReport:
    """Mutate a sample at some tick m; outputs strictly before m must not move.

    Only the compared ticks 0..m-1 are folded, once before the mutation and
    once after, so a trial costs 2m steps.  A pure ``step`` cannot see the
    mutated tick there, so a violation shows a step whose output depends on
    more than its arguments.  The mutated stream is drawn among those whose
    alphabet has two or more values; with none, trials are counted but not
    mutated.
    """
    if horizon < 1:
        raise ValueError("causality needs a horizon of at least 1")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    alphabets = _stream_alphabets(element)
    mutable = [k for k, alphabet in enumerate(alphabets) if len(alphabet) > 1]
    if not mutable:
        return CausalityReport(trials, 0, 0)
    step, init = element.step, element.init
    rng = random.Random(seed)
    mutations = violations = 0
    for _ in range(trials):
        streams = _random_streams(rng, alphabets, horizon + 1)
        m = rng.randint(1, horizon)
        pick = mutable[rng.randrange(len(mutable))]
        samples = streams[pick]
        new = rng.choice([v for v in alphabets[pick].values if v != samples[m]])
        control, *columns = streams
        before = fold(step, init, control[:m], _rows(columns))[1]
        samples[m] = new
        after = fold(step, init, control[:m], _rows(columns))[1]
        mutations += 1
        if before != after:
            violations += 1
    return CausalityReport(trials, mutations, violations)
