"""Reference engines for classification, read maps and simulation.

The classifier oracle lists every control history up to the horizon,
materialises the whole prefix relation as a list of signal pairs, maps every
pair through the read map, checks the axioms on the image of read sets
themselves, and then scans the relation once more for the smallest
antisymmetry witness.  The read-map oracles rescan the whole control
history for every signal (edge ticks, last writes).  The simulation oracle
evaluates every tick from scratch: each circuit's output is computed from the
whole prefix (edges found by scanning the clock history, latch and memory
state replayed from tick 0), and :func:`output_stream` applies such a prefix
evaluator at every tick.  All are slow but direct, and none calls a step or
read step of the engine, so the tests compare the read-state DAG, the read
steps and the step functions against them.

The walk oracle, :func:`walk_classify`, is the engine ``classify`` had before
it merged histories by read state: one pass over the prefix tree, stepping
each history's read state from its parent's.  It checks the axioms with
:func:`pair_axiom_report`, the scan over a set of ranked image pairs that
``classify`` used before it checked them on bit sets.  So it shares nothing
with ``classify`` but the element, and it reaches horizons the brute-force
oracle cannot.

The register-block reference, :func:`reference_block_spec`, evaluates a
domain's expressions by walking nested closures over "0"/"1" strings, the
way ``.kcir`` blocks ran before they were compiled to straight-line Python.
The check references, :func:`causality_check` and
:func:`read_soundness_check`, fold every trial over all the ticks they draw
or cut, from tick 0, for both runs; the library folds only the compared
ticks and shares the prefix the runs agree on.

A bare read map, a function from control history to read set, enters an
element only through :func:`history_part`, a read step whose state is the
history so far: :func:`with_read_map` gives an element such a step, and
the domain product, :func:`domain_product`, builds an element out of
hand-made clock domains, each a read step on its clock's symbols "0" and
"1", the way a multiclock circuit is made of its domains, so a test can make
one domain break a condition of ``classify``'s per-domain route.

The exact read-set reference, :func:`essential_reads`, folds ``step`` over
every input assignment of one control history and keeps the samples whose
change alone moves the last output.

The stimulus reference, :func:`read_stimulus`, reads and checks a stimulus
CSV one row at a time, cell by cell, as ``kcir simulate`` did before it
checked whole batches of rows a column at a time.
"""

from __future__ import annotations

import csv
import functools
import itertools
import random
from dataclasses import dataclass, replace
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence

from kcir.classifier import (
    AntisymmetryWitness,
    AxiomReport,
    Classification,
    ClassifyStats,
    ReadMap,
    ReadSet,
    ReadStepFn,
    Refs,
    RefPoint,
    Verdict,
)
from kcir.circuits import (
    CausalityReport,
    CircuitElement,
    ReadSoundnessReport,
    SimulationError,
    _stream_alphabets,
)
from kcir import cli
from kcir.cli import UsageError
from kcir.dsl import BoolExpr, CircuitAst, DomainAst, Lit, Var
from kcir.signals import (
    BINARY,
    Alphabet,
    CausalSignal,
    Tick,
    history_count,
    split_symbol,
)

Relation = list[tuple[CausalSignal, CausalSignal]]

_ADDRESSES = ("A", "B")


# --- the prefix order, materialised -------------------------------------------

def prefix(signal: CausalSignal, t: Tick) -> CausalSignal:
    """The same history cut off at an earlier (or equal) current tick."""
    if not 0 <= t <= signal.t:
        raise IndexError(f"tick {t} outside a signal at current tick {signal.t}")
    return CausalSignal(signal.alphabet, signal.samples[: t + 1])


def enumerate_causal_signals(alphabet: Alphabet, horizon: Tick) -> list[CausalSignal]:
    """Every causal signal over ``alphabet`` with current tick 0..horizon, in ``sort_key`` order."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    return [
        CausalSignal(alphabet, combo)
        for t in range(horizon + 1)
        for combo in itertools.product(alphabet.values, repeat=t + 1)
    ]


def build_prefix_relation(signals: Iterable[CausalSignal]) -> Relation:
    """All pairs (a, b) with ``a`` a prefix of ``b``, over a prefix-closed carrier.

    Each ``b`` is paired with its cut at every tick 0..b.t, shortest first, so
    the result is the whole prefix order only when ``signals`` holds every
    prefix of its members, as :func:`enumerate_causal_signals` does.
    """
    return [(prefix(b, u), b) for b in signals for u in range(b.t + 1)]


@dataclass(frozen=True)
class DerivedRelation:
    """Image of a signal relation under a read map.

    ``nodes`` is the set of read sets of every defined signal occurring in the
    source relation; ``pairs`` keeps one entry per source pair whose endpoints
    are both defined.  Source pairs touching an undefined read set are dropped
    and counted in ``excluded_undefined``.
    """

    nodes: frozenset[ReadSet]
    pairs: frozenset[tuple[ReadSet, ReadSet]]
    excluded_undefined: int


# --- read maps: rescan the whole control history --------------------------------

def _edge_ticks(samples: Sequence[str]) -> frozenset[Tick]:
    return frozenset(
        u
        for u in range(1, len(samples))
        if samples[u - 1] == "0" and samples[u] == "1"
    )


def _clock_edges(samples: Sequence[str]) -> frozenset[Tick]:
    """Ticks at which the clock ``samples`` rise, refusing a sample that is not a bit."""
    for sample in samples:
        if sample != "0" and sample != "1":
            raise SimulationError(f"clock sample {sample!r} is not a bit")
    return _edge_ticks(samples)


def posedges(clock: CausalSignal) -> frozenset[Tick]:
    """Ticks at which a binary clock rises; the tick-0 sample is never an edge."""
    return _clock_edges(clock.samples)


def dff_reads(control: CausalSignal, channel: str = "D") -> Optional[ReadSet]:
    """The data sample at the latest positive edge; undefined before any edge."""
    edges = posedges(control)
    if not edges:
        return None
    return ReadSet.of((channel, max(edges)))


def mux_reads(control: CausalSignal) -> ReadSet:
    """The selected channel at the current tick."""
    channel = "A" if control.samples[control.t] == "a" else "B"
    return ReadSet.of((channel, control.t))


def sync_reads(control: CausalSignal, channels: Sequence[str] = ("D",)) -> ReadSet:
    """Every past edge plus the current tick, on every data channel."""
    edges = posedges(control)
    refs = [RefPoint(c, u) for c in channels for u in edges]
    refs += [RefPoint(c, control.t) for c in channels]
    return ReadSet(tuple(refs))


def multiclock_reads(
    control: CausalSignal, channels: Sequence[Sequence[str]] = (("D1",), ("D2",))
) -> ReadSet:
    """Per-domain edge ticks plus the current tick on every data channel.

    ``channels`` lists each domain's data channels, in the order of the clock
    samples in a control symbol.
    """
    refs = []
    for k, domain in enumerate(channels):
        edges = _edge_ticks([split_symbol(s)[k] for s in control.samples])
        refs += [RefPoint(c, u) for c in domain for u in (*edges, control.t)]
    return ReadSet(tuple(refs))


def abmem_reads(control: CausalSignal, channel: str = "D") -> Optional[ReadSet]:
    """The data sample last written to the address read at the current tick."""
    writes = []
    read_addr = None
    for u, symbol in enumerate(control.samples):
        parts = split_symbol(symbol)
        if len(parts) != 2:
            raise SimulationError(f"memory control symbol {symbol!r} is not a pair")
        writes.append(parts[0])
        if u == control.t:
            read_addr = parts[1]
    if read_addr not in _ADDRESSES:
        return None
    hits = [u for u, addr in enumerate(writes) if addr == read_addr]
    if not hits:
        return None
    return ReadSet.of((channel, hits[-1]))


def ast_reads(ast: CircuitAst) -> Optional[ReadMap]:
    """The rescanning read map a circuit description denotes, or ``None``."""
    if ast.kind == "srlatch":
        return None
    if ast.kind in _FIXED_READS:
        return _FIXED_READS[ast.kind]
    if ast.kind == "sync":
        return lambda control: sync_reads(control, ast.domains[0].inputs)
    channels = [domain.inputs for domain in ast.domains]
    return lambda control: multiclock_reads(control, channels)


# --- classification ---------------------------------------------------------------

def check_partial_order(relation: DerivedRelation) -> AxiomReport:
    """The three axioms, scanned over read sets in sorted order."""
    nodes = sorted(relation.nodes)
    pairs = sorted(relation.pairs)
    present = relation.pairs

    refl_witness = next((x for x in nodes if (x, x) not in present), None)
    anti_witness = next(
        ((x, y) for x, y in pairs if x != y and (y, x) in present), None
    )

    successors: dict[ReadSet, list[ReadSet]] = {}
    for x, y in pairs:
        successors.setdefault(x, []).append(y)
    trans_witness = None
    for x, y in pairs:
        for z in successors.get(y, ()):
            if (x, z) not in present:
                trans_witness = (x, y, z)
                break
        if trans_witness is not None:
            break

    return AxiomReport(
        reflexive=refl_witness is None,
        antisymmetric=anti_witness is None,
        transitive=trans_witness is None,
        reflexivity_witness=refl_witness,
        antisymmetry_witness=anti_witness,
        transitivity_witness=trans_witness,
    )


def pair_axiom_report(
    images: Sequence[ReadSet], nodes: Iterable[int], pairs: Collection[tuple[int, int]]
) -> AxiomReport:
    """The three axioms on read sets named by their index in sorted ``images``.

    Index order is read-set order, so scanning ``nodes`` (ascending) and
    ``pairs`` in int order meets the same smallest counterexamples as scanning
    the read sets themselves, at the cost of int hashing and comparison.
    """
    ordered = sorted(pairs)
    refl = next((x for x in nodes if (x, x) not in pairs), None)
    anti = next(((x, y) for x, y in ordered if x != y and (y, x) in pairs), None)

    successors: dict[int, list[int]] = {}
    for x, y in ordered:
        successors.setdefault(x, []).append(y)
    trans = None
    for x, y in ordered:
        for z in successors.get(y, ()):
            if (x, z) not in pairs:
                trans = (x, y, z)
                break
        if trans is not None:
            break

    return AxiomReport(
        reflexive=refl is None,
        antisymmetric=anti is None,
        transitive=trans is None,
        reflexivity_witness=None if refl is None else images[refl],
        antisymmetry_witness=None if anti is None else (images[anti[0]], images[anti[1]]),
        transitivity_witness=None if trans is None else tuple(images[i] for i in trans),
    )


def evaluate_reads(
    read_map: ReadMap, signals: Iterable[CausalSignal]
) -> dict[CausalSignal, Optional[ReadSet]]:
    """Apply ``read_map`` to every signal."""
    return {s: read_map(s) for s in signals}


def _endpoint_reads(read_map: ReadMap, relation: Relation):
    endpoints: dict[CausalSignal, None] = {}
    for a, b in relation:
        endpoints.setdefault(a)
        endpoints.setdefault(b)
    return evaluate_reads(read_map, endpoints)


def derive_relation(
    read_map: ReadMap,
    relation: Relation,
    *,
    reads: Mapping[CausalSignal, Optional[ReadSet]] | None = None,
) -> DerivedRelation:
    """Map every pair of ``relation`` through ``read_map``.

    ``reads`` may carry precomputed read sets covering all relation endpoints.
    """
    if reads is None:
        reads = _endpoint_reads(read_map, relation)
    nodes = set()
    pairs = set()
    excluded = 0
    for a, b in relation:
        image_a, image_b = reads[a], reads[b]
        if image_a is None or image_b is None:
            excluded += 1
            continue
        pairs.add((image_a, image_b))
    for a, b in relation:
        for image in (reads[a], reads[b]):
            if image is not None:
                nodes.add(image)
    return DerivedRelation(frozenset(nodes), frozenset(pairs), excluded)


def find_antisymmetry_witness(
    read_map: ReadMap,
    relation: Relation,
    *,
    reads: Mapping[CausalSignal, Optional[ReadSet]] | None = None,
) -> Optional[AntisymmetryWitness]:
    """Search ``relation`` for the smallest antisymmetry witness, if any.

    The result is the minimum of (a0, a1, b0, b1) under the lexicographic
    signal order.
    """
    relation = list(relation)
    if reads is None:
        reads = _endpoint_reads(read_map, relation)
    keys = {s: s.sort_key() for s in reads}

    defined = [
        (a, b) for a, b in relation if reads[a] is not None and reads[b] is not None
    ]

    # Smallest source pair per ordered image pair.
    best_source: dict[tuple[ReadSet, ReadSet], tuple] = {}
    for a, b in defined:
        image_pair = (reads[a], reads[b])
        cand = (keys[a], keys[b], a, b)
        cur = best_source.get(image_pair)
        if cur is None or cand[:2] < cur[:2]:
            best_source[image_pair] = cand

    best = None
    for a, b in defined:
        image_a, image_b = reads[a], reads[b]
        if image_a == image_b:
            continue
        rev = best_source.get((image_b, image_a))
        if rev is None:
            continue
        cand = (keys[a], keys[b], a, b, rev[2], rev[3])
        if best is None or cand[:2] < best[:2]:
            best = cand

    if best is None:
        return None
    _, _, a0, a1, b0, b1 = best
    return AntisymmetryWitness(a0, a1, b0, b1, reads[a0], reads[a1])


def classify(circuit, horizon: int, read_map: Optional[ReadMap] = None) -> Classification:
    """The classification built from the materialised prefix relation.

    ``read_map`` replaces the circuit's own ``reads`` when given.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    degenerate = horizon < 1

    if read_map is None:
        read_map = circuit.reads
    if read_map is None:
        stats = ClassifyStats(horizon, 0, 0, 0, 0, degenerate)
        return Classification(Verdict.NOT_FUNDAMENTAL_FORM, None, None, stats)

    signals = enumerate_causal_signals(circuit.control_alphabet, horizon)
    relation = build_prefix_relation(signals)
    reads = evaluate_reads(read_map, signals)
    derived = derive_relation(read_map, relation, reads=reads)
    report = check_partial_order(derived)
    stats = ClassifyStats(
        horizon=horizon,
        signals=len(signals),
        relation_pairs=len(relation),
        distinct_read_sets=len(derived.nodes),
        excluded_undefined=derived.excluded_undefined,
        degenerate_horizon=degenerate,
    )

    if report.is_partial_order:
        return Classification(Verdict.TIME_PRESERVING, report, None, stats)

    witness = None
    if not report.antisymmetric:
        witness = find_antisymmetry_witness(read_map, relation, reads=reads)
        assert witness is not None, "antisymmetry failure must yield a witness"
    return Classification(Verdict.NOT_TIME_PRESERVING, report, witness, stats)


# --- classification by one walk over the prefix tree ----------------------------

def signal_at(alphabet: Alphabet, index: int) -> CausalSignal:
    """The signal at ``index`` in ``sort_key`` order over ``alphabet``.

    Indices below ``history_count(len(alphabet), horizon)`` are exactly the
    signals with current tick 0..horizon, so a history can be named by an int
    that still breaks ties reproducibly.
    """
    values = alphabet.values
    width = len(values)
    t, size = 0, width
    while index >= size:
        index -= size
        t += 1
        size *= width
    samples = []
    for _ in range(t + 1):
        index, digit = divmod(index, width)
        samples.append(values[digit])
    return CausalSignal.from_samples(alphabet, reversed(samples))


def _walk_prefix_tree(
    read_init, read_step: ReadStepFn, symbols: Sequence[str], horizon: int
) -> tuple[list[Refs], list[dict[int, tuple[int, int]]], int]:
    """Push the prefix order through a read step in one pass over the tree.

    Signals are named by their index in ``sort_key`` order over ``symbols``,
    the index :func:`signal_at` decodes; a node's children are
    its history extended by each symbol in turn, and each child's read state
    is one ``read_step`` from its parent's.  Refs are interned to ids in
    order of first sight.

    Returns the interned refs; for every refs id ``y``, a row mapping each
    ``x`` of an ordered image pair ``(x, y)`` to its smallest source pair
    ``(a, b)`` of signal indices; and the number of prefix pairs with an
    undefined endpoint.
    """
    ids: dict[Refs, int] = {}
    best: list[dict[int, tuple[int, int]]] = []
    excluded = 0
    # Per node: (read state, ancestor-or-self image id -> smallest source
    # index, image ids already emitted under that map, undefined
    # ancestors-or-self).  A map is never changed once built, so a node whose
    # image is in its parent's map shares it; a later node under the same map
    # with an already emitted image offers only larger sources for the same
    # pairs and emits nothing.
    parents = [(read_init, {}, set(), 0)]
    b = 0
    for t in range(horizon + 1):
        level = []
        keep = t < horizon  # the deepest level has no children to serve
        for parent_state, parent_sources, parent_done, parent_undefined in parents:
            for symbol in symbols:
                state, refs = read_step(parent_state, symbol, t)
                sources, done, undefined = parent_sources, parent_done, parent_undefined
                if refs is None:
                    excluded += t + 1
                    undefined += 1
                else:
                    excluded += undefined
                    y = ids.get(refs)
                    if y is None:
                        y = ids[refs] = len(best)
                        best.append({})
                    if y not in sources:
                        sources = {**sources, y: b}
                        done = set()
                    if y not in done:
                        done.add(y)
                        row = best[y]
                        for x, a in sources.items():
                            current = row.get(x)
                            if current is None or a < current[0]:
                                row[x] = (a, b)
                if keep:
                    level.append((state, sources, done, undefined))
                b += 1
        parents = level
    return list(ids), best, excluded


def walk_classify(circuit: CircuitElement, horizon: int) -> Classification:
    """The classification built by one walk over the prefix tree of control histories.

    Every history is stepped from its parent's read state, so this reference
    reaches horizons the materialised oracle cannot, while sharing nothing
    with :func:`kcir.classify` but the element: no read-state DAG, and the
    axioms checked on pairs, not bit sets.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    degenerate = horizon < 1
    if circuit.read_step is None:
        stats = ClassifyStats(horizon, 0, 0, 0, 0, degenerate)
        return Classification(Verdict.NOT_FUNDAMENTAL_FORM, None, None, stats)

    alphabet = circuit.control_alphabet
    refs, rows, excluded = _walk_prefix_tree(
        circuit.read_init, circuit.read_step, alphabet.values, horizon
    )
    order = sorted(range(len(refs)), key=refs.__getitem__)
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    images = [ReadSet.of(*refs[i]) for i in order]
    best = {
        (rank[x], rank[y]): sources for y, row in enumerate(rows) for x, sources in row.items()
    }
    report = pair_axiom_report(images, range(len(images)), best)
    width = len(alphabet)
    stats = ClassifyStats(
        horizon=horizon,
        signals=history_count(width, horizon),
        relation_pairs=sum((t + 1) * width ** (t + 1) for t in range(horizon + 1)),
        distinct_read_sets=len(images),
        excluded_undefined=excluded,
        degenerate_horizon=degenerate,
    )
    if report.is_partial_order:
        return Classification(Verdict.TIME_PRESERVING, report, None, stats)

    witness = None
    if not report.antisymmetric:
        # The smallest (a0, a1) over image pairs whose reverse is present,
        # with (b0, b1) the smallest source of the reverse: the lexicographic
        # minimum of (a0, a1, b0, b1) over all swapped source pairs.
        sources, x, y = min(
            (best[x, y] + best[y, x], x, y)
            for x, y in best
            if x != y and (y, x) in best
        )
        a0, a1, b0, b1 = (signal_at(alphabet, i) for i in sources)
        witness = AntisymmetryWitness(a0, a1, b0, b1, images[x], images[y])
    return Classification(Verdict.NOT_TIME_PRESERVING, report, witness, stats)


def dag_level_sizes(element: CircuitElement, horizon: Tick) -> list[int]:
    """The distinct read states at each tick 0..horizon: the read-state DAG's levels.

    Each level's states are found by stepping every distinct read state of
    the level before once per symbol.
    """
    sizes = []
    states = {element.read_init}
    for t in range(horizon + 1):
        states = {
            element.read_step(state, symbol, t)[0]
            for state in states
            for symbol in element.control_alphabet.values
        }
        sizes.append(len(states))
    return sizes


def dag_walk_work(element: CircuitElement, horizon: Tick) -> int:
    """The read steps and refs of the walk to ``horizon``, each expansion charged once.

    The root and every distinct read state of the levels above the horizon
    cost the number of symbols plus the refs their steps return, however
    many histories reach them.
    """
    symbols = element.control_alphabet.values
    states = {element.read_init}
    work = 0
    for t in range(horizon + 1):
        steps = [element.read_step(state, symbol, t) for state in states for symbol in symbols]
        work += len(steps) + sum(len(refs) for _, refs in steps if refs is not None)
        states = {state for state, _ in steps}
    return work


def read_fold(element: CircuitElement, history: Sequence[str]) -> tuple[object, Optional[Refs]]:
    """(read state, refs) after folding ``read_step`` over a nonempty history from ``read_init``."""
    state = element.read_init
    for tick, symbol in enumerate(history):
        state, refs = element.read_step(state, symbol, tick)
    return state, refs


def dag_smallest_histories(element: CircuitElement, horizon: Tick) -> list[tuple[str, ...]]:
    """Each (level, read state) key's smallest history, in ``sort_key`` order.

    Every history up to the horizon is folded from ``read_init`` on its own,
    so these are the nodes of the read-state DAG below its root found
    without merging.
    """
    alphabet = element.control_alphabet
    smallest: dict[tuple, tuple[str, ...]] = {}
    for t in range(horizon + 1):
        # product() meets the histories of one length in sample-rank order.
        for history in itertools.product(alphabet.values, repeat=t + 1):
            smallest.setdefault((t, read_fold(element, history)[0]), history)
    return sorted(smallest.values(), key=lambda h: CausalSignal(alphabet, h).sort_key())


# --- bare read maps: the history so far as read state -------------------------

#: A read state and step: a clock domain's, on its clock's symbols "0" and "1",
#: or a whole element's.
Part = tuple[object, ReadStepFn]


def history_part(reads: Callable[[tuple[str, ...]], Optional[Refs]]) -> Part:
    """A read step whose state is the history so far and whose refs are ``reads`` of it.

    Each step applies ``reads`` to the whole history, so it costs what
    ``reads`` costs.  It is the one way a bare read map enters an element:
    as a domain of :func:`domain_product`, or through :func:`with_read_map`.
    """

    def read_step(history, symbol, tick):
        history = (*history, symbol)
        return history, reads(history)

    return (), read_step


def with_read_map(element: CircuitElement, reads: ReadMap) -> CircuitElement:
    """``element`` with the read step that walks the read map ``reads``.

    A read set is its refs, so what ``reads`` returns is the step's refs as
    it is, and ``element.reads`` of the result agrees with ``reads``.
    """
    alphabet = element.control_alphabet
    read_init, read_step = history_part(lambda history: reads(CausalSignal(alphabet, history)))
    return replace(element, read_init=read_init, read_step=read_step)


# --- elements made of clock domains ---------------------------------------------

def _own_channels(step: ReadStepFn, k: int) -> ReadStepFn:
    """``step`` with ``k`` appended to the name of every channel it reads."""

    def read_step(state, symbol, tick):
        state, refs = step(state, symbol, tick)
        return state, None if refs is None else tuple((f"{c}{k}", u) for c, u in refs)

    return read_step


def domain_product(parts: Sequence[Part], shared: bool = False) -> CircuitElement:
    """An element whose read step is the product of ``parts``, one per clock.

    The control symbol joins one clock sample per part with '/', as a
    multiclock circuit's does.  Part k's channels get the suffix k, so no
    two parts share a channel, as the parser ensures for the domains of a
    file; with ``shared`` they keep their names, so two parts may read one
    channel, as no file can describe.  The joint read state is the tuple of
    the parts' states, and the joint refs are the union of the parts' refs,
    undefined where any part's are.  The read step carries the parts as
    ``domains``, as a multiclock circuit's does, so ``kcir.classify`` tries
    them before the joint walk.
    """
    if not shared:
        parts = [(init, _own_channels(step, k)) for k, (init, step) in enumerate(parts)]
    steps = [step for _, step in parts]

    def read_step(state, symbol, tick):
        states, refs = [], set()
        for part_state, step, bit in zip(state, steps, split_symbol(symbol)):
            part_state, part_refs = step(part_state, bit, tick)
            states.append(part_state)
            if refs is not None:
                refs = None if part_refs is None else refs.union(part_refs)
        return tuple(states), None if refs is None else tuple(sorted(refs))

    read_init = tuple(init for init, _ in parts)
    read_step.domains = (read_init, tuple(parts))
    return CircuitElement(
        name="product",
        control_channels=tuple(f"c{k}" for k in range(len(parts))),
        control_alphabet=Alphabet.product(*(("0", "1"),) * len(parts)),
        input_channels=(),
        init=None,
        step=lambda state, symbol, samples: (state, None),
        read_init=read_init,
        read_step=read_step,
    )


# --- simulation ---------------------------------------------------------------

EvalFn = Callable[[CausalSignal, Mapping[str, CausalSignal]], Optional[str]]
#: A register block as (initial register bits, next_state, output_fn):
#: ``next_state`` maps (register bits, the domain's input samples at an edge)
#: to the next register bits, and ``output_fn`` maps (register bits, the
#: current input samples) to the output, all as "0"/"1" strings.
Block = tuple[tuple[str, ...], Callable, Callable]


def output_stream(
    element: CircuitElement,
    evaluate: EvalFn,
    control: Sequence[str],
    inputs: Mapping[str, Sequence[str]],
) -> list[Optional[str]]:
    """Per-tick outputs over whole columns; entry ``t`` is ``evaluate`` on the prefixes at ``t``.

    ``element`` supplies only the input channel names.  A signal's alphabet
    is its column's own samples, so control symbols and input values outside
    the element's alphabets reach ``evaluate`` unchecked.
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
    signals = {
        name: CausalSignal.from_samples(Alphabet(tuple(dict.fromkeys(column))), column)
        for name, column in inputs.items()
    }
    whole = CausalSignal.from_samples(Alphabet(tuple(dict.fromkeys(control))), control)
    outputs = []
    for t in range(len(control)):
        input_sigs = {name: prefix(signals[name], t) for name in names}
        outputs.append(evaluate(prefix(whole, t), input_sigs))
    return outputs


def _require_aligned(control: CausalSignal, inputs: Sequence[CausalSignal]) -> None:
    if any(sig.t != control.t for sig in inputs):
        raise SimulationError("control and input signals must share the current tick")


def dff_output(control: CausalSignal, data: CausalSignal) -> Optional[str]:
    """Data value at the latest positive clock edge, or ``None`` before any edge."""
    _require_aligned(control, (data,))
    image = dff_reads(control)
    if image is None:
        return None
    _, tick = image[0]
    return data.samples[tick]


def sr_output(set_signal: CausalSignal, reset_signal: CausalSignal) -> Optional[str]:
    """Level-sensitive set/reset latch; (0,0) holds the previous output."""
    if set_signal.t != reset_signal.t:
        raise SimulationError("set and reset signals must share the current tick")
    q: Optional[str] = None
    for s, r in zip(set_signal.samples, reset_signal.samples):
        if (s, r) == ("1", "0"):
            q = "1"
        elif (s, r) in (("0", "1"), ("1", "1")):
            q = "0"
        elif (s, r) != ("0", "0"):
            raise SimulationError(f"latch inputs ({s!r}, {r!r}) are not bits")
    return q


def sync_output(block: Block, control: CausalSignal, inputs: Sequence[CausalSignal]) -> str:
    """Run the register block over all edges of ``control`` and emit the output.

    ``block`` is (initial register bits, next_state, output_fn), as
    :func:`reference_block_spec` returns it.
    """
    _require_aligned(control, inputs)
    state, next_state, output_fn = block
    for u in sorted(posedges(control)):
        state = next_state(state, tuple(sig.samples[u] for sig in inputs))
    return output_fn(state, tuple(sig.samples[control.t] for sig in inputs))


def multiclock_output(
    blocks: Sequence[Block], control: CausalSignal, inputs: Sequence[Sequence[CausalSignal]]
) -> tuple[str, ...]:
    """Run one register block per clock of a product control signal, one output each.

    ``blocks`` and ``inputs`` give each domain's block and data signals, in the
    order of the clock samples in a control symbol.  Every clock is checked
    before any domain runs.
    """
    _require_aligned(control, [sig for domain in inputs for sig in domain])
    edges = [
        _clock_edges([split_symbol(s)[k] for s in control.samples]) for k in range(len(blocks))
    ]
    outputs = []
    for (state, next_state, output_fn), signals, ticks in zip(blocks, inputs, edges):
        for u in sorted(ticks):
            state = next_state(state, tuple(sig.samples[u] for sig in signals))
        outputs.append(output_fn(state, tuple(sig.samples[control.t] for sig in signals)))
    return tuple(outputs)


@dataclass
class MemCell:
    """One memory cell; empty until its address is first written."""

    address: str
    content: Optional[tuple[str, Tick]] = None  # (value, last write tick)

    def write(self, value: str, tick: Tick) -> None:
        self.content = (value, tick)


def abmem_output(control: CausalSignal, data: CausalSignal) -> Optional[str]:
    """Value stored at the read address, or ``None`` if the read is undefined."""
    _require_aligned(control, (data,))
    cells = {addr: MemCell(addr) for addr in _ADDRESSES}
    read_addr = None
    for u, symbol in enumerate(control.samples):
        parts = split_symbol(symbol)
        if len(parts) != 2:
            raise SimulationError(f"memory control symbol {symbol!r} is not a pair")
        write_addr = parts[0]
        if write_addr in cells:
            cells[write_addr].write(data.samples[u], u)
        if u == control.t:
            read_addr = parts[1]
    if read_addr not in cells or cells[read_addr].content is None:
        return None
    return cells[read_addr].content[0]


def _component_signal(signal: CausalSignal, index: int) -> CausalSignal:
    """One binary component of a signal over a '/'-joined product alphabet."""
    parts = tuple(split_symbol(s)[index] for s in signal.samples)
    return CausalSignal(BINARY, parts)


def _mux_output(select: str, a_value: str, b_value: str) -> str:
    """Route one of two current inputs according to the select value."""
    if select == "a":
        return a_value
    if select == "b":
        return b_value
    raise SimulationError(f"select value {select!r} is not 'a' or 'b'")


def dff_evaluate(control: CausalSignal, inputs: Mapping[str, CausalSignal]) -> Optional[str]:
    return dff_output(control, inputs["D"])


def sr_evaluate(control: CausalSignal, inputs: Mapping[str, CausalSignal]) -> Optional[str]:
    return sr_output(_component_signal(control, 0), _component_signal(control, 1))


def mux_evaluate(control: CausalSignal, inputs: Mapping[str, CausalSignal]) -> str:
    t = control.t
    _require_aligned(control, (inputs["A"], inputs["B"]))
    return _mux_output(control.samples[t], inputs["A"].samples[t], inputs["B"].samples[t])


def abmem_evaluate(control: CausalSignal, inputs: Mapping[str, CausalSignal]) -> Optional[str]:
    return abmem_output(control, inputs["D"])


def sync_evaluator(block: Block, data_channels: Sequence[str]) -> EvalFn:
    def evaluate(control, inputs):
        return sync_output(block, control, tuple(inputs[c] for c in data_channels))

    return evaluate


def multiclock_evaluator(
    blocks: Sequence[Block], data_channels: Sequence[Sequence[str]]
) -> EvalFn:
    def evaluate(control, inputs):
        signals = [tuple(inputs[c] for c in domain) for domain in data_channels]
        return "/".join(multiclock_output(blocks, control, signals))

    return evaluate


def counter_evaluator(bits: int) -> EvalFn:
    """The built-in counter: its clock's edges so far modulo ``2 ** bits``, in binary."""

    def evaluate(control, inputs):
        _require_aligned(control, (inputs["D"],))
        return format(len(posedges(control)) % (1 << bits), f"0{bits}b")

    return evaluate


def toggler_pair_evaluate(control: CausalSignal, inputs: Mapping[str, CausalSignal]) -> str:
    """The built-in toggler pair: the parity of each clock's edges so far."""
    _require_aligned(control, (inputs["D1"], inputs["D2"]))
    return "/".join(str(len(posedges(_component_signal(control, k))) % 2) for k in (0, 1))


_FIXED_READS = {
    "dff": dff_reads,
    "mux": mux_reads,
    "abmem": abmem_reads,
}

_FIXED_KINDS = {
    "dff": dff_evaluate,
    "srlatch": sr_evaluate,
    "mux": mux_evaluate,
    "abmem": abmem_evaluate,
}


def _compile_expr(expr: BoolExpr, slots: dict[str, int]):
    """A function of the environment tuple; ``slots`` maps each name to its index."""
    if isinstance(expr, Lit):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Var):
        slot = slots[expr.name]
        return lambda env: env[slot]
    compiled = [_compile_expr(arg, slots) for arg in expr.args]
    if expr.op == "not":
        inner = compiled[0]
        return lambda env: "1" if inner(env) == "0" else "0"
    if expr.op == "and":
        return lambda env: "1" if all(f(env) == "1" for f in compiled) else "0"
    if expr.op == "or":
        return lambda env: "1" if any(f(env) == "1" for f in compiled) else "0"
    return lambda env: "1" if sum(f(env) == "1" for f in compiled) % 2 else "0"


def reference_block_spec(domain: DomainAst, where: str) -> Block:
    """The register block of a parsed domain, its logic as nested closures.

    ``where`` names the block in sample errors, which ``output_fn`` raises
    for the first input sample that is not a bit; ``next_state`` does not
    check its samples.
    """
    width, inputs = len(domain.init_bits), domain.inputs
    # The environment is the state vector followed by the input samples.
    slots = {f"q{i}": i for i in range(width)}
    slots.update((name, width + k) for k, name in enumerate(inputs))
    next_fns = [_compile_expr(expr, slots) for _, expr in domain.next_exprs]
    out_fns = [_compile_expr(expr, slots) for _, expr in domain.outputs]

    def step(state: tuple[str, ...], samples: tuple[str, ...]) -> tuple[str, ...]:
        env = state + samples
        return tuple([fn(env) for fn in next_fns])

    def out(state: tuple[str, ...], samples: tuple[str, ...]) -> str:
        for name, value in zip(inputs, samples):
            if value != "0" and value != "1":
                raise SimulationError(f"{where}: input {name!r} sample {value!r} is not a bit")
        env = state + samples
        return "".join([fn(env) for fn in out_fns])

    return tuple(domain.init_bits), step, out


def ast_evaluator(ast: CircuitAst) -> EvalFn:
    """The prefix evaluator a circuit description denotes, built the old way."""
    if ast.kind in _FIXED_KINDS:
        return _FIXED_KINDS[ast.kind]
    if ast.kind == "sync":
        (body,) = ast.domains
        return sync_evaluator(reference_block_spec(body, ast.name), body.inputs)
    blocks = [reference_block_spec(d, f"{ast.name}.{d.name}") for d in ast.domains]
    return multiclock_evaluator(blocks, [d.inputs for d in ast.domains])


# --- randomized checks: every trial folded in full ------------------------------

def _outputs(
    element: CircuitElement, symbols: Sequence[str], columns: Sequence[Sequence[str]]
) -> list[Optional[str]]:
    """The output at every tick: ``step`` applied tick by tick from ``init``."""
    state, outputs = element.init, []
    for t, symbol in enumerate(symbols):
        state, output = element.step(state, symbol, tuple(column[t] for column in columns))
        outputs.append(output)
    return outputs


def _random_streams(
    rng: random.Random, alphabets: Sequence[Alphabet], length: int
) -> list[tuple[str, ...]]:
    """One random column per alphabet: the control symbols, then the input columns."""
    return [tuple(rng.choice(a.values) for _ in range(length)) for a in alphabets]


def read_soundness_check(
    element: CircuitElement, horizon: int, trials: int, seed: int
) -> ReadSoundnessReport:
    """Read soundness with both runs of a trial folded over ticks 0..t from tick 0."""
    if element.read_step is None:
        raise ValueError(f"circuit {element.name!r} has no read map")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    alphabets = _stream_alphabets(element)
    rng = random.Random(seed)
    mutations = undefined = unmutable = violations = 0
    for _ in range(trials):
        control, *columns = _random_streams(rng, alphabets, horizon + 1)
        t = rng.randint(0, horizon)
        symbols = control[: t + 1]
        refs = read_fold(element, symbols)[1]
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
        columns = [column[: t + 1] for column in columns]
        baseline = _outputs(element, symbols, columns)[-1]
        k, u, alphabet = free[rng.randrange(len(free))]
        old = columns[k][u]
        new = rng.choice([v for v in alphabet.values if v != old])
        columns[k] = (*columns[k][:u], new, *columns[k][u + 1:])
        mutations += 1
        if _outputs(element, symbols, columns)[-1] != baseline:
            violations += 1
    return ReadSoundnessReport(trials, mutations, undefined, unmutable, violations)


def causality_check(
    element: CircuitElement, horizon: int, trials: int, seed: int
) -> CausalityReport:
    """Causality with both runs of a trial folded over every tick 0..horizon.

    Only a stream whose alphabet has two or more values is mutated.
    """
    if horizon < 1:
        raise ValueError("causality needs a horizon of at least 1")
    alphabets = _stream_alphabets(element)
    mutable = [k for k, alphabet in enumerate(alphabets) if len(alphabet) > 1]
    rng = random.Random(seed)
    mutations = violations = 0
    for _ in range(trials):
        streams = _random_streams(rng, alphabets, horizon + 1)
        before = _outputs(element, streams[0], streams[1:])
        m = rng.randint(1, horizon)
        if not mutable:
            continue
        pick = mutable[rng.randrange(len(mutable))]
        samples = list(streams[pick])
        samples[m] = rng.choice([v for v in alphabets[pick].values if v != samples[m]])
        streams[pick] = samples
        after = _outputs(element, streams[0], streams[1:])
        mutations += 1
        if before[:m] != after[:m]:
            violations += 1
    return CausalityReport(trials, mutations, violations)


# --- exact read sets -------------------------------------------------------------

def essential_reads(element: CircuitElement, control: CausalSignal) -> ReadSet:
    """The input samples whose change alone can move the output at ``control``'s last tick.

    ``step`` is folded over ``control`` with every assignment of the input
    samples at ticks 0..t, and a sample is essential when some assignment's
    output changes with that sample alone.  The output is a function of the
    samples, and this is the smallest set that determines it, so a sound
    read set holds it and an exact one equals it.  The cost is exponential
    in the inputs times the ticks.
    """
    symbols, ticks = control.samples, control.t + 1
    positions = [(name, u, alphabet) for name, alphabet in element.input_channels
                 for u in range(ticks)]
    outputs = {}
    for values in itertools.product(*(alphabet.values for _, _, alphabet in positions)):
        columns = [values[k: k + ticks] for k in range(0, len(values), ticks)]
        outputs[values] = _outputs(element, symbols, columns)[-1]
    return ReadSet(tuple(
        (name, u)
        for p, (name, u, alphabet) in enumerate(positions)
        if any(outputs[(*values[:p], v, *values[p + 1:])] != output
               for values, output in outputs.items() for v in alphabet.values)
    ))


# --- the stimulus reader, row by row -------------------------------------------

def read_stimulus(path: str, element: CircuitElement) -> tuple[list[str], dict[str, list[str]]]:
    """The control symbols and the input columns of a stimulus CSV, read in one pass.

    Each line, and the lines of each row, are read with the same bound on
    their length as ``kcir simulate`` reads them.  The text-mode file decodes
    ``cli.STIMULUS_CHUNK_BYTES`` bytes at a time, as ``kcir simulate`` does, so
    both name an undecodable byte at the same position.  That constant and
    ``cli.MAX_SAMPLES`` are looked up at each call, so a test may lower them.
    """
    cells = 1 + len(set(element.control_channels) | set(element.input_names))
    bound = cells * (2 * csv.field_size_limit() + 3) + 1
    row_chars = 0  # characters read since the last row csv returned

    def lines(handle):
        nonlocal row_chars
        for number, line in enumerate(iter(functools.partial(handle.readline, bound + 1), ""), 1):
            if len(line) > bound:
                raise UsageError(
                    f"stimulus line {number} is longer than the limit of {bound:,} characters"
                )
            row_chars += len(line)
            if row_chars > bound:
                raise UsageError(
                    f"stimulus line {number} takes its row past the limit of {bound:,} characters"
                )
            yield line

    def rows(reader):
        nonlocal row_chars
        for row in reader:
            row_chars = 0
            if row:
                yield row

    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            handle._CHUNK_SIZE = cli.STIMULUS_CHUNK_BYTES
            return stimulus_columns(rows(csv.reader(lines(handle))), element)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def stimulus_columns(
    rows: Iterable[list[str]], element: CircuitElement
) -> tuple[list[str], dict[str, list[str]]]:
    """Validate the non-blank ``rows`` of a stimulus one at a time, as they are read.

    Each cell is stripped once, and each tick's control symbol is joined and
    checked against the control alphabet.  The row that takes the stimulus
    past ``cli.MAX_SAMPLES`` samples is refused.
    """
    rows = iter(rows)
    header = [cell.strip() for cell in next(rows, ())]
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
    alphabet = element.control_alphabet
    control: list[str] = []
    inputs: dict[str, list[str]] = {name: [] for name in element.input_names}
    max_rows = cli.MAX_SAMPLES // len(columns)
    for i, row in enumerate(rows, 1):
        if i > max_rows:
            raise UsageError(
                f"stimulus row {i} takes it past the limit of {cli.MAX_SAMPLES:,} samples "
                f"({len(columns)} channels per tick)"
            )
        cells = [cell.strip() for cell in row]
        if len(cells) != len(header):
            raise UsageError(f"stimulus row {i} has {len(cells)} cells, expected {len(header)}")
        try:
            tick = int(cells[0])
        except ValueError:
            raise UsageError(f"stimulus row {i} has non-integer tick {cells[0]!r}") from None
        if tick != i - 1:
            raise UsageError(
                f"stimulus ticks must be contiguous from 0: row {i} has tick {tick}"
            )
        symbol = "/".join(cells[k] for k in control_at)
        if symbol not in alphabet.values:
            raise UsageError(
                f"control value {symbol!r} is not in the circuit's control alphabet "
                f"{alphabet.values!r}"
            )
        control.append(symbol)
        for name in element.input_names:
            inputs[name].append(cells[at[name]])
    if not control:
        raise UsageError("stimulus must contain at least one row")
    return control, inputs


def simulate(
    element: CircuitElement, evaluate: EvalFn, path: str, allow_undef: bool
) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``kcir simulate`` over the stimulus at ``path``.

    The stimulus is read whole by :func:`read_stimulus`, and the output at
    each tick is ``evaluate`` on the prefixes at that tick.
    """
    try:
        outputs = output_stream(element, evaluate, *read_stimulus(path, element))
    except (UsageError, SimulationError) as exc:
        return 2, "", f"error: {exc}\n"
    if None in outputs and not allow_undef:
        return 3, "", (f"error: output undefined at tick {outputs.index(None)}; "
                       "rerun with --allow-undef to emit UNDEF entries\n")
    text = "".join(f"{t},{cli.UNDEF if value is None else value}\n"
                   for t, value in enumerate(outputs))
    return 0, "tick,output\n" + text, ""
