"""Read maps, partial-order axioms, and the verdict engine.

A read map tells, for each control-signal history, which input samples a
circuit actually consumes to produce its current output.  Pushing the prefix
order on control signals through a read map yields a relation on read sets.
If that relation is a partial order, the circuit's read structure embeds the
order of time itself and the circuit is *time-preserving*; if antisymmetry
fails there is a concrete four-signal witness proving no order-preserving
arrangement of read sets can exist.

The classifier is exhaustive up to a finite horizon and fully deterministic.
It walks the prefix tree of control histories once, level by level, stepping
each history's read state from its parent's with the circuit's ``read_step``
(one step per tree node; no history is rebuilt or rescanned).  Read sets are
interned to ints, the axioms are checked on those ints, and witnesses are the
lexicographic minimum under the signal order of
:meth:`kcir.signals.CausalSignal.sort_key`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Collection, Iterable, Optional, Sequence

from .signals import CausalSignal, Tick, history_count, prefix_leq, signal_at

if TYPE_CHECKING:  # pragma: no cover
    from .circuits import CircuitElement


ChannelId = str

#: Plain ``(channel, tick)`` pairs, sorted and duplicate-free: the form a read
#: step reports a read set in.  Plain tuples order like :class:`ReadSet` refs.
Refs = tuple[tuple[ChannelId, Tick], ...]


def refs_text(refs: Iterable[tuple[ChannelId, Tick]]) -> str:
    """``{(D,0), (D,3)}``: the text form of a read set."""
    return "{" + ", ".join(f"({channel},{tick})" for channel, tick in refs) + "}"


@dataclass(frozen=True, order=True)
class RefPoint:
    """One channel-tagged tick an output depends on."""

    channel: ChannelId
    tick: Tick


@dataclass(frozen=True, order=True)
class ReadSet:
    """A finite set of reference points, stored sorted for structural equality."""

    refs: tuple[RefPoint, ...] = ()

    def __post_init__(self) -> None:
        refs = tuple(self.refs)
        if len(refs) > 1:  # a single ref is already sorted and unique
            refs = tuple(sorted(set(refs)))
        object.__setattr__(self, "refs", refs)

    @classmethod
    def of(cls, *refs: tuple[ChannelId, Tick]) -> "ReadSet":
        return cls(tuple(RefPoint(channel, tick) for channel, tick in refs))

    def __str__(self) -> str:
        return refs_text((r.channel, r.tick) for r in self.refs)


#: A read map sends a control history to the read set it induces, or ``None``
#: when the circuit's output is undefined for that history.
ReadMap = Callable[[CausalSignal], Optional[ReadSet]]

#: A read step advances a read state by one control symbol at a tick and
#: returns the new state with the refs read at that tick (``None`` when the
#: output is undefined there).  Folding it over a history from the element's
#: ``read_init`` gives the read set of that history.
ReadStepFn = Callable[[Any, str, Tick], tuple[Any, Optional[Refs]]]


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the three partial-order axioms, with witnesses on failure.

    A witness field is populated exactly when its axiom is false, and holds
    the lexicographically smallest counterexample.
    """

    reflexive: bool
    antisymmetric: bool
    transitive: bool
    reflexivity_witness: Optional[ReadSet] = None
    antisymmetry_witness: Optional[tuple[ReadSet, ReadSet]] = None
    transitivity_witness: Optional[tuple[ReadSet, ReadSet, ReadSet]] = None

    @property
    def is_partial_order(self) -> bool:
        return self.reflexive and self.antisymmetric and self.transitive


def _axiom_report(
    images: Sequence[ReadSet], nodes: Iterable[int], pairs: Collection[tuple[int, int]]
) -> AxiomReport:
    """The three axioms on read sets named by their index in sorted ``images``.

    Index order is read-set order, so scanning ``nodes`` (ascending) and
    ``pairs`` in int order meets the same smallest counterexamples as scanning
    the read sets themselves, at the cost of int hashing and comparison.  All
    three axioms are checked outright, none is assumed to hold by construction.
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


@dataclass(frozen=True)
class AntisymmetryWitness:
    """Two prefix-ordered signal pairs whose read sets swap.

    ``a0 <= a1`` and ``b0 <= b1`` under the prefix order, while the read map
    sends a0 and b1 to ``x_reads`` and a1 and b0 to ``y_reads`` with
    ``x_reads != y_reads``.  Any order on read sets that respects both pairs
    would have to order x and y both ways, so no partial order on the image
    can make the read map order-preserving.
    """

    a0: CausalSignal
    a1: CausalSignal
    b0: CausalSignal
    b1: CausalSignal
    x_reads: ReadSet
    y_reads: ReadSet

    def holds(self, read_map: ReadMap) -> bool:
        """Re-evaluate the read map on the stored signals and re-check everything."""
        if not (prefix_leq(self.a0, self.a1) and prefix_leq(self.b0, self.b1)):
            return False
        if self.x_reads == self.y_reads:
            return False
        return (
            read_map(self.a0) == self.x_reads
            and read_map(self.b1) == self.x_reads
            and read_map(self.a1) == self.y_reads
            and read_map(self.b0) == self.y_reads
        )


class Verdict(enum.Enum):
    TIME_PRESERVING = "time-preserving"
    NOT_TIME_PRESERVING = "not-time-preserving"
    NOT_FUNDAMENTAL_FORM = "not-fundamental-form"


@dataclass(frozen=True)
class ClassifyStats:
    horizon: int
    signals: int
    relation_pairs: int
    distinct_read_sets: int
    excluded_undefined: int
    degenerate_horizon: bool


@dataclass(frozen=True)
class Classification:
    """Verdict plus the evidence that produced it."""

    verdict: Verdict
    axiom_report: Optional[AxiomReport]
    witness: Optional[AntisymmetryWitness]
    stats: ClassifyStats


def _walk_prefix_tree(
    read_init: Any, read_step: ReadStepFn, symbols: Sequence[str], horizon: int
) -> tuple[list[Refs], list[dict[int, tuple[int, int]]], int]:
    """Push the prefix order through a read step in one pass over the tree.

    Signals are named by their index in ``sort_key`` order over ``symbols``,
    the index :func:`kcir.signals.signal_at` decodes; a node's children are
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
    parents: list[tuple[Any, dict[int, int], set[int], int]] = [(read_init, {}, set(), 0)]
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


def classify(circuit: "CircuitElement", horizon: int) -> Classification:
    """Exhaustively classify ``circuit`` over control histories up to ``horizon``.

    A circuit without a read map cannot be split into a controlling and a
    restricted input part, so it is reported as not-fundamental-form without
    enumeration.  Otherwise every control history up to the horizon is
    visited once, in one walk over the prefix tree that steps the circuit's
    read state from parent to child and pushes the prefix relation through
    it, and the partial-order axioms decide the verdict.  An antisymmetry
    failure always comes with a re-checkable witness; a failure of any other
    axiom is reported through the axiom report alone.

    A horizon below 1 admits no clock edges; the verdict is still computed
    but flagged degenerate in the stats.
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
    # Rank the images once; from here on an image is its rank.
    order = sorted(range(len(refs)), key=refs.__getitem__)
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    images = [ReadSet.of(*refs[i]) for i in order]
    best = {
        (rank[x], rank[y]): sources for y, row in enumerate(rows) for x, sources in row.items()
    }
    report = _axiom_report(images, range(len(images)), best)
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
