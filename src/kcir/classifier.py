"""Read maps, derived relations, partial-order axioms, and the verdict engine.

A read map tells, for each control-signal history, which input samples a
circuit actually consumes to produce its current output.  Pushing the prefix
order on control signals through a read map yields a derived relation on read
sets.  If that relation is a partial order, the circuit's read structure
embeds the order of time itself and the circuit is *time-preserving*; if
antisymmetry fails there is a concrete four-signal witness proving no
order-preserving arrangement of read sets can exist.

The classifier is exhaustive up to a finite horizon and fully deterministic.
It walks the prefix tree of control histories once, level by level, calling
the read map once per history; witnesses are the lexicographic minimum under
the signal order of :meth:`kcir.signals.CausalSignal.sort_key`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from .signals import CausalSignal, Tick, enumerate_causal_signals, prefix_leq

if TYPE_CHECKING:  # pragma: no cover
    from .circuits import CircuitElement


ChannelId = str


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

    def max_tick(self) -> Optional[Tick]:
        return max((r.tick for r in self.refs), default=None)

    def __str__(self) -> str:
        inner = ", ".join(f"({r.channel},{r.tick})" for r in self.refs)
        return "{" + inner + "}"


#: A read map sends a control history to the read set it induces, or ``None``
#: when the circuit's output is undefined for that history.
ReadMap = Callable[[CausalSignal], Optional[ReadSet]]


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


def check_partial_order(relation: DerivedRelation) -> AxiomReport:
    """Check reflexivity, antisymmetry, and transitivity of a derived relation.

    All three axioms are verified outright; nothing is assumed to hold by
    construction.  Failing witnesses are chosen by scanning nodes and pairs in
    sorted order, so reruns always report the same counterexample.
    """
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
    read_map: ReadMap, signals: list[CausalSignal], width: int, horizon: int
) -> tuple[list[ReadSet], dict[tuple[int, int], tuple[int, int]], int]:
    """Push the prefix order through ``read_map`` in one pass over the tree.

    ``signals`` must be :func:`enumerate_causal_signals` output over an
    alphabet of ``width`` symbols, so a signal is named by its index, index
    order is ``sort_key`` order, and the parent of in-level index ``j`` is
    in-level index ``j // width`` one level up.  Read sets are interned to ids
    in order of first sight.

    Returns the interned read sets, the smallest source pair ``(a, b)`` of
    signal indices for every ordered image pair ``(x, y)`` of read-set ids,
    and the number of prefix pairs with an undefined endpoint.
    """
    ids: dict[ReadSet, int] = {}
    best: dict[tuple[int, int], tuple[int, int]] = {}
    excluded = 0
    # Per node: (ancestor-or-self image id -> smallest source index, image ids
    # already emitted under that map, undefined ancestors-or-self).  A map is
    # never changed once built, so a node whose image is in its parent's map
    # shares it; a later node under the same map with an already emitted
    # image offers only larger sources for the same pairs and emits nothing.
    parents: list[tuple[dict[int, int], set[int], int]] = [({}, set(), 0)]
    b = 0
    for t in range(horizon + 1):
        level = []
        for j in range(width ** (t + 1)):
            sources, done, undefined = parents[j // width]
            image = read_map(signals[b])
            if image is None:
                excluded += t + 1
                undefined += 1
            else:
                excluded += undefined
                y = ids.setdefault(image, len(ids))
                if y not in sources:
                    sources = {**sources, y: b}
                    done = set()
                if y not in done:
                    done.add(y)
                    for x, a in sources.items():
                        current = best.get((x, y))
                        if current is None or a < current[0]:
                            best[x, y] = (a, b)
            level.append((sources, done, undefined))
            b += 1
        parents = level
    return list(ids), best, excluded


def classify(circuit: "CircuitElement", horizon: int) -> Classification:
    """Exhaustively classify ``circuit`` over control histories up to ``horizon``.

    A circuit without a read map cannot be split into a controlling and a
    restricted input part, so it is reported as not-fundamental-form without
    enumeration.  Otherwise all control signals up to the horizon are
    enumerated, the prefix relation is pushed through the read map in one
    walk over the prefix tree, and the partial-order axioms decide the
    verdict.  An antisymmetry failure always comes with a re-checkable
    witness; a failure of any other axiom is reported through the axiom
    report alone.

    A horizon below 1 admits no clock edges; the verdict is still computed
    but flagged degenerate in the stats.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    degenerate = horizon < 1

    if circuit.reads is None:
        stats = ClassifyStats(horizon, 0, 0, 0, 0, degenerate)
        return Classification(Verdict.NOT_FUNDAMENTAL_FORM, None, None, stats)

    width = len(circuit.control_alphabet)
    signals = enumerate_causal_signals(circuit.control_alphabet, horizon)
    images, best, excluded = _walk_prefix_tree(circuit.reads, signals, width, horizon)
    derived = DerivedRelation(
        frozenset(images),
        frozenset((images[x], images[y]) for x, y in best),
        excluded,
    )
    report = check_partial_order(derived)
    stats = ClassifyStats(
        horizon=horizon,
        signals=len(signals),
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
        a0, a1, b0, b1 = (signals[i] for i in sources)
        witness = AntisymmetryWitness(a0, a1, b0, b1, images[x], images[y])
    return Classification(Verdict.NOT_TIME_PRESERVING, report, witness, stats)
