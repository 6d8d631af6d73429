"""Read maps, partial-order axioms, and the verdict engine.

A read map tells, for each control-signal history, which input samples a
circuit actually consumes to produce its current output.  Pushing the prefix
order on control signals through a read map yields a relation on read sets.
If that relation is a partial order, the circuit's read structure embeds the
order of time itself and the circuit is *time-preserving*; if antisymmetry
fails there is a concrete four-signal witness proving no order-preserving
arrangement of read sets can exist.

The classifier is exhaustive up to a finite horizon and fully deterministic.
This docstring is the one description of how :func:`classify` decides; the
docstrings of the functions and classes below, the package docstring and
the README state their own contracts and point here.

1. *The walk.*  The control histories up to the horizon are walked as a DAG
   of read states, level by level.  A read step sees only the state, the
   symbol and the tick, so the histories of one length that reach one read
   state have the same futures, whatever refs they end with: they are one
   node, and its expansion steps the state once per symbol with the
   circuit's ``read_step``, however many histories reach it.  Each step is
   an edge from the node to the node of the new state, and it holds the
   step's image, the read set of its refs, or none where the output is
   undefined.  A history is the path of edges it steps along from the root,
   ``read_init`` above level 0, and its image is on its last edge.  Nodes
   and edges are numbered in the order the walk meets them: level by level,
   parents in order, symbols in alphabet order.  So both follow the
   :meth:`~kcir.signals.CausalSignal.sort_key` order of their smallest
   histories, the first edge into a node lies on its smallest history, and
   every edge out of a node comes after every edge into it.  The walk also
   counts the histories per read state exactly, for the prefix pairs with
   an undefined endpoint.
2. *The numbering.*  Read sets are interned to ids as the walk meets them
   and then numbered once, by rank in sorted order.
3. *The sweep.*  The prefix order carries an image to exactly the images
   on the edges below an edge holding it.  One reverse sweep over the edges
   collects the images below each node as a bit set over the ranks, the
   images and the sets of the nodes its edges reach, and joins a defined
   edge's image and the set of the node it reaches into the set of that
   image: the derived relation, as the images after each image.
4. *The axioms.*  Reflexivity, antisymmetry and transitivity are checked
   on those bit sets, outright, none assumed to hold by construction.
   Reflexivity fails at x if x is not after x.  When the related pairs
   outnumber the DAG's edges, transitivity is first decided on the edges,
   in one reverse pass over them: the relation is transitive exactly when
   the set of the node each defined edge of image x reaches lies inside the
   set after x, a node's set being the union over its edges of the set
   after a defined edge's image and the set of the node an undefined edge
   reaches.  Along any path the sets then only shrink, which is the
   condition on the pairs.  A reflexive, transitive relation relates x and
   y both ways exactly when their sets are equal, so the images related
   both ways are then read off the images grouped by their sets, and no
   related pair is visited.  Otherwise, and for a relation the pass finds intransitive,
   every related pair is scanned: for each y after x other than x, x and y
   are related both ways if x is after y, and transitivity fails if some
   image after y is not after x.  Either way the check returns, with its
   report, the images related both ways to each image, and antisymmetry
   fails exactly when some image has one.  Each failed axiom's witness is
   its smallest counterexample by rank, the one a scan of the sorted read
   sets meets first: the first x related both ways to another image, then
   the smallest such y, or the first intransitive pair the scan meets.  An
   antisymmetry failure also gets a four-signal witness, the lexicographic
   minimum under the signal order.  One breadth-first search over the
   DAG finds each of its four signals, starting from the images related
   both ways: from the root it meets the edges in id order, along each
   edge's smallest history, and below a node it meets the shortest, then
   smallest, paths first.  The witness is re-checked on the fold of the
   read step before it is returned; it fails when the read step returns
   refs that are not sorted and duplicate-free, so that two refs make one
   read set, and ``classify`` then raises ``ValueError``.
5. *The budgets.*  Each stage's budget is checked where its count grows:
   read steps and refs after each expanded read state (``WALK_BUDGET``),
   which charges each expansion once, its symbols plus the refs its steps
   return; read states times read sets after each level
   (``SWEEP_BUDGET``); and related pairs times read sets after the sweep
   (``AXIOM_BUDGET``), only when the pairs are to be scanned; a relation
   found transitive on the edges is not charged.  A run past one raises
   :class:`BudgetError` naming the level the walk reached.
6. *The per-domain route.*  A multiclock circuit whose read step carries
   its clock domains, made for its own ``read_init``, is classified as
   those domains first, each walked as above on its own clock's symbols
   "0" and "1".  When the domains read no channel in common, as the parser
   ensures for a file, a joint read set is the union of one read set per
   domain at the same tick.  If every domain's walk shows four things, the
   joint relation is a partial order and a joint read set names its tick
   and its parts: its read sets name no channel an earlier domain's do,
   its relation is a partial order, its output is never undefined, and
   every image of a domain that reads has its latest ref at the tick of
   its level.  A domain whose only read set is the empty one reads nothing
   and drops out.  The circuit is then time-preserving with Σₜ Πᵢ nᵢ(t)
   joint images, nᵢ(t) counting domain i's images at tick t over the
   domains that read (one image in all when none does): one small walk per
   domain replaces the walk over the product of their clocks, whose nodes
   grow as the product of theirs.  If any of the four fails, the joint
   histories are walked as above, so every report and witness of a circuit
   that is not time-preserving comes from the joint walk.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple, Optional, Sequence

from .signals import BINARY, CausalSignal, Tick, history_count, prefix_leq, prefix_pair_count

if TYPE_CHECKING:  # pragma: no cover
    from .circuits import CircuitElement


ChannelId = str

#: The ``(channel, tick)`` pairs read at a tick, sorted and duplicate-free, as
#: a read step returns them.  A :class:`ReadSet` is this tuple, so the refs of
#: a read step and the read set they make equal, hash and order alike.
Refs = tuple[tuple[ChannelId, Tick], ...]


def refs_text(refs: Iterable[tuple[ChannelId, Tick]]) -> str:
    """``{(D,0), (D,3)}``: the text form of a read set."""
    return "{" + ", ".join(f"({channel},{tick})" for channel, tick in refs) + "}"


class RefPoint(NamedTuple):
    """One channel-tagged tick an output depends on: a ``(channel, tick)`` pair."""

    channel: ChannelId
    tick: Tick


class ReadSet(tuple):
    """A finite set of reference points: the tuple of its refs, sorted and unique.

    A read set is its sorted refs, so it equals, hashes and orders like the
    plain :data:`Refs` tuple a read step returns for it, and iterating it
    gives its ``(channel, tick)`` pairs.
    """

    __slots__ = ()

    def __new__(cls, refs: Iterable[tuple[ChannelId, Tick]] = ()) -> "ReadSet":
        return super().__new__(cls, sorted(set(refs)))

    @classmethod
    def of(cls, *refs: tuple[ChannelId, Tick]) -> "ReadSet":
        return cls(refs)

    def __str__(self) -> str:
        return refs_text(self)


#: The budgets of the walk (read steps plus the refs they return, each
#: expansion charged once; abmem at horizon 60 takes 1.1·10^6), the sweep
#: (read states times read sets, the bits of its bit sets; 2**31 bits is
#: 256 MB) and the axiom check's pair scan (related pairs times read sets,
#: charged only where the pairs are scanned; dff at horizon 600 takes
#: 1.1·10^8); see step 5 of the module docstring.
WALK_BUDGET = 4_000_000
SWEEP_BUDGET = 2**31
AXIOM_BUDGET = 5 * 10**10


class BudgetError(ValueError):
    """A classification refused for passing a budget; it names the level the walk reached."""

    def __init__(self, level: int, horizon: int, reason: str) -> None:
        super().__init__(f"classify stopped at level {level:,} of {horizon:,}: {reason}")


#: A read map sends a control history to the read set it induces, or ``None``
#: when the circuit's output is undefined for that history.
ReadMap = Callable[[CausalSignal], Optional[ReadSet]]

#: A read step advances a read state by one control symbol at a tick and
#: returns the new state with the refs read at that tick (``None`` when the
#: output is undefined there).  Folding it over a history from the element's
#: ``read_init`` gives the read set of that history.
ReadStepFn = Callable[[Any, str, Tick], tuple[Any, Optional[Refs]]]


def fold_refs(read_init: Any, read_step: ReadStepFn, symbols: Iterable[str]) -> Optional[Refs]:
    """The refs at the last of ``symbols``: ``read_step`` folded over them from tick 0.

    A read step may carry ``fold = (init, fn)``, a one-pass ``fn(symbols)``
    equal to this fold from ``init``; it is used only when ``init`` is
    ``read_init``'s equal, and otherwise the read step is stepped.
    """
    init, fold = getattr(read_step, "fold", (None, None))
    if fold is not None and init == read_init:
        return fold(symbols)
    state, refs = read_init, None
    for tick, symbol in enumerate(symbols):
        state, refs = read_step(state, symbol, tick)
    return refs


def fold_reads(read_init: Any, read_step: ReadStepFn) -> ReadMap:
    """The read map of a read step, marked as a fold by ``folds``: the pair it folds.

    A :class:`~kcir.circuits.CircuitElement`'s ``reads`` is this fold, and
    :func:`classify` re-checks an antisymmetry witness on it.
    """

    def reads(control: CausalSignal) -> Optional[ReadSet]:
        refs = fold_refs(read_init, read_step, control.samples)
        return None if refs is None else ReadSet(refs)

    reads.folds = (read_init, read_step)
    return reads


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
    images: Sequence[Refs], after: Sequence[int], transitive: bool = False
) -> tuple[AxiomReport, list[int]]:
    """The three axioms on the relation that holds ``(x, y)`` when ``y`` is in ``after[x]``.

    Images are named by their index into ``images``, the refs of the read
    sets, and ``after[x]`` is the bit set of the images x is related to.
    Returns the report and ``swapped``, where ``swapped[x]`` is the bit set
    of the images other than x related to x both ways, the table that
    ``classify``'s four-signal witness search starts from; the antisymmetry
    witness is the first x with such an image and the smallest of them.
    Each witness is the smallest counterexample by index, built as
    :class:`ReadSet` values; the three booleans do not depend on the
    numbering.  ``transitive`` tells that the relation is known to be
    transitive: if it is also reflexive, x and y are related both ways
    exactly when their sets are equal, and no related pair is visited.
    This is step 4 of the module docstring.
    """
    refl = next((x for x, mask in enumerate(after) if not mask >> x & 1), None)
    swapped = [0] * len(after)
    trans = None
    if transitive and refl is None:
        groups: dict[int, list[int]] = {}
        for x, mask in enumerate(after):
            groups.setdefault(mask, []).append(x)
        for group in groups.values():
            if len(group) > 1:
                members = sum(1 << y for y in group)
                for x in group:
                    swapped[x] = members & ~(1 << x)
    else:
        for x, mask in enumerate(after):
            bit = 1 << x
            for y in _members(mask & ~bit):
                later = after[y]
                if later & bit:
                    swapped[x] |= 1 << y
                if trans is None and later | mask != mask:
                    missing = later & ~mask
                    trans = (x, y, (missing & -missing).bit_length() - 1)
    anti = next(((x, (ys & -ys).bit_length() - 1) for x, ys in enumerate(swapped) if ys), None)

    report = AxiomReport(
        reflexive=refl is None,
        antisymmetric=anti is None,
        transitive=trans is None,
        reflexivity_witness=None if refl is None else ReadSet(images[refl]),
        antisymmetry_witness=None if anti is None else tuple(ReadSet(images[i]) for i in anti),
        transitivity_witness=None if trans is None else tuple(ReadSet(images[i]) for i in trans),
    )
    return report, swapped


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


def _members(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    bits = bin(mask)[:1:-1]  # lowest bit first
    members = []
    i = bits.find("1")
    while i >= 0:
        members.append(i)
        i = bits.find("1", i + 1)
    return members


class _ReadStateDag:
    """The control histories up to a horizon, merged by read state, as one node table.

    Building it runs steps 1 to 3 of the module docstring, the walk, the
    numbering and the sweep, and the edge pass of step 4 where it applies,
    under the budgets of step 5.  A node is one read state at one level, and
    a history is the path of edges from the root, node 0, that it steps
    along; the image of a history is on its last edge.

    Edge ``e = h·k + a`` is the step from node h by the a-th of the k
    ``symbols``: ``child[e]`` is the node it reaches and ``image[e]`` the
    image id of its refs, -1 where undefined.  The histories of length
    t + 1 end on the edges below ``ends[t]`` and from ``ends[t - 1]`` on.
    ``refs`` holds the read sets' refs in sorted order, and an image id is
    its index there.  ``met[h]`` is the first edge that reached node h, the
    last edge of its smallest history (-1 for the root), at which the edge
    pass frees h's set, and ``reach[h]`` the bit set of the images on the
    edges below it, which after the sweep only :meth:`path`, the witness
    search, reads.  ``after[x]`` is the bit set of the images that some
    history holding image x reaches, the derived relation.
    ``excluded`` counts the prefix pairs with an undefined endpoint, and
    ``transitive`` is true when the edge pass found the relation transitive
    (false when it was not run, the pairs being no more than the edges).
    """

    def __init__(
        self, read_init: Any, read_step: ReadStepFn, symbols: Sequence[str], horizon: int
    ) -> None:
        ids: dict[Refs, int] = {}
        child: list[int] = []
        image: list[int] = []
        met = [-1]
        ends: list[int] = []
        excluded = work = 0
        # A level's index maps each read state to [the histories that reach
        # it, the sum over them of their undefined ancestors-or-self, its
        # node id], in the order of the ids.
        parents = {read_init: [1, 0, 0]}
        for t in range(horizon + 1):
            index: dict[Any, list] = {}
            for parent_state, (count, undefined, _) in parents.items():
                work += len(symbols)
                for symbol in symbols:
                    state, refs = read_step(parent_state, symbol, t)
                    if refs is None:
                        excluded += count * (t + 1)
                        child_undefined = undefined + count
                        image.append(-1)
                    else:
                        excluded += undefined
                        child_undefined = undefined
                        work += len(refs)
                        image.append(ids.setdefault(refs, len(ids)))
                    entry = index.get(state)
                    if entry is None:
                        entry = index[state] = [0, 0, len(met)]
                        met.append(len(child))
                    entry[0] += count
                    entry[1] += child_undefined
                    child.append(entry[2])
                if work > WALK_BUDGET:
                    raise BudgetError(t, horizon, f"over {WALK_BUDGET:,} read steps and refs")
            ends.append(len(child))
            if len(met) * len(ids) > SWEEP_BUDGET:
                raise BudgetError(t, horizon, f"{len(met):,} read states times {len(ids):,} "
                                  f"read sets need over {SWEEP_BUDGET:,} bits")
            parents = index
        del index, parents  # the last level's read states: the sweep needs none
        # Renumber the images by rank, so ids follow the sorted refs; -1 stays undefined.
        seen = list(ids)
        order = sorted(range(len(seen)), key=seen.__getitem__)
        rank = [0] * len(order) + [-1]
        for r, i in enumerate(order):
            rank[i] = r
        image = [rank[y] for y in image]
        self.symbols, self.child, self.image, self.met = symbols, child, image, met
        self.ends, self.excluded = ends, excluded
        self.refs = [seen[i] for i in order]

        # Every edge out of a node comes after every edge into it, so in
        # reverse a node's set is complete before an edge into it is read.
        k = len(symbols)
        self.reach = reach = [0] * len(met)
        self.after = after = [0] * len(ids)
        for e in range(len(child) - 1, -1, -1):
            y = image[e]
            mask = reach[child[e]]
            if y >= 0:
                mask |= 1 << y
                after[y] |= mask
            reach[e // k] |= mask
        # Decide transitivity on the edges when they are fewer than the related
        # pairs; the pair scan, and its budget, is left for the other relations.
        pairs = sum(mask.bit_count() for mask in after)
        self.transitive = pairs > len(child) and self.edges_transitive()
        if not self.transitive and pairs * len(after) > AXIOM_BUDGET:
            raise BudgetError(horizon, horizon, f"{pairs:,} related pairs times {len(after):,} "
                              f"read sets pass the axiom check's {AXIOM_BUDGET:,}")

    def edges_transitive(self) -> bool:
        """Whether the derived relation is transitive, decided on the edges (step 4).

        A node's set is the union over its edges of ``after`` of a defined
        edge's image and the set of an undefined edge's child, and the
        relation is transitive exactly when no defined edge's child has a
        set that leaves ``after`` of the edge's image.
        """
        child, image, after, met = self.child, self.image, self.after, self.met
        k = len(self.symbols)
        below = [0] * len(met)
        for e in range(len(child) - 1, -1, -1):
            y, c = image[e], child[e]
            if y < 0:
                below[e // k] |= below[c]
            elif below[c] | after[y] != after[y]:
                return False
            else:
                below[e // k] |= after[y]
            if met[c] == e:  # no edge the pass reads later reaches c
                below[c] = 0
        return True

    def path(
        self, h: int, keep: int, wanted: Callable[[int, int], Any]
    ) -> tuple[tuple[str, ...], int]:
        """(symbols, edge): the first defined edge below node ``h`` that ``wanted`` accepts.

        ``wanted(image, reach)`` sees the edge's image and the bit set of
        its child, and the symbols lead from ``h`` to it.  The search runs
        breadth-first from node ``h``, keeps the first path that reaches a
        node, and drops the nodes whose reach misses the bit set ``keep``,
        which must hold the image of every wanted edge.  So it meets the
        edges below a node shortest path first, then in the order of the
        paths, and from the root, node 0, in id order, along each edge's
        smallest history.
        """
        k, reach = len(self.symbols), self.reach
        frontier = {h: ()}
        while frontier:
            reached: dict[int, tuple[str, ...]] = {}
            for j, path in frontier.items():
                if not reach[j] & keep:
                    continue
                for e, symbol in enumerate(self.symbols, j * k):
                    y, c = self.image[e], self.child[e]
                    if y >= 0 and wanted(y, reach[c]):
                        return (*path, symbol), e
                    reached.setdefault(c, (*path, symbol))
            frontier = reached
        raise LookupError("no wanted edge below the node")


def _domain_image_counts(circuit: "CircuitElement", horizon: int) -> Optional[list[int]]:
    """The joint images per tick of a circuit classified as its clock domains, or ``None``.

    A multiclock circuit's read step carries ``domains``: the ``read_init``
    it starts from and one (read_init, read_step) per clock domain, each on
    its own clock's symbols "0" and "1".  This is the route of step 6 of the
    module docstring; it returns ``None``, and ``classify`` walks the joint
    histories, when one of its conditions fails or the element carries no
    domains for its own ``read_init`` and ``read_step``.
    """
    init, domains = getattr(circuit.read_step, "domains", (None, None))
    if domains is None or init != circuit.read_init:
        return None
    counts = [1] * (horizon + 1)
    reading = False
    channels: set[ChannelId] = set()  # the channels the domains walked so far read
    for read_init, read_step in domains:
        dag = _ReadStateDag(read_init, read_step, BINARY.values, horizon)
        report = _axiom_report(dag.refs, dag.after, dag.transitive)[0]
        if dag.excluded or not report.is_partial_order:
            return None
        own = {channel for refs in dag.refs for channel, _ in refs}
        if not channels.isdisjoint(own):
            return None
        channels |= own
        if dag.refs == [()]:
            continue
        start = 0
        for t, end in enumerate(dag.ends):
            level = set(dag.image[start:end])
            if any(max((tick for _, tick in dag.refs[y]), default=-1) != t for y in level):
                return None
            counts[t] *= len(level)
            start = end
        reading = True
    return counts if reading else [1]


def classify(circuit: "CircuitElement", horizon: int) -> Classification:
    """Exhaustively classify ``circuit`` over control histories up to ``horizon``.

    A circuit without a read map cannot be split into a controlling and a
    restricted input part, so it is reported as not-fundamental-form without
    a walk.  Otherwise it is time-preserving exactly when the prefix order of
    its control histories up to the horizon, carried through its read map,
    is a partial order on the read sets of the defined histories.  The axiom
    report names each failed axiom's smallest counterexample by read set,
    and an antisymmetry failure always comes with a re-checkable
    :class:`AntisymmetryWitness`, the lexicographic minimum over all
    histories; a failure of any other axiom is reported through the axiom
    report alone.  The module docstring describes how the verdict is
    reached: the walk, the numbering, the sweep, the axiom check and the
    per-domain route of a multiclock circuit.

    A circuit's read states must be hashable, since they key the DAG's
    nodes.  A horizon below 1 admits no clock edges; the verdict is still
    computed but flagged degenerate in the stats.  A run that passes the
    budget of its walk, sweep or pair scan raises :class:`BudgetError`, and
    one whose read step breaks the refs contract so that its witness does
    not hold raises :class:`ValueError`.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    degenerate = horizon < 1

    if circuit.read_step is None:
        stats = ClassifyStats(horizon, 0, 0, 0, 0, degenerate)
        return Classification(Verdict.NOT_FUNDAMENTAL_FORM, None, None, stats)

    alphabet = circuit.control_alphabet
    width = len(alphabet)
    signals, pairs = history_count(width, horizon), prefix_pair_count(width, horizon)
    counts = _domain_image_counts(circuit, horizon)
    if counts is not None:
        stats = ClassifyStats(horizon, signals, pairs, sum(counts), 0, degenerate)
        return Classification(Verdict.TIME_PRESERVING, AxiomReport(True, True, True), None, stats)

    dag = _ReadStateDag(circuit.read_init, circuit.read_step, alphabet.values, horizon)
    report, swapped = _axiom_report(dag.refs, dag.after, dag.transitive)
    stats = ClassifyStats(horizon, signals, pairs, len(dag.refs), dag.excluded, degenerate)

    if report.is_partial_order:
        return Classification(Verdict.TIME_PRESERVING, report, None, stats)

    witness = None
    if not report.antisymmetric:
        # The lexicographic minimum of (a0, a1, b0, b1) over swapped source
        # pairs, each signal the first its search meets.  a0 is the smallest
        # history holding an image x that reaches an image y which reaches x
        # back; a1 its smallest extension to such a y; then b0 is the
        # smallest history holding y that reaches x, and b1 its smallest
        # extension to x.
        partnered = sum(1 << x for x, ys in enumerate(swapped) if ys)
        a0, e = dag.path(0, partnered, lambda x, below: swapped[x] & below)
        x = dag.image[e]
        tail, e = dag.path(dag.child[e], swapped[x], lambda z, _: swapped[x] >> z & 1)
        a1, y = a0 + tail, dag.image[e]
        b0, e = dag.path(0, 1 << y, lambda z, below: z == y and below >> x & 1)
        b1 = b0 + dag.path(dag.child[e], 1 << x, lambda z, _: z == x)[0]
        a0, a1, b0, b1 = (CausalSignal(alphabet, s) for s in (a0, a1, b0, b1))
        witness = AntisymmetryWitness(a0, a1, b0, b1, ReadSet(dag.refs[x]), ReadSet(dag.refs[y]))
        if not witness.holds(fold_reads(circuit.read_init, circuit.read_step)):
            raise ValueError(f"circuit {circuit.name!r}: its read step broke the refs contract: "
                             "refs must be sorted and duplicate-free")
    return Classification(Verdict.NOT_TIME_PRESERVING, report, witness, stats)
