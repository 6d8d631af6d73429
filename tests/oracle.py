"""Brute-force reference engine for :func:`kcir.classifier.classify`.

It materialises the whole prefix relation as a list of signal pairs, maps
every pair through the read map, checks the axioms on the image, and then
scans the relation once more for the smallest antisymmetry witness.  It is
slow but direct, so the tests compare the one-pass tree walk against it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from kcir.classifier import (
    AntisymmetryWitness,
    Classification,
    ClassifyStats,
    DerivedRelation,
    ReadMap,
    ReadSet,
    Verdict,
    check_partial_order,
)
from kcir.signals import CausalSignal, build_prefix_relation, enumerate_causal_signals

Relation = list[tuple[CausalSignal, CausalSignal]]


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


def classify(circuit, horizon: int) -> Classification:
    """The classification built from the materialised prefix relation."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    degenerate = horizon < 1

    if circuit.reads is None:
        stats = ClassifyStats(horizon, 0, 0, 0, 0, degenerate)
        return Classification(Verdict.NOT_FUNDAMENTAL_FORM, None, None, stats)

    signals = enumerate_causal_signals(circuit.control_alphabet, horizon)
    relation = build_prefix_relation(signals)
    reads = evaluate_reads(circuit.reads, signals)
    derived = derive_relation(circuit.reads, relation, reads=reads)
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
        witness = find_antisymmetry_witness(circuit.reads, relation, reads=reads)
        assert witness is not None, "antisymmetry failure must yield a witness"
    return Classification(Verdict.NOT_TIME_PRESERVING, report, witness, stats)
