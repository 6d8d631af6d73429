from __future__ import annotations

import dataclasses
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcir import (
    BINARY,
    Alphabet,
    CausalSignal,
    CircuitElement,
    ReadSet,
    RefPoint,
    Verdict,
    abmem_element,
    classify,
    counter_element,
    dff_element,
    elaborate,
    load_circuit,
    mux_element,
    sr_latch_element,
    toggler_pair_element,
)

from kcir import classifier
from kcir.classifier import BudgetError, _domain_image_counts, refs_text

from . import oracle
from .conftest import CIRCUITS_DIR, ranked_axiom_report
from .oracle import (
    DerivedRelation,
    build_prefix_relation,
    derive_relation,
    enumerate_causal_signals,
    find_antisymmetry_witness,
)
from .test_dsl import _circuits
from .test_oracle import mealy_circuits


DFF_READS = dff_element().reads


# --- independent oracles ----------------------------------------------------

def naive_dff_reads(samples):
    """Reverse scan for the last 0->1 transition; None when there is none."""
    for u in range(len(samples) - 1, 0, -1):
        if samples[u - 1] == "0" and samples[u] == "1":
            return ReadSet.of(("D", u))
    return None


def naive_abmem_reads(samples):
    """Last write to the currently read address; None when unreadable."""
    writes = [s.split("/")[0] for s in samples]
    read_addr = samples[-1].split("/")[1]
    if read_addr == "-":
        return None
    hits = [u for u, addr in enumerate(writes) if addr == read_addr]
    return ReadSet.of(("D", hits[-1])) if hits else None


def oracle_swap_witness(read_map, relation):
    """Smallest (a0,a1,b0,b1) with swapped distinct reads, by direct grouping."""
    reads = {}
    for a, b in relation:
        reads.setdefault(a, read_map(a))
        reads.setdefault(b, read_map(b))
    defined = [(a, b) for a, b in relation if reads[a] is not None and reads[b] is not None]
    by_images = {}
    for a, b in defined:
        by_images.setdefault((reads[a], reads[b]), []).append((a, b))
    best = None
    for a, b in defined:
        if reads[a] == reads[b]:
            continue
        for b0, b1 in by_images.get((reads[b], reads[a]), ()):
            key = (a.sort_key(), b.sort_key(), b0.sort_key(), b1.sort_key())
            if best is None or key < best[0]:
                best = (key, (a, b, b0, b1))
    return None if best is None else best[1]


# --- read sets ---------------------------------------------------------------

#: ``(channel, tick)`` lists in any order, with duplicates.
REF_LISTS = st.lists(
    st.tuples(st.sampled_from(["D", "D1", "en", "x"]), st.integers(0, 6)), max_size=8
)


class TestReadSet:
    def test_normalizes_to_sorted_unique(self):
        image = ReadSet((RefPoint("D", 2), RefPoint("D", 0), RefPoint("D", 2)))
        assert image == (RefPoint("D", 0), RefPoint("D", 2))
        assert image == ReadSet.of(("D", 0), ("D", 2))

    def test_total_order_is_deterministic(self):
        a = ReadSet.of(("D", 0))
        b = ReadSet.of(("D", 0), ("D", 1))
        c = ReadSet.of(("D", 1))
        assert sorted([c, b, a]) == [a, b, c]

    def test_str(self):
        assert str(ReadSet.of(("D", 1))) == "{(D,1)}"
        assert str(ReadSet()) == "{}"

    @given(refs=REF_LISTS, other=REF_LISTS)
    def test_a_read_set_is_its_sorted_refs(self, refs, other):
        plain, other_plain = tuple(sorted(set(refs))), tuple(sorted(set(other)))
        image, other_image = ReadSet(refs), ReadSet(map(RefPoint._make, other))
        assert image == plain and hash(image) == hash(plain)
        assert other_image == other_plain and hash(other_image) == hash(other_plain)
        assert (image == other_image) == (plain == other_plain)
        assert (image < other_image) == (plain < other_plain)
        assert (image > other_image) == (plain > other_plain)
        assert str(image) == refs_text(plain)


# --- derived relation --------------------------------------------------------

class TestDeriveRelation:
    def test_constant_read_map_collapses_to_one_node(self):
        constant = ReadSet.of(("D", 0))
        signals = enumerate_causal_signals(BINARY, 2)
        relation = build_prefix_relation(signals)
        derived = derive_relation(lambda s: constant, relation)
        assert derived.nodes == frozenset({constant})
        assert derived.pairs == frozenset({(constant, constant)})
        assert derived.excluded_undefined == 0

    def test_dff_horizon_2_has_no_cross_pair(self):
        # A clock with its last edge at tick 1 fixes sample 1 to '1', while an
        # edge at tick 2 needs sample 1 to be '0'; no history can extend one
        # into the other, so the two read sets are never related.
        signals = enumerate_causal_signals(BINARY, 2)
        relation = build_prefix_relation(signals)
        derived = derive_relation(DFF_READS, relation)
        edge1, edge2 = ReadSet.of(("D", 1)), ReadSet.of(("D", 2))
        assert derived.nodes == frozenset({edge1, edge2})
        assert derived.pairs == frozenset({(edge1, edge1), (edge2, edge2)})
        assert derived.excluded_undefined == 27

    def test_dff_matches_independent_scan(self):
        signals = enumerate_causal_signals(BINARY, 3)
        relation = build_prefix_relation(signals)
        derived = derive_relation(DFF_READS, relation)
        expected_pairs = set()
        excluded = 0
        for a, b in relation:
            ia, ib = naive_dff_reads(a.samples), naive_dff_reads(b.samples)
            if ia is None or ib is None:
                excluded += 1
            else:
                expected_pairs.add((ia, ib))
        assert derived.pairs == frozenset(expected_pairs)
        assert derived.excluded_undefined == excluded

    def test_all_undefined_excludes_everything(self):
        signals = enumerate_causal_signals(BINARY, 1)
        relation = build_prefix_relation(signals)
        derived = derive_relation(lambda s: None, relation)
        assert derived.nodes == frozenset()
        assert derived.pairs == frozenset()
        assert derived.excluded_undefined == len(relation)


# --- axiom checking ----------------------------------------------------------

def rel(pairs, nodes=None):
    pairs = frozenset(pairs)
    if nodes is None:
        nodes = frozenset(x for pair in pairs for x in pair)
    return DerivedRelation(frozenset(nodes), pairs, 0)


X = ReadSet.of(("D", 0))
Y = ReadSet.of(("D", 1))
Z = ReadSet.of(("D", 2))


def axiom_report(relation: DerivedRelation):
    """The classifier's axiom check on ``relation``, which must match the oracle's scan."""
    report = ranked_axiom_report(relation)
    assert report == oracle.check_partial_order(relation)
    return report


class TestAxiomReport:
    def test_chain_of_three_passes(self):
        chain = rel(
            {(X, X), (Y, Y), (Z, Z), (X, Y), (Y, Z), (X, Z)}
        )
        report = axiom_report(chain)
        assert report.is_partial_order
        assert report.antisymmetry_witness is None

    def test_swap_fails_antisymmetry_with_witness(self):
        swapped = rel({(X, X), (Y, Y), (X, Y), (Y, X)})
        report = axiom_report(swapped)
        assert not report.antisymmetric
        assert report.antisymmetry_witness == (X, Y)
        assert report.reflexive and report.transitive

    def test_empty_relation_is_vacuously_a_partial_order(self):
        report = axiom_report(rel(set()))
        assert report.is_partial_order

    def test_missing_self_pair_fails_reflexivity(self):
        report = axiom_report(rel({(X, X)}, nodes={X, Y}))
        assert not report.reflexive
        assert report.reflexivity_witness == Y

    def test_broken_chain_fails_transitivity(self):
        report = axiom_report(rel({(X, X), (Y, Y), (Z, Z), (X, Y), (Y, Z)}))
        assert not report.transitive
        assert report.transitivity_witness == (X, Y, Z)


# --- witness search ----------------------------------------------------------

class TestFindAntisymmetryWitness:
    def test_dff_has_none_up_to_horizon_6(self):
        for horizon in range(1, 7):
            signals = enumerate_causal_signals(BINARY, horizon)
            relation = build_prefix_relation(signals)
            assert find_antisymmetry_witness(DFF_READS, relation) is None

    def test_constant_read_map_has_none(self):
        constant = ReadSet.of(("D", 0))
        signals = enumerate_causal_signals(BINARY, 3)
        relation = build_prefix_relation(signals)
        assert find_antisymmetry_witness(lambda s: constant, relation) is None

    def test_abmem_horizon_2_matches_brute_force_oracle(self):
        element = abmem_element()
        signals = enumerate_causal_signals(element.control_alphabet, 2)
        relation = build_prefix_relation(signals)
        witness = find_antisymmetry_witness(element.reads, relation)
        assert witness is not None

        oracle = oracle_swap_witness(
            lambda s: naive_abmem_reads(s.samples), relation
        )
        assert oracle is not None
        a0, a1, b0, b1 = oracle
        assert (witness.a0, witness.a1, witness.b0, witness.b1) == (a0, a1, b0, b1)

        assert witness.a0.samples == ("A/A",)
        assert witness.a1.samples == ("A/A", "A/A")
        assert witness.b0.samples == ("A/A", "B/B")
        assert witness.b1.samples == ("A/A", "B/B", "B/A")
        assert witness.x_reads == ReadSet.of(("D", 0))
        assert witness.y_reads == ReadSet.of(("D", 1))
        assert witness.holds(element.reads)

    def test_abmem_witness_with_a1_not_extending_a0_does_not_hold(self):
        element = abmem_element()
        witness = classify(element, 2).witness
        assert witness.holds(element.reads)
        # a0 and a1 swapped: the new a1 is one tick shorter than the new a0.
        # The read map agrees with every stored read set, so only the prefix
        # check can refuse it.
        swapped = dataclasses.replace(witness, a0=witness.a1, a1=witness.a0)
        reads = {swapped.a0: swapped.x_reads, swapped.b1: swapped.x_reads,
                 swapped.a1: swapped.y_reads, swapped.b0: swapped.y_reads}
        assert not swapped.holds(reads.get)

    def test_abmem_witness_whose_read_sets_agree_does_not_hold(self):
        witness = classify(abmem_element(), 2).witness
        same = dataclasses.replace(witness, y_reads=witness.x_reads)
        # Every signal reads x, so only the check that x and y differ can refuse it.
        assert not same.holds(lambda signal: witness.x_reads)


# --- classify ---------------------------------------------------------------

def transitivity_breaker(signal: CausalSignal):
    """Synthetic read map whose derived relation loses only transitivity."""
    table = {
        ("0",): X,
        ("0", "0"): Y,
        ("1",): Y,
        ("1", "1"): Z,
    }
    return table.get(signal.samples)


def _breaker_element() -> CircuitElement:
    return oracle.with_read_map(CircuitElement(
        name="synthetic",
        control_channels=("C",),
        control_alphabet=BINARY,
        input_channels=(("D", BINARY),),
        init=None,
        step=lambda state, symbol, samples: (state, "0"),
    ), transitivity_breaker)


def _read_steps_taken(element: CircuitElement, horizon: int) -> int:
    """The read steps ``classify``'s walk takes on ``element``, checked against brute force.

    There is one per symbol for the root and for each distinct read state of
    each level above the horizon, and counting them leaves the result as it
    is.  An antisymmetry witness adds one step per sample of its four
    signals, which ``classify`` folds to check it.
    """
    calls = []

    def counting(state, symbol, tick):
        calls.append((symbol, tick))
        return element.read_step(state, symbol, tick)

    result = classify(dataclasses.replace(element, read_step=counting), horizon)
    assert result == classify(element, horizon)
    witness = result.witness
    checked = 0 if witness is None else sum(
        len(signal.samples) for signal in (witness.a0, witness.a1, witness.b0, witness.b1))
    walked = len(calls) - checked
    states = sum(oracle.dag_level_sizes(element, horizon)[:horizon])
    assert walked == len(element.control_alphabet) * (1 + states)
    return walked


class TestClassify:
    def test_circuit_without_read_map_is_not_fundamental_form(self):
        result = classify(sr_latch_element(), 3)
        assert result.verdict is Verdict.NOT_FUNDAMENTAL_FORM
        assert result.axiom_report is None
        assert result.witness is None

    def test_time_preserving_circuits(self):
        for element in (dff_element(), mux_element()):
            result = classify(element, 4)
            assert result.verdict is Verdict.TIME_PRESERVING
            assert result.axiom_report.is_partial_order
            assert result.witness is None

    def test_abmem_not_time_preserving_with_valid_witness(self):
        element = abmem_element()
        result = classify(element, 2)
        assert result.verdict is Verdict.NOT_TIME_PRESERVING
        assert not result.axiom_report.antisymmetric
        assert result.witness is not None
        assert result.witness.holds(element.reads)

    def test_transitivity_only_failure_is_not_time_preserving(self):
        result = classify(_breaker_element(), 1)
        assert result.verdict is Verdict.NOT_TIME_PRESERVING
        assert result.axiom_report.antisymmetric
        assert not result.axiom_report.transitive
        assert result.axiom_report.transitivity_witness == (X, Y, Z)
        assert result.witness is None

    @pytest.mark.parametrize(
        "refs",
        [{"0": (("D", 0), ("E", 0)), "1": (("E", 0), ("D", 0))},
         {"0": (("D", 0),), "1": (("D", 0), ("D", 0))}],
        ids=["unsorted", "duplicate"],
    )
    def test_a_witness_broken_by_unnormalised_refs_is_refused(self, refs):
        # The two symbols read one read set through two different refs, which
        # the walk takes for two images related both ways; their witness has
        # x_reads == y_reads and does not hold, so classify refuses it.
        element = CircuitElement(
            name="unnormalised",
            control_channels=("C",),
            control_alphabet=BINARY,
            input_channels=(("D", BINARY), ("E", BINARY)),
            init=None,
            step=lambda state, symbol, samples: (state, "0"),
            read_step=lambda state, symbol, tick: (state, refs[symbol]),
        )
        assert classify(element, 0).verdict is Verdict.TIME_PRESERVING
        with pytest.raises(ValueError, match="^circuit 'unnormalised': its read step broke the "
                           "refs contract: refs must be sorted and duplicate-free$"):
            classify(element, 1)

    def test_degenerate_horizon_is_flagged(self):
        result = classify(dff_element(), 0)
        assert result.stats.degenerate_horizon
        assert result.verdict is Verdict.TIME_PRESERVING

    def test_stats_count_enumeration(self):
        result = classify(dff_element(), 2)
        assert result.stats.signals == 14
        assert result.stats.relation_pairs == 34
        assert result.stats.distinct_read_sets == 2
        assert result.stats.excluded_undefined == 27

    @pytest.mark.parametrize(
        "factory,horizon,steps",
        [(abmem_element, 2, 9 * 11), (abmem_element, 3, 9 * 24), (mux_element, 10, 2 * 11),
         (dff_element, 6, 2 * 38), (toggler_pair_element, 3, 4 * 39)],
    )
    def test_read_step_runs_once_per_symbol_and_read_state(self, factory, horizon, steps):
        # k symbols times the root and the read states above the horizon:
        # abmem and mux reach one read state with several refs, and step it once.
        assert _read_steps_taken(factory(), horizon) == steps

    @settings(max_examples=100, deadline=None)
    @given(mealy_circuits(), st.integers(0, 4))
    def test_drawn_read_steps_run_once_per_symbol_and_read_state(self, element, horizon):
        _read_steps_taken(element, horizon)

    @pytest.mark.parametrize(
        "factory,horizon", [(abmem_element, 3), (mux_element, 10), (dff_element, 6)]
    )
    def test_the_walk_budget_charges_each_expansion_once(self, monkeypatch, factory, horizon):
        # abmem and mux reach one read state by several histories and refs,
        # and the budget charges the steps and refs of its expansion once.
        element = factory()
        work = oracle.dag_walk_work(element, horizon)
        monkeypatch.setattr(classifier, "WALK_BUDGET", work)
        assert classify(element, horizon) == oracle.walk_classify(element, horizon)
        monkeypatch.setattr(classifier, "WALK_BUDGET", work - 1)
        with pytest.raises(BudgetError, match=f"^classify stopped at level {horizon} of "):
            classify(element, horizon)

    def test_the_axiom_budget_charges_the_pair_scan_only(self, monkeypatch):
        # mux relates more pairs than its DAG has edges, and its relation is
        # found transitive on the edges, so no pair is scanned.  The breaker's
        # relation fails the edge pass and dff relates fewer pairs than its
        # DAG has edges, so both are scanned and charged.
        monkeypatch.setattr(classifier, "AXIOM_BUDGET", 0)
        assert classify(mux_element(), 10).verdict is Verdict.TIME_PRESERVING
        for element, horizon in ((_breaker_element(), 1), (dff_element(), 3)):
            with pytest.raises(BudgetError, match="pass the axiom check's 0$"):
                classify(element, horizon)

    @pytest.mark.parametrize(
        "factory,horizon",
        [(abmem_element, 3), (dff_element, 5), (counter_element, 4), (toggler_pair_element, 3)],
    )
    def test_native_read_step_needs_no_read_map(self, factory, horizon):
        element = factory()
        expected = classify(element, horizon)

        def forbidden(*args, **kwargs):
            raise AssertionError("classify must not call this")

        # Set past ``__post_init__``, which would walk a given read map instead.
        object.__setattr__(element, "reads", forbidden)
        assert classify(element, horizon) == expected

    def test_the_walk_budget_stops_partway_into_a_level(self, monkeypatch):
        # The toggler pair takes 60 read steps and refs up to level 1, and
        # level 2 expands 9 read states at about 15 each, so 100 is passed early in it.
        element = toggler_pair_element()
        ticks = []

        def counting(state, symbol, tick):
            ticks.append(tick)
            return element.read_step(state, symbol, tick)

        monkeypatch.setattr(classifier, "WALK_BUDGET", 100)
        with pytest.raises(BudgetError, match="^classify stopped at level 2 of 5: "):
            classify(dataclasses.replace(element, read_step=counting), 5)
        assert 0 < ticks.count(2) < 4 * 9 and 3 not in ticks

    def test_deterministic_across_reruns(self):
        for element in (abmem_element(), dff_element(), mux_element()):
            assert classify(element, 2) == classify(element, 2)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            classify(dff_element(), -1)


class TestTimePreservingRecheck:
    def test_sync_composite_at_horizon_5(self):
        result = classify(counter_element(), 5)
        assert result.verdict is Verdict.TIME_PRESERVING

    def test_toggler_pair_at_horizon_3(self):
        result = classify(toggler_pair_element(), 3)
        assert result.verdict is Verdict.TIME_PRESERVING

    @pytest.mark.parametrize(
        "factory,horizon",
        [(dff_element, 4), (mux_element, 4), (counter_element, 4), (toggler_pair_element, 3)],
    )
    def test_axioms_recheck_independently(self, factory, horizon):
        # Scan the derived relation directly instead of trusting the verdict.
        element = factory()
        assert classify(element, horizon).verdict is Verdict.TIME_PRESERVING
        signals = enumerate_causal_signals(element.control_alphabet, horizon)
        relation = build_prefix_relation(signals)
        reads = {s: element.reads(s) for s in signals}
        pairs = {
            (reads[a], reads[b])
            for a, b in relation
            if reads[a] is not None and reads[b] is not None
        }
        nodes = {image for pair in pairs for image in pair}
        for node in nodes:
            assert (node, node) in pairs
        for x, y in pairs:
            if x != y:
                assert (y, x) not in pairs
        for x, y in pairs:
            for y2, z in pairs:
                if y2 == y:
                    assert (x, z) in pairs


class TestWitnessMonotonicity:
    def test_abmem_witness_is_stable_across_horizons(self):
        element = abmem_element()
        results = {h: classify(element, h) for h in (2, 3, 4)}
        base = results[2].witness
        assert base is not None
        for horizon in (3, 4):
            witness = results[horizon].witness
            assert witness == base
            assert witness.holds(element.reads)


# --- classification by clock domains ------------------------------------------

#: Read sets by tick parity on twoclock's channels: each reaches the other.
SWAP = ((("D1", 0),), (("D2", 0),))

NO_INPUTS = """
circuit idle {
  kind multiclock;
  domain a { clock ca; state 1 init 0; next q0 = not(q0); out y = q0; }
  domain b { clock cb; state 1 init 1; in x; next q0 = x; out z = q0; }
  domain c { clock cc; state 1 init 1; next q0 = q0; out w = q0; }
}
"""


def _joint(element: CircuitElement) -> CircuitElement:
    """``element`` with a read step that carries no domains, so ``classify`` walks it jointly."""
    step = element.read_step
    return dataclasses.replace(element, read_step=lambda state, sym, tick: step(state, sym, tick))


class TestClassifyByDomains:
    def test_a_replaced_read_step_or_read_map_is_classified(self):
        twoclock = toggler_pair_element()
        assert classify(twoclock, 2).verdict is Verdict.TIME_PRESERVING
        replaced = (
            dataclasses.replace(twoclock, read_step=lambda state, symbol, tick: (
                tick % 2, SWAP[tick % 2])),
            oracle.with_read_map(twoclock, lambda control: ReadSet(SWAP[control.t % 2])),
        )
        for element in replaced:
            result = classify(element, 2)
            assert result.verdict is Verdict.NOT_TIME_PRESERVING
            assert result.witness.holds(element.reads)
            assert result == oracle.walk_classify(element, 2)

    def test_a_replaced_read_init_is_walked_from(self):
        # Both clocks low before tick 0, so a 1 at tick 0 is an edge.
        twoclock = toggler_pair_element()
        element = dataclasses.replace(twoclock, read_init=("0/0", ((), ())))
        result = classify(element, 3)
        assert result == oracle.walk_classify(element, 3)
        assert result.stats != classify(twoclock, 3).stats

    def test_the_route_never_steps_the_joint_read_step(self):
        twoclock = toggler_pair_element()
        ticks = []

        def counting(state, symbol, tick):
            ticks.append(tick)
            return twoclock.read_step(state, symbol, tick)

        counting.domains = twoclock.read_step.domains
        result = classify(dataclasses.replace(twoclock, read_step=counting), 5)
        assert ticks == []
        assert result == classify(_joint(twoclock), 5)

    @settings(max_examples=60, deadline=None)
    @given(_circuits(min_domains=2), st.data())
    def test_drawn_multiclock_circuits_match_the_joint_walk(self, ast, data):
        # The joint walk steps up to 2**(clocks * (horizon + 1)) histories' worth of nodes.
        horizon = data.draw(st.integers(0, 14 // len(ast.domains) - 1))
        element = elaborate(ast)
        assert _domain_image_counts(element, horizon) is not None
        assert classify(element, horizon) == classify(_joint(element), horizon)

    def test_domains_without_inputs_drop_out(self):
        # Domain b alone reads, so the joint read sets are its read sets.
        element = load_circuit(NO_INPUTS)
        alone = load_circuit("circuit b { kind sync; clock cb; state 1 init 1; in x; "
                             "next q0 = x; out z = q0; }")
        # No domain reads, so the one read set is the empty one.
        idle = load_circuit(NO_INPUTS.replace("in x; next q0 = x;", "next q0 = q0;"))
        for horizon in range(5):
            result = classify(element, horizon)
            assert result == classify(_joint(element), horizon)
            expected = classify(alone, horizon).stats.distinct_read_sets
            assert result.stats.distinct_read_sets == expected
            result = classify(idle, horizon)
            assert result == classify(_joint(idle), horizon)
            assert result.stats.distinct_read_sets == 1

    @pytest.mark.parametrize("name,horizon", [("twoclock", 10), ("threeclock", 7)])
    def test_deep_multiclock_horizons_take_well_under_a_second(self, name, horizon):
        element = load_circuit((CIRCUITS_DIR / f"{name}.kcir").read_text(encoding="utf-8"))
        started = time.perf_counter()
        result = classify(element, horizon)
        assert time.perf_counter() - started < 1.0
        assert result.verdict is Verdict.TIME_PRESERVING
