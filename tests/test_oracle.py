"""The fast engines must agree exactly with the brute-force oracles.

The read-state DAG classifier agrees on whole :class:`Classification`
objects: verdict, stats, the axiom report with its witnesses, and the
antisymmetry witness, against the oracle engine run on the rescanning read
maps, and against the prefix-tree walk at horizons the oracle cannot reach.
Drawn Mealy read steps make the DAG merge histories.  The DAG's node table
numbers nodes in the order of their smallest histories, with children after
parents, and its ``after`` sets are the oracle's derived image pairs.  The
read steps agree with those read maps at every node of the prefix tree, and
report canonical refs.  Elements made of clock domains classify as their
joint walk, whether ``classify`` walks their domains or falls back to the
joint histories.  The step-function simulator agrees with the prefix
evaluators on whole output streams, and on the error a malformed input
raises and the tick at which it raises.  The randomized checks, which fold
only the ticks a trial compares, give the same reports and the same
``check`` JSON as the references that fold every tick from 0.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from typing import Optional

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from kcir import (
    Alphabet,
    CausalSignal,
    CircuitElement,
    ReadSet,
    SimulationError,
    Verdict,
    abmem_element,
    causality_check,
    classify,
    counter_element,
    dff_element,
    history_count,
    load_circuit,
    mux_element,
    output_stream,
    parse,
    read_soundness_check,
    sr_latch_element,
    toggler_pair_element,
)
from kcir import cli
from kcir.classifier import _axiom_report, _domain_image_counts, _members, _ReadStateDag

from . import oracle
from .conftest import CIRCUITS_DIR, ranked_axiom_report
from .oracle import DerivedRelation, enumerate_causal_signals

TWO_INPUT_SYNC = """
circuit pair {
  kind sync;
  clock c;
  state 1 init 0;
  in x;
  in b;
  next q0 = xor(q0, x, b);
  out y = q0;
}
"""

TWO_BY_TWO_MULTICLOCK = """
circuit quad {
  kind multiclock;
  domain one {
    clock ca;
    state 1 init 0;
    in y;
    in a;
    next q0 = xor(a, y);
    out o = q0;
  }
  domain two {
    clock cb;
    state 1 init 1;
    in d;
    in b;
    next q0 = and(b, d);
    out p = q0;
  }
}
"""

# (element factory, rescanning read map, highest horizon)
BUILT_INS = [
    (dff_element, oracle.dff_reads, 6),
    (mux_element, oracle.mux_reads, 6),
    (counter_element, oracle.sync_reads, 6),
    (toggler_pair_element, oracle.multiclock_reads, 4),
    (abmem_element, oracle.abmem_reads, 3),
    (sr_latch_element, None, 3),
]

CIRCUIT_FILES = sorted(CIRCUITS_DIR.glob("*.kcir"))

# Blocks whose refs interleave several channels: (text, highest horizon).
MULTI_CHANNEL_BLOCKS = {
    "sync-two-inputs": (TWO_INPUT_SYNC, 5),
    "multiclock-two-by-two": (TWO_BY_TWO_MULTICLOCK, 3),
}


@pytest.mark.parametrize(
    "factory,read_map,horizon",
    [(factory, read_map, h) for factory, read_map, top in BUILT_INS for h in range(top + 1)],
    ids=[f"{factory.__name__}-{h}" for factory, _, top in BUILT_INS for h in range(top + 1)],
)
def test_built_ins_match_the_oracle(factory, read_map, horizon):
    element = factory()
    assert classify(element, horizon) == oracle.classify(element, horizon, read_map)


def _text_case(text: str):
    """The element a description denotes and its rescanning read map."""
    return load_circuit(text), oracle.ast_reads(parse(text))


@pytest.mark.parametrize("path", CIRCUIT_FILES, ids=lambda p: p.name)
def test_circuit_files_match_the_oracle(path):
    element, read_map = _text_case(path.read_text(encoding="utf-8"))
    for horizon in range(4):
        assert classify(element, horizon) == oracle.classify(element, horizon, read_map)


@pytest.mark.parametrize("name", sorted(MULTI_CHANNEL_BLOCKS))
def test_multi_channel_blocks_match_the_oracle(name):
    text, top = MULTI_CHANNEL_BLOCKS[name]
    element, read_map = _text_case(text)
    for horizon in range(top + 1):
        assert classify(element, horizon) == oracle.classify(element, horizon, read_map)


def _read_step_cases():
    """(name, element, rescanning read map, highest horizon) of every element with a read map."""
    for factory, read_map, top in BUILT_INS:
        if read_map is not None:
            yield factory.__name__, factory(), read_map, top
    texts = [(path.name, path.read_text(encoding="utf-8"), 3) for path in CIRCUIT_FILES]
    texts += [(name, text, top) for name, (text, top) in MULTI_CHANNEL_BLOCKS.items()]
    for name, text, top in texts:
        element, read_map = _text_case(text)
        if read_map is not None:
            yield name, element, read_map, top


READ_STEP_CASES = list(_read_step_cases())


def _tree(element, horizon):
    """(signal, refs) at every node of the prefix tree, each stepped from its parent."""
    alphabet = element.control_alphabet
    stack = [((), element.read_init)]
    while stack:
        samples, state = stack.pop()
        t = len(samples)
        if t > horizon:
            continue
        for symbol in alphabet.values:
            child_state, refs = element.read_step(state, symbol, t)
            child = (*samples, symbol)
            yield CausalSignal.from_samples(alphabet, child), refs
            stack.append((child, child_state))


@pytest.mark.parametrize(
    "name,element,read_map,top", READ_STEP_CASES, ids=[c[0] for c in READ_STEP_CASES]
)
def test_read_steps_match_the_rescanning_read_maps(name, element, read_map, top):
    seen = 0
    for signal, refs in _tree(element, top):
        expected = read_map(signal)
        assert (None if refs is None else ReadSet.of(*refs)) == expected, signal
        assert element.reads(signal) == expected, signal
        seen += 1
    assert seen == len(enumerate_causal_signals(element.control_alphabet, top))


@pytest.mark.parametrize(
    "name,element,read_map,top", READ_STEP_CASES, ids=[c[0] for c in READ_STEP_CASES]
)
def test_read_steps_report_canonical_refs(name, element, read_map, top):
    for _, refs in _tree(element, top):
        assert refs is None or refs == tuple(sorted(set(refs)))


# --- arbitrary read maps -----------------------------------------------------

PALETTE = (
    None,
    ReadSet.of(("D", 0)),
    ReadSet.of(("D", 1)),
    ReadSet.of(("D", 2)),
    ReadSet.of(("D", 0), ("D", 1)),
)


@st.composite
def table_circuits(draw):
    """A circuit whose read map is an arbitrary table over every control history."""
    size = draw(st.integers(1, 3))
    horizon = draw(st.integers(0, 3))
    alphabet = Alphabet(tuple("abc"[:size]))
    signals = enumerate_causal_signals(alphabet, horizon)
    images = draw(st.lists(st.sampled_from(PALETTE), min_size=len(signals),
                           max_size=len(signals)))
    table = {s.samples: image for s, image in zip(signals, images)}
    element = oracle.with_read_map(CircuitElement(
        name="table",
        control_channels=("C",),
        control_alphabet=alphabet,
        input_channels=(("D", alphabet),),
        init=None,
        step=lambda state, symbol, samples: (state, None),
    ), lambda signal: table[signal.samples])
    return element, horizon


@settings(max_examples=300, deadline=None)
@given(table_circuits())
def test_table_read_maps_match_the_oracle(case):
    element, horizon = case
    assert classify(element, horizon) == oracle.classify(element, horizon)


@settings(max_examples=200, deadline=None)
@given(table_circuits())
def test_classify_never_reports_a_reflexivity_failure(case):
    # Every defined node reaches its own image, so this axiom cannot fail on
    # classify's output; the check stays, as a guard on the DAG.
    report = classify(*case).axiom_report
    assert report.reflexive
    assert report.reflexivity_witness is None


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.sets(st.tuples(st.sampled_from(PALETTE[1:]), st.sampled_from(PALETTE[1:]))),
    extra=st.sets(st.sampled_from(PALETTE[1:])),
)
def test_axioms_on_ranks_match_the_read_set_scan(pairs, extra):
    nodes = frozenset(extra.union(*pairs))
    relation = DerivedRelation(nodes, frozenset(pairs), 0)
    assert ranked_axiom_report(relation) == oracle.check_partial_order(relation)


@st.composite
def bit_relations(draw):
    """A relation on up to 10 images as ``after`` bit sets, with a drawn renumbering.

    Sparse drawn pairs, half the time pointing only upwards and half the
    time closed under transitivity, so partial orders and single-axiom
    failures all occur; at most two images lack their own bit.
    """
    n = draw(st.integers(0, 10))
    upwards = draw(st.booleans())
    after = [0] * n
    missing = set()
    if n:
        index = st.integers(0, n - 1)
        for x, y in draw(st.sets(st.tuples(index, index), max_size=3 * n)):
            if upwards and x > y:
                x, y = y, x
            after[x] |= 1 << y
        missing = draw(st.sets(index, max_size=2))
    if draw(st.booleans()):
        for k in range(n):
            for x in range(n):
                if after[x] >> k & 1:
                    after[x] |= after[k]
    for x in range(n):
        if x in missing:
            after[x] &= ~(1 << x)
        else:
            after[x] |= 1 << x
    return after, draw(st.permutations(range(n)))


def _pairs(after):
    return {(x, y) for x in range(len(after)) for y in range(len(after)) if after[x] >> y & 1}


@settings(max_examples=500, deadline=None)
@given(bit_relations())
def test_bit_set_axioms_match_the_pair_scan(case):
    after, renumbering = case
    images = [ReadSet.of(("D", t)) for t in range(len(after))]
    report = _axiom_report(images, after)
    assert report == oracle.pair_axiom_report(images, range(len(after)), _pairs(after))

    # The verdict does not depend on how the images are numbered; only the
    # witnesses do, which is why classify numbers them by rank.
    renumbered = [0] * len(after)
    for x, y in _pairs(after):
        renumbered[renumbering[x]] |= 1 << renumbering[y]
    again = _axiom_report(images, renumbered)
    verdict = (report.reflexive, report.antisymmetric, report.transitive)
    assert (again.reflexive, again.antisymmetric, again.transitive) == verdict


# The read maps above carry their whole history as read state, so their DAG
# is the prefix tree.  These read steps are small Mealy tables whose state,
# like a built-in's, is a table state and the tick of its last event, so
# histories that agree on both merge.
MEALY_READS = ("none", "current", "last", "both")


@st.composite
def mealy_circuits(draw, symbols: Optional[tuple[str, ...]] = None, reads=MEALY_READS):
    """A circuit whose read step is a drawn table over (table state, control symbol).

    The table gives the next table state, whether the tick is an event, and
    what is read, one of ``reads``: nothing (undefined), the current tick,
    the last event's tick (undefined before any event), or both.  The
    control symbols are ``symbols``, or one to three drawn ones.
    """
    states = draw(st.integers(2, 4))
    if symbols is None:
        symbols = tuple("abc"[: draw(st.integers(1, 3))])
    alphabet = Alphabet(symbols)
    table = {
        (q, symbol): (
            draw(st.integers(0, states - 1)),
            draw(st.booleans()),
            draw(st.sampled_from(reads)),
        )
        for q in range(states)
        for symbol in alphabet.values
    }

    def read_step(state, symbol, tick):
        q, last = state
        q, event, read = table[q, symbol]
        if event:
            last = tick
        if read == "none" or (read == "last" and last is None):
            refs = None
        elif read == "current" or (read == "both" and last in (None, tick)):
            refs = (("D", tick),)
        elif read == "last":
            refs = (("D", last),)
        else:
            refs = (("D", last), ("D", tick))
        return (q, last), refs

    return CircuitElement(
        name="mealy",
        control_channels=("C",),
        control_alphabet=alphabet,
        input_channels=(("D", alphabet),),
        init=None,
        step=lambda state, symbol, samples: (state, None),
        read_init=(0, None),
        read_step=read_step,
    )


@settings(max_examples=300, deadline=None)
@given(mealy_circuits(), st.integers(0, 3))
def test_mealy_read_steps_match_the_oracle(element, horizon):
    assert classify(element, horizon) == oracle.classify(element, horizon)


@settings(max_examples=100, deadline=None)
@given(mealy_circuits(), st.integers(0, 6))
def test_mealy_read_steps_match_the_walk(element, horizon):
    assert classify(element, horizon) == oracle.walk_classify(element, horizon)


def test_mealy_strategy_merges_histories():
    def merges(case):
        element, horizon = case
        width = len(element.control_alphabet)
        return sum(oracle.dag_level_sizes(element, horizon)) < history_count(width, horizon)

    element, horizon = find(
        st.tuples(mealy_circuits(), st.integers(0, 3)),
        merges,
        settings=settings(max_examples=500, deadline=None, database=None),
    )
    assert classify(element, horizon) == oracle.classify(element, horizon)


# --- classification by clock domains ------------------------------------------

def _current(history):
    return (("s", len(history) - 1),)


def _intransitive(history):
    """The current tick, and tick 0 too at ticks 1 and 3 of a history that opens with 1.

    So {(c,1)} (from 00) reaches {(c,2)}, which (from 100) reaches
    {(c,0),(c,3)}, and {(c,1)} does not reach it: every read set holds its
    tick, and transitivity fails from horizon 3 on.
    """
    t = len(history) - 1
    return (("c", 0), ("c", t)) if history[0] == "1" and t in (1, 3) else (("c", t),)


def _latest_one(history):
    """The latest tick whose clock sample is 1, or tick 0: a reader that drops its tick."""
    return (("l", max((u for u, bit in enumerate(history) if bit == "1"), default=0)),)


#: Two-domain elements whose route falls back to the joint walk, for each
#: reason: (parts, the lowest horizon at which it falls back).  Taking the
#: route anyway would report other stats or another verdict for each.
FALLBACKS = {
    "undefined": (
        [oracle.history_part(lambda h: (("u", len(h) - 1),) if "1" in h else None),
         oracle.history_part(_current)], 0),
    "misses-the-tick": (
        [oracle.history_part(lambda h: (("m", 0),)), oracle.history_part(lambda h: ())], 1),
    "both-miss-the-tick": ([oracle.history_part(_latest_one)] * 2, 1),
    "intransitive": ([oracle.history_part(_intransitive), oracle.history_part(_current)], 3),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_each_fallback_matches_the_joint_walk(name):
    parts, low = FALLBACKS[name]
    element = oracle.domain_product(parts)
    for horizon in range(5):
        assert (_domain_image_counts(element, horizon) is None) == (horizon >= low)
        assert classify(element, horizon) == oracle.walk_classify(element, horizon)


def _edges_and_current(history):
    """Channel d at each rising edge of the clock history and at the current tick."""
    t = len(history) - 1
    edges = {u for u in range(1, t + 1) if history[u - 1:u + 1] == ("0", "1")}
    return tuple(("d", u) for u in sorted(edges | {t}))


def test_domains_that_share_a_channel_are_walked_jointly():
    # Both domains read d, so a joint read set is not one read set per
    # domain: the product of the domains' image counts overcounts it.
    element = oracle.domain_product([oracle.history_part(_edges_and_current)] * 2, shared=True)
    for horizon in range(5):
        assert _domain_image_counts(element, horizon) is None
        result = classify(element, horizon)
        assert result == oracle.walk_classify(element, horizon)
        assert result.stats.distinct_read_sets == 2 ** horizon


@st.composite
def mealy_products(draw):
    """(element, horizon): two or three drawn Mealy read steps as the domains of one element.

    Half the time every part reads its current tick, with or without its
    last event's, so no part is undefined or misses its tick, and the route
    is taken when every part is a partial order.
    """
    reads = draw(st.sampled_from([MEALY_READS, ("current", "both")]))
    parts = draw(st.lists(mealy_circuits(("0", "1"), reads), min_size=2, max_size=3))
    element = oracle.domain_product([(part.read_init, part.read_step) for part in parts])
    return element, draw(st.integers(0, 6 - len(parts)))


@settings(max_examples=200, deadline=None)
@given(mealy_products())
def test_mealy_products_match_the_walk(case):
    assert classify(*case) == oracle.walk_classify(*case)


# Horizons past the brute-force oracle's reach, checked against the walk.
DEEP = [
    (dff_element, 14),
    (mux_element, 12),
    (counter_element, 12),
    (toggler_pair_element, 6),
    (abmem_element, 4),
]


@pytest.mark.parametrize(
    "factory,horizon", DEEP, ids=[f"{factory.__name__}-{h}" for factory, h in DEEP]
)
def test_deep_horizons_match_the_walk(factory, horizon):
    element = factory()
    assert classify(element, horizon) == oracle.walk_classify(element, horizon)


# Past the walk's reach, where a pair-set scan of the DAG's relation still
# runs in well under a second.
DEEPER = [
    (mux_element, 100),
    (dff_element, 100),
    (counter_element, 13),
    (toggler_pair_element, 7),
    (abmem_element, 12),
]


@pytest.mark.parametrize(
    "factory,horizon", DEEPER, ids=[f"{factory.__name__}-{h}" for factory, h in DEEPER]
)
def test_deeper_horizons_match_the_pair_scan_of_the_dag(factory, horizon):
    element = factory()
    dag = _ReadStateDag(
        element.read_init, element.read_step, element.control_alphabet.values, horizon
    )
    order = sorted(range(len(dag.refs)), key=dag.refs.__getitem__)
    rank = {i: r for r, i in enumerate(order)}
    pairs = {
        (rank[x], rank[y])
        for x, mask in enumerate(dag.after)
        for y, bit in enumerate(reversed(bin(mask)[2:]))
        if bit == "1"
    }
    images = [ReadSet.of(*dag.refs[i]) for i in order]
    expected = oracle.pair_axiom_report(images, range(len(images)), pairs)
    assert classify(element, horizon).axiom_report == expected


def _check_node_table(element: CircuitElement, horizon: int) -> None:
    """The DAG's node ids, children and ``after`` sets, against brute force."""
    alphabet = element.control_alphabet
    dag = _ReadStateDag(element.read_init, element.read_step, alphabet.values, horizon)
    nodes = range(len(dag.images))
    assert [dag.history(n) for n in nodes] == oracle.dag_smallest_histories(element, horizon)
    for n in nodes:
        parent, symbol = dag.origins[n]
        assert parent < n
        if parent >= 0:
            assert dag.children[parent][alphabet.values.index(symbol)] == n
        assert all(k > n for k in dag.children[n])
    relation = oracle.build_prefix_relation(enumerate_causal_signals(alphabet, horizon))
    pairs = {
        (ReadSet(dag.refs[x]), ReadSet(dag.refs[y]))
        for x, mask in enumerate(dag.after)
        for y in _members(mask)
    }
    assert pairs == oracle.derive_relation(element.reads, relation).pairs


@settings(max_examples=200, deadline=None)
@given(mealy_circuits(), st.integers(0, 4))
def test_mealy_node_tables_match_brute_force(element, horizon):
    _check_node_table(element, horizon)


NODE_TABLE_CASES = [
    (factory, h) for factory, _, top in BUILT_INS if factory is not sr_latch_element
    for h in range(min(top, 4) + 1)
]


@pytest.mark.parametrize(
    "factory,horizon",
    NODE_TABLE_CASES,
    ids=[f"{factory.__name__}-{h}" for factory, h in NODE_TABLE_CASES],
)
def test_built_in_node_tables_match_brute_force(factory, horizon):
    _check_node_table(factory(), horizon)


def test_mux_at_horizon_200_is_time_preserving():
    result = classify(mux_element(), 200)
    assert result.verdict is Verdict.TIME_PRESERVING
    assert result.stats.distinct_read_sets == 402


def _failures(case) -> tuple[bool, bool]:
    """(antisymmetric, transitive) of a drawn table circuit, by the oracle."""
    report = oracle.classify(*case).axiom_report
    return report.antisymmetric, report.transitive


@pytest.mark.parametrize(
    "wanted", [(False, True), (True, False)], ids=["antisymmetry-only", "transitivity-only"]
)
def test_table_strategy_reaches_single_axiom_failures(wanted):
    case = find(
        table_circuits(),
        lambda case: _failures(case) == wanted,
        settings=settings(max_examples=5000, deadline=None, database=None),
    )
    assert classify(*case) == oracle.classify(*case)


# --- simulation: step functions against prefix re-evaluation -------------------

BITS = ("0", "1")
# Routed data gets distinct tokens, so reading the sample of a wrong tick shows.
TOKENS = ("a", "b", "c", "d")
ROUTING_KINDS = ("dff", "mux", "abmem")
# A register that only holds its initial value, beside a toggler on the other clock.
HOLDER_TOGGLER = """
circuit pair {
  kind multiclock;
  domain hold { clock c1; state 1 init 0; in d1; next q0 = q0; out y = q0; }
  domain flip { clock c2; state 1 init 0; in d2; next q0 = not(q0); out y = q0; }
}
"""


def _built_in_cases():
    yield "dff", dff_element(), oracle.dff_evaluate, TOKENS
    yield "srlatch", sr_latch_element(), oracle.sr_evaluate, BITS
    yield "mux", mux_element(), oracle.mux_evaluate, TOKENS
    yield "counter", counter_element(), oracle.counter_evaluator(2), BITS
    yield "counter3", counter_element("counter3", bits=3), oracle.counter_evaluator(3), BITS
    yield (
        "holder-toggler",
        load_circuit(HOLDER_TOGGLER),
        oracle.ast_evaluator(parse(HOLDER_TOGGLER)),
        BITS,
    )
    yield "twoclock", toggler_pair_element(), oracle.toggler_pair_evaluate, BITS
    yield "abmem", abmem_element(), oracle.abmem_evaluate, TOKENS


def _file_cases():
    for path in sorted(CIRCUITS_DIR.glob("*.kcir")):
        text = path.read_text(encoding="utf-8")
        ast = parse(text)
        values = TOKENS if ast.kind in ROUTING_KINDS else BITS
        yield path.name, load_circuit(text), oracle.ast_evaluator(ast), values


STREAM_CASES = [*_built_in_cases(), *_file_cases()]


@st.composite
def stimuli(draw, element: CircuitElement, values, max_ticks: int = 40):
    """Control and input columns of one drawn length from 1 to ``max_ticks``."""
    ticks = draw(st.integers(1, max_ticks))

    def column(choices):
        return draw(st.lists(st.sampled_from(choices), min_size=ticks, max_size=ticks))

    control = column(element.control_alphabet.values)
    return control, {name: column(values) for name in element.input_names}


@pytest.mark.parametrize(
    "name,element,evaluate,values", STREAM_CASES, ids=[c[0] for c in STREAM_CASES]
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_streams_and_prefix_values_match_the_oracle(name, element, evaluate, values, data):
    control, inputs = data.draw(stimuli(element, values))
    assert output_stream(element, control, inputs) == oracle.output_stream(
        element, evaluate, control, inputs
    )


def _outcome(stream, *args):
    try:
        return stream(*args)
    except SimulationError as exc:
        return f"SimulationError: {exc}"


DSL_BLOCK_CASES = [c for c in STREAM_CASES if c[0] in ("counter.kcir", "twoclock.kcir")]


@pytest.mark.parametrize(
    "name,element,evaluate,values", DSL_BLOCK_CASES, ids=[c[0] for c in DSL_BLOCK_CASES]
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_non_bit_inputs_fail_alike_at_the_same_tick(name, element, evaluate, values, data):
    control, inputs = data.draw(stimuli(element, BITS, max_ticks=20))
    # Plant one to three non-bit samples; every tick up to the first one
    # must simulate, and every longer prefix must fail with the same message.
    for _ in range(data.draw(st.integers(1, 3))):
        channel = data.draw(st.sampled_from(sorted(inputs)))
        inputs[channel][data.draw(st.integers(0, len(control) - 1))] = "x"
    first_bad = min(
        t for t in range(len(control)) if any(col[t] == "x" for col in inputs.values())
    )
    for length in range(1, len(control) + 1):
        cut_control = control[:length]
        cut_inputs = {name: column[:length] for name, column in inputs.items()}
        got = _outcome(output_stream, element, cut_control, cut_inputs)
        want = _outcome(oracle.output_stream, element, evaluate, cut_control, cut_inputs)
        assert got == want
        assert isinstance(got, str) == (length > first_bad)


# --- randomized checks: trimmed folds against full folds ------------------------

CHECK_ELEMENTS = [
    *((factory.__name__, factory()) for factory in (
        dff_element, sr_latch_element, mux_element, counter_element,
        toggler_pair_element, abmem_element,
    )),
    *((path.name, load_circuit(path.read_text(encoding="utf-8")))
      for path in sorted(CIRCUITS_DIR.glob("*.kcir"))),
]


@pytest.mark.parametrize("name,element", CHECK_ELEMENTS, ids=[c[0] for c in CHECK_ELEMENTS])
@pytest.mark.parametrize("horizon", (1, 4, 16))
def test_check_reports_match_the_full_fold_oracle(name, element, horizon):
    for seed in range(5):
        assert causality_check(element, horizon, 200, seed) == oracle.causality_check(
            element, horizon, 200, seed
        )
        if element.read_step is not None:
            assert read_soundness_check(element, horizon, 200, seed) == (
                oracle.read_soundness_check(element, horizon, 200, seed)
            )


CHECK_FILES = sorted(CIRCUITS_DIR.glob("*.kcir"))


@pytest.mark.parametrize("path", CHECK_FILES, ids=[p.name for p in CHECK_FILES])
def test_check_json_is_byte_identical_to_the_full_fold_oracle(path, monkeypatch):
    def report(argv):
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        return out.getvalue()

    runs = [
        ["check", "--circuit", str(path), "--horizon", str(horizon), "--seed", str(seed),
         "--trials", "100", "--format", "json"]
        for horizon in (1, 4, 16)
        for seed in range(5)
    ]
    trimmed = [report(argv) for argv in runs]
    monkeypatch.setattr(cli, "causality_check", oracle.causality_check)
    monkeypatch.setattr(cli, "read_soundness_check", oracle.read_soundness_check)
    assert [report(argv) for argv in runs] == trimmed
