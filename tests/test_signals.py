from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kcir import (
    BINARY,
    Alphabet,
    CausalSignal,
    history_count,
    prefix_leq,
)
from kcir.signals import prefix_pair_count

from .conftest import bits
from .oracle import build_prefix_relation, enumerate_causal_signals, prefix, signal_at


class TestAlphabet:
    def test_declaration_order_is_kept(self):
        alpha = Alphabet(("b", "a"))
        assert alpha.rank("b") == 0
        assert alpha.rank("a") == 1

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(())
        with pytest.raises(ValueError):
            Alphabet(("x", "x"))

    def test_rank_refuses_a_value_outside_the_alphabet(self):
        with pytest.raises(ValueError) as info:
            Alphabet(("b", "a")).rank("c")
        assert str(info.value) == "'c' is not in alphabet ('b', 'a')"

    def test_product_order(self):
        alpha = Alphabet.product(("A", "B"), ("A", "-"))
        assert alpha.values == ("A/A", "A/-", "B/A", "B/-")


class TestCausalSignal:
    def test_samples_must_be_in_alphabet(self):
        with pytest.raises(ValueError):
            CausalSignal.from_samples(BINARY, ("0", "2"))

    def test_signal_needs_the_tick_0_sample(self):
        with pytest.raises(ValueError, match="tick-0 sample"):
            CausalSignal(BINARY, ())

    def test_current_tick_is_the_last_sampled(self):
        assert bits("0").t == 0
        assert bits("0110").t == 3
        assert CausalSignal(BINARY, ("0", "1")) == bits("01")

    def test_prefix(self):
        assert prefix(bits("0110"), 1) == bits("01")
        assert prefix(bits("0"), 0) == bits("0")
        with pytest.raises(IndexError):
            prefix(bits("01"), 5)


class TestPrefixLeq:
    def test_literal_prefix(self):
        assert prefix_leq(bits("01"), bits("011"))

    def test_changed_past_is_not_a_prefix(self):
        assert not prefix_leq(bits("01"), bits("001"))

    def test_reflexive(self):
        assert prefix_leq(bits("01"), bits("01"))

    def test_alphabet_mismatch_is_an_error(self):
        other = CausalSignal.from_samples(Alphabet(("x", "y")), ("x",))
        with pytest.raises(ValueError):
            prefix_leq(bits("0"), other)

    @given(
        st.text(alphabet="01", min_size=1, max_size=6),
        st.text(alphabet="01", min_size=1, max_size=6),
    )
    def test_structural_antisymmetry(self, a_text, b_text):
        a, b = bits(a_text), bits(b_text)
        if prefix_leq(a, b) and prefix_leq(b, a):
            assert a == b

    @given(
        st.text(alphabet="01", min_size=1, max_size=6),
        st.text(alphabet="01", min_size=1, max_size=6),
        st.text(alphabet="01", min_size=1, max_size=6),
    )
    def test_transitivity(self, a_text, b_text, c_text):
        a, b, c = bits(a_text), bits(b_text), bits(c_text)
        if prefix_leq(a, b) and prefix_leq(b, c):
            assert prefix_leq(a, c)


class TestEnumeration:
    def test_binary_horizon_1_has_6_signals(self):
        signals = enumerate_causal_signals(BINARY, 1)
        assert len(signals) == 6
        assert len(set(signals)) == 6

    def test_unary_horizon_2_has_3_signals(self):
        signals = enumerate_causal_signals(Alphabet(("x",)), 2)
        assert [s.samples for s in signals] == [("x",), ("x", "x"), ("x", "x", "x")]

    def test_count_matches_power_sum(self):
        # Expected count computed from the closed form, not from the code.
        for size, horizon in itertools.product((1, 2, 3), (0, 1, 2, 3)):
            alpha = Alphabet(tuple(f"v{i}" for i in range(size)))
            expected = sum(size ** (t + 1) for t in range(horizon + 1))
            signals = enumerate_causal_signals(alpha, horizon)
            assert len(signals) == expected
            assert len(set(signals)) == expected
            assert history_count(size, horizon) == expected

    def test_prefix_pair_count_is_the_power_sum(self):
        # Each signal with current tick t has t + 1 prefixes.
        for width, horizon in itertools.product(range(1, 10), range(60)):
            expected = sum((t + 1) * width ** (t + 1) for t in range(horizon + 1))
            assert prefix_pair_count(width, horizon) == expected

    def test_signal_at_rebuilds_each_entry(self):
        for size, horizon in itertools.product((1, 2, 3), (0, 1, 2, 3)):
            alpha = Alphabet(tuple(f"v{i}" for i in range(size)))
            signals = enumerate_causal_signals(alpha, horizon)
            assert [signal_at(alpha, i) for i in range(len(signals))] == signals

    def test_enumeration_is_sorted(self):
        signals = enumerate_causal_signals(BINARY, 3)
        keys = [s.sort_key() for s in signals]
        assert keys == sorted(keys)

    def test_empty_alphabet_is_an_error(self):
        with pytest.raises(ValueError):
            Alphabet(())


class TestPrefixRelation:
    def test_binary_horizon_1_has_10_pairs(self):
        # 6 reflexive pairs plus one proper prefix per length-2 trace.
        signals = enumerate_causal_signals(BINARY, 1)
        relation = build_prefix_relation(signals)
        assert len(relation) == 10
        assert sum(1 for a, b in relation if a == b) == 6

    def test_single_signal_yields_one_reflexive_pair(self):
        s = bits("0")
        assert build_prefix_relation([s]) == [(s, s)]

    def test_relation_agrees_with_pairwise_scan(self):
        signals = enumerate_causal_signals(BINARY, 3)
        relation = set(build_prefix_relation(signals))
        scanned = {
            (a, b) for a in signals for b in signals if prefix_leq(a, b)
        }
        assert relation == scanned

    def test_axioms_hold_exhaustively_at_horizon_4(self):
        signals = enumerate_causal_signals(BINARY, 4)
        assert len(signals) == 62
        relation = set(build_prefix_relation(signals))
        for s in signals:
            assert (s, s) in relation
        for a, b in relation:
            if (b, a) in relation:
                assert a == b
        by_left: dict = {}
        for a, b in relation:
            by_left.setdefault(a, []).append(b)
        for a, b in relation:
            for c in by_left.get(b, ()):
                assert (a, c) in relation

    def test_one_trace_induces_a_chain(self):
        full = bits("01101")
        chain = [prefix(full, t) for t in range(full.t + 1)]
        for i, a in enumerate(chain):
            assert a.t == i
            for b in chain[i:]:
                assert prefix_leq(a, b)
            for b in chain[:i]:
                assert not prefix_leq(a, b)
