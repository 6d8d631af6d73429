from __future__ import annotations

import dataclasses
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcir import (
    Alphabet,
    CausalSignal,
    CausalityReport,
    CircuitElement,
    ReadSet,
    SimulationError,
    Verdict,
    abmem_element,
    causality_check,
    classify,
    counter_element,
    dff_element,
    elaborate,
    load_circuit,
    mux_element,
    output_stream,
    read_soundness_check,
    sr_latch_element,
    toggler_pair_element,
)
from kcir import circuits
from kcir.circuits import _below, _random_streams, _stream_alphabets
from kcir.dsl import MAX_DOMAINS

from . import oracle
from .conftest import CIRCUITS_DIR, bits, last_output, latch_control, short_sighted_dff, sig
from .oracle import enumerate_causal_signals, prefix
from .test_cli import multiclock_text
from .test_dsl import _circuits


def _random_samples(rng: random.Random, alphabet: Alphabet, length: int) -> tuple[str, ...]:
    return tuple(rng.choice(alphabet.values) for _ in range(length))

PAIRS = Alphabet.product(("A", "B", "-"), ("A", "B", "-"))

#: The circuit files whose circuit has a read map.
READ_MAP_FILES = [path for path in sorted(CIRCUITS_DIR.glob("*.kcir"))
                  if load_circuit(path.read_text()).reads is not None]


def naive_edges(samples):
    return {u for u in range(1, len(samples)) if samples[u - 1 : u + 1] == ("0", "1")}


def step_edges(clock: CausalSignal) -> set[int]:
    """Edge ticks as ``step`` sees them: where a 4-bit edge counter moves."""
    counter = counter_element("counter4", bits=4)
    zeros = ("0",) * len(clock.samples)
    counts = output_stream(counter, clock.samples, {"D": zeros})
    return {t for t in range(1, len(counts)) if counts[t] != counts[t - 1]}


def read_edges(clock: CausalSignal) -> set[int]:
    """Edge ticks as ``read_step`` sees them: the flip-flop's latest edge at every tick."""
    reads = dff_element().reads
    images = (reads(prefix(clock, t)) for t in range(clock.t + 1))
    return {image[0][1] for image in images if image is not None}


class TestClockEdges:
    """Steps and read steps agree on where a binary clock rises."""

    @pytest.mark.parametrize("edges", (step_edges, read_edges))
    def test_examples(self, edges):
        assert edges(bits("01101")) == {1, 4}
        assert edges(bits("000")) == set()
        assert edges(bits("11")) == set()

    @pytest.mark.parametrize("edges", (step_edges, read_edges))
    def test_tick_zero_is_never_an_edge(self, edges):
        assert 0 not in edges(bits("1"))
        assert 0 not in edges(bits("10101"))

    @given(st.text(alphabet="01", min_size=1, max_size=10))
    def test_matches_naive_scan(self, text):
        assert step_edges(bits(text)) == read_edges(bits(text)) == naive_edges(tuple(text))

    @pytest.mark.parametrize("edges", (step_edges, read_edges))
    def test_non_bit_samples_rejected(self, edges):
        for bad in ("z", "0/1"):
            with pytest.raises(SimulationError):
                edges(sig(Alphabet(("0", "1", bad)), "0", bad))
        # A block on two clocks rejects a non-bit sample of either clock too.
        pair = toggler_pair_element()
        for symbol in ("z/1", "1/z"):
            control = sig(Alphabet(("0/0", symbol)), "0/0", symbol)
            with pytest.raises(SimulationError, match="clock sample 'z' is not a bit"):
                if edges is step_edges:
                    zeros = ("0", "0")
                    output_stream(pair, control.samples, {"D1": zeros, "D2": zeros})
                else:
                    pair.reads(control)


class TestDff:
    def test_reads_examples(self):
        reads = dff_element().reads
        assert reads(bits("01")) == ReadSet.of(("D", 1))
        assert reads(bits("00")) is None
        assert reads(bits("01101")) == ReadSet.of(("D", 4))

    def test_output_examples(self):
        dff, data = dff_element(), Alphabet(("x", "y", "z"))
        assert last_output(dff, bits("01"), D=sig(data, "x", "y")) == "y"
        assert last_output(dff, bits("010"), D=sig(data, "x", "y", "z")) == "y"
        assert last_output(dff, bits("00"), D=sig(data, "x", "y")) is None

    def test_misaligned_signals_rejected(self):
        with pytest.raises(SimulationError):
            last_output(dff_element(), bits("01"), D=bits("0"))

    def test_exhaustive_against_last_edge_oracle(self):
        # Every binary clock/data combination up to horizon 4; the oracle is a
        # reverse scan for the last 0->1 transition (the acceptance suite
        # pushes the same comparison to horizon 6).
        dff = dff_element()
        for t in range(5):
            for clock in itertools.product("01", repeat=t + 1):
                expected_tick = None
                for u in range(t, 0, -1):
                    if clock[u - 1] == "0" and clock[u] == "1":
                        expected_tick = u
                        break
                for data in itertools.product("01", repeat=t + 1):
                    got = last_output(dff, bits("".join(clock)), D=bits("".join(data)))
                    expected = None if expected_tick is None else data[expected_tick]
                    assert got == expected


class TestSrLatch:
    def output(self, set_bits: str, reset_bits: str):
        return last_output(sr_latch_element(), latch_control(set_bits, reset_bits))

    def test_truth_table_at_tick_zero(self):
        assert self.output("0", "0") is None
        assert self.output("0", "1") == "0"
        assert self.output("1", "0") == "1"
        assert self.output("1", "1") == "0"

    def test_holds_last_output_through_idle_inputs(self):
        assert self.output("10", "00") == "1"
        assert self.output("0100", "0000") == "1"
        assert self.output("100", "010") == "0"

    def test_randomized_persistence(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 12)
            s = tuple(rng.choice("01") for _ in range(n))
            r = tuple(rng.choice("01") for _ in range(n))
            expected = None
            for u in range(n):
                if (s[u], r[u]) == ("1", "0"):
                    expected = "1"
                elif (s[u], r[u]) in (("0", "1"), ("1", "1")):
                    expected = "0"
            assert self.output("".join(s), "".join(r)) == expected

    def test_element_has_no_read_map(self):
        element = sr_latch_element()
        assert element.reads is None
        assert element.read_step is None


class TestMux:
    def test_routing(self):
        step = mux_element().step
        assert step(None, "a", ("x", "y")) == (None, "x")
        assert step(None, "b", ("x", "y")) == (None, "y")

    def test_reads_select_one_channel_at_current_tick(self):
        alpha, reads = Alphabet(("a", "b")), mux_element().reads
        assert reads(sig(alpha, "a")) == ReadSet.of(("A", 0))
        assert reads(sig(alpha, "a", "b")) == ReadSet.of(("B", 1))

    def test_element_evaluation(self):
        element = mux_element()
        inputs = {"A": ("0", "0"), "B": ("1", "1")}
        assert output_stream(element, ("a", "b"), inputs) == ["0", "1"]


class TestSyncReads:
    def test_edges_plus_current(self):
        reads = counter_element().reads
        assert reads(bits("0101")) == ReadSet.of(("D", 1), ("D", 3))
        assert reads(bits("00")) == ReadSet.of(("D", 1))
        assert reads(bits("010")) == ReadSet.of(("D", 1), ("D", 2))

    def test_multiple_channels(self):
        element = load_circuit("""
            circuit two {
              kind sync; clock c; state 2 init 00; in d; in e;
              next q0 = not(q0); next q1 = xor(q1, q0); out hi = q1; out lo = q0;
            }
        """)
        assert element.reads(bits("01")) == ReadSet.of(("d", 1), ("e", 1))


class TestSyncOutput:
    def test_counter_counts_edges(self):
        clock = bits("0101010")  # three edges
        data = bits("0000000")
        assert last_output(counter_element(), clock, D=data) == "11"

    def test_no_edges_yields_initial_output(self):
        assert last_output(counter_element(), bits("111"), D=bits("000")) == "00"

    def test_wraps_modulo_4(self):
        clock = bits("0" + "10" * 5)  # five edges
        data = bits("0" * 11)
        assert last_output(counter_element(), clock, D=data) == "01"

    def test_randomized_against_edge_count(self):
        element = counter_element()
        rng = random.Random(3)
        for _ in range(50):
            clock = tuple(rng.choice("01") for _ in range(9))
            data = tuple(rng.choice("01") for _ in range(9))
            outputs = output_stream(element, clock, {"D": data})
            running = 0
            for t in range(9):
                if t >= 1 and clock[t - 1 : t + 1] == ("0", "1"):
                    running += 1
                assert outputs[t] == format(running % 4, "02b")

    def test_a_counter_needs_a_bit(self):
        with pytest.raises(ValueError):
            counter_element(bits=0)

    def test_non_bit_data_is_refused(self):
        with pytest.raises(SimulationError, match="input 'D' sample 'x' is not a bit"):
            output_stream(counter_element(), ("0", "1"), {"D": ("0", "x")})


@given(
    st.integers(1, 6),
    st.lists(st.tuples(*(st.sampled_from("01"),) * 4), min_size=1, max_size=40),
)
def test_built_in_blocks_count_rising_edges(width, ticks):
    """The counter's binary word is its edge count and each toggler its edge parity."""
    first, second, data1, data2 = zip(*ticks)
    counts = output_stream(counter_element(bits=width), first, {"D": data1})
    pairs = [f"{a}/{b}" for a, b in zip(first, second)]
    toggles = output_stream(toggler_pair_element(), pairs, {"D1": data1, "D2": data2})
    for t in range(len(ticks)):
        edges1, edges2 = len(naive_edges(first[: t + 1])), len(naive_edges(second[: t + 1]))
        assert len(counts[t]) == width
        assert int(counts[t], 2) == edges1 % (1 << width)
        assert toggles[t] == f"{edges1 % 2}/{edges2 % 2}"


class TestMulticlock:
    CLOCKS = Alphabet.product(("0", "1"), ("0", "1"))

    def pair(self, fast: str, slow: str) -> CausalSignal:
        samples = tuple(f"{a}/{b}" for a, b in zip(fast, slow))
        return CausalSignal.from_samples(self.CLOCKS, samples)

    def test_reads_split_by_domain(self):
        control = self.pair("011", "001")
        assert toggler_pair_element().reads(control) == ReadSet.of(
            ("D1", 1), ("D1", 2), ("D2", 2)
        )

    def test_flat_clocks_read_only_current(self):
        control = self.pair("00", "11")
        assert toggler_pair_element().reads(control) == ReadSet.of(("D1", 1), ("D2", 1))

    def test_togglers_track_edge_parity(self):
        element = toggler_pair_element()
        rng = random.Random(5)
        for _ in range(50):
            fast = "".join(rng.choice("01") for _ in range(8))
            slow = "".join(rng.choice("01") for _ in range(8))
            control = self.pair(fast, slow)
            zeros = bits("0" * 8)
            out = last_output(element, control, D1=zeros, D2=zeros)
            assert out == (
                f"{len(naive_edges(tuple(fast))) % 2}/{len(naive_edges(tuple(slow))) % 2}"
            )

    def test_no_edges_yield_initial_outputs(self):
        control = self.pair("000", "111")
        zeros = bits("000")
        assert last_output(toggler_pair_element(), control, D1=zeros, D2=zeros) == "0/0"


class TestAbmem:
    def test_reads_examples(self):
        reads = abmem_element().reads
        control = sig(PAIRS, "A/-", "B/A", "-/B")
        assert reads(prefix(control, 1)) == ReadSet.of(("D", 0))
        assert reads(control) == ReadSet.of(("D", 1))
        assert reads(sig(PAIRS, "-/A")) is None

    def test_same_tick_write_is_readable(self):
        assert abmem_element().reads(sig(PAIRS, "A/A")) == ReadSet.of(("D", 0))

    def test_output_examples(self):
        memory, data = abmem_element(), Alphabet(("x", "y"))
        control = sig(PAIRS, "A/-", "B/A")
        assert last_output(memory, control, D=sig(data, "x", "y")) == "x"
        assert last_output(memory, sig(PAIRS, "A/A"), D=sig(data, "x")) == "x"
        assert last_output(memory, sig(PAIRS, "-/B"), D=sig(data, "x")) is None

    def test_cell_state_route_agrees_with_read_map(self):
        # The step walks cell state while the read step tracks write ticks;
        # exhaustively they must pick the same sample.
        memory = abmem_element()
        distinct = Alphabet(("v0", "v1", "v2"))
        for control in enumerate_causal_signals(PAIRS, 2):
            data = sig(distinct, *(f"v{u}" for u in range(control.t + 1)))
            image = memory.reads(control)
            value = last_output(memory, control, D=data)
            if image is None:
                assert value is None
            else:
                assert value == data.samples[image[0][1]]


class TestOutputStream:
    def test_dff_stream(self):
        element = dff_element()
        control = ("0", "1", "0", "1")
        assert output_stream(element, control, {"D": "abce"}) == [None, "b", "b", "e"]

    def test_sr_stream(self):
        element = sr_latch_element()
        assert output_stream(element, ("1/0", "0/0"), {}) == ["1", "1"]

    def test_length_one_traces(self):
        element = mux_element()
        assert output_stream(element, ("b",), {"A": ("0",), "B": ("1",)}) == ["1"]

    def test_length_mismatch_is_an_error(self):
        element = dff_element()
        with pytest.raises(SimulationError):
            output_stream(element, ("0", "1"), {"D": ("0",)})

    def test_wrong_channels_are_an_error(self):
        element = dff_element()
        with pytest.raises(SimulationError):
            output_stream(element, ("0",), {"X": ("0",)})

    def test_empty_traces_are_an_error(self):
        with pytest.raises(SimulationError, match="at least tick 0"):
            output_stream(dff_element(), (), {"D": ()})

    def test_initial_state_is_shared_by_independent_runs(self):
        element = abmem_element()
        control = ("A/A", "-/A")
        first = output_stream(element, control, {"D": ("1", "0")})
        second = output_stream(element, control, {"D": ("0", "1")})
        assert (first, second) == (["1", "1"], ["0", "0"])


def _recording(element):
    """The element with a step that records (tick, samples) of every call in the list."""
    steps = []

    def step(state, symbol, samples):
        tick, inner = state
        steps.append((tick, samples))
        inner, output = element.step(inner, symbol, samples)
        return (tick + 1, inner), output

    return dataclasses.replace(element, init=(0, element.init), step=step), steps


class TestLinearTime:
    """Simulation costs one step per tick, and a check trial steps only the ticks it compares."""

    @pytest.mark.parametrize(
        "factory",
        (dff_element, mux_element, counter_element, toggler_pair_element,
         abmem_element, sr_latch_element),
    )
    def test_output_stream_steps_once_per_tick(self, factory):
        element, steps = _recording(factory())
        rng = random.Random(7)
        ticks = 2000
        control = _random_samples(rng, element.control_alphabet, ticks)
        inputs = {
            name: _random_samples(rng, alphabet, ticks)
            for name, alphabet in element.input_channels
        }
        assert len(output_stream(element, control, inputs)) == ticks
        assert [tick for tick, _ in steps] == list(range(ticks))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("horizon", (1, 4, 16))
    def test_causality_trial_steps_twice_per_compared_tick(self, horizon, seed):
        element, steps = _recording(counter_element())
        report = causality_check(element, horizon=horizon, trials=1, seed=seed)
        assert report == CausalityReport(1, 1, 0)
        # The trial draws its tick m first, then ticks 0..m-1 of each column
        # as choice draws them, and steps both runs over them side by side.
        rng = random.Random(seed)
        m = rng.randint(1, horizon)
        _, *columns = [[rng.choice(alphabet.values) for _ in range(m)]
                       for alphabet in _stream_alphabets(element)]
        assert [tick for tick, _ in steps] == [tick for tick in range(m) for _ in range(2)]
        assert steps[0::2] == steps[1::2]
        assert [samples for _, samples in steps[0::2]] == list(zip(*columns))

    @pytest.mark.parametrize("factory", (dff_element, mux_element, counter_element,
                                         toggler_pair_element, abmem_element))
    def test_read_soundness_trial_stops_where_its_two_runs_meet(self, factory):
        plain = factory()
        element, steps = _recording(plain)
        horizon, mutated, met = 8, 0, 0
        for seed in range(12):
            steps.clear()
            report = read_soundness_check(element, horizon=horizon, trials=1, seed=seed)
            # The trial's draws as choice, randint and randrange draw them:
            # ticks 0..horizon, then t, then the position and the new value.
            rng = random.Random(seed)
            control, *columns = [_random_samples(rng, alphabet, horizon + 1)
                                 for alphabet in _stream_alphabets(element)]
            t = rng.randint(0, horizon)
            read_state = element.read_init
            for tick in range(t + 1):
                read_state, refs = element.read_step(read_state, control[tick], tick)
            free = [] if refs is None else [
                (k, u) for k, (name, alphabet) in enumerate(element.input_channels)
                for u in range(t + 1) if (name, u) not in refs and len(alphabet) > 1]
            if not free:
                assert report.mutations == 0
                assert steps == []
                continue
            assert report.mutations == 1
            mutated += 1
            k, u = free[rng.randrange(len(free))]
            alphabet = element.input_channels[k][1]
            new = rng.choice([v for v in alphabet.values if v != columns[k][u]])
            rows = list(zip(*columns))
            changed = list(rows)
            changed[u] = (*rows[u][:k], new, *rows[u][k + 1:])
            # Both runs in full from init, to the first tick from u on after
            # which their states are equal, or else to t.
            first = second = plain.init
            for tick in range(t + 1):
                first = plain.step(first, control[tick], rows[tick])[0]
                second = plain.step(second, control[tick], changed[tick])[0]
                if tick >= u and (first == second or tick == t):
                    end = tick
                    break
            met += end < t
            # Ticks 0..u-1 once, then u, u, u+1, u+1, ... to that tick: the
            # baseline's rows, and the mutated run's, whose first row
            # differs from the baseline's in one sample.
            assert [tick for tick, _ in steps] == [
                *range(u), *(tick for tick in range(u, end + 1) for _ in range(2))]
            assert [samples for _, samples in steps[:u]] == rows[:u]
            baseline, again = steps[u::2], steps[u + 1::2]
            assert [samples for _, samples in baseline] == rows[u : end + 1]
            assert [samples for _, samples in again] == changed[u : end + 1]
            assert [a != b for a, b in zip(baseline[0][1], again[0][1])].count(True) == 1
        assert mutated
        assert met

    @pytest.mark.parametrize("path", ("counter.kcir", "twoclock.kcir"))
    def test_read_soundness_folds_a_register_block_without_its_read_step(self, path):
        element = load_circuit((CIRCUITS_DIR / path).read_text())
        calls = []

        def counting(state, symbol, tick):
            calls.append(tick)
            return element.read_step(state, symbol, tick)

        counting.fold = element.read_step.fold
        counted = dataclasses.replace(element, read_step=counting)
        report = read_soundness_check(counted, horizon=100_000, trials=2, seed=0)
        assert report.trials == 2
        assert calls == []

    @pytest.mark.parametrize("text", (
        *((CIRCUITS_DIR / name).read_text() for name in
          ("counter.kcir", "twoclock.kcir", "threeclock.kcir")),
        multiclock_text(MAX_DOMAINS),
    ), ids=("counter", "twoclock", "threeclock", "most_domains"))
    def test_the_carried_fold_leaves_soundness_reports_unchanged(self, text):
        element = load_circuit(text)
        read_step = element.read_step
        plain = dataclasses.replace(
            element, read_step=lambda state, symbol, tick: read_step(state, symbol, tick))
        for horizon in (1, 4, 16, 300):
            for seed in range(5):
                assert (read_soundness_check(element, horizon, 20, seed)
                        == read_soundness_check(plain, horizon, 20, seed))

    @pytest.mark.parametrize("check", (causality_check, read_soundness_check))
    @pytest.mark.parametrize("path", ("mux.kcir", "dff.kcir"))
    def test_a_check_holds_one_trial_at_a_time(self, monkeypatch, path, check):
        # At seed 0 and horizon 20,000 the first causality trial draws
        # 12,624 ticks; a soundness trial always draws 20,001.
        draws = []

        def recorded(rng, alphabets, length):
            draws.append((length, tracemalloc.get_traced_memory()[0]))
            return _random_streams(rng, alphabets, length)

        monkeypatch.setattr(circuits, "_random_streams", recorded)
        element = load_circuit((CIRCUITS_DIR / path).read_text())
        tracemalloc.start()
        try:
            check(element, horizon=20_000, trials=3, seed=0)
        finally:
            tracemalloc.stop()
        assert len(draws) == 3 and draws[0][0] > 3_000
        # No draw may find the last trial's samples still held.
        held = draws[0][1]
        assert all(abs(memory - held) < 64 * 1024 for _, memory in draws[1:]), draws


ELEMENTS_WITH_READS = (
    dff_element,
    mux_element,
    counter_element,
    toggler_pair_element,
    abmem_element,
)


def _forbidden(*args, **kwargs):
    raise AssertionError("must not be called")


class TestReadStep:
    """``reads`` is the fold of ``read_step``."""

    @pytest.mark.parametrize("factory", ELEMENTS_WITH_READS)
    def test_read_soundness_folds_the_read_step(self, factory):
        element = factory()
        calls = []

        def counting(state, symbol, tick):
            calls.append(tick)
            return element.read_step(state, symbol, tick)

        report = read_soundness_check(
            dataclasses.replace(element, read_step=counting),
            horizon=8, trials=40, seed=5,
        )
        assert report == read_soundness_check(element, horizon=8, trials=40, seed=5)
        # One fold per trial, each from tick 0 up to that trial's tick, and
        # no call through the derived ``reads``.
        assert calls.count(0) == report.trials

    def test_other_replacements_keep_both_views(self):
        element = dff_element()
        renamed = dataclasses.replace(element, name="other")
        assert renamed.read_step is element.read_step
        for signal in enumerate_causal_signals(element.control_alphabet, 3):
            state, refs = renamed.read_init, None
            for tick, symbol in enumerate(signal.samples):
                state, refs = renamed.read_step(state, symbol, tick)
            folded = None if refs is None else ReadSet(refs)
            assert renamed.reads(signal) == element.reads(signal) == folded

    def test_a_read_map_given_beside_a_read_step_gives_way_to_the_fold(self):
        element = dff_element()
        calls = []

        def custom(control):
            calls.append(control)
            return ReadSet.of(("D", control.t))

        replaced = dataclasses.replace(element, reads=custom)
        assert replaced.read_step is element.read_step
        for signal in enumerate_causal_signals(element.control_alphabet, 3):
            assert replaced.reads(signal) == element.reads(signal)
        assert classify(replaced, 3) == classify(element, 3)
        assert not calls

    @pytest.mark.parametrize("factory", ELEMENTS_WITH_READS)
    def test_replacing_the_read_step_rebuilds_the_read_map(self, factory):
        element = factory()
        calls = []

        def counting(state, symbol, tick):
            calls.append(tick)
            return element.read_step(state, symbol, tick)

        replaced = dataclasses.replace(element, read_step=counting)
        assert replaced.read_step is counting
        for signal in enumerate_causal_signals(element.control_alphabet, 2):
            assert replaced.reads(signal) == element.reads(signal)
        assert calls
        with pytest.raises(AssertionError):
            dataclasses.replace(element, read_step=_forbidden).reads(bits("0"))

    def test_a_carried_fold_is_used_only_from_its_own_read_init(self):
        element = counter_element()
        # With the clock at 0 before tick 0, a 1 at tick 0 is an edge.
        moved = dataclasses.replace(element, read_init=("0", element.read_init[1]))
        assert moved.read_step.fold[0] == element.read_init != moved.read_init
        control = bits("10")
        assert moved.reads(control) == ReadSet(oracle.read_fold(moved, control.samples)[1])
        assert moved.reads(control) == ReadSet.of(("D", 0), ("D", 1))
        assert element.reads(control) == ReadSet.of(("D", 1))

    def test_dropping_the_read_step_drops_the_read_map(self):
        element = dataclasses.replace(dff_element(), read_step=None)
        assert element.reads is None
        assert classify(element, 2).verdict is Verdict.NOT_FUNDAMENTAL_FORM

    def test_a_read_map_given_alone_is_refused(self):
        with pytest.raises(ValueError, match="'dff': give its read map as read_step, not reads"):
            dataclasses.replace(dff_element(), reads=oracle.dff_reads, read_step=None)

    def test_the_test_adapter_walks_a_bare_read_map_on_the_history(self):
        base = dff_element()
        adapted = oracle.with_read_map(base, oracle.dff_reads)
        control = bits("0110")
        state, refs = adapted.read_init, None
        for tick, symbol in enumerate(control.samples):
            state, refs = adapted.read_step(state, symbol, tick)
        assert state == control.samples
        assert refs == (("D", 1),)
        assert classify(adapted, 4) == classify(base, 4)


ALL_ELEMENTS = ELEMENTS_WITH_READS + (sr_latch_element,)


def other_cell_abmem() -> CircuitElement:
    """An abmem whose read step names the latest write to the cell it does not read."""
    abmem = abmem_element()

    def read_step(state, symbol, tick):
        state, _ = abmem.read_step(state, symbol, tick)
        read = symbol.split("/")[1]
        return state, None if read == "-" else state["BA".index(read)]

    return dataclasses.replace(abmem, read_step=read_step)


def far_sighted_mux() -> CircuitElement:
    """A mux whose read step claims the selected sample of the next tick, past the current one."""
    mux = mux_element()

    def read_step(state, select, tick):
        state, ((channel, _),) = mux.read_step(state, select, tick)
        return state, ((channel, tick + 1),)

    return dataclasses.replace(mux, read_step=read_step)


def hoarding_mux() -> CircuitElement:
    """A mux that keeps every sample in its state and outputs the current selected one.

    Its read step is the mux's, and sound, but a mutated sample stays in the
    state, so the two runs of a read-soundness trial never meet before t.
    """
    mux = mux_element()

    def step(state, select, samples):
        return (state, samples), mux.step(None, select, samples)[1]

    return dataclasses.replace(mux, init=(), step=step)


#: Read steps that leave out a sample the output reads.
CLAIMING_TOO_LITTLE = (short_sighted_dff, other_cell_abmem, far_sighted_mux)


#: Every circuit file's circuit, the multiclock circuit of the most domains,
#: and a pure step that outputs its tick: unlike every circuit file's step, a
#: second step from the state it left gives a new output.
PURE_CIRCUITS = [
    *((path.name, load_circuit(path.read_text(encoding="utf-8")))
      for path in sorted(CIRCUITS_DIR.glob("*.kcir"))),
    ("multiclock", load_circuit(multiclock_text(MAX_DOMAINS))),
    ("tick", dataclasses.replace(
        dff_element("tick"), init=0, step=lambda tick, symbol, samples: (tick + 1, str(tick)))),
]


class TestRandomizedProperties:
    @pytest.mark.parametrize("factory", ELEMENTS_WITH_READS)
    def test_read_soundness(self, factory):
        element = factory()
        report = read_soundness_check(element, horizon=4, trials=300, seed=13)
        assert report.violations == 0
        assert report.mutations > 0

    @pytest.mark.parametrize("factory", CLAIMING_TOO_LITTLE)
    def test_read_soundness_finds_a_read_step_that_claims_too_little(self, factory):
        element = factory()
        report = read_soundness_check(element, horizon=4, trials=300, seed=13)
        assert report.violations > 0
        assert report == oracle.read_soundness_check(element, horizon=4, trials=300, seed=13)

    @pytest.mark.parametrize("factory", (*CLAIMING_TOO_LITTLE, hoarding_mux))
    @given(seed=st.integers(), horizon=st.integers(0, 40), trials=st.integers(0, 30))
    def test_read_soundness_matches_the_full_fold_oracle_off_the_sound_path(
        self, factory, seed, horizon, trials
    ):
        # What the sound built-ins seldom or never reach: runs that go on to
        # t without their states meeting, and violations.
        element = factory()
        report = read_soundness_check(element, horizon, trials, seed)
        assert report == oracle.read_soundness_check(element, horizon, trials, seed)
        if factory is hoarding_mux:
            assert report.violations == 0

    @pytest.mark.parametrize("factory", ALL_ELEMENTS)
    def test_causality(self, factory):
        element = factory()
        report = causality_check(element, horizon=4, trials=300, seed=13)
        assert report.violations == 0
        assert report.mutations == report.trials

    @pytest.mark.parametrize("name,element", PURE_CIRCUITS, ids=[c[0] for c in PURE_CIRCUITS])
    @given(seed=st.integers(), horizon=st.integers(1, 40), trials=st.integers(0, 30))
    def test_causality_passes_every_trial_of_a_pure_step(self, name, element, seed, horizon,
                                                         trials):
        # A pure step's report does not depend on what a trial draws, which
        # is what lets the draws change with no seeded report moving.
        report = causality_check(element, horizon, trials, seed)
        assert report == CausalityReport(trials, trials, 0)

    def test_causality_mutates_only_streams_with_two_values(self):
        element = dataclasses.replace(dff_element(), input_channels=(("D", Alphabet(("0",))),))
        report = causality_check(element, horizon=4, trials=50, seed=13)
        assert report == CausalityReport(50, 50, 0)
        assert report == oracle.causality_check(element, horizon=4, trials=50, seed=13)
        # With no stream to mutate, every trial is counted and none mutated.
        frozen = dataclasses.replace(element, control_alphabet=Alphabet(("0",)))
        for check in (causality_check, oracle.causality_check):
            assert check(frozen, horizon=4, trials=50, seed=13) == CausalityReport(50, 0, 0)

    @pytest.mark.parametrize("check", (causality_check, read_soundness_check))
    def test_negative_trials_are_refused(self, check):
        with pytest.raises(ValueError, match="trials must be >= 0"):
            check(dff_element(), 4, -3, 0)

    def test_read_soundness_refuses_a_negative_horizon(self):
        with pytest.raises(ValueError) as info:
            read_soundness_check(dff_element(), -1, 10, 0)
        assert str(info.value) == "horizon must be >= 0"

    def test_causality_refuses_a_horizon_below_1(self):
        with pytest.raises(ValueError) as info:
            causality_check(dff_element(), 0, 10, 0)
        assert str(info.value) == "causality needs a horizon of at least 1"

    def test_causality_catches_an_impure_step(self):
        # The output reads how often the step was called, not its arguments,
        # so the run after the mutation differs before the mutated tick.
        element = dff_element()
        calls = itertools.count()
        impure = dataclasses.replace(
            element, step=lambda state, symbol, samples: (state, str(next(calls) % 2))
        )
        report = causality_check(impure, horizon=4, trials=50, seed=13)
        assert report.violations > 0
        assert causality_check(element, horizon=4, trials=50, seed=13).violations == 0

    @given(
        sizes=st.lists(st.sampled_from((1, 2, 3, 4, 9, 16, 256, 257)), max_size=4),
        length=st.integers(0, 40),
        seed=st.integers(),
    )
    def test_streams_draw_like_choice(self, sizes, length, seed):
        # 1 needs one bit per draw, 256 needs nine, and 3, 9 and 257 reject
        # draws; the generator state after the columns must match too.
        alphabets = [Alphabet(tuple(f"v{i}" for i in range(n))) for n in sizes]
        rng, reference = random.Random(seed), random.Random(seed)
        columns = _random_streams(rng, alphabets, length)
        assert columns == [
            [reference.choice(a.values) for _ in range(length)] for a in alphabets
        ]
        assert rng.getstate() == reference.getstate()

    @given(
        sizes=st.lists(
            st.one_of(st.sampled_from((1, 2, 3, 9, 256, 257)), st.integers(1, 2**20)),
            min_size=1, max_size=8,
        ),
        seed=st.integers(),
    )
    def test_below_draws_like_randrange(self, sizes, seed):
        # 1 needs one bit per draw, 2 and 3 two, 9 four, 256 and 257 nine,
        # and 3, 9 and 257 reject draws; randint and choice draw by the same
        # rule, and the generator state after the draws must match too.
        rng, reference = random.Random(seed), random.Random(seed)
        for n in sizes:
            assert _below(rng.getrandbits, n) == reference.randrange(n)
            assert 1 + _below(rng.getrandbits, n) == reference.randint(1, n)
            assert _below(rng.getrandbits, n) == reference.choice(range(n))
        assert rng.getstate() == reference.getstate()

    def test_read_soundness_requires_a_read_map(self):
        with pytest.raises(ValueError):
            read_soundness_check(sr_latch_element(), 4, 10, 0)

    @pytest.mark.parametrize("factory", ELEMENTS_WITH_READS)
    def test_read_set_ticks_never_exceed_current(self, factory):
        element = factory()
        for signal in enumerate_causal_signals(element.control_alphabet, 4):
            image = element.reads(signal)
            if image is not None:
                assert all(tick <= signal.t for _, tick in image)


#: Control symbols in no built-in's alphabet: junk, extra '/' parts and
#: unknown memory addresses.
OUTSIDE_ALPHABETS = ("x", "z", "", "2", "a/b", "1/0/x", "0/0/0", "Z/Q", "Z/A", "A/Z", "A/A/A")


@pytest.mark.parametrize("factory", ALL_ELEMENTS)
def test_steps_refuse_control_symbols_outside_the_alphabet(factory):
    element = factory()
    samples = ("0",) * len(element.input_channels)
    last = element.control_alphabet.values[-1]
    states = [element.init, element.step(element.init, last, samples)[0]]
    read_states = []
    if element.read_step is not None:
        read_states = [(element.read_init, 0), (element.read_step(element.read_init, last, 0)[0], 1)]
    for symbol in OUTSIDE_ALPHABETS:
        assert symbol not in element.control_alphabet
        for state in states:
            with pytest.raises(SimulationError):
                element.step(state, symbol, samples)
        for state, tick in read_states:
            with pytest.raises(SimulationError):
                element.read_step(state, symbol, tick)



#: Per circuit file, the horizon up to which its read sets are checked
#: against the exact reference, whose cost is exponential in the inputs times
#: the ticks, and how many defined histories up to it claim more than the
#: samples that matter.  dff, mux and abmem claim exactly those; twoclock's
#: toggles never depend on their data, and counter and threeclock claim
#: samples their registers do not depend on.
EXACT_READS = {
    "abmem.kcir": (3, 0),
    "counter.kcir": (5, 95),
    "dff.kcir": (5, 0),
    "mux.kcir": (4, 0),
    "threeclock.kcir": (1, 72),
    "twoclock.kcir": (3, 340),
}


@pytest.mark.parametrize("path", READ_MAP_FILES, ids=lambda path: path.name)
def test_read_sets_hold_the_essential_samples(path):
    horizon, over_claims = EXACT_READS[path.name]
    element = load_circuit(path.read_text())
    claims = 0
    for signal in enumerate_causal_signals(element.control_alphabet, horizon):
        claimed = element.reads(signal)
        if claimed is not None:
            essential = oracle.essential_reads(element, signal)
            assert set(essential) <= set(claimed), signal
            claims += claimed != essential
    assert claims == over_claims


@settings(max_examples=40, deadline=None)
@given(_circuits(max_domains=2, max_inputs=2), st.integers(0, 2))
def test_drawn_register_blocks_read_their_essential_samples(ast, horizon):
    # The clocked reader on drawn logic: two input channels and three ticks
    # keep the exact reference at 64 input assignments per history.
    element = elaborate(ast)
    for signal in enumerate_causal_signals(element.control_alphabet, horizon):
        claimed = element.reads(signal)
        if claimed is not None:
            assert set(oracle.essential_reads(element, signal)) <= set(claimed), signal
