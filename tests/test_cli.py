from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Iterable

import pytest

from kcir import classifier, cli
from kcir.cli import main
from kcir import CausalSignal, CausalityReport, ReadSoundnessReport, classify
from kcir.dsl import MAX_DOMAINS, MAX_EXPR_DEPTH, load_circuit, parse

from . import oracle
from .conftest import CIRCUITS_DIR, short_sighted_dff


def run(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def circuit(name: str) -> str:
    return str(CIRCUITS_DIR / name)


def multiclock_text(domains: int) -> str:
    """A multiclock circuit of ``domains`` one-register domains, each latching its own input."""
    return "circuit big { kind multiclock; " + " ".join(
        f"domain d{i} {{ clock c{i}; state 1 init 0; in x{i}; next q0 = x{i}; out y{i} = q0; }}"
        for i in range(domains)
    ) + " }"


def _never_called(*args, **kwargs):
    raise AssertionError("classify must not start")


class TestClassifyCommand:
    def test_abmem_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            "classify", "--circuit", circuit("abmem.kcir"),
            "--horizon", "2", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "classify"
        assert report["circuit"] == "abmem"
        assert report["verdict"] == "not-time-preserving"
        assert report["witness"]["x_reads"] == [{"channel": "D", "tick": 0}]
        assert report["witness"]["y_reads"] == [{"channel": "D", "tick": 1}]
        assert report["axioms"]["antisymmetric"] is False
        assert report["timing"] is None
        assert set(report) == {
            "circuit", "command", "verdict", "axioms", "witness", "stats", "timing",
        }

    def test_abmem_text_report_prints_its_witness(self, capsys):
        code, out, err = run(
            capsys, "classify", "--circuit", circuit("abmem.kcir"), "--horizon", "2",
        )
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert re.fullmatch(r"timing: \d+\.\d{3}s", lines.pop())
        assert lines == [
            "circuit: abmem",
            "command: classify",
            "verdict: not-time-preserving",
            "axioms: reflexive=yes antisymmetric=no transitive=yes",
            "witness:",
            "  a0: t=0 samples=A/A",
            "  a1: t=1 samples=A/A,A/A",
            "  b0: t=1 samples=A/A,B/B",
            "  b1: t=2 samples=A/A,B/B,B/A",
            "  x_reads: {(D,0)}",
            "  y_reads: {(D,1)}",
            "stats: horizon=2 signals=819 relation_pairs=2358 distinct_read_sets=3"
            " excluded_undefined=1748 degenerate_horizon=False",
        ]

    def test_srlatch_is_not_fundamental_form(self, capsys):
        code, out, _ = run(
            capsys,
            "classify", "--circuit", circuit("srlatch.kcir"), "--horizon", "3",
        )
        assert code == 0
        assert "verdict: not-fundamental-form" in out

    def test_text_format_shows_timing(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--circuit", circuit("dff.kcir"), "--horizon", "2",
        )
        assert code == 0
        assert "verdict: time-preserving" in out
        assert "timing:" in out

    def test_check_text_format_ends_with_timing(self, capsys):
        code, out, _ = run(
            capsys, "check", "--circuit", circuit("dff.kcir"),
            "--horizon", "4", "--trials", "20",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == ["circuit: dff", "command: check", "verdict: pass"]
        assert re.fullmatch(r"timing: \d+\.\d{3}s", lines[-1])
        assert sum(line.startswith("timing:") for line in lines) == 1

    def test_reports_are_identical_across_reruns(self, capsys):
        argv = [
            "classify", "--circuit", circuit("counter.kcir"),
            "--horizon", "3", "--format", "json",
        ]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize(
        "name,horizon",
        [("dff.kcir", 18), ("dff.kcir", 200), ("abmem.kcir", 8), ("mux.kcir", 400),
         ("counter.kcir", 18), ("twoclock.kcir", 10), ("threeclock.kcir", 7)],
    )
    def test_deep_horizons_report_like_the_library(self, capsys, name, horizon):
        # Each of these covers over 10^6 control histories, but few read states,
        # or for twoclock and threeclock few per clock domain.
        code, out, err = run(
            capsys, "classify", "--circuit", circuit(name),
            "--horizon", str(horizon), "--format", "json",
        )
        assert (code, err) == (0, "")
        result = classify(cli._load_element(circuit(name)), horizon)
        report = json.loads(out)
        assert report["verdict"] == result.verdict.value
        assert report["stats"] == dataclasses.asdict(result.stats)
        assert report["axioms"] == cli._json(result.axiom_report)
        assert report["witness"] == cli._json(result.witness)

    def test_the_most_domains_classify_at_horizon_12(self, tmp_path, capsys):
        path = tmp_path / "big.kcir"
        path.write_text(multiclock_text(MAX_DOMAINS))
        code, out, err = run(
            capsys, "classify", "--circuit", str(path), "--horizon", "12", "--format", "json",
        )
        assert (code, err) == (0, "")
        result = classify(load_circuit(multiclock_text(MAX_DOMAINS)), 12)
        report = json.loads(out)
        assert report["verdict"] == "time-preserving"
        assert report["stats"] == dataclasses.asdict(result.stats)

    def test_a_budget_names_the_level_a_clock_domain_reached(self, monkeypatch, capsys):
        # Each threeclock domain is walked on its own, and the budget holds for each walk.
        monkeypatch.setattr(classifier, "WALK_BUDGET", 100)
        code, out, err = run(
            capsys, "classify", "--circuit", circuit("threeclock.kcir"), "--horizon", "7",
        )
        assert (code, out) == (2, "")
        assert err == "error: classify stopped at level 5 of 7: over 100 read steps and refs\n"

    @pytest.mark.parametrize("budget,count", [
        ("WALK_BUDGET", 33), ("SWEEP_BUDGET", 54), ("AXIOM_BUDGET", 12),
    ])
    def test_each_budget_is_inclusive(self, monkeypatch, capsys, budget, count):
        # dff at horizon 3 takes 33 read steps and refs, holds 18 read states,
        # the root's among them, and 3 read sets (54 bits), and relates 4
        # pairs of its 3 read sets (12).
        argv = ["classify", "--circuit", circuit("dff.kcir"), "--horizon", "3"]
        monkeypatch.setattr(classifier, budget, count)
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(classifier, budget, count - 1)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: classify stopped at level 3 of 3: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("budget,count,horizon,message", [
        ("WALK_BUDGET", 32, 8, "level 3 of 8: over 32 read steps and refs"),
        ("SWEEP_BUDGET", 53, 8,
         "level 3 of 8: 18 read states times 3 read sets need over 53 bits"),
        ("AXIOM_BUDGET", 11, 3,
         "level 3 of 3: 4 related pairs times 3 read sets pass the axiom check's 11"),
    ])
    def test_a_budget_names_the_level_reached(
        self, monkeypatch, capsys, budget, count, horizon, message
    ):
        monkeypatch.setattr(classifier, budget, count)
        code, _, err = run(
            capsys, "classify", "--circuit", circuit("dff.kcir"), "--horizon", str(horizon),
        )
        assert code == 2
        assert err == f"error: classify stopped at {message}\n"

    @pytest.mark.parametrize("name,horizon,message", [
        ("counter.kcir", 1_000_000, "whose stats pass 1,000 digits from level 3,320"),
        ("mux.kcir", 5000, "whose stats pass 1,000 digits from level 3,320"),
        ("counter.kcir", 25, "classify stopped at level 20 of 25: "),
    ])
    def test_deep_runs_are_refused_in_one_line(self, capsys, name, horizon, message):
        code, out, err = run(
            capsys, "classify", "--circuit", circuit(name), "--horizon", str(horizon),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_a_transitive_relation_passes_no_axiom_budget(self, capsys):
        # mux at 3,000 relates 18,012,002 pairs of its 6,002 read sets, past
        # the pair scan's budget, but it is decided on its DAG's 12,000 edges.
        code, out, err = run(
            capsys, "classify", "--circuit", circuit("mux.kcir"), "--horizon", "3000",
            "--format", "json",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["verdict"] == "time-preserving"
        assert 18_012_002 * 6_002 > classifier.AXIOM_BUDGET

    def test_stats_too_long_to_print_are_refused(self, tmp_path, capsys):
        # One read state per level, so the walk is cheap, but the history
        # count at horizon 20,000 has over 6,000 digits.
        path = tmp_path / "noin.kcir"
        path.write_text(
            "circuit noin { kind sync; clock clk; state 1 init 0; "
            "next q0 = not(q0); out y = q0; }"
        )
        code, out, err = run(
            capsys, "classify", "--circuit", str(path), "--horizon", "20000", "--format", "json",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: --horizon 20000 would walk over 10^1000 control histories")
        assert err.count("\n") == 1

    def test_size_guard_states_astronomic_estimates(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "classify", _never_called)
        code, _, err = run(
            capsys, "classify", "--circuit", circuit("dff.kcir"), "--horizon", "10000000",
        )
        assert code == 2
        assert "over 10^1000 control histories" in err

    def test_size_guard_skips_circuits_without_a_read_map(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--circuit", circuit("srlatch.kcir"), "--horizon", "10000000",
        )
        assert code == 0
        assert "verdict: not-fundamental-form" in out

    def test_max_signals_is_no_option(self, capsys):
        code, out, err = run(
            capsys, "classify", "--circuit", circuit("dff.kcir"), "--max-signals", "5",
        )
        assert (code, out) == (2, "")
        assert err == "error: unrecognized arguments: --max-signals 5\n"

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.kcir"
        bad.write_text("circuit x { kind warp; }")
        code, _, err = run(capsys, "classify", "--circuit", str(bad))
        assert code == 2
        assert "unknown kind" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--circuit", "no_such.kcir")
        assert code == 2

    def test_non_utf8_circuit_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.kcir"
        bad.write_bytes(b"circuit x { kind dff; }\xff\n")
        code, out, err = run(capsys, "classify", "--circuit", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read") and err.count("\n") == 1

    def test_bad_flags_exit_2(self, capsys):
        assert run(capsys, "classify")[0] == 2
        assert run(capsys, "frobnicate")[0] == 2
        assert run(capsys, "classify", "--circuit", circuit("dff.kcir"),
                   "--horizon", "-1")[0] == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("check", "--circuit", circuit("dff.kcir"), "--horizon", "x"),
             "argument --horizon: invalid int value: 'x'"),
            (("check", "--horizon", "3"), "the following arguments are required: --circuit"),
            (("classify", "--circuit", circuit("dff.kcir"), "--format", "yaml"),
             "argument --format: invalid choice: 'yaml'"),
            (("frobnicate",), "argument command: invalid choice: 'frobnicate'"),
        ],
        ids=["bad-int", "missing-option", "bad-format", "unknown-command"],
    )
    def test_usage_errors_are_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err

    def test_help_exits_0(self, capsys):
        code, out, err = run(capsys, "check", "--help")
        assert code == 0
        assert out.startswith("usage: kcir check") and err == ""


class TestParserReuse:
    """The parser is built once per process; no call leaves state for the next."""

    def test_the_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_a_usage_error_does_not_leak_into_a_valid_call(self, capsys):
        code, _, err = run(capsys, "classify", "--circuit", circuit("dff.kcir"), "--horizon", "x")
        assert code == 2 and "invalid int value: 'x'" in err
        code, out, err = run(capsys, "classify", "--circuit", circuit("dff.kcir"))
        assert (code, err) == (0, "")
        assert "verdict: time-preserving" in out
        code, _, err = run(capsys, "check", "--horizon", "3")
        assert code == 2 and "required: --circuit" in err

    def test_help_twice_prints_the_same_text(self, capsys):
        first = run(capsys, "check", "--help")
        assert first[0] == 0 and first[1].startswith("usage: kcir check")
        assert run(capsys, "check", "--help") == first
        assert run(capsys, "--help")[1].startswith("usage: kcir")
        assert run(capsys, "check", "--help") == first

    def test_an_option_does_not_become_the_next_calls_default(self, capsys):
        argv = ["classify", "--circuit", circuit("dff.kcir"), "--horizon", "3"]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)["verdict"] == "time-preserving"
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("circuit: dff\n")


class TestBomLedCircuitFiles:
    """A circuit file led by a UTF-8 byte order mark reads like the file without it."""

    @pytest.mark.parametrize("name", sorted(p.name for p in CIRCUITS_DIR.glob("*.kcir")))
    def test_bom_led_circuit_classifies_like_the_original(self, tmp_path, capsys, name):
        bom_led = tmp_path / name
        bom_led.write_bytes(b"\xef\xbb\xbf" + (CIRCUITS_DIR / name).read_bytes())
        argv = ["classify", "--horizon", "3", "--format", "json", "--circuit"]
        expected = run(capsys, *argv, circuit(name))
        assert expected[0] == 0
        assert run(capsys, *argv, str(bom_led)) == expected

    def test_bom_led_parse_error_names_the_same_line_and_column(self, tmp_path, capsys):
        text = b"circuit bad\n  bogus $\n"
        plain, bom_led = tmp_path / "plain.kcir", tmp_path / "bom.kcir"
        plain.write_bytes(text)
        bom_led.write_bytes(b"\xef\xbb\xbf" + text)
        code, out, err = run(capsys, "classify", "--circuit", str(plain))
        assert (code, out) == (2, "")
        assert err == f"error: {plain}:2:9: unexpected character '$'\n"
        assert run(capsys, "classify", "--circuit", str(bom_led)) == (
            2, "", err.replace(str(plain), str(bom_led)),
        )


class TestSimulateCommand:
    def test_dff_edge_stimulus(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--circuit", circuit("dff.kcir"),
            "--stimulus", circuit("dff_edge.csv"), "--allow-undef",
        )
        assert code == 0
        assert out.splitlines() == [
            "tick,output", "0,UNDEF", "1,b", "2,b", "3,e",
        ]

    def test_undefined_without_flag_exits_3(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--circuit", circuit("dff.kcir"),
            "--stimulus", circuit("dff_edge.csv"),
        )
        assert code == 3
        assert "undefined at tick 0" in err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys,
            "simulate", "--circuit", circuit("dff.kcir"),
            "--stimulus", circuit("dff_edge.csv"),
            "--allow-undef", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == "tick,output\n0,UNDEF\n1,b\n2,b\n3,e\n"

    def test_out_file_in_missing_directory_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "trace.csv"
        code, out, err = run(
            capsys,
            "simulate", "--circuit", circuit("dff.kcir"),
            "--stimulus", circuit("dff_edge.csv"),
            "--allow-undef", "--out", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_bom_led_stimulus_simulates_like_the_original(self, tmp_path, capsys):
        # Spreadsheet "CSV UTF-8" exports start the file with a byte order mark.
        original = CIRCUITS_DIR / "dff_edge.csv"
        bom_led = tmp_path / "bom.csv"
        bom_led.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
        argv = ["simulate", "--circuit", circuit("dff.kcir"), "--allow-undef", "--stimulus"]
        expected = run(capsys, *argv, str(original))
        assert expected[0] == 0
        assert run(capsys, *argv, str(bom_led)) == expected

    def test_cells_quoted_across_line_ends_simulate(self, tmp_path, capsys):
        stim = tmp_path / "stim.csv"
        stim.write_text('tick,C,D\n0,0,"0\n"\n1,1,"1\n"\n2,0,"0\r\n"\n3,1,"\n0"\n', newline="")
        code, out, err = run(
            capsys,
            "simulate", "--circuit", circuit("dff.kcir"), "--stimulus", str(stim),
            "--allow-undef",
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == ["tick,output", "0,UNDEF", "1,1", "2,1", "3,0"]

    def test_non_utf8_stimulus_exits_2(self, tmp_path, capsys):
        stim = tmp_path / "stim.csv"
        stim.write_bytes(b"tick,C,D\n0,0,\xff\n")
        code, out, err = run(
            capsys,
            "simulate", "--circuit", circuit("dff.kcir"), "--stimulus", str(stim),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read") and err.count("\n") == 1

    def test_counter_simulation(self, tmp_path, capsys):
        stim = tmp_path / "stim.csv"
        stim.write_text(
            "tick,clk,en\n0,0,1\n1,1,1\n2,0,1\n3,1,1\n4,0,0\n5,1,0\n"
        )
        code, out, _ = run(
            capsys,
            "simulate", "--circuit", circuit("counter.kcir"), "--stimulus", str(stim),
        )
        assert code == 0
        # hi/lo bits: edges at 1 and 3 increment while en=1; edge at 5 holds.
        assert out.splitlines()[1:] == [
            "0,00", "1,01", "2,01", "3,10", "4,10", "5,10",
        ]

    @pytest.mark.parametrize(
        "rows",
        [
            "tick,C,D\n0,0,a\n2,1,b\n",          # gap
            "tick,C,D\n0,0,a\n0,1,b\n",          # duplicate
            "tick,C,D\n1,0,a\n2,1,b\n",          # does not start at 0
            "tick,C,D\nx,0,a\n",                  # non-integer tick
            "tick,C\n0,0\n",                      # missing channel column
            "tick,C,D,Z\n0,0,a,b\n",              # unknown column
            "tick,C,D\n0,2,a\n",                  # control symbol not in alphabet
            "tick,C,D\n",                          # no rows
            # A cell longer than csv.field_size_limit() (131,072 characters).
            pytest.param("tick,C,D\n0,0," + "1" * 200_000 + "\n", id="oversized-cell"),
        ],
    )
    def test_malformed_stimulus_exits_2(self, tmp_path, capsys, rows):
        stim = tmp_path / "stim.csv"
        stim.write_text(rows)
        code, _, err = run(
            capsys,
            "simulate", "--circuit", circuit("dff.kcir"), "--stimulus", str(stim),
        )
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_srlatch_pair_columns(self, tmp_path, capsys):
        stim = tmp_path / "stim.csv"
        stim.write_text("tick,S,R\n0,1,0\n1,0,0\n")
        code, out, _ = run(
            capsys,
            "simulate", "--circuit", circuit("srlatch.kcir"), "--stimulus", str(stim),
        )
        assert code == 0
        assert out.splitlines()[1:] == ["0,1", "1,1"]

    def test_non_bit_input_to_sync_circuit_exits_2(self, tmp_path, capsys):
        stim = tmp_path / "stim.csv"
        stim.write_text("tick,clk,en\n0,0,x\n")
        code, out, err = run(
            capsys,
            "simulate", "--circuit", circuit("counter.kcir"), "--stimulus", str(stim),
        )
        assert (code, out, err) == (2, "", "error: counter2: input 'en' sample 'x' is not a bit\n")

    def test_non_bit_input_to_multiclock_circuit_exits_2(self, tmp_path, capsys):
        stim = tmp_path / "stim.csv"
        stim.write_text("tick,cf,cs,df,ds\n0,0,0,0,x\n")
        code, out, err = run(
            capsys,
            "simulate", "--circuit", circuit("twoclock.kcir"), "--stimulus", str(stim),
        )
        assert (code, out, err) == (
            2, "", "error: twoclock.slow: input 'ds' sample 'x' is not a bit\n")

    def test_a_read_fault_in_a_later_batch_comes_before_a_step_error(self, tmp_path, capsys):
        # Tick 2 feeds the circuit a non-bit, and row 3,001, some 26 kB and
        # three decode chunks later, skips tick 3,000: the stimulus is
        # refused as read.
        ticks = [*range(3000), 3001]
        stim = tmp_path / "stim.csv"
        stim.write_text("tick,clk,en\n" + "".join(
            f"{t},{t % 2},{'x' if t == 2 else 1}\n" for t in ticks))
        code, out, err = run(
            capsys,
            "simulate", "--circuit", circuit("counter.kcir"), "--stimulus", str(stim),
        )
        assert (code, out, err) == (
            2, "", "error: stimulus ticks must be contiguous from 0: row 3001 has tick 3001\n")

    def test_out_may_name_its_own_stimulus(self, tmp_path, capsys):
        stim = tmp_path / "stim.csv"
        stim.write_text("tick,clk,en\n" + "".join(f"{t},{t % 2},1\n" for t in range(600)))
        argv = ["simulate", "--circuit", circuit("counter.kcir"), "--stimulus", str(stim),
                "--allow-undef"]
        code, expected, err = run(capsys, *argv)
        assert (code, err) == (0, "") and expected.count("\n") == 601
        assert run(capsys, *argv, "--out", str(stim)) == (0, "", "")
        assert stim.read_text() == expected

    def test_undefined_past_the_first_batch_exits_3(self, tmp_path, capsys):
        # Tick 2,000 is some 21 kB and two decode chunks into the file.
        stim = tmp_path / "stim.csv"
        stim.write_text("tick,W,R,D\n" + "".join(f"{t},A,A,a\n" for t in range(2000))
                        + "2000,-,B,a\n")
        code, out, err = run(
            capsys, "simulate", "--circuit", circuit("abmem.kcir"), "--stimulus", str(stim),
        )
        assert (code, out, err) == (
            3, "", "error: output undefined at tick 2000; rerun with --allow-undef to emit "
                   "UNDEF entries\n")

    def test_memory_does_not_grow_with_the_stimulus_beyond_its_output(self, tmp_path, capsys):
        ticks = 50_000
        rng = random.Random(7)
        stim = tmp_path / "stim.csv"
        stim.write_text("tick,cf,cs,df,ds\n" + "".join(
            f"{t},{rng.getrandbits(1)},{rng.getrandbits(1)},{rng.getrandbits(1)},"
            f"{rng.getrandbits(1)}\n" for t in range(ticks)))
        target = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            code = main(["simulate", "--circuit", circuit("twoclock.kcir"),
                         "--stimulus", str(stim), "--out", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, capsys.readouterr()) == (0, ("", ""))
        assert target.read_text().count("\n") == ticks + 1
        # The output text takes about 10 bytes per tick, and loading the
        # circuit and reading a batch about 0.4 MB in all; holding the
        # stimulus's columns and a list of output lines took over 200 bytes
        # per tick.
        assert peak < 40 * ticks

    @pytest.mark.parametrize(
        "circuit_file,header", [("dff.kcir", "C,D"), ("twoclock.kcir", "cf,cs,df,ds")]
    )
    def test_stimulus_bound_is_inclusive(self, monkeypatch, tmp_path, capsys,
                                         circuit_file, header):
        channels = header.count(",") + 1
        monkeypatch.setattr(cli, "MAX_SAMPLES", 3 * channels)
        stim = tmp_path / "stim.csv"
        argv = ["simulate", "--circuit", circuit(circuit_file), "--stimulus", str(stim),
                "--allow-undef"]
        rows = [f"tick,{header}"] + [f"{t}," + ",".join(["0"] * channels) for t in range(4)]
        stim.write_text("\n".join(rows[:4]) + "\n")
        assert run(capsys, *argv)[0] == 0
        stim.write_text("\n".join(rows) + "\n")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: stimulus row 4 takes it past the limit of {3 * channels:,} samples "
            f"({channels} channels per tick)\n"
        )


ADDRESSES = ("A", "B", "-")
TOKENS = ("a", "b", "c", "d", "e")

#: Stimulus columns and the values each draws from, per circuit file.
SEEDED_COLUMNS = {
    "counter.kcir": (("clk", ("0", "1")), ("en", ("0", "1"))),
    "twoclock.kcir": (("cf", ("0", "1")), ("cs", ("0", "1")),
                      ("df", ("0", "1")), ("ds", ("0", "1"))),
    "abmem.kcir": (("W", ADDRESSES), ("R", ADDRESSES), ("D", TOKENS)),
}


def seeded_stimulus(path, circuit_file: str, ticks: int = 120, seed: int = 5) -> str:
    rng = random.Random(f"{circuit_file}:{seed}")
    columns = SEEDED_COLUMNS[circuit_file]
    lines = ["tick," + ",".join(name for name, _ in columns)]
    for t in range(ticks):
        lines.append(f"{t}," + ",".join(rng.choice(values) for _, values in columns))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _fill(head: str, clauses: Iterable[str], tail: str) -> str:
    """``head``, then as many of ``clauses`` as fit in ``MAX_CIRCUIT_CHARS`` before ``tail``."""
    parts, size = [head], len(head) + len(tail)
    for clause in clauses:
        if size + len(clause) > cli.MAX_CIRCUIT_CHARS:
            return "".join(parts) + tail
        parts.append(clause)
        size += len(clause)
    raise ValueError("the clauses ran out before the limit")


WIDE_HEAD = (
    "circuit wide {\n  kind sync;\n  clock c;\n  state 1 init 0;\n  in d;\n  in e;\n"
    "  next q0 = xor(q0, d);\n"
)
#: The widest xor and the most out clauses that fit in one circuit file.
WIDE_CIRCUITS = {
    "widest-xor": _fill(WIDE_HEAD + "  out y = xor(d", itertools.cycle((", e", ", q0")), ");\n}\n"),
    "most-outs": _fill(WIDE_HEAD, (
        f"  out y{k} = {('d', 'q0', 'e')[k % 3]};\n" for k in itertools.count()
    ), "}\n"),
}


class TestSimulateMatchesOracle:
    """``simulate`` is byte-identical to the row-by-row reader and the prefix evaluator."""

    def both(self, capsys, circuit_path: str, stimulus: str, allow_undef: bool = False):
        argv = ["simulate", "--circuit", circuit_path, "--stimulus", stimulus]
        fast = run(capsys, *argv, *["--allow-undef"] * allow_undef)
        text = Path(circuit_path).read_text(encoding="utf-8")
        slow = oracle.simulate(load_circuit(text), oracle.ast_evaluator(parse(text)), stimulus,
                               allow_undef)
        return fast, slow

    @pytest.mark.parametrize("allow_undef", [True, False], ids=["allow-undef", "strict"])
    def test_dff_edge(self, capsys, allow_undef):
        fast, slow = self.both(capsys, circuit("dff.kcir"), circuit("dff_edge.csv"), allow_undef)
        assert fast == slow
        assert fast[0] == (0 if allow_undef else 3)

    @pytest.mark.parametrize("text", WIDE_CIRCUITS.values(), ids=WIDE_CIRCUITS.keys())
    def test_widest_circuit_files(self, capsys, tmp_path, text):
        path = tmp_path / "wide.kcir"
        path.write_text(text, encoding="utf-8")
        stimulus = tmp_path / "wide.csv"
        stimulus.write_text("tick,c,d,e\n" + "".join(
            f"{t},{t % 2},{t // 2 % 2},{t // 3 % 2}\n" for t in range(8)
        ))
        fast, slow = self.both(capsys, str(path), str(stimulus))
        assert fast == slow
        assert fast[0] == 0
        for argv in (["classify", "--horizon", "3"], ["check", "--horizon", "4", "--trials", "20"]):
            code, out, _ = run(capsys, *argv, "--circuit", str(path))
            assert code == 0 and out

    @pytest.mark.parametrize("circuit_file", sorted(SEEDED_COLUMNS))
    @pytest.mark.parametrize("allow_undef", [True, False], ids=["allow-undef", "strict"])
    def test_seeded_stimulus(self, monkeypatch, capsys, tmp_path, circuit_file, allow_undef):
        # 300 ticks (2.3 to 3.5 kB) decoded 512 bytes at a time by both
        # readers: five batches or more, each after a line a chunk edge cut.
        monkeypatch.setattr(cli, "STIMULUS_CHUNK_BYTES", 512)
        stimulus = seeded_stimulus(tmp_path / "stim.csv", circuit_file, ticks=300)
        fast, slow = self.both(capsys, circuit(circuit_file), stimulus, allow_undef)
        assert fast == slow
        # abmem reads unwritten cells and idle addresses; the others never do.
        undefined = circuit_file == "abmem.kcir" and not allow_undef
        assert fast[0] == (3 if undefined else 0)
        assert ("output undefined" in fast[2]) == undefined


class TestChiDumpCommand:
    def test_dff_prefixes(self, capsys):
        code, out, _ = run(
            capsys,
            "chi-dump", "--circuit", circuit("dff.kcir"), "--control", "0,1,0,1",
        )
        assert code == 0
        assert out.splitlines() == [
            "0: undefined",
            "1: {(D,1)}",
            "2: {(D,1)}",
            "3: {(D,3)}",
        ]

    def test_abmem_pair_tokens(self, capsys):
        code, out, _ = run(
            capsys,
            "chi-dump", "--circuit", circuit("abmem.kcir"),
            "--control", "A/-,B/A,-/B",
        )
        assert code == 0
        assert out.splitlines() == [
            "0: undefined",
            "1: {(D,0)}",
            "2: {(D,1)}",
        ]

    @pytest.mark.parametrize("flag", ["--control", "--cont", "--co"])
    def test_control_may_open_with_a_dash(self, capsys, flag):
        code, out, err = run(
            capsys,
            "chi-dump", "--circuit", circuit("abmem.kcir"), flag, "-/B,A/A",
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == ["0: undefined", "1: {(D,1)}"]

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "chi-dump", "--circuit", circuit("dff.kcir"),
            "--control", "0,1", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "chi-dump"
        assert report["images"] == [None, [{"channel": "D", "tick": 1}]]

    def test_json_of_a_circuit_that_reads_nothing(self, tmp_path, capsys):
        # A sync circuit with no in clause reads the empty set at every tick.
        path = tmp_path / "toggle.kcir"
        path.write_text("circuit t { kind sync; clock c; state 1 init 0;"
                        " next q0 = not(q0); out y = q0; }")
        code, out, err = run(
            capsys, "chi-dump", "--circuit", str(path), "--control", "0,1", "--format", "json",
        )
        assert (code, err) == (0, "")
        assert out == (
            '{\n  "axioms": null,\n  "circuit": "t",\n  "command": "chi-dump",\n'
            '  "images": [\n    [],\n    []\n  ],\n  "stats": {\n    "ticks": 2\n  },\n'
            '  "timing": null,\n  "verdict": null,\n  "witness": null\n}\n'
        )

    def test_srlatch_has_nothing_to_dump(self, capsys):
        code, _, err = run(
            capsys,
            "chi-dump", "--circuit", circuit("srlatch.kcir"), "--control", "0/0",
        )
        assert code == 2
        assert "no read map" in err

    def test_unknown_symbol_exits_2(self, capsys):
        code, _, _ = run(
            capsys,
            "chi-dump", "--circuit", circuit("dff.kcir"), "--control", "0,q",
        )
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_refs_held_are_bounded(self, monkeypatch, capsys, fmt):
        # counter's prefixes of 0,1,0,1 hold 1, 1, 2 and 2 refs.
        monkeypatch.setattr(cli, "MAX_SAMPLES", 4)
        argv = ["chi-dump", "--circuit", circuit("counter.kcir"), "--format", fmt]
        assert run(capsys, *argv, "--control", "0,1,0")[0] == 0
        code, out, err = run(capsys, *argv, "--control", "0,1,0,1")
        assert (code, out) == (2, "")
        assert err == "error: --control tick 3 takes the dump past the limit of 4 refs\n"


def _oracle_chi_dump(name: str, images, fmt: str) -> str:
    """chi-dump output built from the read set of every prefix."""
    if fmt == "text":
        return "".join(
            f"{t}: {'undefined' if image is None else image}\n"
            for t, image in enumerate(images)
        )
    report = {
        "circuit": name,
        "command": "chi-dump",
        "verdict": None,
        "axioms": None,
        "witness": None,
        "stats": {"ticks": len(images)},
        "timing": None,
        "images": [
            None if image is None
            else [{"channel": channel, "tick": tick} for channel, tick in image]
            for image in images
        ],
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _held_clock(rng: random.Random, ticks: int, flip: float) -> list[str]:
    """A clock that flips with probability ``flip`` per tick."""
    level, samples = rng.choice("01"), []
    for _ in range(ticks):
        if rng.random() < flip:
            level = "1" if level == "0" else "0"
        samples.append(level)
    return samples


class TestChiDumpMatchesOracle:
    """``chi-dump`` is one fold of the read step, byte-identical to rescanning every prefix."""

    TICKS = 2000

    def check(self, capsys, circuit_file, read_map, tokens):
        element = load_circuit((CIRCUITS_DIR / circuit_file).read_text(encoding="utf-8"))
        # The rescanning read map on every prefix: O(T^2) on purpose.
        images = [
            read_map(CausalSignal.from_samples(element.control_alphabet, tokens[: t + 1]))
            for t in range(len(tokens))
        ]
        for fmt in ("json", "text"):
            code, out, _ = run(
                capsys, "chi-dump", "--circuit", circuit(circuit_file),
                "--control", ",".join(tokens), "--format", fmt,
            )
            assert code == 0
            assert out == _oracle_chi_dump(element.name, images, fmt)

    def test_dff(self, capsys):
        rng = random.Random(11)
        tokens = [rng.choice("01") for _ in range(self.TICKS)]
        self.check(capsys, "dff.kcir", oracle.dff_reads, tokens)

    def test_twoclock(self, capsys):
        # Clocks held for a while between flips, so read sets stay a few
        # dozen refs long instead of hundreds.
        rng = random.Random(12)
        fast = _held_clock(rng, self.TICKS, 0.08)
        slow = _held_clock(rng, self.TICKS, 0.03)
        tokens = [f"{a}/{b}" for a, b in zip(fast, slow)]
        self.check(
            capsys, "twoclock.kcir",
            lambda control: oracle.multiclock_reads(control, [("df",), ("ds",)]),
            tokens,
        )


class TestCheckCommand:
    def test_dff_check_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "check", "--circuit", circuit("dff.kcir"),
            "--horizon", "4", "--trials", "200", "--seed", "1",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert report["stats"]["causality"]["violations"] == 0
        assert report["stats"]["read_soundness"]["violations"] == 0

    def test_an_unsound_read_step_fails_the_check(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "load_circuit", lambda text: short_sighted_dff())
        code, out, _ = run(
            capsys,
            "check", "--circuit", circuit("dff.kcir"),
            "--horizon", "4", "--trials", "300", "--seed", "13",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "fail"
        assert report["stats"]["causality"]["violations"] == 0
        assert report["stats"]["read_soundness"]["violations"] > 0

    def test_srlatch_check_skips_read_soundness(self, capsys):
        code, out, _ = run(
            capsys,
            "check", "--circuit", circuit("srlatch.kcir"),
            "--trials", "100", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert "skipped" in report["stats"]["read_soundness"]

    def test_check_is_seed_deterministic(self, capsys):
        argv = [
            "check", "--circuit", circuit("abmem.kcir"),
            "--trials", "150", "--seed", "9", "--format", "json",
        ]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_horizon_guard_refuses_before_drawing(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "causality_check", _never_called)
        monkeypatch.setattr(cli, "read_soundness_check", _never_called)
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "check", "--circuit", circuit("dff.kcir"), "--horizon", "100000000",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        # A clock and a data channel, ticks 0..10^8.
        assert "200,000,002 samples per trial" in err
        assert f"limit of {cli.MAX_SAMPLES:,}" in err
        assert peak < 1_000_000

    def test_horizon_guard_bound_is_inclusive(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "causality_check", lambda *args: CausalityReport(1, 1, 0))
        monkeypatch.setattr(
            cli, "read_soundness_check", lambda *args: ReadSoundnessReport(1, 1, 0, 0, 0)
        )
        # dff draws two channels per tick.
        top = cli.MAX_SAMPLES // 2 - 1
        argv = ["check", "--circuit", circuit("dff.kcir"), "--trials", "1", "--horizon"]
        assert run(capsys, *argv, str(top))[0] == 0
        assert run(capsys, *argv, str(top + 1))[0] == 2


class TestRefusalMessages:
    """Usage errors of the subcommands, each with its one exact line."""

    @pytest.mark.parametrize(
        "rows,message",
        [("", "stimulus file is empty"),
         ("\n\n", "stimulus file is empty"),
         ("tick,C,D,D\n0,0,1,1\n", "stimulus has a duplicate column")],
        ids=["empty", "blank-lines", "duplicate-column"],
    )
    def test_stimulus_refusals(self, tmp_path, capsys, rows, message):
        stim = tmp_path / "stim.csv"
        stim.write_text(rows)
        code, out, err = run(
            capsys, "simulate", "--circuit", circuit("dff.kcir"), "--stimulus", str(stim),
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("control", ["0,,1", "0,1,", ",", " "])
    def test_control_list_with_an_empty_item(self, capsys, control):
        code, out, err = run(
            capsys, "chi-dump", "--circuit", circuit("dff.kcir"), "--control", control,
        )
        assert (code, out) == (2, "")
        assert err == "error: --control must be a comma-separated list of control symbols\n"

    @pytest.mark.parametrize("horizon", ["0", "-2"])
    def test_check_needs_a_horizon_of_at_least_1(self, capsys, horizon):
        code, out, err = run(
            capsys, "check", "--circuit", circuit("dff.kcir"), "--horizon", horizon,
        )
        assert (code, out, err) == (2, "", "error: --horizon must be >= 1\n")

    def test_check_needs_at_least_one_trial(self, capsys):
        code, out, err = run(
            capsys, "check", "--circuit", circuit("dff.kcir"), "--trials", "0",
        )
        assert (code, out, err) == (2, "", "error: --trials must be >= 1\n")

    def test_a_domain_inside_a_domain(self, tmp_path, capsys):
        path = tmp_path / "nested.kcir"
        path.write_text(
            "circuit x { kind multiclock;\n"
            "  domain a { clock ca;\n"
            "    domain b { clock cb; }\n"
            "  }\n"
            "}\n"
        )
        code, out, err = run(capsys, "classify", "--circuit", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}:3:5: clause 'domain' not allowed inside a domain\n"


class TestDescriptionSizeGuards:
    """Oversized or over-nested descriptions end in one error line, before any work."""

    def write(self, tmp_path, body: str) -> str:
        path = tmp_path / "big.kcir"
        path.write_text(f"circuit big {{ kind sync; clock c; {body} }}")
        return str(path)

    def refused(self, capsys, path: str, column: int, message: str):
        for command in ("classify", "check"):
            code, out, err = run(capsys, command, "--circuit", path)
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: {path}:1:{column}: {message}")
            assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "width", ["3000000", "100000000", "9" * 5000], ids=["3e6", "1e8", "5000-digits"]
    )
    def test_state_width_must_match_the_init_vector(self, tmp_path, capsys, width):
        body = f"state {width} init 0; next q0 = q0; out y = q0;"
        path = self.write(tmp_path, body)
        column = len("circuit big { kind sync; clock c; ") + len(f"state {width} init ") + 1
        self.refused(capsys, path, column, "init vector width 1 does not match state width")

    @staticmethod
    def nested(depth: int) -> str:
        return "not(" * depth + "q0" + ")" * depth

    def test_nesting_at_the_bound_parses_simulates_and_checks(self, tmp_path, capsys):
        depth = MAX_EXPR_DEPTH
        assert depth % 2 == 0  # an even number of negations is the identity
        body = f"state 1 init 0; in d; next q0 = xor(q0, d); out y = {self.nested(depth)};"
        path = self.write(tmp_path, body)
        stimulus = tmp_path / "stimulus.csv"
        stimulus.write_text("tick,c,d\n0,0,1\n1,1,1\n2,0,1\n3,1,0\n")
        code, out, _ = run(capsys, "simulate", "--circuit", path, "--stimulus", str(stimulus))
        assert code == 0
        assert out.splitlines() == ["tick,output", "0,0", "1,1", "2,1", "3,1"]
        code, out, _ = run(capsys, "check", "--circuit", path, "--trials", "50",
                           "--format", "json")
        assert code == 0 and json.loads(out)["verdict"] == "pass"
        code, out, _ = run(capsys, "classify", "--circuit", path, "--horizon", "2")
        assert code == 0 and "verdict: time-preserving" in out

    def test_nesting_past_the_bound_is_refused_at_its_operator(self, tmp_path, capsys):
        depth = MAX_EXPR_DEPTH + 1
        path = self.write(tmp_path, f"state 1 init 0; next q0 = q0; out y = {self.nested(depth)};")
        column = (len("circuit big { kind sync; clock c; state 1 init 0; next q0 = q0; out y = ")
                  + 4 * MAX_EXPR_DEPTH + 1)
        self.refused(capsys, path, column, f"expression nested deeper than {MAX_EXPR_DEPTH}")

    def test_many_out_clauses_load_simulate_and_classify(self, tmp_path, capsys):
        outs = " ".join(
            f"out o{i} = {'q0' if i % 2 == 0 else 'not(q0)'};" for i in range(64)
        )
        path = self.write(tmp_path, f"state 1 init 0; in d; next q0 = d; {outs}")
        stimulus = tmp_path / "stimulus.csv"
        stimulus.write_text("tick,c,d\n0,0,1\n1,1,1\n")
        code, out, _ = run(capsys, "simulate", "--circuit", path, "--stimulus", str(stimulus))
        assert code == 0
        assert out.splitlines() == ["tick,output", "0," + "01" * 32, "1," + "10" * 32]
        code, out, _ = run(capsys, "classify", "--circuit", path, "--horizon", "2")
        assert code == 0 and "verdict: time-preserving" in out

    def test_domains_past_the_limit_are_refused_before_the_alphabet_is_built(self, tmp_path):
        # 40 domains would make a control alphabet of 2**40 symbols; the child
        # processes' capped address space makes building it fail fast.
        text = multiclock_text(40)
        path = tmp_path / "big.kcir"
        path.write_text(text)
        stimulus = tmp_path / "stimulus.csv"
        stimulus.write_text("tick\n0\n")
        column = text.index(f"domain d{MAX_DOMAINS} ") + len("domain ") + 1
        for argv in (("classify", "--horizon", "2"), ("check",),
                     ("simulate", "--stimulus", str(stimulus)), ("chi-dump", "--control", "0")):
            done = run_capped(*argv, "--circuit", str(path))
            assert (done.returncode, done.stdout) == (2, "")
            assert done.stderr == (
                f"error: {path}:1:{column}: multiclock circuit has more than {MAX_DOMAINS} "
                "domain blocks\n"
            )


SRC = Path(__file__).resolve().parents[1] / "src"
#: Address space of the child processes below: a read that holds an endless
#: file whole fails fast under it instead of growing until the host kills it.
CHILD_ADDRESS_SPACE = 400 * 2**20


def run_capped(*argv: str) -> subprocess.CompletedProcess:
    """``python -m kcir.cli`` in a child process with a capped address space."""
    import resource

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))

    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "kcir.cli", *argv], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": path}, preexec_fn=cap,
    )


#: Runs ``python -m kcir.cli`` with the arguments after the address space cap
#: and prints [exit code, stdout, stderr, max RSS in kB] as JSON.  A child's
#: max RSS counts the pages it was forked with, so the child is forked from
#: this small, fresh process rather than from the test run.
MEASURED_CHILD = """
import json, os, resource, subprocess, sys, tempfile

def cap():
    resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), int(sys.argv[1])))

with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
    child = subprocess.Popen([sys.executable, "-m", "kcir.cli", *sys.argv[2:]],
                             stdout=out, stderr=err, text=True, preexec_fn=cap)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    out.seek(0)
    err.seek(0)
    print(json.dumps([child.returncode, out.read(), err.read(), usage.ru_maxrss]))
"""


def run_capped_rss(*argv: str) -> tuple[int, str, str, int]:
    """(exit code, stdout, stderr, max RSS in kB) of ``run_capped``'s child process."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", MEASURED_CHILD, str(CHILD_ADDRESS_SPACE), *argv],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert (done.returncode, done.stderr) == (0, "")
    return tuple(json.loads(done.stdout))


needs_dev_zero = pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")


class TestBoundedReads:
    """Input that never ends is refused after a bounded read, with one error line."""

    @needs_dev_zero
    def test_endless_circuit_file_exits_2(self):
        done = run_capped("classify", "--circuit", "/dev/zero", "--horizon", "2")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            f"error: /dev/zero is longer than the limit of {cli.MAX_CIRCUIT_CHARS:,} "
            "characters\n"
        )

    @needs_dev_zero
    def test_endless_stimulus_line_exits_2(self):
        done = run_capped(
            "simulate", "--circuit", circuit("dff.kcir"), "--stimulus", "/dev/zero"
        )
        bound = 3 * (2 * csv.field_size_limit() + 3) + 1  # tick, C and D
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            f"error: stimulus line 1 is longer than the limit of {bound:,} characters\n"
        )

    def test_row_spanning_lines_exits_2_in_flat_memory(self, tmp_path):
        # Row 1 is a tick and then cells quoted across line ends, so every
        # line after the header is five characters: 2 MB and 10 MB files.
        bound = 3 * (2 * csv.field_size_limit() + 3) + 1  # tick, C and D
        line = bound // 5 + 2  # the first line past the bound: 5 * (line - 1) > bound
        peaks = []
        for cells in (400_000, 2_000_000):
            stim = tmp_path / f"spanning{cells}.csv"
            stim.write_text("tick,C,D\n0" + ',"1\n"' * cells + "\n", newline="")
            code, out, err, peak = run_capped_rss(
                "simulate", "--circuit", circuit("dff.kcir"), "--stimulus", str(stim)
            )
            assert (code, out) == (2, "")
            assert err == (
                f"error: stimulus line {line} takes its row past the limit of {bound:,} "
                "characters\n"
            )
            peaks.append(peak)
        # Both stop at the same line, so they hold the same; unbounded, the
        # larger file took over 120 MB more.
        assert abs(peaks[1] - peaks[0]) < 8 * 1024

    def test_circuit_file_at_the_bound_is_accepted(self, tmp_path, capsys):
        text = (CIRCUITS_DIR / "dff.kcir").read_text(encoding="utf-8")
        path = tmp_path / "padded.kcir"
        path.write_text(text.ljust(cli.MAX_CIRCUIT_CHARS), encoding="utf-8")
        code, out, _ = run(capsys, "classify", "--circuit", str(path), "--horizon", "2")
        assert code == 0 and "verdict: time-preserving" in out
        path.write_text(text.ljust(cli.MAX_CIRCUIT_CHARS + 1), encoding="utf-8")
        code, out, err = run(capsys, "classify", "--circuit", str(path), "--horizon", "2")
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path} is longer than the limit of {cli.MAX_CIRCUIT_CHARS:,} characters\n"
        )

    def test_longest_row_the_field_limit_admits_passes_the_line_bound(self, tmp_path, capsys):
        # Three cells of field-limit quote characters, each written quoted, so
        # every character is doubled: the row reaches the line bound exactly.
        cell = '"' + '""' * csv.field_size_limit() + '"'
        row = ",".join([cell] * 3) + "\r\n"
        assert len(row) == 3 * (2 * csv.field_size_limit() + 3) + 1
        stim = tmp_path / "stim.csv"
        stim.write_text("tick,C,D\n" + row, newline="")
        code, _, err = run(
            capsys, "simulate", "--circuit", circuit("dff.kcir"), "--stimulus", str(stim)
        )
        assert code == 2
        assert err.startswith("error: stimulus row 1 has non-integer tick")


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


class TestStdoutWriteFailures:
    """A write to stdout that fails exits 2 with one error line, not a traceback."""

    def child(self, *argv: str, **streams) -> subprocess.Popen:
        """``python -m kcir.cli`` with stdout buffered, as it is unless PYTHONUNBUFFERED is set."""
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return subprocess.Popen(
            [sys.executable, "-m", "kcir.cli", *argv], stderr=subprocess.PIPE, text=True,
            env=env, **streams,
        )

    def test_closed_pipe_exits_2(self):
        # About 600 kB of text: more than a pipe buffers, so the child is
        # still writing when the reader goes away.
        control = ",".join("01"[t % 2] for t in range(40_000))
        child = self.child("chi-dump", "--circuit", circuit("dff.kcir"), "--control", control,
                           stdout=subprocess.PIPE)
        assert child.stdout.readline() == "0: undefined\n"
        child.stdout.close()
        _, err = child.communicate(timeout=120)
        assert child.returncode == 2
        assert err == "error: cannot write to stdout: [Errno 32] Broken pipe\n"

    @needs_dev_full
    @pytest.mark.parametrize("argv", [
        ("classify", "--circuit", circuit("dff.kcir"), "--format", "json"),
        ("simulate", "--circuit", circuit("dff.kcir"), "--stimulus", circuit("dff_edge.csv"),
         "--allow-undef"),
    ], ids=["classify-json", "simulate"])
    def test_full_device_exits_2(self, argv):
        with open("/dev/full", "w") as full:
            child = self.child(*argv, stdout=full)
            _, err = child.communicate(timeout=120)
        assert child.returncode == 2
        assert err == "error: cannot write to stdout: [Errno 28] No space left on device\n"
