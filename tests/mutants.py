"""Mutation check: each listed edit of ``src/kcir`` must fail the tests named for it.

Run it from any directory as ``python tests/mutants.py``; it takes no
options and needs pytest and hypothesis, like the tests.  For each mutant it
copies the repository (without ``.git`` and caches) to a temporary
directory, applies the mutant's exact text edit there and runs the mutant's
tests in that copy, with hypothesis seeded so that a run repeats and
without its shrink phase (the ``mutants`` profile of ``tests/conftest.py``),
so a mutant that a drawn example kills fails at once.  A mutant is
reported *killed* when those tests fail or no longer collect, *survived*
when they pass, and *stale* when its old text is not in the file exactly
once.  A mutant that survives needs a new test that kills it, not its
removal from the list.

Each copy is tested with ``PYTHONPATH`` set to its own ``src``, and pytest
there reads the copy's ``pyproject.toml``, so the tests import the copy's
``kcir``.  Before the mutants, an unmutated copy runs every listed test and a
probe test that checks where ``kcir`` was imported from; if that run fails,
no mutant is tried.  The script exits 1 when the unmutated run fails or any
mutant survives or is stale, and 0 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


ORACLE = "tests/test_oracle.py"
CLI = "tests/test_cli.py"
DSL = "tests/test_dsl.py"
DOMAINS = "tests/test_classifier.py::TestClassifyByDomains"
CALLS = "tests/test_classifier.py::TestClassify"
WITNESS = "tests/test_classifier.py::TestWitnessMonotonicity"
STIMULUS = "tests/test_stimulus.py::test_batched_reader_matches_the_row_by_row_reader"

MUTANTS = (
    Mutant(
        "refs left in first-seen order",
        "src/kcir/classifier.py",
        "order = sorted(range(len(seen)), key=seen.__getitem__)",
        "order = list(range(len(seen)))",
        (f"{ORACLE}::test_mealy_read_steps_match_the_walk",
         f"{ORACLE}::test_table_read_maps_match_the_oracle"),
    ),
    Mutant(
        "an undefined edge drops its child's reach",
        "src/kcir/classifier.py",
        "                after[y] |= mask\n"
        "            reach[e // k] |= mask\n",
        "                after[y] |= mask\n"
        "                reach[e // k] |= mask\n",
        (f"{ORACLE}::test_mealy_node_tables_match_brute_force",
         f"{ORACLE}::test_table_read_maps_match_the_oracle"),
    ),
    Mutant(
        "states keyed on (state, refs)",
        "src/kcir/classifier.py",
        "                    entry = index.get(state)\n"
        "                    if entry is None:\n"
        "                        entry = index[state] = ",
        "                    entry = index.get((state, refs))\n"
        "                    if entry is None:\n"
        "                        entry = index[state, refs] = ",
        (f"{CALLS}::test_read_step_runs_once_per_symbol_and_read_state",
         f"{CALLS}::test_drawn_read_steps_run_once_per_symbol_and_read_state"),
    ),
    Mutant(
        "a merged state's histories left out of its counts",
        "src/kcir/classifier.py",
        "                    entry[0] += count\n"
        "                    entry[1] += child_undefined\n",
        "                    if not entry[0]:\n"
        "                        entry[0] += count\n"
        "                        entry[1] += child_undefined\n",
        (f"{ORACLE}::test_circuit_files_match_the_oracle[abmem.kcir]",
         f"{ORACLE}::test_built_ins_match_the_oracle[abmem_element-2]"),
    ),
    Mutant(
        "met records the last edge into a node",
        "src/kcir/classifier.py",
        "                        met.append(len(child))\n"
        "                    entry[0] += count\n",
        "                        met.append(-1)\n"
        "                    met[entry[2]] = len(child)\n"
        "                    entry[0] += count\n",
        (f"{ORACLE}::test_built_in_node_tables_match_brute_force[abmem_element-2]",
         f"{ORACLE}::test_mealy_node_tables_match_brute_force"),
    ),
    Mutant(
        "the walk budget leaves out the refs a step returns",
        "src/kcir/classifier.py",
        "                        work += len(refs)\n",
        "",
        (f"{CALLS}::test_the_walk_budget_charges_each_expansion_once[abmem_element-3]",
         f"{CALLS}::test_the_walk_budget_charges_each_expansion_once[mux_element-10]"),
    ),
    Mutant(
        "the antisymmetry test in _axiom_report inverted",
        "src/kcir/classifier.py",
        "if later & bit:",
        "if not later & bit:",
        (f"{ORACLE}::test_bit_set_axioms_match_the_pair_scan",
         f"{ORACLE}::test_axioms_on_ranks_match_the_read_set_scan"),
    ),
    Mutant(
        "the transitivity witness takes the highest missing bit",
        "src/kcir/classifier.py",
        "trans = (x, y, (missing & -missing).bit_length() - 1)",
        "trans = (x, y, missing.bit_length() - 1)",
        (f"{ORACLE}::test_bit_set_axioms_match_the_pair_scan",
         f"{ORACLE}::test_axioms_on_ranks_match_the_read_set_scan"),
    ),
    Mutant(
        "the edge pass skips undefined edges",
        "src/kcir/classifier.py",
        "below[e // k] |= below[c]",
        "below[e // k] |= 0",
        (f"{ORACLE}::test_table_edge_verdicts_match_the_pair_scan",
         f"{ORACLE}::test_mealy_edge_verdicts_match_the_pair_scan"),
    ),
    Mutant(
        "the edge pass drops a node's set after the first edge into it that it reads",
        "src/kcir/classifier.py",
        "if met[c] == e:",
        "if True:",
        # A table circuit's DAG is its prefix tree, with one edge into each
        # node, so no table circuit can tell this mutant apart.
        (f"{ORACLE}::test_mealy_edge_verdicts_match_the_pair_scan",),
    ),
    Mutant(
        "the edge pass compares edge images instead of their after-sets",
        "src/kcir/classifier.py",
        "below[e // k] |= after[y]",
        "below[e // k] |= 1 << y",
        (f"{ORACLE}::test_table_edge_verdicts_match_the_pair_scan",
         f"{ORACLE}::test_mealy_edge_verdicts_match_the_pair_scan"),
    ),
    Mutant(
        "the antisymmetry witness takes the highest image related both ways",
        "src/kcir/classifier.py",
        "(x, (ys & -ys).bit_length() - 1)",
        "(x, ys.bit_length() - 1)",
        (f"{ORACLE}::test_equal_set_antisymmetry_matches_the_pair_scan",
         f"{ORACLE}::test_bit_set_axioms_match_the_pair_scan"),
    ),
    Mutant(
        "swapped keeps x itself",
        "src/kcir/classifier.py",
        "for y in _members(mask & ~bit):",
        "for y in _members(mask):",
        (f"{ORACLE}::test_classify_never_reports_a_reflexivity_failure",
         f"{ORACLE}::test_table_read_maps_match_the_oracle"),
    ),
    Mutant(
        "swapped keeps x itself in a group of equal sets",
        "src/kcir/classifier.py",
        "swapped[x] = members & ~(1 << x)",
        "swapped[x] = members",
        (f"{ORACLE}::test_table_read_maps_match_the_oracle",
         f"{ORACLE}::test_mealy_read_steps_match_the_oracle"),
    ),
    Mutant(
        "the witness self-check is skipped",
        "src/kcir/classifier.py",
        "if not witness.holds(fold_reads(circuit.read_init, circuit.read_step)):",
        "if False:",
        (f"{CALLS}::test_a_witness_broken_by_unnormalised_refs_is_refused",),
    ),
    Mutant(
        "the witness search keeps the last path that reaches a node",
        "src/kcir/classifier.py",
        "reached.setdefault(c, (*path, symbol))",
        "reached[c] = (*path, symbol)",
        # A table circuit's DAG is its prefix tree, one path to each node, so
        # only merged read states tell this mutant apart.
        (f"{ORACLE}::test_mealy_node_tables_match_brute_force",
         f"{ORACLE}::test_built_ins_match_the_oracle[abmem_element-2]"),
    ),
    Mutant(
        "a1's search starts at the root",
        "src/kcir/classifier.py",
        "tail, e = dag.path(dag.child[e], swapped[x],",
        "tail, e = dag.path(0, swapped[x],",
        (f"{WITNESS}::test_abmem_witness_is_stable_across_horizons",
         f"{ORACLE}::test_built_ins_match_the_oracle[abmem_element-2]"),
    ),
    Mutant(
        "b0's search wants x in place of y",
        "src/kcir/classifier.py",
        "lambda z, below: z == y and below >> x & 1",
        "lambda z, below: z == x and below >> x & 1",
        (f"{WITNESS}::test_abmem_witness_is_stable_across_horizons",
         f"{ORACLE}::test_table_read_maps_match_the_oracle"),
    ),
    Mutant(
        "the witness search's prune test inverted",
        "src/kcir/classifier.py",
        "if not reach[j] & keep:",
        "if reach[j] & keep:",
        (f"{ORACLE}::test_mealy_node_tables_match_brute_force",
         f"{ORACLE}::test_circuit_files_match_the_oracle[abmem.kcir]"),
    ),
    Mutant(
        "the per-tick product summed over one tick too few",
        "src/kcir/classifier.py",
        "return counts if reading else [1]",
        "return counts[:-1] if reading else [1]",
        (f"{ORACLE}::test_circuit_files_match_the_oracle[twoclock.kcir]",
         f"{DOMAINS}::test_drawn_multiclock_circuits_match_the_joint_walk"),
    ),
    Mutant(
        "the route taken although a domain fails an axiom",
        "src/kcir/classifier.py",
        "if dag.excluded or not report.is_partial_order:",
        "if dag.excluded:",
        (f"{ORACLE}::test_each_fallback_matches_the_joint_walk[intransitive]",
         f"{ORACLE}::test_mealy_products_match_the_walk"),
    ),
    Mutant(
        "the level check on a domain's images dropped",
        "src/kcir/classifier.py",
        "            if any(max((tick for _, tick in dag.refs[y]), default=-1) != t"
        " for y in level):\n"
        "                return None\n",
        "",
        (f"{ORACLE}::test_each_fallback_matches_the_joint_walk[misses-the-tick]",
         f"{ORACLE}::test_each_fallback_matches_the_joint_walk[both-miss-the-tick]"),
    ),
    Mutant(
        "the route taken although two domains read one channel",
        "src/kcir/classifier.py",
        "if not channels.isdisjoint(own):",
        "if False:",
        (f"{ORACLE}::test_domains_that_share_a_channel_are_walked_jointly",),
    ),
    Mutant(
        "_step_source updates each domain at any clock's edge",
        "src/kcir/dsl.py",
        'body.append(f"if rise & {1 << k}:")',
        'body.append("if rise:")',
        ("tests/test_circuits.py::TestMulticlock::test_togglers_track_edge_parity",
         f"{ORACLE}::test_streams_and_prefix_values_match_the_oracle[twoclock.kcir]"),
    ),
    Mutant(
        "xor drops its operands past the second",
        "src/kcir/dsl.py",
        '            lines += [f"{name} ^= {arg}" for arg in args[2:]]\n',
        "",
        (f"{DSL}::TestCompiledStepMatchesTheReference::test_compiled_step_equals_the_reference",),
    ),
    Mutant(
        "a built-in kind falls through to the clocked builder",
        "src/kcir/dsl.py",
        "    if ast.kind in _BUILT_INS:\n",
        "    if False:\n",
        (f"{DSL}::TestElaborate::test_dff_ast_gets_read_map_and_evaluator",
         f"{CLI}::TestCheckCommand::test_dff_check_passes"),
    ),
    Mutant(
        "a built-in kind takes the clauses of sync",
        "src/kcir/dsl.py",
        '**dict.fromkeys(_BUILT_INS, {"kind"}),',
        '**dict.fromkeys(_BUILT_INS, {"kind", *_DOMAIN_CLAUSES}),',
        (f"{DSL}::TestCorpus::test_invalid_files_report_spans_inside_the_offending_token",),
    ),
    Mutant(
        "expect takes any token of the kind",
        "src/kcir/dsl.py",
        "if token.kind != kind or (text is not None and token.text != text):",
        "if token.kind != kind:",
        (f"{DSL}::TestParseBasics::test_clock_clause_takes_one_name",
         f"{DSL}::TestRefusals"),
    ),
    Mutant(
        "the end of input named one column past the last token",
        "src/kcir/dsl.py",
        "tokens[-1].column + len(tokens[-1].text) - 1",
        "tokens[-1].column + len(tokens[-1].text)",
        (f"{DSL}::TestRefusals",),
    ),
    Mutant(
        "_clocked_reader appends an edge ref to every channel at any clock's edge",
        "src/kcir/dsl.py",
        "if rise & bit:  # the new edge is the current tick",
        "if rise:  # the new edge is the current tick",
        (f"{ORACLE}::test_read_steps_match_the_rescanning_read_maps[twoclock.kcir]",
         "tests/test_dsl.py::TestCompiledStepMatchesTheReference"
         "::test_read_step_equals_the_reference"),
    ),
    Mutant(
        "the carried fold records a rise of one clock on every clock's channels",
        "src/kcir/dsl.py",
        "if rise >> k & 1]",
        "if rise]",
        (f"{DSL}::TestCarriedFold::test_the_fold_equals_the_stepped_fold[twoclock.kcir]",),
    ),
    Mutant(
        "the carried fold adds the last tick even when it is an edge",
        "src/kcir/dsl.py",
        "            if not own or own[-1] != tick:\n"
        "                refs.append((c, tick))\n",
        "            refs.append((c, tick))\n",
        (f"{DSL}::TestCarriedFold::test_the_fold_equals_the_stepped_fold[counter.kcir]",),
    ),
    Mutant(
        "fold_refs uses a fold made for another read_init",
        "src/kcir/classifier.py",
        "    if fold is not None and init == read_init:\n",
        "    if fold is not None:\n",
        ("tests/test_circuits.py::TestReadStep::"
         "test_a_carried_fold_is_used_only_from_its_own_read_init",),
    ),
    Mutant(
        "a stimulus row may span twice the line bound",
        "src/kcir/cli.py",
        "if read - row_start > bound:",
        "if read - row_start > 2 * bound:",
        (STIMULUS, f"{CLI}::TestBoundedReads::test_row_spanning_lines_exits_2_in_flat_memory"),
    ),
    Mutant(
        "a batch past the sample limit is taken without a row scan",
        "src/kcir/cli.py",
        "        if (first + count > max_rows or ticks != list(range(first, first + count))\n",
        "        if (ticks != list(range(first, first + count))\n",
        ("tests/test_stimulus.py::test_sample_limit_at_a_batch_boundary", STIMULUS),
    ),
    Mutant(
        "the field limit is not checked on a plain chunk",
        "src/kcir/cli.py",
        "        if len(body) > limit and max(map(len, itertools.chain(*columns))) > limit:\n"
        "            return None\n",
        "",
        (STIMULUS,),
    ),
    Mutant(
        "a line's terminator is left out of its length",
        "src/kcir/cli.py",
        "if len(line) > bound:",
        'if len(line.rstrip("\\r\\n")) > bound:',
        (STIMULUS,),
    ),
    Mutant(
        "the carried partial line is dropped at a chunk edge",
        "src/kcir/cli.py",
        "text, carry = text[:cut], text[cut:]",
        'text, carry = text[:cut], ""',
        (STIMULUS, "tests/test_stimulus.py::test_long_files_match_the_row_by_row_reader"),
    ),
    Mutant(
        "a chunk's last \\r is taken for a line end before the next chunk is decoded",
        "src/kcir/cli.py",
        'decoder, carry = io.IncrementalNewlineDecoder(utf8, translate=False), ""',
        'decoder, carry = utf8, ""',
        (STIMULUS,),
    ),
    Mutant(
        "a cut line past the bound is held until it ends",
        "src/kcir/cli.py",
        "            if len(text) - cut > bound:\n"
        "                cut = len(text)\n",
        "",
        (STIMULUS,),
    ),
    Mutant(
        "a chunk with a quote is split as plain",
        "src/kcir/cli.py",
        """if '"' in text or "\\0" in text:""",
        """if "\\0" in text:""",
        (STIMULUS,),
    ),
    Mutant(
        "a padded plain chunk is split without stripping its cells",
        "src/kcir/cli.py",
        "if not body.isascii() or any(c in body for c in _ASCII_PADDING):",
        "if False:",
        (STIMULUS,),
    ),
    Mutant(
        "_json encodes a read set as a plain tuple",
        "src/kcir/cli.py",
        "    if isinstance(record, ReadSet):\n"
        "        return [{\"channel\": channel, \"tick\": tick} for channel, tick in record]\n"
        "    if isinstance(record, tuple):\n"
        "        return [_json(item) for item in record]\n",
        "    if isinstance(record, tuple):\n"
        "        return [_json(item) for item in record]\n"
        "    if isinstance(record, ReadSet):\n"
        "        return [{\"channel\": channel, \"tick\": tick} for channel, tick in record]\n",
        (f"{CLI}::TestClassifyCommand::test_abmem_json_report",),
    ),
    Mutant(
        "main no longer catches BudgetError",
        "src/kcir/cli.py",
        "except (UsageError, BudgetError, SimulationError) as exc:",
        "except (UsageError, SimulationError) as exc:",
        (f"{CLI}::TestClassifyCommand::test_a_budget_names_the_level_a_clock_domain_reached",
         f"{CLI}::TestClassifyCommand::test_each_budget_is_inclusive"),
    ),
    Mutant(
        "main no longer catches SimulationError",
        "src/kcir/cli.py",
        "except (UsageError, BudgetError, SimulationError) as exc:",
        "except (UsageError, BudgetError) as exc:",
        (f"{CLI}::TestSimulateCommand::test_non_bit_input_to_sync_circuit_exits_2",
         f"{CLI}::TestSimulateCommand::test_non_bit_input_to_multiclock_circuit_exits_2"),
    ),
    Mutant(
        "simulate raises a step error before the rest of the stimulus is checked",
        "src/kcir/cli.py",
        "            for _ in batches:\n"
        "                pass\n",
        "",
        (f"{CLI}::TestSimulateCommand"
         "::test_a_read_fault_in_a_later_batch_comes_before_a_step_error",),
    ),
    Mutant(
        "simulate names the first undefined tick without its batch's offset",
        "src/kcir/cli.py",
        "undefined = first + outputs.index(None)",
        "undefined = outputs.index(None)",
        (f"{CLI}::TestSimulateCommand::test_undefined_past_the_first_batch_exits_3",),
    ),
    Mutant(
        "simulate numbers each batch's output lines from tick 0",
        "src/kcir/cli.py",
        "for t, value in enumerate(outputs, first)",
        "for t, value in enumerate(outputs)",
        (f"{CLI}::TestSimulateMatchesOracle::test_seeded_stimulus[allow-undef-twoclock.kcir]",),
    ),
    Mutant(
        "simulate folds each batch from the initial state",
        "src/kcir/cli.py",
        "state, outputs = fold(element.step, state, symbols, rows)",
        "state, outputs = fold(element.step, element.init, symbols, rows)",
        (f"{CLI}::TestSimulateMatchesOracle::test_seeded_stimulus[allow-undef-counter.kcir]",),
    ),
    Mutant(
        "simulate opens --out before the stimulus is read",
        "src/kcir/cli.py",
        "    batches = _read_stimulus(args.stimulus, element)\n",
        "    if args.out:\n"
        "        open(args.out, \"w\", encoding=\"utf-8\").close()\n"
        "    batches = _read_stimulus(args.stimulus, element)\n",
        (f"{CLI}::TestSimulateCommand::test_out_may_name_its_own_stimulus",),
    ),
    Mutant(
        "the text report drops its timing line",
        "src/kcir/cli.py",
        '*lines, f"timing: {elapsed:.3f}s", sep="\\n")',
        '*lines, sep="\\n")',
        (f"{CLI}::TestClassifyCommand::test_abmem_text_report_prints_its_witness",),
    ),
    Mutant(
        "check's text prints the causality record as the read-soundness one",
        "src/kcir/cli.py",
        '("read-soundness", soundness)',
        '("read-soundness", causality)',
        (f"{CLI}::TestTextAgreesWithJson::test_check",),
    ),
    Mutant(
        "a circuit file's byte order mark is read as text",
        "src/kcir/cli.py",
        'with open(path, encoding="utf-8-sig") as handle:',
        'with open(path, encoding="utf-8") as handle:',
        (f"{CLI}::TestBomLedCircuitFiles",),
    ),
    Mutant(
        "a reads given beside a read_step is kept",
        "src/kcir/circuits.py",
        '"reads", None if step is None else fold_reads(self.read_init, step))',
        '"reads", None if step is None else reads or fold_reads(self.read_init, step))',
        ("tests/test_circuits.py::TestReadStep::"
         "test_a_read_map_given_beside_a_read_step_gives_way_to_the_fold",
         "tests/test_bench_hooks.py::test_the_tracers_read_map_wrapper_is_never_walked"),
    ),
    Mutant(
        "a bare reads is accepted",
        "src/kcir/circuits.py",
        'if step is None and reads is not None and not hasattr(reads, "folds"):',
        "if False:",
        ("tests/test_circuits.py::TestReadStep::test_a_read_map_given_alone_is_refused",),
    ),
    Mutant(
        "the read-soundness check stops counting violations",
        "src/kcir/circuits.py",
        "            if output != baseline:\n"
        "                violations += 1\n",
        "            if output != baseline:\n"
        "                pass\n",
        ("tests/test_circuits.py::TestRandomizedProperties::"
         "test_read_soundness_finds_a_read_step_that_claims_too_little",
         f"{CLI}::TestCheckCommand::test_an_unsound_read_step_fails_the_check"),
    ),
    Mutant(
        "_dff_read_step also claims the current tick's data sample",
        "src/kcir/circuits.py",
        "    return (clock, refs), refs\n",
        "    return (clock, refs), refs and tuple(sorted({*refs, (\"D\", tick)}))\n",
        ("tests/test_circuits.py::test_read_sets_hold_the_essential_samples[dff.kcir]",),
    ),
    Mutant(
        "_random_streams redraws a rejected sample once only",
        "src/kcir/circuits.py",
        "            while r >= n:\n",
        "            if r >= n:\n",
        ("tests/test_circuits.py::TestRandomizedProperties::test_streams_draw_like_choice",
         f"{ORACLE}::test_check_reports_match_the_full_fold_oracle[4-abmem_element]"),
    ),
    Mutant(
        "_below redraws a rejected draw once only",
        "src/kcir/circuits.py",
        "    while r >= n:\n"
        "        r = getrandbits(k)\n"
        "    return r\n",
        "    if r >= n:\n"
        "        r = getrandbits(k)\n"
        "    return r\n",
        ("tests/test_circuits.py::TestRandomizedProperties::test_below_draws_like_randrange",
         f"{ORACLE}::test_check_reports_match_the_oracle_at_nine_bits_per_choice"),
    ),
    Mutant(
        "causality draws m without the 1 +",
        "src/kcir/circuits.py",
        "m = 1 + _below(getrandbits, horizon)",
        "m = _below(getrandbits, horizon)",
        ("tests/test_circuits.py::TestLinearTime::"
         "test_causality_trial_steps_twice_per_compared_tick",),
    ),
    Mutant(
        "the second causality run steps on from the first run's state",
        "src/kcir/circuits.py",
        "            second, again = step(second, symbol, samples)\n",
        "            second, again = step(first, symbol, samples)\n",
        ("tests/test_circuits.py::TestLinearTime::"
         "test_causality_trial_steps_twice_per_compared_tick",
         "tests/test_circuits.py::TestRandomizedProperties::"
         "test_causality_passes_every_trial_of_a_pure_step"),
    ),
    Mutant(
        "the two causality runs' outputs are never compared",
        "src/kcir/circuits.py",
        "            if output != again:\n",
        "            if False:\n",
        ("tests/test_circuits.py::TestRandomizedProperties::"
         "test_causality_catches_an_impure_step",),
    ),
    Mutant(
        "a causality trial steps only its first tick",
        "src/kcir/circuits.py",
        "        for symbol, samples in zip(control, _rows(columns)):\n",
        "        for symbol, samples in zip(control[:1], _rows(columns)):\n",
        ("tests/test_circuits.py::TestLinearTime::"
         "test_causality_trial_steps_twice_per_compared_tick",),
    ),
    Mutant(
        "a causality trial draws its columns to m + 1 ticks",
        "src/kcir/circuits.py",
        "_random_streams(rng, alphabets, m)",
        "_random_streams(rng, alphabets, m + 1)",
        ("tests/test_circuits.py::TestLinearTime::"
         "test_causality_trial_steps_twice_per_compared_tick",),
    ),
    Mutant(
        "the soundness baseline is the output at the mutated tick",
        "src/kcir/circuits.py",
        "            first, baseline = step(first, symbol, row)\n",
        "            first = step(first, symbol, row)[0]\n",
        (f"{ORACLE}::test_check_reports_match_the_full_fold_oracle[16-abmem_element]",
         "tests/test_circuits.py::TestRandomizedProperties::"
         "test_read_soundness_matches_the_full_fold_oracle_off_the_sound_path[hoarding_mux]"),
    ),
    Mutant(
        "the soundness runs stop at the mutated tick whatever their states",
        "src/kcir/circuits.py",
        "            if first == second:\n"
        "                break\n",
        "            break\n",
        ("tests/test_circuits.py::TestLinearTime::"
         "test_read_soundness_trial_stops_where_its_two_runs_meet[abmem_element]",
         "tests/test_circuits.py::TestRandomizedProperties::"
         "test_read_soundness_matches_the_full_fold_oracle_off_the_sound_path[short_sighted_dff]"),
    ),
    Mutant(
        "the soundness runs stop where their outputs, not their states, are equal",
        "src/kcir/circuits.py",
        "            if first == second:\n",
        "            if output == baseline:\n",
        ("tests/test_circuits.py::TestLinearTime::"
         "test_read_soundness_trial_stops_where_its_two_runs_meet[abmem_element]",
         "tests/test_circuits.py::TestRandomizedProperties::"
         "test_read_soundness_matches_the_full_fold_oracle_off_the_sound_path[other_cell_abmem]"),
    ),
    Mutant(
        "the free count takes the claimed refs of another channel",
        "src/kcir/circuits.py",
        "position[channel] * width + tick for",
        "tick for",
        (f"{ORACLE}::test_check_reports_match_the_full_fold_oracle[4-mux_element]",
         "tests/test_circuits.py::TestRandomizedProperties::"
         "test_read_soundness_matches_the_full_fold_oracle_off_the_sound_path[hoarding_mux]"),
    ),
    Mutant(
        "the free count takes the claimed refs past t",
        "src/kcir/circuits.py",
        "if channel in position and tick in ticks})",
        "if channel in position})",
        ("tests/test_circuits.py::TestRandomizedProperties::"
         "test_read_soundness_matches_the_full_fold_oracle_off_the_sound_path[far_sighted_mux]",),
    ),
    Mutant(
        "a soundness trial keeps the last trial's stimulus while it draws",
        "src/kcir/circuits.py",
        "        control = columns = stimulus = None  #",
        "        control = columns = None  #",
        ("tests/test_circuits.py::TestLinearTime::"
         "test_a_check_holds_one_trial_at_a_time[mux.kcir-read_soundness_check]",),
    ),
    Mutant(
        "a causality trial keeps the last trial's samples while it draws",
        "src/kcir/circuits.py",
        "        control = columns = None  # the last trial's samples, freed before a draw\n",
        "",
        ("tests/test_circuits.py::TestLinearTime::"
         "test_a_check_holds_one_trial_at_a_time[dff.kcir-causality_check]",),
    ),
    Mutant(
        "_abmem_step swaps the written and read cells",
        "src/kcir/circuits.py",
        "        i, j = _CELLS[symbol]\n"
        "    except KeyError:\n"
        "        raise _memory_symbol_error(symbol) from None\n"
        "    if i is not None:\n"
        "        cells = ",
        "        j, i = _CELLS[symbol]\n"
        "    except KeyError:\n"
        "        raise _memory_symbol_error(symbol) from None\n"
        "    if i is not None:\n"
        "        cells = ",
        ("tests/test_circuits.py::TestAbmem::test_cell_state_route_agrees_with_read_map",
         "tests/test_circuits.py::TestRandomizedProperties::test_read_soundness[abmem_element]"),
    ),
)

#: Written into the unmutated copy: fails unless ``kcir`` comes from the copy.
PROBE = '''\
from pathlib import Path

import kcir


def test_kcir_is_imported_from_this_copy():
    assert Path(kcir.__file__).resolve().is_relative_to(Path(__file__).resolve().parents[1])
'''
PROBE_PATH = "tests/test_mutants_probe.py"


def copy_tree(target: Path) -> Path:
    """The repository copied into ``target``, without version control or caches."""
    tree = target / "repo"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
    return tree


def run_tests(tree: Path, tests: tuple[str, ...]) -> bool:
    """Whether ``tests`` pass in ``tree``, run by pytest against the tree's own ``kcir``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", "--hypothesis-profile=mutants", *tests],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    # 1: tests failed.  2: a named test module failed to collect, and 4: a
    # parametrized id in it could then not be found; the unmutated run has
    # shown that every named test collects, so under a mutant these fail it
    # too.  Anything else: pytest could not run the tests.
    if done.returncode not in (0, 1, 2, 4):
        raise RuntimeError(f"pytest exited {done.returncode} in {tree}:\n{done.stdout}")
    return done.returncode == 0


def try_mutant(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="kcir-mutant-") as scratch:
        tree = copy_tree(Path(scratch))
        path = tree / mutant.path
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "stale"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        return "survived" if run_tests(tree, mutant.tests) else "killed"


def main() -> int:
    if sys.argv[1:]:
        print(f"usage: python {Path(__file__).name}  (it takes no options)", file=sys.stderr)
        return 2
    started = time.perf_counter()
    tests = tuple(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
    with tempfile.TemporaryDirectory(prefix="kcir-unmutated-") as scratch:
        tree = copy_tree(Path(scratch))
        (tree / PROBE_PATH).write_text(PROBE, encoding="utf-8")
        if not run_tests(tree, (PROBE_PATH, *tests)):
            print("unmutated copy: its tests fail, so no mutant is tried")
            return 1
    print(f"unmutated copy: {len(tests)} tests pass, kcir imported from the copy")
    outcomes = []
    for mutant in MUTANTS:
        outcome = try_mutant(mutant)
        outcomes.append(outcome)
        print(f"{outcome:8}  {mutant.name}  ({mutant.path})")
    bad = sum(outcome != "killed" for outcome in outcomes)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - started:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
