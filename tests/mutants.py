"""Mutation check: each listed edit of ``src/kcir`` must fail the tests named for it.

Run it from any directory as ``python tests/mutants.py``; it takes no
options and needs pytest and hypothesis, like the tests.  For each mutant it
copies the repository (without ``.git`` and caches) to a temporary
directory, applies the mutant's exact text edit there and runs the mutant's
tests in that copy, with hypothesis seeded so that a run repeats and
without its shrink phase (the ``mutants`` profile of ``tests/conftest.py``),
so a mutant that a drawn example kills fails at once.  A mutant
is reported *killed* when those tests fail, *survived* when they pass, and
*stale* when its old text is not in the file exactly once.  A mutant that
survives needs a new test that kills it, not its removal from the list.

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
        "the sweep skips a node's last child",
        "src/kcir/classifier.py",
        "for k in children[n]:",
        "for k in children[n][:-1]:",
        (f"{ORACLE}::test_built_in_node_tables_match_brute_force",
         f"{ORACLE}::test_mealy_node_tables_match_brute_force"),
    ),
    Mutant(
        "the antisymmetry test in _axiom_report inverted",
        "src/kcir/classifier.py",
        "if anti is None and later & bit:",
        "if anti is None and not later & bit:",
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
        "swapped keeps x itself",
        "src/kcir/classifier.py",
        "sum(1 << y for y in _members(mask) if y != x and after[y] >> x & 1)",
        "sum(1 << y for y in _members(mask) if after[y] >> x & 1)",
        (f"{ORACLE}::test_classify_never_reports_a_reflexivity_failure",
         f"{ORACLE}::test_table_read_maps_match_the_oracle"),
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
        "if dag.excluded or not _axiom_report(dag.refs, dag.after).is_partial_order:",
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
        "own + ((c, tick),) if rise & bit else own",
        "own + ((c, tick),) if rise else own",
        (f"{ORACLE}::test_read_steps_match_the_rescanning_read_maps[twoclock.kcir]",
         "tests/test_dsl.py::TestCompiledStepMatchesTheReference"
         "::test_read_step_equals_the_reference"),
    ),
    Mutant(
        "a stimulus row may span twice the line bound",
        "src/kcir/cli.py",
        "if read - row_start > bound:",
        "if read - row_start > 2 * bound:",
        ("tests/test_stimulus.py::test_batched_reader_matches_the_row_by_row_reader",
         f"{CLI}::TestBoundedReads::test_row_spanning_lines_exits_2_in_flat_memory"),
    ),
    Mutant(
        "a batch past the sample limit is taken without a row scan",
        "src/kcir/cli.py",
        "if first + len(batch) > max_rows or set(map(len, batch)) != width:",
        "if set(map(len, batch)) != width:",
        ("tests/test_stimulus.py::test_sample_limit_at_a_batch_boundary",
         "tests/test_stimulus.py::test_batched_reader_matches_the_row_by_row_reader"),
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
        "a circuit file's byte order mark is read as text",
        "src/kcir/cli.py",
        'with open(path, encoding="utf-8-sig") as handle:',
        'with open(path, encoding="utf-8") as handle:',
        (f"{CLI}::TestBomLedCircuitFiles",),
    ),
    Mutant(
        "a reads given beside a read_step is kept",
        "src/kcir/circuits.py",
        '"reads", None if step is None else _fold_reads(self.read_init, step))',
        '"reads", None if step is None else reads or _fold_reads(self.read_init, step))',
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
    if done.returncode not in (0, 1):  # 1: tests failed; anything else: pytest could not run them
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
