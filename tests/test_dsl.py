from __future__ import annotations

import io
import random
import re
import time
import tokenize
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcir import (
    BoolExpr,
    CausalSignal,
    Call,
    CircuitAst,
    DomainAst,
    ElaborationError,
    Lit,
    ParseError,
    SimulationError,
    Var,
    Verdict,
    classify,
    elaborate,
    load_circuit,
    output_stream,
    parse,
    pretty_print,
    read_soundness_check,
)
from kcir.dsl import MAX_DOMAINS, MAX_EXPR_DEPTH, _step_code, _step_source

from . import oracle
from .conftest import CIRCUITS_DIR
from .test_cli import multiclock_text

# ---------------------------------------------------------------------------
# Corpora

VALID_CORPUS = [
    "circuit ff { kind dff; }",
    "circuit ff2 {\n  kind dff;\n}\n",
    "# leading comment\ncircuit ff3 { kind dff; } # trailing comment",
    "circuit ff4 {kind dff;}",
    "circuit latch { kind srlatch; }",
    "circuit latch2 { # set/reset\n  kind srlatch;\n}",
    "circuit selector { kind mux; }",
    "circuit mem { kind abmem; }",
    "circuit mem2 {\r\n  kind abmem;\r\n}\r\n",  # CRLF endings
    "circuit c { kind sync; clock clk; state 2 init 00; next q0 = xor(q0, d);"
    " next q1 = xor(q1, and(q0, d)); out y = q1; in d; }",
    "circuit pass_through { kind sync; clock ck; state 1 init 0;"
    " in d; next q0 = d; out y = q0; }",
    "circuit toggle { kind sync; clock ck; state 1 init 1;"
    " next q0 = not(q0); out y = q0; }",
    "circuit wide { kind sync; clock ck; state 3 init 101; in a; in b;"
    " next q0 = and(a, b); next q1 = or(q0, q2); next q2 = xor(q1, q2, a);"
    " out y = q2; }",
    "circuit two_outs { kind sync; clock ck; state 2 init 00; in d;"
    " next q0 = d; next q1 = q0; out hi = q1; out lo = q0; }",
    "circuit literals { kind sync; clock ck; state 1 init 0;"
    " next q0 = or(0, and(1, q0)); out y = 1; }",
    "circuit shuffled { out y = q0; state 1 init 0; next q0 = d;"
    " in d; clock ck; kind sync; }",
    "circuit nested { kind sync; clock ck; state 1 init 0; in d;"
    " next q0 = not(xor(not(d), or(q0, not(q0)))); out y = q0; }",
    "circuit no_inputs { kind sync; clock ck; state 1 init 0;"
    " next q0 = not(q0); out y = q0; }",
    "circuit pair { kind multiclock;"
    " domain fast { clock cf; state 1 init 0; in df; next q0 = not(q0); out y = q0; }"
    " domain slow { clock cs; state 1 init 0; in ds; next q0 = xor(q0, ds); out y = q0; } }",
    "circuit pair2 {\n kind multiclock;\n"
    " domain one { clock c1; state 2 init 10; in a;\n"
    "   next q0 = xor(q0, a); next q1 = q0; out y = and(q0, q1); }\n"
    " domain two { clock c2; state 1 init 0; in b; next q0 = or(q0, b); out z = q0; }\n}",
]

# (text, offending token) pairs; the reported span must cover exactly the token.
INVALID_CORPUS = [
    ("circuit x { kind warp; }", "warp"),
    ("circuit x { kind dff; kind dff; }", "kind"),
    ("circuit x { kind dff; wires 3; }", "wires"),
    ("circuit x { kind sync; clock ck; state 1 init 0;"
     " next q0 = xor(q0, nope); out y = q0; }", "nope"),
    ("circuit x { kind sync; clock ck; state 1 init 0;"
     " next q0 = not(q0, q0); out y = q0; }", "not"),
    ("circuit x { kind sync; clock ck; state 2 init 00; in d;"
     " next q7 = d; next q0 = d; next q1 = d; out y = q0; }", "q7"),
    ("circuit x { kind dff; clock ck; }", "clock"),
    ("circuit x { kind sync; clock ck; state 1 init 0; in d; in d;"
     " next q0 = d; out y = q0; }", "d"),
    ("circuit x { kind sync; clock ck; state 1 init 0;"
     " next q0 = 2; out y = q0; }", "2"),
    ("circuit x { kind dff }", "}"),
]


def find_occurrences(text: str, token: str):
    """All (line, column) positions of ``token``, 1-based, per source line."""
    positions = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        start = 0
        while True:
            col = line.find(token, start)
            if col < 0:
                break
            positions.append((line_no, col + 1))
            start = col + 1
    return positions


class TestParseBasics:
    def test_minimal_dff(self):
        ast = parse("circuit ff { kind dff; }")
        assert ast == CircuitAst("ff", "dff")

    def test_sync_example(self):
        ast = parse(
            "circuit c { kind sync; clock clk; state 2 init 00;"
            " next q0 = xor(q0, d); next q1 = xor(q1, and(q0, d));"
            " out y = q1; in d; }"
        )
        assert ast.kind == "sync"
        (body,) = ast.domains
        assert body.name == ""
        assert body.clock == "clk"
        assert body.init_bits == "00"
        assert body.inputs == ("d",)
        assert body.next_exprs == (
            ("q0", Call("xor", (Var("q0"), Var("d")))),
            ("q1", Call("xor", (Var("q1"), Call("and", (Var("q0"), Var("d")))))),
        )
        assert body.outputs == (("y", Var("q1")),)

    def test_unknown_kind_reports_its_token(self):
        with pytest.raises(ParseError) as info:
            parse("circuit x { kind warp; }")
        assert info.value.message == "unknown kind"
        assert info.value.token_text == "warp"

    def test_multiclock_blocks(self):
        ast = parse(VALID_CORPUS[18])
        assert ast.kind == "multiclock"
        assert [d.name for d in ast.domains] == ["fast", "slow"]
        assert ast.domains[0].clock == "cf"
        assert ast.domains[1].inputs == ("ds",)

    def test_leading_zero_init_is_preserved(self):
        ast = parse(
            "circuit z { kind sync; clock ck; state 3 init 001;"
            " next q0 = q1; next q1 = q2; next q2 = q0; out y = q0; }"
        )
        assert ast.domains[0].init_bits == "001"

    def test_uppercase_is_rejected(self):
        with pytest.raises(ParseError) as info:
            parse("circuit X { kind dff; }")
        assert "unexpected character" in info.value.message

    def test_clock_clause_takes_one_name(self):
        with pytest.raises(ParseError) as info:
            parse(
                "circuit x { kind sync; clock a, b; state 1 init 0;"
                " next q0 = q0; out y = q0; }"
            )
        assert info.value.message == "expected ';'"
        assert info.value.token_text == ","
        assert (info.value.span.line, info.value.span.column) == (1, 31)

    def test_missing_kind_is_reported_at_the_circuit_name(self):
        with pytest.raises(ParseError) as info:
            parse("circuit nameless { }")
        assert info.value.message == "missing kind clause"
        assert info.value.token_text == "nameless"

    @pytest.mark.parametrize(
        "text",
        [
            "circuit x { kind sync; clock ck; state 1 init 0;"
            " in q0; next q0 = q0; out y = q0; }",
            "circuit x { kind multiclock;"
            " domain a { clock ca; state 2 init 00; in d; in q1;"
            " next q0 = d; next q1 = q0; out y = q1; }"
            " domain b { clock cb; state 1 init 0; in e; next q0 = e; out z = q0; } }",
        ],
        ids=["sync", "multiclock-domain"],
    )
    def test_input_named_like_a_register_is_rejected(self, text):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert "collides with a state register" in info.value.message
        name = info.value.token_text
        assert name in ("q0", "q1")
        assert text[info.value.span.column - 1 - 3 :].startswith(f"in {name};")

    def test_register_block_clauses_in_any_order(self):
        width = 12
        nexts = " ".join(f"next q{i} = q{(i + 1) % width};" for i in reversed(range(width)))
        ast = parse(f"circuit r {{ kind sync; clock ck; state {width} init {'0' * width};"
                    f" {nexts} out b = q1; out a = q0; }}")
        (body,) = ast.domains
        assert [target for target, _ in body.next_exprs] == [f"q{i}" for i in range(width)]
        assert [name for name, _ in body.outputs] == ["b", "a"]

    @pytest.mark.parametrize(
        "clauses,message",
        [("next q0 = q0; next q0 = q0; out y = q0;", "duplicate next clause for register"),
         ("next q0 = q0; out y = q0; out y = q0;", "duplicate out clause")],
        ids=["next", "out"],
    )
    def test_duplicate_block_clauses_are_reported(self, clauses, message):
        with pytest.raises(ParseError) as info:
            parse(f"circuit x {{ kind sync; clock ck; state 1 init 0; {clauses} }}")
        assert info.value.message == message

    def test_missing_register_next_is_reported(self):
        with pytest.raises(ParseError) as info:
            parse(
                "circuit x { kind sync; clock ck; state 2 init 00;"
                " next q0 = q1; out y = q0; }"
            )
        assert "missing next expression for register q1" in info.value.message


#: Refusals with their (message, line, column, token text), each on its own
#: path through the parser; a refusal at the end of input names the column
#: before the end and the token "end of input".
REFUSALS = {
    "state-width-not-a-number": (
        "circuit x {\n  kind sync;\n  clock ck;\n  state w init 0;\n}",
        "expected state width", 4, 9, "w"),
    "state-width-zero": (
        "circuit x {\n  kind sync; clock ck;\n  state 000 init 0;\n}",
        "state width must be positive", 3, 9, "000"),
    "operand-missing": (
        "circuit x {\n  kind sync; clock ck; state 1 init 0;\n  next q0 = and(q0, );\n}",
        "expected an expression", 3, 21, ")"),
    "sync-without-state": (
        "circuit x {\n  kind sync;\n  clock ck; in d; next q0 = d; out y = d;\n}",
        "sync circuit requires a state clause", 2, 8, "sync"),
    "domain-without-state": (
        "circuit x { kind multiclock;\n"
        "  domain a { clock ca; in d; out y = d; }\n"
        "  domain b { clock cb; state 1 init 0; in e; next q0 = e; out z = q0; }\n}",
        "domain a requires a state clause", 2, 10, "a"),
    "sync-without-out": (
        "circuit x { kind sync; clock ck; state 1 init 0; in d; next q0 = d; }",
        "sync circuit requires at least one out clause", 1, 18, "sync"),
    "domain-without-out": (
        "circuit x { kind multiclock;\n"
        "  domain a { clock ca; state 1 init 0; in d; next q0 = d; out y = q0; }\n"
        "  domain b { clock cb; state 1 init 0; in e; next q0 = e; }\n}",
        "domain b requires at least one out clause", 3, 10, "b"),
    "duplicate-domain-name": (
        "circuit x {\n  kind multiclock;\n"
        "  domain a { clock ca; state 1 init 0; in d; next q0 = d; out y = q0; }\n"
        "  domain b { clock cb; state 1 init 0; in e; next q0 = e; out z = q0; }\n"
        "  domain a { clock cc; state 1 init 0; in f; next q0 = f; out w = q0; }\n}",
        "duplicate domain name", 5, 10, "a"),
    "end-of-input-after-blanks": (
        "circuit x { kind dff;   ", "expected a clause keyword", 1, 21, "end of input"),
    "end-of-input-on-a-new-line": (
        "circuit x {\n  kind dff;\n", "expected a clause keyword", 2, 11, "end of input"),
    "end-of-input-in-an-operand-list": (
        "circuit x { kind sync; clock ck; state 1 init 0; next q0 = not(q0",
        "expected ')'", 1, 65, "end of input"),
    "empty-text": ("", "expected 'circuit'", 1, 1, "end of input"),
    "text-after-the-circuit": (
        "circuit x {\n  kind dff;\n}\n}", "expected end of input", 4, 1, "}"),
}


class TestRefusals:
    @pytest.mark.parametrize("name", sorted(REFUSALS))
    def test_refusal_names_its_message_position_and_token(self, name):
        text, message, line, column, token = REFUSALS[name]
        with pytest.raises(ParseError) as info:
            parse(text)
        error = info.value
        assert (error.message, error.span.line, error.span.column, error.token_text) == (
            message, line, column, token)
        assert str(error) == f"line {line}, column {column}: {message}"


class TestCorpus:
    @pytest.mark.parametrize("text", VALID_CORPUS)
    def test_round_trip(self, text):
        ast = parse(text)
        printed = pretty_print(ast)
        assert parse(printed) == ast

    def test_corpus_size(self):
        assert len(VALID_CORPUS) >= 20

    @pytest.mark.parametrize("text,token", INVALID_CORPUS)
    def test_invalid_files_report_spans_inside_the_offending_token(self, text, token):
        with pytest.raises(ParseError) as info:
            parse(text)
        span = info.value.span
        positions = find_occurrences(text, token)
        assert any(
            span.line == line
            and span.column >= column
            and span.column + span.length <= column + len(token)
            for line, column in positions
        ), f"span {span} does not sit inside any occurrence of {token!r}"


# Random expression trees over the block's declared names.
_exprs = st.recursive(
    st.one_of(
        st.builds(Lit, st.sampled_from(("0", "1"))),
        st.builds(Var, st.sampled_from(("q0", "q1", "d", "e"))),
    ),
    lambda children: st.one_of(
        st.builds(lambda a: Call("not", (a,)), children),
        st.builds(
            lambda op, a, b: Call(op, (a, b)),
            st.sampled_from(("and", "or", "xor")),
            children,
            children,
        ),
    ),
    max_leaves=10,
)


class TestRoundTripProperty:
    @given(_exprs, _exprs, _exprs, st.sampled_from(("00", "01", "10", "11")))
    def test_generated_sync_asts_round_trip(self, e0, e1, out, init):
        ast = CircuitAst(
            name="gen",
            kind="sync",
            domains=(DomainAst(
                name="",
                clock="ck",
                init_bits=init,
                inputs=("d", "e"),
                next_exprs=(("q0", e0), ("q1", e1)),
                outputs=(("y", out),),
            ),),
        )
        assert parse(pretty_print(ast)) == ast


def _interpret(expr, env: dict[str, str]) -> str:
    """Direct evaluation of an expression tree, independent of the compiler."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        return env[expr.name]
    values = [_interpret(arg, env) == "1" for arg in expr.args]
    if expr.op == "not":
        result = not values[0]
    elif expr.op == "and":
        result = all(values)
    elif expr.op == "or":
        result = any(values)
    else:
        result = sum(values) % 2 == 1
    return "1" if result else "0"


class TestCompiledLogic:
    @settings(max_examples=150, deadline=None)
    @given(
        _exprs, _exprs, _exprs,
        st.sampled_from(("and", "or", "xor")),
        st.sampled_from(("00", "01", "10", "11")),
        st.data(),
    )
    def test_sync_blocks_match_an_ast_interpreter(self, e0, e1, hi, op, init, data):
        # A three-argument call exercises the n-ary operators too.
        lo = Call(op, (e0, e1, hi))
        ast = CircuitAst(
            name="gen",
            kind="sync",
            domains=(DomainAst(
                name="",
                clock="ck",
                init_bits=init,
                inputs=("d", "e"),
                next_exprs=(("q0", e0), ("q1", e1)),
                outputs=(("hi", hi), ("lo", lo)),
            ),),
        )
        ticks = data.draw(st.integers(1, 12))
        columns = [
            tuple(data.draw(st.lists(st.sampled_from("01"), min_size=ticks, max_size=ticks)))
            for _ in range(3)
        ]
        clock, d, e = columns
        registers = {"q0": init[0], "q1": init[1]}
        expected = []
        for t in range(ticks):
            env = {**registers, "d": d[t], "e": e[t]}
            if t >= 1 and clock[t - 1 : t + 1] == ("0", "1"):
                registers = {"q0": _interpret(e0, env), "q1": _interpret(e1, env)}
                env = {**registers, "d": d[t], "e": e[t]}
            expected.append(_interpret(hi, env) + _interpret(lo, env))
        element = elaborate(ast)
        assert output_stream(element, clock, {"d": d, "e": e}) == expected


#: Input names that are Python keywords, builtins or the generated code's own
#: local and global names; the grammar admits all of them.
AWKWARD_NAMES = (
    "env", "samples", "state", "v0", "v1", "t0", "t1", "lambda", "import", "not",
    "in", "return", "true", "reject_sample", "next_state", "output_fn", "q9",
    "step", "previous", "symbol", "rise", "words", "reject_clocks", "r0", "s0",
)
#: Samples that are not bits, for clocks and data alike.
NON_BITS = ("x", "", "2", " 1", "10")


@st.composite
def _domains(draw, name: str = "", clock: str = "clk", inputs: tuple[str, ...] = ()) -> DomainAst:
    """A register block of 1 to 4 registers on ``inputs`` with n-ary logic."""
    width = draw(st.integers(1, 4))
    names = (*(f"q{i}" for i in range(width)), *inputs)
    leaves = st.one_of(
        st.builds(Lit, st.sampled_from(("0", "1"))), st.builds(Var, st.sampled_from(names))
    )
    exprs = st.recursive(leaves, lambda children: st.one_of(
        st.builds(lambda a: Call("not", (a,)), children),
        st.builds(
            lambda op, args: Call(op, tuple(args)),
            st.sampled_from(("and", "or", "xor")),
            st.lists(children, min_size=2, max_size=4),
        ),
    ), max_leaves=12)
    nexts = [(f"q{i}", draw(exprs)) for i in range(width)]
    outs = [(name, draw(exprs)) for name in draw(
        st.lists(st.sampled_from(AWKWARD_NAMES), min_size=1, max_size=3, unique=True)
    )]
    if draw(st.booleans()):
        # One expression becomes a nest of negations as deep as the grammar allows.
        slots = nexts + outs
        k = draw(st.integers(0, len(slots) - 1))
        expr = draw(leaves)
        for _ in range(MAX_EXPR_DEPTH):
            expr = Call("not", (expr,))
        slots[k] = (slots[k][0], expr)
        nexts, outs = slots[:width], slots[width:]
    bits = draw(st.text("01", min_size=width, max_size=width))
    return DomainAst(name, clock, bits, inputs, tuple(nexts), tuple(outs))


@st.composite
def _circuits(
    draw, min_domains: int = 1, max_domains: int = MAX_DOMAINS, max_inputs: int = 3 * MAX_DOMAINS
) -> CircuitAst:
    """A sync circuit, or a multiclock one of ``min_domains`` to ``max_domains`` domains.

    Each domain has its own clock and 0 to 3 inputs of its own, and all the
    domains have ``max_inputs`` inputs at most.
    """
    count = draw(st.integers(min_domains, max_domains))
    names = list(draw(st.permutations(AWKWARD_NAMES)))
    domains = []
    for k in range(count):
        inputs = tuple(names[:draw(st.integers(0, min(3, max_inputs)))])
        max_inputs -= len(inputs)
        del names[:len(inputs)]
        domains.append(draw(_domains(f"d{k}" if count > 1 else "", f"clk{k}", inputs)))
    return CircuitAst("blk", "sync" if count == 1 else "multiclock", tuple(domains))


def _identifiers(domain: DomainAst) -> dict[str, str]:
    """Fresh names for every identifier of a domain, registers excepted."""
    names = [domain.clock, *domain.inputs, *(name for name, _ in domain.outputs)]
    return {name: f"renamed_{k}" for k, name in enumerate(dict.fromkeys(names))}


def _renamed_expr(expr: BoolExpr, names: dict[str, str]) -> BoolExpr:
    if isinstance(expr, Var):
        return Var(names.get(expr.name, expr.name))
    if isinstance(expr, Call):
        return Call(expr.op, tuple(_renamed_expr(arg, names) for arg in expr.args))
    return expr


def _renamed(domain: DomainAst) -> DomainAst:
    names = _identifiers(domain)
    return DomainAst(
        "", names[domain.clock], domain.init_bits, tuple(names[n] for n in domain.inputs),
        tuple((q, _renamed_expr(e, names)) for q, e in domain.next_exprs),
        tuple((names[n], _renamed_expr(e, names)) for n, e in domain.outputs),
    )


#: Every name the generated source may use besides ``[vtrs]<number>``.
SOURCE_NAMES = {
    "def", "step", "state", "symbol", "samples", "previous", "try", "rise", "words",
    "except", "KeyError", "reject_clocks", "if", "in", "reject_sample", "not", "and",
    "or", "True", "False", "else", "return", "join",
}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SimulationError as exc:
        return f"SimulationError: {exc}"


class TestCompiledStepMatchesTheReference:
    """The compiled step of a whole circuit against the closure evaluator in ``tests/oracle.py``."""

    @settings(max_examples=50, deadline=None)
    @given(_circuits(), st.data())
    def test_compiled_step_equals_the_reference(self, ast, data):
        assert parse(pretty_print(ast)) == ast
        element = elaborate(ast)
        ticks = data.draw(st.integers(1, 10))
        column = st.lists(st.sampled_from("01"), min_size=ticks, max_size=ticks)
        clocks = [data.draw(column) for _ in ast.domains]
        inputs = {name: data.draw(column) for name in element.input_names}
        # Plant up to three non-bit samples at one tick, among the clock and data columns.
        tick = data.draw(st.integers(0, ticks - 1))
        columns = st.sampled_from([*clocks, *inputs.values()])
        for planted in data.draw(st.lists(columns, max_size=3)):
            planted[tick] = data.draw(st.sampled_from(NON_BITS))
        control = ["/".join(samples) for samples in zip(*clocks)]
        evaluate = oracle.ast_evaluator(ast)
        for length in range(1, ticks + 1):
            cut_inputs = {name: samples[:length] for name, samples in inputs.items()}
            assert _outcome(output_stream, element, control[:length], cut_inputs) == _outcome(
                oracle.output_stream, element, evaluate, control[:length], cut_inputs
            )

    @settings(max_examples=30, deadline=None)
    @given(_circuits(), st.data())
    def test_read_step_equals_the_reference(self, ast, data):
        element = elaborate(ast)
        symbols = data.draw(st.lists(
            st.sampled_from(element.control_alphabet.values), min_size=1, max_size=8
        ))
        reads = oracle.ast_reads(ast)
        for length in range(1, len(symbols) + 1):
            control = CausalSignal(element.control_alphabet, tuple(symbols[:length]))
            assert element.reads(control) == reads(control)

    @settings(max_examples=30, deadline=None)
    @given(_circuits())
    def test_generated_source_holds_no_text_of_the_description(self, ast):
        source = _step_source(ast.domains)
        assert source == _step_source([_renamed(domain) for domain in ast.domains])
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.NAME:
                assert token.string in SOURCE_NAMES or re.fullmatch(r"[vtrs]\d+", token.string)
            elif token.type == tokenize.STRING:
                assert token.string in ('"0"', '"1"', '"/"', '""')

    def test_code_is_compiled_once_per_circuit_body(self):
        text = (CIRCUITS_DIR / "threeclock.kcir").read_text(encoding="utf-8")
        assert _step_code(parse(text).domains) is _step_code(parse(text).domains)
        assert _step_code.cache_info().maxsize is not None


#: Each circuit file's name and text, then a multiclock circuit of the most domains.
FOLD_CIRCUITS = [
    *((path.name, path.read_text(encoding="utf-8")) for path in sorted(CIRCUITS_DIR.glob("*.kcir"))),
    ("most_domains", multiclock_text(MAX_DOMAINS)),
]


def _carried_fold(element):
    """The one-pass fold an element's read step carries, made for its ``read_init``."""
    init, fold = element.read_step.fold
    assert init == element.read_init
    return fold


class TestCarriedFold:
    """The fold a clocked read step carries is the read step stepped tick by tick."""

    @settings(max_examples=30, deadline=None)
    @given(_circuits(), st.data())
    def test_the_fold_equals_the_stepped_fold_on_drawn_blocks(self, ast, data):
        element = elaborate(ast)
        rng = data.draw(st.randoms(use_true_random=False))
        values = element.control_alphabet.values
        history = [rng.choice(values) for _ in range(data.draw(st.integers(1, 200)))]
        assert _carried_fold(element)(history) == oracle.read_fold(element, history)[1]

    @pytest.mark.parametrize("text", [text for _, text in FOLD_CIRCUITS],
                             ids=[name for name, _ in FOLD_CIRCUITS])
    def test_the_fold_equals_the_stepped_fold(self, text):
        element = load_circuit(text)
        clocked = parse(text).kind in ("sync", "multiclock")
        assert hasattr(element.read_step, "fold") == clocked
        if not clocked:
            return
        fold = _carried_fold(element)
        rng = random.Random(text)
        for length in (1, 2, *(rng.randint(1, 200) for _ in range(40))):
            history = [rng.choice(element.control_alphabet.values) for _ in range(length)]
            assert fold(history) == oracle.read_fold(element, history)[1]

    @pytest.mark.parametrize("name, bad", (
        ("counter.kcir", "2"), ("counter.kcir", "1/0"), ("twoclock.kcir", "1"),
        ("twoclock.kcir", "x/1"), ("threeclock.kcir", "0/1"),
    ))
    def test_the_fold_refuses_a_symbol_as_the_read_step_does(self, name, bad):
        element = load_circuit((CIRCUITS_DIR / name).read_text(encoding="utf-8"))
        history = [element.control_alphabet.values[-1], bad]
        refused = _outcome(_carried_fold(element), history)
        assert refused.startswith("SimulationError: ")
        assert refused == _outcome(oracle.read_fold, element, history)


# Hand-built descriptions that ``parse`` never returns, each with the end of
# its one-line error: a parse error at the offending token, or the first field
# that reads back changed from the canonical text.
d, e = Var("d"), Var("e")
BODY = DomainAst("", "ck", "00", ("d", "e"), (("q0", d), ("q1", Var("q0"))), (("y", Var("q1")),))
FAST = DomainAst("fast", "cf", "0", ("df",), (("q0", Var("df")),), (("y", Var("q0")),))
SLOW = DomainAst("slow", "cs", "0", ("ds",), (("q0", Var("ds")),), (("z", Var("q0")),))
HOLD = DomainAst("hold", "ch", "0", ("dh",), (("q0", Var("q0")),), (("w", Var("q0")),))


def sync(**changes) -> CircuitAst:
    return CircuitAst("bad", "sync", (replace(BODY, **changes),))


def next_q0(expr) -> CircuitAst:
    return sync(next_exprs=(("q0", expr), ("q1", Var("q0"))))


def nested_not(depth: int) -> Call:
    expr = d
    for _ in range(depth):
        expr = Call("not", (expr,))
    return expr


UNREADABLE = {
    "nand": (next_q0(Call("nand", (d, e))), "unknown operator at 'nand'"),
    "not-of-two": (next_q0(Call("not", (d, e))), "arity mismatch at 'not'"),
    "and-of-one": (next_q0(Call("and", (d,))), "arity mismatch at 'and'"),
    "non-bit-literal": (next_q0(Lit("x")), "undeclared variable at 'x'"),
    "non-bit-init": (sync(init_bits="x"), "init vector must contain only bits at 'x'"),
    "undeclared-variable": (next_q0(Var("ghost")), "undeclared variable at 'ghost'"),
    "input-named-like-a-register": (
        sync(inputs=("d", "q0")), "input name q0 collides with a state register at 'q0'"),
    "duplicate-input": (sync(inputs=("d", "e", "d")), "duplicate input name at 'd'"),
    "uppercase-input": (sync(inputs=("d", "E")), "unexpected character 'E' at 'E'"),
    "swapped-next-targets": (
        sync(next_exprs=(("q1", Var("q0")), ("q0", d))),
        "next_exprs (('q1', Var(name='q0')), ('q0', Var(name='d'))) is not read back "
        "from its canonical text"),
    "missing-next": (
        sync(next_exprs=(("q0", d),)), "missing next expression for register q1 at '2'"),
    "named-sync-domain": (
        sync(name="body"), "name 'body' is not read back from its canonical text"),
    "sync-without-a-domain": (
        CircuitAst("bad", "sync"), "sync circuit requires a clock clause at 'sync'"),
    "unknown-kind": (CircuitAst("bad", "warp"), "unknown kind at 'warp'"),
    "dff-with-a-domain": (
        CircuitAst("bad", "dff", (FAST,)), "clause 'domain' not allowed for kind dff at 'domain'"),
    "one-domain-multiclock": (
        CircuitAst("bad", "multiclock", (FAST,)),
        "multiclock circuit requires two or more domain blocks at 'multiclock'"),
    "nested-past-the-depth-limit": (
        next_q0(nested_not(5000)),
        f"expression nested deeper than {MAX_EXPR_DEPTH} levels at 'not'"),
    "two-domains-on-one-clock": (
        CircuitAst("bad", "multiclock", (FAST, replace(SLOW, clock="cf"))),
        "duplicate clock name across domains at 'slow'"),
    "third-domain-on-the-first-clock": (
        CircuitAst("bad", "multiclock", (FAST, SLOW, replace(HOLD, clock="cf"))),
        "duplicate clock name across domains at 'hold'"),
    "third-domain-sharing-an-input": (
        CircuitAst("bad", "multiclock", (FAST, SLOW, replace(HOLD, inputs=("ds",)))),
        "duplicate input name across domains at 'hold'"),
    "input-named-like-the-clock": (
        sync(inputs=("d", "ck")), "input name ck collides with the clock at 'ck'"),
    "clock-named-like-an-earlier-input": (
        CircuitAst("bad", "multiclock", (FAST, replace(SLOW, clock="df"))),
        "duplicate clock name across domains at 'slow'"),
    "input-named-like-an-earlier-clock": (
        CircuitAst("bad", "multiclock", (
            FAST, replace(SLOW, inputs=("cf",), next_exprs=(("q0", Var("cf")),)))),
        "duplicate input name across domains at 'slow'"),
    "one-domain-past-the-limit": (
        CircuitAst("bad", "multiclock", tuple(
            replace(HOLD, name=f"h{i}", clock=f"c{i}", inputs=()) for i in range(MAX_DOMAINS + 1)
        )),
        f"multiclock circuit has more than {MAX_DOMAINS} domain blocks at 'h{MAX_DOMAINS}'"),
}


class TestElaborate:
    def test_dff_ast_gets_read_map_and_evaluator(self):
        element = elaborate(parse("circuit ff { kind dff; }"))
        assert element.name == "ff"
        assert element.reads is not None
        assert output_stream(element, ("0", "1"), {"D": ("x", "y")}) == [None, "y"]

    def test_abmem_ast_uses_pair_control_alphabet(self):
        element = elaborate(parse("circuit m { kind abmem; }"))
        assert element.control_channels == ("W", "R")
        assert "A/-" in element.control_alphabet
        assert len(element.control_alphabet) == 9

    def test_sync_counter_matches_hand_mealy_oracle(self):
        # The xor/and ripple structure increments (q1 q0) at each edge where
        # d is high; the oracle steps that Mealy machine directly.
        element = elaborate(
            parse(
                "circuit c { kind sync; clock clk; state 2 init 00;"
                " next q0 = xor(q0, d); next q1 = xor(q1, and(q0, d));"
                " out y = q1; in d; }"
            )
        )
        rng = random.Random(4)
        for _ in range(60):
            n = rng.randint(1, 10)
            clock = tuple(rng.choice("01") for _ in range(n))
            data = tuple(rng.choice("01") for _ in range(n))
            q0 = q1 = "0"
            expected = []
            for t in range(n):
                if t >= 1 and clock[t - 1 : t + 1] == ("0", "1"):
                    d = data[t]
                    q0, q1 = (
                        "1" if q0 != d else "0",
                        "1" if q1 != ("1" if q0 == d == "1" else "0") else "0",
                    )
                expected.append(q1)
            assert output_stream(element, clock, {"d": data}) == expected

    def test_sync_circuit_output_bundles_out_clauses(self):
        element = elaborate(parse(VALID_CORPUS[13]))  # two_outs: hi then lo
        clock = ("0", "1", "0", "1")
        data = ("1", "1", "0", "0")
        # q0 samples d at each edge; q1 trails q0 by one edge.
        assert output_stream(element, clock, {"d": data}) == ["00", "01", "01", "10"]

    def test_multiclock_elaboration(self):
        element = elaborate(parse(VALID_CORPUS[18]))
        assert element.control_channels == ("cf", "cs")
        assert element.input_names == ("df", "ds")
        clocks = ("0/0", "1/0", "0/1")
        inputs = {"df": ("0", "0", "0"), "ds": ("1", "1", "1")}
        assert output_stream(element, clocks, inputs) == ["0/0", "1/0", "1/1"]

    def test_three_clock_domains_elaborate(self):
        element = elaborate(parse((CIRCUITS_DIR / "threeclock.kcir").read_text(encoding="utf-8")))
        assert element.control_channels == ("ca", "cb", "cc")
        assert element.input_names == ("da", "db", "en")
        assert len(element.control_alphabet) == 8
        clocks = ("0/0/0", "1/1/1", "0/0/0", "1/1/1")
        inputs = {"da": ("0",) * 4, "db": ("1", "1", "0", "0"), "en": ("1",) * 4}
        # ya toggles, yb samples db, and hi/lo count the enabled edges.
        assert output_stream(element, clocks, inputs) == ["0/0/00", "1/1/01", "1/1/01", "0/0/10"]
        assert classify(element, 3).verdict is Verdict.TIME_PRESERVING

    def test_the_unedited_descriptions_elaborate(self):
        elaborate(CircuitAst("good", "sync", (BODY,)))
        elaborate(CircuitAst("good", "multiclock", (FAST, SLOW)))
        elaborate(CircuitAst("good", "multiclock", (FAST, SLOW, HOLD)))
        elaborate(CircuitAst("good", "multiclock", tuple(
            replace(HOLD, name=f"h{i}", clock=f"c{i}", inputs=()) for i in range(MAX_DOMAINS)
        )))

    def test_a_circuit_of_the_most_domains_loads_fast(self):
        # At the most domains, an edge table keyed by pairs of control symbols
        # took most of a second to build; one keyed by symbol takes milliseconds.
        ast = CircuitAst("wide", "multiclock", tuple(
            replace(FAST, name=f"f{i}", clock=f"c{i}", inputs=(f"d{i}",),
                    next_exprs=(("q0", Call("xor", (Var("q0"), Var(f"d{i}")))),))
            for i in range(MAX_DOMAINS)
        ))
        start = time.perf_counter()
        elaborate(ast)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("ast,fault", UNREADABLE.values(), ids=UNREADABLE.keys())
    def test_only_descriptions_that_parse_back_elaborate(self, ast, fault):
        with pytest.raises(ElaborationError) as info:
            elaborate(ast)
        assert str(info.value) == f"circuit 'bad': {fault}"

    def test_elaborated_sync_passes_read_soundness(self):
        element = elaborate(parse(VALID_CORPUS[9]))
        report = read_soundness_check(element, horizon=4, trials=300, seed=2)
        assert report.violations == 0
        assert report.mutations > 0
