"""Text format for circuit descriptions (.kcir files) and its elaborator.

Grammar (comments run from '#' to end of line, whitespace is insignificant,
LF and CRLF both work)::

    file   := "circuit" IDENT "{" clause* "}"
    clause := "kind" KIND ";"
            | "clock" IDENT ";"
            | "state" INT "init" BITS ";"
            | "in" IDENT ";"
            | "next" IDENT "=" expr ";"
            | "out" IDENT "=" expr ";"
            | "domain" IDENT "{" clause* "}"
    expr   := "0" | "1" | IDENT | ("not"|"and"|"or"|"xor") "(" expr ("," expr)* ")"

KIND is one of dff, srlatch, mux, sync, multiclock, abmem.  Identifiers match
``[a-z][a-z0-9_]*``.  Registers are named q0..q(k-1) for ``state k``; the init
bit string lists q0 first and has exactly k bits.  Operators nest at most
``MAX_EXPR_DEPTH`` deep.  ``sync`` circuits take exactly one clock and any
number of inputs and outputs; ``multiclock`` circuits consist of two to
``MAX_DOMAINS`` ``domain`` blocks, each shaped like a sync body.  No name is
both a clock and an input, or the clock or an input of two domains, since
each names one stimulus column.  Clause order inside a block is free.

Parsing is all-or-nothing: the first problem raises :class:`ParseError` with
a source span covering the offending token; the end of input is named at
the last character of the last token, or at line 1, column 1 of a text
without one.  The parser checks every expected token with one ``expect`` and
raises every refusal through one ``_fail``; it groups each block's clauses
by keyword once, and the checks of a block read those groups.

A :class:`CircuitAst` is a name, a kind and its clock domains: a ``sync`` body
parses to one unnamed :class:`DomainAst` and a ``multiclock`` circuit to one
named one per block.  A :class:`DomainAst` is the only form of a clocked
register block, and this module builds every clocked element, a
synchronous circuit being the case of one domain.  :func:`elaborate`
compiles the logic of all domains of a circuit into one straight-line
Python ``step`` whose locals are named by slot number only, once per
distinct list of domains.  Beside it goes a read step that tracks each data
channel's edge ticks from the control symbols alone, never a sample value.
The control symbol joins the clock samples with '/'.  The step and the read
step look it up in one ``_clock_words`` table, which maps each symbol to
the mask of its clocks at 1, so both find the rising clocks in two lookups
and refuse a clock sample that is not a bit.  The read step carries
``fold``, its one-pass fold from its ``read_init``, which lists each clock's
edge ticks and builds the refs once, so ``reads`` and ``kcir check`` fold T
ticks in O(T).  A multiclock circuit's read step also carries ``domains``:
its ``read_init`` and one (read_init, read_step) per domain on that
domain's one-bit clock alone, made by the same reader, so
:func:`kcir.classify` can walk each domain on its own.

The parser is the only validator: a hand-built :class:`CircuitAst` is
elaborated only if its canonical text, :func:`pretty_print`, parses back to it.
The built-in clocked circuits, :func:`counter_element` (whose output is the
count as a binary word, most significant bit first) and
:func:`toggler_pair_element`, are the one exception: their descriptions are
made here on the channels C and D (C1, D1, C2 and D2), which no identifier
of the grammar can name, and built the same way without the round trip.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from types import CodeType
from typing import Any, Iterable, NamedTuple, NoReturn, Optional, Sequence, Union

from . import circuits
from .circuits import CircuitElement, SimulationError
from .classifier import ReadStepFn, Refs
from .signals import BINARY, Alphabet, Tick, split_symbol

#: The built-in kinds, each with its element's constructor in
#: :mod:`kcir.circuits`; their descriptions hold a kind clause and nothing else.
_BUILT_INS = {
    "dff": circuits.dff_element,
    "srlatch": circuits.sr_latch_element,
    "mux": circuits.mux_element,
    "abmem": circuits.abmem_element,
}
_OPERATORS = {"not": (1, 1), "and": (2, None), "or": (2, None), "xor": (2, None)}
_DOMAIN_CLAUSES = {"clock", "state", "in", "next", "out"}
#: Every kind of the grammar, with the clauses its circuit block allows.
_LEGAL_CLAUSES = {
    **dict.fromkeys(_BUILT_INS, {"kind"}),
    "sync": {"kind", *_DOMAIN_CLAUSES},
    "multiclock": {"kind", "domain"},
}
_CLAUSE_KEYWORDS = set().union(*_LEGAL_CLAUSES.values())
#: Deepest operator nesting an expression may have.  Parsing, and writing the
#: step's source, recurse at every level, so the bound keeps both well inside
#: Python's recursion limit.  The written code is flat, one statement per
#: operator, so neither the depth nor the width of an expression nests in it.
MAX_EXPR_DEPTH = 200
#: Most domain blocks a multiclock circuit may have.  Its control alphabet
#: holds 2**k symbols, built in full when the circuit is elaborated, and the
#: walk steps every one of them from every node.
MAX_DOMAINS = 8


@dataclass(frozen=True)
class SourceSpan:
    """1-based position of a token in the source text."""

    line: int
    column: int
    length: int


_NO_SPAN = SourceSpan(1, 1, 1)


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan, token_text: str = ""):
        super().__init__(f"line {span.line}, column {span.column}: {message}")
        self.message = message
        self.span = span
        self.token_text = token_text


class ElaborationError(Exception):
    """A hand-built description that :func:`parse` would not return for its canonical text."""


# ---------------------------------------------------------------------------
# Expressions

@dataclass(frozen=True)
class Lit:
    value: str


@dataclass(frozen=True)
class Var:
    name: str
    span: SourceSpan = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    op: str
    args: tuple["BoolExpr", ...]


BoolExpr = Union[Lit, Var, Call]


# ---------------------------------------------------------------------------
# Syntax trees

@dataclass(frozen=True)
class DomainAst:
    """One clocked register block; a ``sync`` circuit's body has the name ``""``."""

    name: str
    clock: str
    init_bits: str
    inputs: tuple[str, ...]
    next_exprs: tuple[tuple[str, BoolExpr], ...]
    outputs: tuple[tuple[str, BoolExpr], ...]


@dataclass(frozen=True)
class CircuitAst:
    """A circuit description: one domain for ``sync``, 2 to ``MAX_DOMAINS`` for ``multiclock``."""

    name: str
    kind: str
    domains: tuple[DomainAst, ...] = ()


# ---------------------------------------------------------------------------
# Lexer

class _Token(NamedTuple):
    kind: str  # "ident", "number", "punct", "eof"
    text: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, max(1, len(self.text)))


#: One alternative per token kind; blanks and comments match no group, and any
#: other character is ``bad``.  ``[a-z]`` and ``[0-9]`` are ASCII only.
_TOKEN = re.compile(
    r"(?P<newline>\n)|[ \t\r]+|#[^\n]*|(?P<punct>[{}();,=])"
    r"|(?P<ident>[a-z][a-z0-9_]*)|(?P<number>[0-9]+)|(?P<bad>.)"
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, column = match.lastgroup, match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "bad":
            raise ParseError(
                f"unexpected character {match[0]!r}", SourceSpan(line, column, 1), match[0]
            )
        elif kind:
            tokens.append(_Token(kind, match[0], line, column))
    if tokens:  # the end of input is named at the last character of the last token
        line, column = tokens[-1].line, tokens[-1].column + len(tokens[-1].text) - 1
    else:
        line, column = 1, 1
    tokens.append(_Token("eof", "", line, column))
    return tokens


def _fail(message: str, where: Union[_Token, Var]) -> NoReturn:
    """Raise at a token or a variable of an expression, with its span and text.

    The end of input, the one token without text, is named as such.
    """
    if isinstance(where, Var):
        raise ParseError(message, where.span, where.name)
    raise ParseError(message, where.span, where.text or "end of input")


# ---------------------------------------------------------------------------
# Parser

class _Clause(NamedTuple):
    """One clause as its keyword, a name and a value.

    The name is the one the clause declares, or the width for ``state``.  The
    value is the init bits of ``state``, the expression of ``next`` and
    ``out``, the clauses of ``domain``, and ``None`` for the others.
    """

    keyword: _Token
    name: _Token
    value: Any = None


#: A block's clauses by keyword, each list in source order; the keywords
#: in the order of their first clause.
_Clauses = dict[str, list[_Clause]]

#: The clauses that hold one name and nothing else, with what the name is.
_ONE_NAME = {"kind": "circuit kind", "clock": "clock name", "in": "input name"}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, text: Optional[str] = None, what: str = "") -> _Token:
        """The next token, which must be of ``kind`` and, if given, read ``text``.

        Otherwise it fails with "expected" and ``what``, or the quoted ``text``.
        """
        token = self.tokens[self.pos]
        if token.kind != kind or (text is not None and token.text != text):
            _fail(f"expected {what or repr(text)}", token)
        self.pos += 1
        return token

    # -- grammar ------------------------------------------------------------

    def parse_file(self) -> CircuitAst:
        self.expect("ident", "circuit")
        name = self.expect("ident", what="circuit name")
        self.expect("punct", "{")
        clauses = self.parse_clauses(in_domain=False)
        self.expect("punct", "}")
        self.expect("eof", what="end of input")
        return _assemble_circuit(name, clauses)

    def parse_clauses(self, in_domain: bool) -> _Clauses:
        clauses: _Clauses = {}
        while True:
            token = self.peek()
            if token.kind == "punct" and token.text == "}":
                return clauses
            if token.kind != "ident" or token.text not in _CLAUSE_KEYWORDS:
                _fail("expected a clause keyword", token)
            clauses.setdefault(token.text, []).append(self.parse_clause(self.advance(), in_domain))

    def parse_clause(self, keyword: _Token, in_domain: bool) -> _Clause:
        word = keyword.text
        if word in _ONE_NAME:
            name = self.expect("ident", what=_ONE_NAME[word])
            if word == "kind" and name.text not in _LEGAL_CLAUSES:
                _fail("unknown kind", name)
            self.expect("punct", ";")
            return _Clause(keyword, name)
        if word == "state":
            width = self.expect("number", what="state width")
            if not width.text.strip("0"):
                _fail("state width must be positive", width)
            self.expect("ident", "init")
            bits = self.peek()
            if bits.kind != "number" or any(c not in "01" for c in bits.text):
                _fail("init vector must contain only bits", bits)
            # Compared as text, so a huge width is refused before anything is
            # built for it (and never reaches int()).
            if width.text.lstrip("0") != str(len(bits.text)):
                _fail(
                    f"init vector width {len(bits.text)} does not match "
                    f"state width {width.text}",
                    bits,
                )
            self.advance()
            self.expect("punct", ";")
            return _Clause(keyword, width, bits)
        if word in ("next", "out"):
            name = self.expect("ident", what="target name")
            self.expect("punct", "=")
            expr = self.parse_expr()
            self.expect("punct", ";")
            return _Clause(keyword, name, expr)
        # domain
        if in_domain:
            _fail("clause 'domain' not allowed inside a domain", keyword)
        name = self.expect("ident", what="domain name")
        self.expect("punct", "{")
        body = self.parse_clauses(in_domain=True)
        self.expect("punct", "}")
        return _Clause(keyword, name, body)

    def parse_expr(self, depth: int = 0) -> BoolExpr:
        token = self.peek()
        if token.kind == "number":
            if token.text not in ("0", "1"):
                _fail("expected 0 or 1", token)
            self.advance()
            return Lit(token.text)
        token = self.expect("ident", what="an expression")
        follow = self.peek()
        if not (follow.kind == "punct" and follow.text == "("):
            return Var(token.text, token.span)
        if token.text not in _OPERATORS:
            _fail("unknown operator", token)
        if depth == MAX_EXPR_DEPTH:
            _fail(f"expression nested deeper than {MAX_EXPR_DEPTH} levels", token)
        self.advance()
        args = [self.parse_expr(depth + 1)]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.advance()
            args.append(self.parse_expr(depth + 1))
        self.expect("punct", ")")
        low, high = _OPERATORS[token.text]
        if len(args) < low or (high is not None and len(args) > high):
            _fail("arity mismatch", token)
        return Call(token.text, tuple(args))


# ---------------------------------------------------------------------------
# Assembly and validation

def _single(clauses: _Clauses, word: str) -> Optional[_Clause]:
    found = clauses.get(word, ())
    if len(found) > 1:
        _fail(f"duplicate {word} clause", found[1].keyword)
    return found[0] if found else None


def _check_legal(clauses: _Clauses, legal: set[str], where: str):
    # Keywords come in the order of their first clause, so the first illegal
    # keyword's first clause is the first illegal clause in source order.
    for word, found in clauses.items():
        if word not in legal:
            _fail(f"clause {word!r} not allowed {where}", found[0].keyword)


def _expr_vars(expr: BoolExpr):
    if isinstance(expr, Var):
        yield expr
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from _expr_vars(arg)


def _assemble_domain(
    domain_name: str, clauses: _Clauses, anchor: _Token, what: str
) -> DomainAst:
    """Shared validation for a sync circuit body or a multiclock domain body."""
    clock = _single(clauses, "clock")
    if clock is None:
        _fail(f"{what} requires a clock clause", anchor)
    state = _single(clauses, "state")
    if state is None:
        _fail(f"{what} requires a state clause", anchor)
    bits = state.value.text
    width = len(bits)

    registers = {f"q{i}" for i in range(width)}
    clock_name = clock.name.text
    inputs: dict[str, None] = {}
    for _, name, _ in clauses.get("in", ()):
        if name.text in inputs:
            _fail("duplicate input name", name)
        if name.text in registers:
            _fail(f"input name {name.text} collides with a state register", name)
        if name.text == clock_name:
            _fail(f"input name {name.text} collides with the clock", name)
        inputs[name.text] = None

    declared = registers | inputs.keys()

    nexts: dict[str, BoolExpr] = {}
    for _, target, expr in clauses.get("next", ()):
        if target.text not in registers:
            _fail("undeclared variable", target)
        if target.text in nexts:
            _fail("duplicate next clause for register", target)
        nexts[target.text] = expr
    if len(nexts) < width:
        missing = min(i for i in range(width) if f"q{i}" not in nexts)
        _fail(f"missing next expression for register q{missing}", state.name)

    outputs: dict[str, BoolExpr] = {}
    for _, name, expr in clauses.get("out", ()):
        if name.text in outputs:
            _fail("duplicate out clause", name)
        outputs[name.text] = expr
    if not outputs:
        _fail(f"{what} requires at least one out clause", anchor)

    for expr in (*nexts.values(), *outputs.values()):
        for var in _expr_vars(expr):
            if var.name not in declared:
                _fail("undeclared variable", var)

    ordered = tuple((f"q{i}", nexts[f"q{i}"]) for i in range(width))
    return DomainAst(
        domain_name,
        clock_name,
        bits,
        tuple(inputs),
        ordered,
        tuple(outputs.items()),
    )


def _assemble_circuit(name: _Token, clauses: _Clauses) -> CircuitAst:
    kind_clause = _single(clauses, "kind")
    if kind_clause is None:
        _fail("missing kind clause", name)
    anchor = kind_clause.name
    kind = anchor.text
    _check_legal(clauses, _LEGAL_CLAUSES[kind], f"for kind {kind}")

    if kind in _BUILT_INS:
        return CircuitAst(name.text, kind)

    if kind == "sync":
        body = _assemble_domain("", clauses, anchor, "sync circuit")
        return CircuitAst(name.text, kind, (body,))

    # multiclock
    domain_clauses = clauses.get("domain", ())
    if len(domain_clauses) < 2:
        _fail("multiclock circuit requires two or more domain blocks", anchor)
    if len(domain_clauses) > MAX_DOMAINS:
        _fail(f"multiclock circuit has more than {MAX_DOMAINS} domain blocks",
              domain_clauses[MAX_DOMAINS].name)
    domains = []
    seen_names: set[str] = set()
    names: set[str] = set()  # clocks and inputs of the earlier domains
    for _, dom_name, body in domain_clauses:
        if dom_name.text in seen_names:
            _fail("duplicate domain name", dom_name)
        seen_names.add(dom_name.text)
        _check_legal(body, _DOMAIN_CLAUSES, "inside a domain")
        domain = _assemble_domain(dom_name.text, body, dom_name, f"domain {dom_name.text}")
        if domain.clock in names:
            _fail("duplicate clock name across domains", dom_name)
        if names.intersection(domain.inputs):
            _fail("duplicate input name across domains", dom_name)
        names.update(domain.inputs, (domain.clock,))
        domains.append(domain)
    return CircuitAst(name.text, kind, domains=tuple(domains))


def parse(text: str) -> CircuitAst:
    """Parse one circuit description, raising :class:`ParseError` on any problem."""
    return _Parser(text).parse_file()


# ---------------------------------------------------------------------------
# Pretty-printing

def _format_expr(expr: BoolExpr) -> str:
    # Iterative, so an expression of any depth prints and the parser, not
    # Python's recursion limit, refuses one nested past MAX_EXPR_DEPTH.
    parts = []
    stack: list[Union[BoolExpr, str]] = [expr]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Lit):
            parts.append(item.value)
        elif isinstance(item, Var):
            parts.append(item.name)
        else:
            parts.append(f"{item.op}(")
            stack.append(")")
            for k in range(len(item.args) - 1, -1, -1):
                stack.append(item.args[k])
                if k:
                    stack.append(", ")
    return "".join(parts)


def _format_body(domain: DomainAst, indent: str) -> list[str]:
    lines = [f"{indent}clock {domain.clock};"]
    lines.append(f"{indent}state {len(domain.init_bits)} init {domain.init_bits};")
    for name in domain.inputs:
        lines.append(f"{indent}in {name};")
    for target, expr in domain.next_exprs:
        lines.append(f"{indent}next {target} = {_format_expr(expr)};")
    for name, expr in domain.outputs:
        lines.append(f"{indent}out {name} = {_format_expr(expr)};")
    return lines


def pretty_print(ast: CircuitAst) -> str:
    """Canonical text for an AST; reparsing it yields an equal AST."""
    lines = [f"circuit {ast.name} {{", f"  kind {ast.kind};"]
    for domain in ast.domains:
        if ast.kind == "sync":
            lines.extend(_format_body(domain, "  "))
        else:
            lines += [f"  domain {domain.name} {{", *_format_body(domain, "    "), "  }"]
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Elaboration

@functools.lru_cache(maxsize=128)
def _step_code(domains: tuple[DomainAst, ...]) -> CodeType:
    """The compiled :func:`_step_source`, kept per distinct domains as ``re`` keeps patterns."""
    return compile(_step_source(domains), "<kcir clocked step>", "exec")


def _step_source(domains: Sequence[DomainAst]) -> str:
    """Straight-line Python for the ``step`` of a circuit with one domain per clock.

    The state is the previous control symbol (``None`` before tick 0) and
    then the register tuple ``r<k>`` of each domain k, whose bits are bools.
    ``words`` maps a symbol to the mask of its clocks at 1, so ``rise`` holds
    the clocks that rise, and ``reject_clocks`` refuses a symbol not in it.
    Then ``reject_sample`` refuses the samples ``s<j>`` if one is not a bit,
    each domain's tuple is rebuilt at its own edge only, and the output bits
    of all domains are joined once, '/' between domains.  Locals are named by
    slot number only (``v<slot>`` for a register or input bit, ``t<k>`` for
    an operator result), so no identifier or other text of the description
    enters the source.

    ``operand`` writes an expression in post-order: its operands first, then
    the operator, which assigns the next ``t<k>``, ``not`` and ``and``/``or``
    in one statement each and ``xor`` in one statement per operand.  It
    recurses once per level, as the parser does, so ``MAX_EXPR_DEPTH`` bounds
    it too.  ``block`` writes a list of (name, expression) pairs; its head
    sets, in slot order, the ``v<slot>`` of each name they read from ``loads``.
    """
    slots: list[dict[str, int]] = []  # per domain, each name's slot
    loads: list[str] = []  # per slot, the expression that reads its bit
    samples = 0
    for k, domain in enumerate(domains):
        own = {}
        for i in range(len(domain.init_bits)):
            own[f"q{i}"] = len(loads)
            loads.append(f"r{k}[{i}]")
        for name in domain.inputs:
            own[name] = len(loads)
            loads.append(f's{samples} == "1"')
            samples += 1
        slots.append(own)
    registers = ", ".join(f"r{k}" for k in range(len(domains)))
    body = [
        f"previous, {registers} = state",
        "try:",
        "    rise = words[symbol] & ~words[previous]",
        "except KeyError:",
        "    reject_clocks(symbol)",
    ]
    if samples:
        body.append(f"{''.join(f's{j}, ' for j in range(samples))}= samples")
        body += [f'if s{j} not in {{"0", "1"}}: reject_sample(samples)' for j in range(samples)]
    temps = itertools.count()

    def operand(expr: BoolExpr, own: dict[str, int], lines: list[str]) -> str:
        if isinstance(expr, Lit):
            return "True" if expr.value == "1" else "False"
        if isinstance(expr, Var):
            return f"v{own[expr.name]}"
        args = [operand(arg, own, lines) for arg in expr.args]
        name = f"t{next(temps)}"
        if expr.op == "not":
            lines.append(f"{name} = not {args[0]}")
        elif expr.op == "xor":
            lines.append(f"{name} = {args[0]} ^ {args[1]}")
            lines += [f"{name} ^= {arg}" for arg in args[2:]]
        else:
            lines.append(f"{name} = {f' {expr.op} '.join(args)}")
        return name

    def block(named: Sequence[tuple[str, BoolExpr]], own: dict[str, int]) -> tuple[list, list]:
        read = {own[var.name] for _, expr in named for var in _expr_vars(expr)}
        lines = [f"v{slot} = {loads[slot]}" for slot in sorted(read)]
        bits = [operand(expr, own, lines) for _, expr in named]
        return lines, bits

    for k, (domain, own) in enumerate(zip(domains, slots)):
        lines, bits = block(domain.next_exprs, own)
        body.append(f"if rise & {1 << k}:")
        body += [f"    {line}" for line in (*lines, f"r{k} = ({', '.join(bits)},)")]
    parts = []
    for domain, own in zip(domains, slots):
        lines, bits = block(domain.outputs, own)
        body += lines
        parts += ['"/"', *(f'("1" if {b} else "0")' for b in bits)]
    body.append(f'return (symbol, {registers}), "".join(({", ".join(parts[1:])},))')
    source = ["def step(state, symbol, samples):", *(f"    {line}" for line in body)]
    return "\n".join(source) + "\n"


def _clock_words(clocks: int) -> dict[Optional[str], int]:
    """Each control symbol of ``clocks`` clocks mapped to the mask of its clocks at 1.

    Clock i is bit i.  ``None``, the symbol before tick 0, maps to all ones,
    so ``words[symbol] & ~words[previous]`` is the mask of the clocks that
    rise and no clock rises at tick 0.  Symbols join one bit per clock with
    '/', so no symbol with a non-bit clock sample is a key.
    """
    words: dict[Optional[str], int] = {
        "/".join(bits): sum(1 << i for i, bit in enumerate(bits) if bit == "1")
        for bits in itertools.product("01", repeat=clocks)
    }
    words[None] = (1 << clocks) - 1
    return words


def _reject_clocks(symbol: str, clocks: int) -> NoReturn:
    """Raise for a control symbol that is not ``clocks`` '/'-joined bits."""
    samples = split_symbol(symbol)
    for sample in samples:
        if sample != "0" and sample != "1":
            raise SimulationError(f"clock sample {sample!r} is not a bit")
    raise SimulationError(
        f"control symbol {symbol!r} has {len(samples)} clock samples, not {clocks}"
    )


def _clocked_reader(
    domains: Sequence[DomainAst], words: dict[Optional[str], int]
) -> tuple[Any, ReadStepFn]:
    """(read_init, read_step) of register blocks, one per clock, on the step's ``words``.

    Registers latch inputs at each positive edge of their clock and the output
    logic sees the current input, so the refs are, on every data channel, the
    edge ticks of its domain's clock and then the current tick; with no edges
    they are the current tick.  The read state is (previous control symbol,
    per-channel edge refs), with the channels of all domains sorted together;
    each channel keeps its domain's clock bit, and an edge of that clock
    appends one ref to it.  A channel's latest edge is at the current tick
    exactly when its clock rises there, so the step appends the current tick
    to every other channel's edge refs to make the refs, which are sorted,
    since the channels are and no edge lies after the tick.  One domain with
    the words of one clock gives that domain's reader on its own clock: the
    symbols "0" and "1".

    The read step carries ``fold = (read_init, fn)``: ``fn(symbols)`` is the
    refs at the last of a nonempty run of symbols from tick 0, made in one
    pass that appends each rising clock's tick to that clock's list and
    builds the refs once at the end, so a fold of T ticks costs O(T) rather
    than the step's O(T × edges).  It equals the read step folded from
    ``read_init``, and from no other read state.
    """
    clock_of = {name: k for k, domain in enumerate(domains) for name in domain.inputs}
    channels = tuple(sorted(clock_of))
    clocks = [clock_of[channel] for channel in channels]
    bits = [1 << k for k in clocks]
    rising = [[k for k in range(len(domains)) if rise >> k & 1]
              for rise in range(1 << len(domains))]  # the clocks set in each mask

    def fold(symbols: Iterable[str]) -> Refs:
        edges: list[list[Tick]] = [[] for _ in domains]
        previous = words[None]
        for tick, symbol in enumerate(symbols):
            try:
                word = words[symbol]
            except KeyError:
                _reject_clocks(symbol, len(domains))
            rise = word & ~previous
            previous = word
            if rise:
                for k in rising[rise]:
                    edges[k].append(tick)
        refs = []
        for c, k in zip(channels, clocks):
            own = edges[k]
            refs += [(c, edge) for edge in own]
            if not own or own[-1] != tick:
                refs.append((c, tick))
        return tuple(refs)

    def read_step(state, symbol: str, tick: Tick):
        previous, edges = state
        try:
            rise = words[symbol] & ~words[previous]
        except KeyError:
            _reject_clocks(symbol, len(domains))
        refs: Refs = ()
        if not rise:
            for c, own in zip(channels, edges):
                refs += own + ((c, tick),)
            return (symbol, edges), refs
        risen = []
        for c, own, bit in zip(channels, edges, bits):
            if rise & bit:  # the new edge is the current tick
                own += ((c, tick),)
                refs += own
            else:
                refs += own + ((c, tick),)
            risen.append(own)
        return (symbol, tuple(risen)), refs

    read_init = (None, ((),) * len(channels))
    read_step.fold = (read_init, fold)
    return read_init, read_step


def _clocked_element(ast: CircuitAst) -> CircuitElement:
    """The element of a sync or multiclock description: its compiled step and read step.

    The control symbol joins the clock samples with '/' in domain order and
    the input samples list each domain's inputs in domain order, all of them
    bits.  The step and the read step look symbols up in one ``words`` table
    and refuse the others with ``_reject_clocks``.  A non-bit data sample is
    refused naming the circuit, or for multiclock the domain as
    ``circuit.domain``, after the clock samples are checked.  A multiclock
    read step carries ``domains``, the per-domain readers that ``classify``
    walks in place of the product of the clocks.
    """
    names = [
        (ast.name if ast.kind == "sync" else f"{ast.name}.{domain.name}", name)
        for domain in ast.domains
        for name in domain.inputs
    ]

    def reject_sample(samples: tuple[str, ...]) -> None:
        for (where, name), value in zip(names, samples):
            if value != "0" and value != "1":
                raise SimulationError(f"{where}: input {name!r} sample {value!r} is not a bit")

    clocks = len(ast.domains)
    words = _clock_words(clocks)
    namespace = {
        "words": words,
        "reject_clocks": functools.partial(_reject_clocks, clocks=clocks),
        "reject_sample": reject_sample,
    }
    exec(_step_code(ast.domains), namespace)
    read_init, read_step = _clocked_reader(ast.domains, words)
    if clocks > 1:
        one = _clock_words(1)
        read_step.domains = (read_init, tuple(_clocked_reader((d,), one) for d in ast.domains))
    return CircuitElement(
        name=ast.name,
        control_channels=tuple(domain.clock for domain in ast.domains),
        control_alphabet=Alphabet.product(*(("0", "1"),) * clocks),
        input_channels=tuple((name, BINARY) for _, name in names),
        init=(None, *(tuple(bit == "1" for bit in d.init_bits) for d in ast.domains)),
        step=namespace["step"],
        read_init=read_init,
        read_step=read_step,
    )


def elaborate(ast: CircuitAst) -> CircuitElement:
    """Instantiate the circuit element a description denotes.

    Only what :func:`parse` returns for ``pretty_print(ast)`` is accepted; any
    other ``ast`` raises one :class:`ElaborationError` line.
    """
    try:
        canonical = parse(pretty_print(ast))
    except ParseError as exc:
        raise ElaborationError(
            f"circuit {ast.name!r}: {exc.message} at {exc.token_text!r}"
        ) from exc
    if canonical != ast:
        raise ElaborationError(
            f"circuit {ast.name!r}: {_changed_field(ast, canonical)} is not read back "
            "from its canonical text"
        )
    return _build(ast)


def _changed_field(ast: CircuitAst, canonical: CircuitAst) -> str:
    """The first field of ``ast``, domains before the circuit, that reads back changed."""
    for given, read in (*zip(ast.domains, canonical.domains), (ast, canonical)):
        for name in read.__dataclass_fields__:
            if getattr(given, name) != getattr(read, name):
                return f"{name} {getattr(given, name)!r}"
    return "its type"


def _build(ast: CircuitAst) -> CircuitElement:
    if ast.kind in _BUILT_INS:
        return _BUILT_INS[ast.kind](ast.name)
    return _clocked_element(ast)


def load_circuit(text: str) -> CircuitElement:
    """Parse and elaborate in one step, reading ``text`` once."""
    return _build(parse(text))


# ---------------------------------------------------------------------------
# Built-in clocked circuits

def counter_element(name: str = "counter", bits: int = 2) -> CircuitElement:
    """An edge counter modulo ``2 ** bits`` on clock ``C``; input ``D`` is unused.

    Register q0 is the least significant bit and the output is the count as a
    binary word, most significant bit first: three edges give "11".
    """
    if bits < 1:
        raise ValueError("a counter needs at least one bit")
    q = [Var(f"q{i}") for i in range(bits)]
    nexts = [("q0", Call("not", (q[0],)))] + [
        (f"q{i}", Call("xor", (q[i], Call("and", tuple(q[:i])) if i > 1 else q[0])))
        for i in range(1, bits)
    ]
    outputs = tuple((f"y{i}", q[i]) for i in reversed(range(bits)))
    body = DomainAst("", "C", "0" * bits, ("D",), tuple(nexts), outputs)
    return _build(CircuitAst(name, "sync", (body,)))


def toggler_pair_element(name: str = "twoclock") -> CircuitElement:
    """Two independent one-register togglers on separate clocks; the output is ``a/b``."""
    flip = (("q0", Call("not", (Var("q0"),))),)
    return _build(CircuitAst(name, "multiclock", tuple(
        DomainAst(f"toggler{k}", f"C{k}", "0", (f"D{k}",), flip, (("y", Var("q0")),))
        for k in (1, 2)
    )))
