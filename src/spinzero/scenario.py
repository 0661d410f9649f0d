"""Line-oriented scenario DSL plus the executable protocol audit.

Grammar (one statement per line, '#' starts a comment):

    qubits INT
    state NAME = SEXPR
    obs NAME = OEXPR
    measure NAME ("," NAME)* outcomes SIGNS
    assert_prob NAME SIGN = RATIONAL
    report NAME

    SEXPR  := KET | NAME | SEXPR "*" SEXPR | "(" SEXPR ")" | COEFF SEXPR
            | SEXPR "+" SEXPR | "normalize(" SEXPR ")"
            | "singlet(" INT "," INT ")" | phi0 | phi1 | psi0 | psi1 | eta_tilde
    KET    := "|" [01+-]+ ">"
    OEXPR  := "sigma" AXIS INT | "F" | "G" | "embed(" OEXPR ";" INT-list ";" INT ")"
    COEFF  := ["-"] CFACTOR (("*" | "/") CFACTOR)*   with CFACTOR := INT | "sqrt(" INT ")" | "i"
    SIGNS  := ("+" | "-")+

States bind eagerly in file order (no forward references) and must be unit
vectors unless wrapped in normalize(...).  The most recent `state` line sets
the register that measure / assert_prob / report act on; `measure` performs
sequential postselecting collapse and updates the register.  `singlet(i,j)`
atoms compose under "*" into a multi-pair product whose sites must cover
1..2k exactly; everything else treats "*" positionally.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qcore import (
    MAX_QUBITS,
    TOL_ASSERT,
    TOL_CORR,
    TOL_FIDELITY,
    TOL_NORM,
    TOL_NULL,
    TOL_ZERO,
    CapacityError,
    _kron_all,
    as_state,
    fidelity,
    norm,
    num_qubits,
    permute_qubits,
)
from .states import basis_ket, eta_tilde, singlet, spin_zero_basis
from .observables import (
    FunctionReport,
    SpectralObservable,
    embed,
    is_function_of,
    observable_f,
    observable_g,
    pauli,
)
from .measurement import Distribution, born_distribution, run_sequence

RESERVED_NAMES = frozenset({
    "qubits", "state", "obs", "measure", "outcomes", "assert_prob", "report",
    "normalize", "singlet", "embed", "sigma", "sqrt", "i",
    "F", "G", "phi0", "phi1", "psi0", "psi1", "eta_tilde",
})

_STATE_BUILTINS = ("phi0", "phi1", "psi0", "psi1", "eta_tilde")

# Deepest nesting of parentheses, normalize(, embed(, coefficients and '*'
# factors: parsing, evaluating and printing recurse once per level.
MAX_NESTING = 100


class ScenarioParseError(Exception):
    """Lexical, syntactic, or semantic error with its source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class ScenarioRuntimeError(RuntimeError):
    """Execution failure of an otherwise well-formed scenario."""


# ---------------------------------------------------------------------------
# tokens

class _Token(NamedTuple):
    kind: str  # NAME | INT | KET | SYM | EOL | EOF
    text: str
    line: int
    col: int


# One token at a position: blanks, INT (ASCII digits), NAME, SYM, or a ket
# body after "|", whose closing ">" is checked in _tokenize.
_TOKEN = re.compile(r"[ \t\r]+|(?P<INT>[0-9]+)|(?P<NAME>[^\W\d]\w*)"
                    r"|(?P<SYM>[=()*+\-,;/])|\|(?P<KET>[01+\-]*)")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        start = len(tokens)
        pos = 0
        while pos < len(line):
            match = _TOKEN.match(line, pos)
            if match is None:
                raise ScenarioParseError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
            kind, end = match.lastgroup, match.end()
            if kind == "KET":
                if end == pos + 1:
                    raise ScenarioParseError("empty ket", lineno, pos + 2)
                if not line.startswith(">", end):
                    bad = line[end] if end < len(line) else "end of line"
                    raise ScenarioParseError(
                        f"malformed ket: expected '0', '1', '+', '-' or '>', got {bad!r}",
                        lineno, end + 1)
                end += 1
            if kind:
                tokens.append(_Token(kind, match.group(kind), lineno, pos + 1))
            pos = end
        if len(tokens) > start:
            tokens.append(_Token("EOL", "", lineno, len(line) + 1))
    tokens.append(_Token("EOF", "", lineno + 1, 1))
    return tokens


# ---------------------------------------------------------------------------
# AST: every node ends with its source position (line, and col for
# expressions); compare nodes by their printed text, never with ==.

class Ket(NamedTuple):
    chars: str
    line: int
    col: int


class NameRef(NamedTuple):
    name: str  # a state binding, or one of _STATE_BUILTINS
    line: int
    col: int


class SingletCall(NamedTuple):
    i: int
    j: int
    line: int
    col: int


class Tensor(NamedTuple):
    left: object
    right: object
    line: int
    col: int


class Sum(NamedTuple):
    terms: tuple  # two or more, added left to right
    plus_cols: tuple[int, ...]  # column of each '+'
    line: int
    col: int


class Scaled(NamedTuple):
    negative: bool
    factors: tuple[tuple[str, str, int], ...]  # (op '*' or '/', kind, value); kind 'i' ignores value
    operand: object
    line: int
    col: int


class Normalize(NamedTuple):
    operand: object
    line: int
    col: int


class SigmaExpr(NamedTuple):
    axis: str
    site: int
    line: int
    col: int


class ObsBuiltin(NamedTuple):
    kind: str  # 'F' | 'G'
    line: int
    col: int


class EmbedExpr(NamedTuple):
    inner: object
    sites: tuple[int, ...]
    n: int
    line: int
    col: int


class QubitsStmt(NamedTuple):
    n: int
    line: int


class StateStmt(NamedTuple):
    name: str
    expr: object
    line: int


class ObsStmt(NamedTuple):
    name: str
    expr: object
    line: int


class MeasureStmt(NamedTuple):
    names: tuple[str, ...]
    signs: tuple[int, ...]
    line: int


class AssertProbStmt(NamedTuple):
    name: str
    signs: tuple[int, ...]
    numerator: int
    denominator: int
    line: int


class ReportStmt(NamedTuple):
    name: str
    line: int


def _coeff_value(negative: bool, factors) -> complex:
    acc: complex = 1.0
    for op, kind, val in factors:
        if kind == "int":
            term: complex = float(val)
        elif kind == "sqrt":
            term = math.sqrt(val)
        else:
            term = 1.0j
        acc = acc * term if op == "*" else acc / term
    return -acc if negative else acc


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ScenarioParseError(message, tok.line, tok.col)

    def expect_sym(self, ch: str) -> _Token:
        tok = self.peek()
        if tok.kind != "SYM" or tok.text != ch:
            self.fail(f"expected {ch!r}, got {tok.text or tok.kind!r}")
        return self.advance()

    def expect_int(self, what: str = "an integer") -> int:
        tok = self.peek()
        if tok.kind != "INT":
            self.fail(f"expected {what}, got {tok.text or tok.kind!r}")
        self.advance()
        try:  # every integer must also convert to a float
            value = int(tok.text)
            float(value)
        except (ValueError, OverflowError):  # ValueError: past int()'s digit limit
            self.fail(f"integer literal of {len(tok.text)} digits is too large", tok)
        return value

    def nested(self, parse):
        """parse() one level down; a parse error past MAX_NESTING levels."""
        if self.depth == MAX_NESTING:
            self.fail(f"expression nests deeper than {MAX_NESTING} levels")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def expect_name(self, what: str = "a name") -> _Token:
        tok = self.peek()
        if tok.kind != "NAME":
            self.fail(f"expected {what}, got {tok.text or tok.kind!r}")
        return self.advance()

    def expect_eol(self):
        tok = self.peek()
        if tok.kind == "EOL":
            self.advance()
        elif tok.kind != "EOF":
            self.fail(f"unexpected trailing input {tok.text!r}")

    # statements ------------------------------------------------------------

    def parse_statements(self) -> tuple:
        statements = []
        while self.peek().kind != "EOF":
            statements.append(self.parse_statement())
        return tuple(statements)

    def parse_statement(self):
        tok = self.expect_name("a statement keyword")
        word = tok.text
        if word == "qubits":
            n = self.expect_int("a qubit count")
            self.expect_eol()
            return QubitsStmt(n=n, line=tok.line)
        if word == "state":
            name = self._binding_name()
            self.expect_sym("=")
            expr = self.parse_sexpr()
            self.expect_eol()
            return StateStmt(name=name, expr=expr, line=tok.line)
        if word == "obs":
            name = self._binding_name()
            self.expect_sym("=")
            expr = self.parse_oexpr()
            self.expect_eol()
            return ObsStmt(name=name, expr=expr, line=tok.line)
        if word == "measure":
            names = [self.expect_name("an observable name").text]
            while self.peek().kind == "SYM" and self.peek().text == ",":
                self.advance()
                names.append(self.expect_name("an observable name").text)
            kw = self.expect_name("'outcomes'")
            if kw.text != "outcomes":
                self.fail("expected 'outcomes'", kw)
            signs = self.parse_signs()
            self.expect_eol()
            return MeasureStmt(names=tuple(names), signs=signs, line=tok.line)
        if word == "assert_prob":
            name = self.expect_name("an observable name").text
            signs = self.parse_signs()
            self.expect_sym("=")
            num_tok = self.peek()
            numerator = self.expect_int("a rational number")
            denominator = 1
            if self.peek().kind == "SYM" and self.peek().text == "/":
                self.advance()
                denominator = self.expect_int("a denominator")
                if denominator == 0:
                    self.fail("denominator must be nonzero", num_tok)
            self.expect_eol()
            return AssertProbStmt(name=name, signs=signs, numerator=numerator,
                                  denominator=denominator, line=tok.line)
        if word == "report":
            name = self.expect_name("an observable name").text
            self.expect_eol()
            return ReportStmt(name=name, line=tok.line)
        self.fail(f"unknown statement {word!r}", tok)

    def _binding_name(self) -> str:
        tok = self.expect_name("a binding name")
        if tok.text in RESERVED_NAMES:
            self.fail(f"{tok.text!r} is a reserved name", tok)
        return tok.text

    def parse_signs(self) -> tuple[int, ...]:
        signs = []
        while self.peek().kind == "SYM" and self.peek().text in "+-":
            signs.append(1 if self.advance().text == "+" else -1)
        if not signs:
            self.fail("expected an outcome string of '+' and '-'")
        return tuple(signs)

    # state expressions -----------------------------------------------------

    def parse_sexpr(self):
        terms = [self.parse_tensor_term()]
        plus = []
        while self.peek().kind == "SYM" and self.peek().text == "+":
            plus.append(self.advance())
            terms.append(self.parse_tensor_term())
        if not plus:
            return terms[0]
        return Sum(terms=tuple(terms), plus_cols=tuple(tok.col for tok in plus),
                   line=plus[0].line, col=plus[0].col)

    def parse_tensor_term(self):
        # A coefficient scales the whole tensor chain that follows; scalars
        # commute through tensor products, so this grouping is value-neutral
        # and lets singlet(i,j) pair products assemble before collapsing.
        if self._starts_coeff():
            first = self.peek()
            negative, factors = self.parse_coeff()
            operand = self.nested(self.parse_tensor_term)
            return Scaled(negative=negative, factors=factors, operand=operand,
                          line=first.line, col=first.col)
        node = self.parse_atom()
        if self.peek().kind == "SYM" and self.peek().text == "*":
            tok = self.advance()
            right = self.nested(self.parse_tensor_term)
            return Tensor(left=node, right=right, line=tok.line, col=tok.col)
        return node

    def _starts_coeff(self) -> bool:
        tok = self.peek()
        return self._coeff_factor_ahead(0) or (tok.kind, tok.text) == ("SYM", "-")

    def _coeff_factor_ahead(self, ahead: int) -> bool:
        tok = self.peek(ahead)
        if tok.kind == "INT":
            return True
        return tok.kind == "NAME" and tok.text in ("i", "sqrt")

    def parse_coeff(self) -> tuple[bool, tuple]:
        first = self.peek()
        negative = False
        if first.kind == "SYM" and first.text == "-":
            self.advance()
            negative = True
        factors: list[tuple[str, str, int]] = []
        op = "*"
        while self._coeff_factor_ahead(0):
            tok = self.peek()
            if tok.kind == "INT":
                factors.append((op, "int", self.expect_int()))
            elif tok.text == "i":
                self.advance()
                factors.append((op, "i", 0))
            else:  # sqrt
                self.advance()
                self.expect_sym("(")
                tok = self.peek()
                factors.append((op, "sqrt", self.expect_int("a square-root argument")))
                self.expect_sym(")")
            if factors[-1] in (("/", "int", 0), ("/", "sqrt", 0)):
                self.fail("division by zero in coefficient", tok)
            nxt = self.peek()
            if nxt.kind == "SYM" and nxt.text in "*/" and self._coeff_factor_ahead(1):
                op = self.advance().text
            else:
                break
        if not factors:
            if not negative:
                self.fail("expected a coefficient")
            factors = [("*", "int", 1)]
        if not cmath.isfinite(_coeff_value(negative, factors)):
            self.fail("coefficient overflows a float", first)
        return negative, tuple(factors)

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "KET":
            self.advance()
            return Ket(chars=tok.text, line=tok.line, col=tok.col)
        if tok.kind == "SYM" and tok.text == "(":
            self.advance()
            node = self.nested(self.parse_sexpr)
            self.expect_sym(")")
            return node
        if tok.kind == "NAME":
            if tok.text == "normalize":
                self.advance()
                self.expect_sym("(")
                inner = self.nested(self.parse_sexpr)
                self.expect_sym(")")
                return Normalize(operand=inner, line=tok.line, col=tok.col)
            if tok.text == "singlet":
                self.advance()
                self.expect_sym("(")
                i = self.expect_int("a site")
                self.expect_sym(",")
                j = self.expect_int("a site")
                self.expect_sym(")")
                return SingletCall(i=i, j=j, line=tok.line, col=tok.col)
            if tok.text in RESERVED_NAMES and tok.text not in _STATE_BUILTINS:
                self.fail(f"{tok.text!r} cannot appear in a state expression", tok)
            self.advance()
            return NameRef(name=tok.text, line=tok.line, col=tok.col)
        self.fail(f"expected a state expression, got {tok.text or tok.kind!r}")

    # observable expressions --------------------------------------------------

    def parse_oexpr(self):
        tok = self.peek()
        if tok.kind != "NAME":
            self.fail(f"expected an observable expression, got {tok.text or tok.kind!r}")
        if tok.text == "sigma":
            self.advance()
            axis = self.expect_name("an axis (x, y, or z)")
            if axis.text.lower() not in ("x", "y", "z"):
                self.fail(f"expected axis x, y, or z, got {axis.text!r}", axis)
            site = self.expect_int("a site")
            return SigmaExpr(axis=axis.text.lower(), site=site, line=tok.line, col=tok.col)
        if tok.text in ("F", "G"):
            self.advance()
            return ObsBuiltin(kind=tok.text, line=tok.line, col=tok.col)
        if tok.text == "embed":
            self.advance()
            self.expect_sym("(")
            inner = self.nested(self.parse_oexpr)
            self.expect_sym(";")
            sites = [self.expect_int("a site")]
            while self.peek().kind == "SYM" and self.peek().text == ",":
                self.advance()
                sites.append(self.expect_int("a site"))
            self.expect_sym(";")
            n = self.expect_int("a qubit count")
            self.expect_sym(")")
            return EmbedExpr(inner=inner, sites=tuple(sites), n=n,
                             line=tok.line, col=tok.col)
        self.fail(f"expected sigma, F, G, or embed, got {tok.text!r}", tok)


# ---------------------------------------------------------------------------
# elaboration

@dataclass(frozen=True, eq=False)
class Scenario:
    """A parsed and fully elaborated scenario.

    Bindings are evaluated eagerly in file order, so every vector and
    observable is already resolved; `statements` keeps the AST for printing
    and execution.
    """

    n_qubits: int | None
    statements: tuple
    states: dict[str, np.ndarray]
    observables: dict[str, SpectralObservable]


def parse_scenario(text: str) -> Scenario:
    """Parse and elaborate scenario text.

    Raises ScenarioParseError with a line/column position for lexical,
    syntactic, and semantic (unknown name, dimension, normalization)
    failures.
    """
    parser = _Parser(_tokenize(text))
    statements = parser.parse_statements()
    return _elaborate(statements)


def parse_scenario_file(path) -> Scenario:
    """Parse a UTF-8 scenario file; undecodable bytes are a parse error at
    the line and column of the first bad byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = raw[:exc.start].decode("utf-8").split("\n")
        raise ScenarioParseError(f"invalid UTF-8 byte 0x{raw[exc.start]:02x}",
                                 len(lines), len(lines[-1]) + 1) from None
    return parse_scenario(text)


def _elaborate(statements) -> Scenario:
    n_qubits: int | None = None
    states: dict[str, np.ndarray] = {}
    observables: dict[str, SpectralObservable] = {}
    have_state = False
    for st in statements:
        if isinstance(st, QubitsStmt):
            if n_qubits is not None:
                raise ScenarioParseError("duplicate qubits declaration", st.line, 1)
            if not 1 <= st.n <= MAX_QUBITS:
                raise ScenarioParseError(
                    f"qubit count must be in 1..{MAX_QUBITS}, got {st.n}", st.line, 1)
            n_qubits = st.n
            for name, vec in states.items():
                _require_register_width(name, vec, n_qubits, st.line)
        elif isinstance(st, StateStmt):
            if st.name in states:
                raise ScenarioParseError(f"state {st.name!r} is already bound", st.line, 1)
            vec = _eval_top_state(st, states)
            if n_qubits is not None:
                _require_register_width(st.name, vec, n_qubits, st.line)
            states[st.name] = vec
            have_state = True
        elif isinstance(st, ObsStmt):
            if st.name in observables:
                raise ScenarioParseError(f"observable {st.name!r} is already bound",
                                         st.line, 1)
            observables[st.name] = _eval_oexpr(st.expr, n_qubits)
        elif isinstance(st, MeasureStmt):
            _require_program_context(st, have_state)
            if len(st.signs) != len(st.names):
                raise ScenarioParseError(
                    f"{len(st.names)} observables but {len(st.signs)} outcome signs",
                    st.line, 1)
            for name in st.names:
                _resolve_obs(name, observables, st.line)
        elif isinstance(st, AssertProbStmt):
            _require_program_context(st, have_state)
            if len(st.signs) != 1:
                raise ScenarioParseError(
                    "assert_prob takes exactly one outcome sign", st.line, 1)
            _resolve_obs(st.name, observables, st.line)
        elif isinstance(st, ReportStmt):
            _require_program_context(st, have_state)
            _resolve_obs(st.name, observables, st.line)
    return Scenario(n_qubits=n_qubits, statements=statements,
                    states=states, observables=observables)


def _require_register_width(name: str, vec: np.ndarray, n_qubits: int, line: int):
    width = num_qubits(vec)
    if width != n_qubits:
        raise ScenarioParseError(
            f"state {name!r} is a {width}-qubit state on a {n_qubits}-qubit register",
            line, 1)


def _require_program_context(st, have_state: bool):
    if not have_state:
        raise ScenarioParseError("no state defined before this statement", st.line, 1)


def _resolve_obs(name: str, observables, line: int) -> SpectralObservable:
    if name not in observables:
        raise ScenarioParseError(f"unknown observable {name!r}", line, 1)
    return observables[name]


def _eval_top_state(st: StateStmt, env) -> np.ndarray:
    # An overflow is a parse error at the operation that caused it, so
    # numpy's floating-point warnings stay off.
    with np.errstate(all="ignore"):
        vec = _collapse_value(_eval_sexpr(st.expr, env), st.expr)
        vec_norm = norm(vec)
    if abs(vec_norm - 1.0) > TOL_NORM:
        # normalize(...) of a vector whose norm overflows fails as well
        hint = ("wrap the expression in normalize(...)" if math.isfinite(vec_norm)
                else "its norm overflows a float")
        raise ScenarioParseError(
            f"state {st.name!r} is not normalized (norm {vec_norm:.12g}); {hint}",
            st.line, 1)
    return vec


def _finite(vec: np.ndarray, what: str, line: int, col: int) -> np.ndarray:
    if not np.isfinite(vec).all():
        raise ScenarioParseError(f"{what} overflows a float", line, col)
    return vec


def _eval_sexpr(node, env):
    """Evaluate to ('plain', vector) or ('pairs', ((i, j), ...))."""
    if isinstance(node, Ket):
        try:
            return ("plain", basis_ket(node.chars))
        except (ValueError, CapacityError) as exc:
            raise ScenarioParseError(str(exc), node.line, node.col) from exc
    if isinstance(node, NameRef):
        if node.name in _STATE_BUILTINS:
            pair = spin_zero_basis()
            vec = {"phi0": pair.phi0, "phi1": pair.phi1,
                   "psi0": pair.phi0, "psi1": pair.phi1,
                   "eta_tilde": None}[node.name]
            return ("plain", eta_tilde() if vec is None else vec)
        if node.name not in env:
            raise ScenarioParseError(f"unknown state {node.name!r}", node.line, node.col)
        return ("plain", env[node.name])
    if isinstance(node, SingletCall):
        if node.i == node.j or node.i < 1 or node.j < 1:
            raise ScenarioParseError(
                f"singlet sites must be distinct positive integers, got "
                f"({node.i}, {node.j})", node.line, node.col)
        return ("pairs", ((node.i, node.j),))
    if isinstance(node, Tensor):
        left = _eval_sexpr(node.left, env)
        right = _eval_sexpr(node.right, env)
        if left[0] == "pairs" and right[0] == "pairs":
            used = [s for pair in left[1] for s in pair]
            for pair in right[1]:
                for s in pair:
                    if s in used:
                        raise ScenarioParseError(
                            f"singlet site {s} used twice in a pair product",
                            node.line, node.col)
            return ("pairs", left[1] + right[1])
        lvec = _collapse_value(left, node.left)
        rvec = _collapse_value(right, node.right)
        if num_qubits(lvec) + num_qubits(rvec) > MAX_QUBITS:
            raise ScenarioParseError(
                f"tensor product exceeds the {MAX_QUBITS}-qubit maximum",
                node.line, node.col)
        return ("plain", _finite(_kron_all((lvec, rvec)), "tensor product",
                                 node.line, node.col))
    if isinstance(node, Sum):
        first = node.terms[0]
        total = _collapse_value(_eval_sexpr(first, env), first)
        for term, col in zip(node.terms[1:], node.plus_cols):
            vec = _collapse_value(_eval_sexpr(term, env), term)
            if vec.shape != total.shape:
                raise ScenarioParseError(
                    f"cannot add states of {num_qubits(total)} and {num_qubits(vec)} qubits",
                    node.line, col)
            total = _finite(total + vec, "sum", node.line, col)
        return ("plain", total)
    if isinstance(node, Scaled):
        vec = _collapse_value(_eval_sexpr(node.operand, env), node.operand)
        vec = _coeff_value(node.negative, node.factors) * vec
        return ("plain", _finite(vec, "scaled state", node.line, node.col))
    if isinstance(node, Normalize):
        vec = _collapse_value(_eval_sexpr(node.operand, env), node.operand)
        n = norm(vec)
        if not math.isfinite(n):
            raise ScenarioParseError("norm overflows a float", node.line, node.col)
        if n < TOL_NULL:
            raise ScenarioParseError("cannot normalize a zero vector",
                                     node.line, node.col)
        return ("plain", vec / n)
    raise TypeError(f"unknown state expression node {node!r}")


def _collapse_value(value, node) -> np.ndarray:
    """Turn a pair product into a plain vector; plain values pass through."""
    kind, payload = value
    if kind == "plain":
        return payload
    pairs = payload
    sites = sorted(s for pair in pairs for s in pair)
    n = 2 * len(pairs)
    if sites != list(range(1, n + 1)):
        raise ScenarioParseError(
            f"a pair product must cover sites 1..{n} exactly, got {sites}",
            node.line, node.col)
    order = [0] * n
    for m, (i, j) in enumerate(pairs):
        order[i - 1] = 2 * m + 1
        order[j - 1] = 2 * m + 2
    try:
        return permute_qubits(singlet(len(pairs)), order)
    except CapacityError as exc:
        raise ScenarioParseError(str(exc), node.line, node.col) from exc


def _eval_oexpr(node, n_qubits: int | None) -> SpectralObservable:
    if isinstance(node, SigmaExpr):
        if n_qubits is None:
            raise ScenarioParseError("declare qubits before using sigma",
                                     node.line, node.col)
        if not 1 <= node.site <= n_qubits:
            raise ScenarioParseError(
                f"site {node.site} out of range 1..{n_qubits}", node.line, node.col)
        return pauli(node.axis, node.site, n_qubits)
    if isinstance(node, ObsBuiltin):
        return observable_f() if node.kind == "F" else observable_g()
    if isinstance(node, EmbedExpr):
        inner = _eval_oexpr(node.inner, n_qubits)
        try:
            return embed(inner, node.sites, node.n)
        except (ValueError, CapacityError) as exc:
            raise ScenarioParseError(str(exc), node.line, node.col) from exc
    raise TypeError(f"unknown observable expression node {node!r}")


# ---------------------------------------------------------------------------
# printing

def format_scenario(scenario: Scenario) -> str:
    """Canonical text for a scenario; parsing it back yields an equivalent
    scenario (amplitude-level equality for every binding)."""
    lines = [_format_statement(st) for st in scenario.statements]
    return "\n".join(lines) + "\n"


def _format_statement(st) -> str:
    if isinstance(st, QubitsStmt):
        return f"qubits {st.n}"
    if isinstance(st, StateStmt):
        return f"state {st.name} = {_fmt_sexpr(st.expr)}"
    if isinstance(st, ObsStmt):
        return f"obs {st.name} = {_fmt_oexpr(st.expr)}"
    if isinstance(st, MeasureStmt):
        return f"measure {', '.join(st.names)} outcomes {_fmt_signs(st.signs)}"
    if isinstance(st, AssertProbStmt):
        rational = (f"{st.numerator}" if st.denominator == 1
                    else f"{st.numerator}/{st.denominator}")
        return f"assert_prob {st.name} {_fmt_signs(st.signs)} = {rational}"
    if isinstance(st, ReportStmt):
        return f"report {st.name}"
    raise TypeError(f"unknown statement {st!r}")


def _fmt_signs(signs) -> str:
    return "".join("+" if s > 0 else "-" for s in signs)


def _fmt_sexpr(node, parent: str = "top") -> str:
    if isinstance(node, Ket):
        return f"|{node.chars}>"
    if isinstance(node, NameRef):
        return node.name
    if isinstance(node, SingletCall):
        return f"singlet({node.i},{node.j})"
    if isinstance(node, Normalize):
        return f"normalize({_fmt_sexpr(node.operand)})"
    if isinstance(node, Sum):
        text = " + ".join(_fmt_sexpr(term, "sum") for term in node.terms)
        return f"({text})" if parent in ("left", "tensor", "scaled") else text
    if isinstance(node, Tensor):
        # A pair product does not re-associate, so a left operand of '*'
        # keeps its parentheses when it is a '*' group or a scaled state.
        text = f"{_fmt_sexpr(node.left, 'left')} * {_fmt_sexpr(node.right, 'tensor')}"
        return f"({text})" if parent in ("left", "scaled") else text
    if isinstance(node, Scaled):
        text = f"{_fmt_coeff(node)} {_fmt_sexpr(node.operand, 'scaled')}"
        return f"({text})" if parent == "left" else text
    raise TypeError(f"unknown state expression node {node!r}")


def _fmt_coeff(node: Scaled) -> str:
    parts = []
    for k, (op, kind, val) in enumerate(node.factors):
        if kind == "int":
            text = str(val)
        elif kind == "sqrt":
            text = f"sqrt({val})"
        else:
            text = "i"
        parts.append(text if k == 0 else op + text)
    body = "".join(parts)
    if node.factors[0][1] != "int":
        body = "1*" + body
    return ("-" if node.negative else "") + body


def _fmt_oexpr(node) -> str:
    if isinstance(node, SigmaExpr):
        return f"sigma {node.axis} {node.site}"
    if isinstance(node, ObsBuiltin):
        return node.kind
    if isinstance(node, EmbedExpr):
        sites = ",".join(str(s) for s in node.sites)
        return f"embed({_fmt_oexpr(node.inner)}; {sites}; {node.n})"
    raise TypeError(f"unknown observable expression node {node!r}")


def scenarios_equivalent(a: Scenario, b: Scenario, atol: float = 1e-10) -> bool:
    """Equivalence used by the parse/print round-trip check: every binding
    equal at the amplitude level, and the same program lines in the same
    order, compared by their canonical text."""
    if a.n_qubits != b.n_qubits:
        return False
    if set(a.states) != set(b.states) or set(a.observables) != set(b.observables):
        return False
    for name, vec in a.states.items():
        if vec.shape != b.states[name].shape or not np.allclose(vec, b.states[name], atol=atol):
            return False
    for name, obs in a.observables.items():
        other = b.observables[name]
        if obs.eigenvalues != other.eigenvalues:
            return False
        for ev in obs.eigenvalues:
            if not np.allclose(obs.projector(ev), other.projector(ev), atol=atol):
                return False
    return _program_text(a) == _program_text(b)


def _program_text(scenario: Scenario) -> list[str]:
    """The measure, assert_prob and report lines, without their positions."""
    return [_format_statement(st) for st in scenario.statements
            if isinstance(st, (MeasureStmt, AssertProbStmt, ReportStmt))]


# ---------------------------------------------------------------------------
# execution

@dataclass(frozen=True)
class MeasurementTrace:
    names: tuple[str, ...]
    signs: tuple[int, ...]
    step_probabilities: tuple[float, ...]
    joint_probability: float


@dataclass(frozen=True)
class AssertionResult:
    observable: str
    sign: int
    numerator: int
    denominator: int
    computed: float
    passed: bool

    @property
    def expected(self) -> float:
        return self.numerator / self.denominator


@dataclass(frozen=True, eq=False)
class ObservableReport:
    observable: str
    distribution: Distribution


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    measurements: tuple[MeasurementTrace, ...]
    assertions: tuple[AssertionResult, ...]
    reports: tuple[ObservableReport, ...]
    final_state: np.ndarray | None
    passed: bool


def run_scenario(scenario: Scenario, *, assert_tol: float = TOL_ASSERT,
                 zero_tol: float = TOL_ZERO,
                 norm_tol: float = TOL_NORM) -> ScenarioResult:
    """Execute a scenario's program statements in file order.

    The register starts at the most recent `state` binding and is updated by
    every measure line.  Failed assertions are collected (not raised);
    dimension and zero-probability failures raise ScenarioRuntimeError.
    """
    current: np.ndarray | None = None
    measurements: list[MeasurementTrace] = []
    assertions: list[AssertionResult] = []
    reports: list[ObservableReport] = []
    for st in scenario.statements:
        if isinstance(st, StateStmt):
            current = scenario.states[st.name]
        elif isinstance(st, MeasureStmt):
            program = [scenario.observables[name] for name in st.names]
            outcomes = [float(s) for s in st.signs]
            try:
                records = run_sequence(current, program, outcomes,
                                       norm_tol=norm_tol, zero_tol=zero_tol)
            except ValueError as exc:
                raise ScenarioRuntimeError(f"line {st.line}: {exc}") from exc
            current = records[-1].post_state
            probs = tuple(rec.probability for rec in records)
            measurements.append(MeasurementTrace(
                names=st.names, signs=st.signs, step_probabilities=probs,
                joint_probability=float(np.prod(probs))))
        elif isinstance(st, AssertProbStmt):
            obs = scenario.observables[st.name]
            try:
                dist = born_distribution(current, obs, norm_tol=norm_tol)
                computed = dist.probability(float(st.signs[0]))
            except (ValueError, KeyError) as exc:
                raise ScenarioRuntimeError(f"line {st.line}: {exc}") from exc
            target = st.numerator / st.denominator
            assertions.append(AssertionResult(
                observable=st.name, sign=st.signs[0], numerator=st.numerator,
                denominator=st.denominator, computed=computed,
                passed=abs(computed - target) <= assert_tol))
        elif isinstance(st, ReportStmt):
            obs = scenario.observables[st.name]
            try:
                dist = born_distribution(current, obs, norm_tol=norm_tol)
            except ValueError as exc:
                raise ScenarioRuntimeError(f"line {st.line}: {exc}") from exc
            reports.append(ObservableReport(observable=st.name, distribution=dist))
    return ScenarioResult(measurements=tuple(measurements),
                          assertions=tuple(assertions), reports=tuple(reports),
                          final_state=current,
                          passed=all(a.passed for a in assertions))


# ---------------------------------------------------------------------------
# the claimed protocol and its audit

_SPIN_PROGRAM = (("z", 1), ("z", 2), ("x", 3), ("x", 4))


@dataclass(frozen=True, eq=False)
class ProtocolReport:
    """Comparison of a claimed value assignment with the quantum prediction.

    `claimed_value` is +1.0 or -1.0 when the outcome eigenstate overlaps
    exactly one of the collective observable's nonzero branches, and the
    strings "ambiguous" / "undefined" otherwise.  The verdict is `refuted`
    whenever a claimed +-1 value is not certain on the post-measurement
    state.
    """

    outcome_string: tuple[int, ...]
    claimed_value: object
    quantum_distribution: Distribution
    verdict: str
    certainty: float


def _claimed_value(distribution: Distribution, zero_tol: float):
    """The lookup rule's value from the weights of the +1 and -1 branches."""
    possible = tuple(distribution.probability(v) > zero_tol for v in (1.0, -1.0))
    return {(True, False): 1.0, (False, True): -1.0,
            (True, True): "ambiguous"}.get(possible, "undefined")


def assign_claimed_value(outcome):
    """Value the audited lookup rule attributes to the collective observable
    for one outcome string of (sigma_z1, sigma_z2, sigma_x3, sigma_x4).

    Builds the outcome's mixed-basis eigenstate and compares its overlaps
    with the +1 and -1 eigenvectors of the collective observable: +1.0 or
    -1.0 when exactly one overlap is nonzero (above TOL_ZERO), "ambiguous"
    when both are, "undefined" when neither is.
    """
    outcome = tuple(int(s) for s in outcome)
    if len(outcome) != 4 or any(s not in (1, -1) for s in outcome):
        raise ValueError(f"outcome must be four signs, got {outcome!r}")
    chars = []
    for sign, (axis, _) in zip(outcome, _SPIN_PROGRAM):
        if axis == "z":
            chars.append("0" if sign > 0 else "1")
        else:
            chars.append("+" if sign > 0 else "-")
    ket = basis_ket("".join(chars))
    return _claimed_value(born_distribution(ket, observable_f()), TOL_ZERO)


def _default_spin_program(n: int):
    return [pauli(axis, site, n) for axis, site in _SPIN_PROGRAM]


def run_claimed_protocol(state, outcome, *, program=None, collective=None,
                         corr_tol: float = TOL_CORR,
                         zero_tol: float = TOL_ZERO) -> ProtocolReport:
    """Run the audited protocol: single-site measurements, the lookup rule,
    then the actual collective measurement statistics.

    With the defaults, `state` is a 4- or 8-qubit vector, the program is
    (sigma_z1, sigma_z2, sigma_x3, sigma_x4) and the collective observable
    is F (embedded on sites 1-4 for 8 qubits).  Supplying `program` and
    `collective` turns the same harness into a self-test for observables
    that genuinely are functions of the single-site outcomes.
    """
    state = as_state(state)
    n = num_qubits(state)
    if program is None:
        if n < 4:
            raise ValueError(f"default program needs at least 4 qubits, got {n}")
        program = _default_spin_program(n)
    if collective is None:
        collective = observable_f()
        if n > 4:
            collective = embed(collective, [1, 2, 3, 4], n)
    outcome = tuple(int(s) for s in outcome)
    records = run_sequence(state, program, [float(s) for s in outcome],
                           zero_tol=zero_tol)
    post = records[-1].post_state
    distribution = born_distribution(post, collective)
    claimed = _claimed_value(distribution, zero_tol)
    if claimed in (1.0, -1.0):
        certainty = distribution.probability(claimed)
        verdict = "confirmed" if certainty >= 1.0 - corr_tol else "refuted"
    else:
        certainty = 0.0
        verdict = "refuted"
    return ProtocolReport(outcome_string=outcome, claimed_value=claimed,
                          quantum_distribution=distribution, verdict=verdict,
                          certainty=certainty)


def check_eta_candidate(candidate) -> tuple[bool, float]:
    """Does an 8-qubit candidate collapse, under the all-up run of the four
    single-site measurements, onto the shipped post-measurement state?

    Returns (matches, residual) with residual = 1 - fidelity up to global
    phase, a match when it is at most TOL_FIDELITY.  Raises
    ZeroProbabilityError when the all-up outcome cannot occur on the
    candidate.
    """
    candidate = as_state(candidate, require_unit=True)
    if num_qubits(candidate) != 8:
        raise ValueError(f"candidate must have 8 qubits, got {num_qubits(candidate)}")
    records = run_sequence(candidate, _default_spin_program(8),
                           [1.0, 1.0, 1.0, 1.0])
    f = fidelity(records[-1].post_state, eta_tilde())
    return f >= 1.0 - TOL_FIDELITY, 1.0 - f


def dirac_audit(collective: SpectralObservable | None = None) -> FunctionReport:
    """Is the collective observable a function of the four single-site spin
    observables?  For the shipped F the answer is no, witnessed by the
    all-up joint outcome."""
    if collective is None:
        collective = observable_f()
    n = collective.n_qubits
    return is_function_of(collective, _default_spin_program(n))
