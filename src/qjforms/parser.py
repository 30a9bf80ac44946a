"""Recursive-descent parser for the CLI expression syntax.

Grammar (whitespace insensitive, identifiers case insensitive):

    expr     := term (("+" | "-") term)*
    term     := unary ("*" unary)*
    unary    := "-"* power
    power    := atom ("^" integer)?
    atom     := rational | IDENT | IDENT "(" arg ("," arg)* ")" | "(" expr ")"
    arg      := expr | integer
    integer  := "-"? rational | "(" "-"? rational ")"
    rational := INT ("/" INT)?

Precedence is ^ over unary minus over * over binary +/-.  A run of + and -
is one n-ary ``Sum`` of (sign, operand) pairs, a run of * one ``Product`` and
a run of unary minus one sign, so no run adds nesting.  A call takes its forms,
then its integer arguments (rc, rcd, tv: n; q: j1, j2; eis: 2n), read by the
exponent's nonnegative ``integer`` rule with errors that name them by position.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial, reduce
from operator import mul
from typing import Union

from ._value import Value
from .forms import ONE, Generator, QJForm, ScaledJForm, e6_form, q_coefficient, sum_of_products


class ParseError(ValueError):
    """Syntax error, carrying the byte offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class EvalError(ValueError):
    """A structurally valid expression that cannot be evaluated."""


# AST nodes: immutable, equal when type and fields are equal.
class Lit(Value):
    __slots__ = ("value",)  # Fraction


class Var(Value):
    __slots__ = ("name",)


class Sum(Value):
    __slots__ = ("terms",)  # tuple of (sign 1 or -1, Expr)


class Product(Value):
    __slots__ = ("factors",)  # tuple of Expr


class Pow(Value):
    __slots__ = ("base", "exponent")  # exponent: int


class Call(Value):
    __slots__ = ("fn", "args")  # args: tuple of Expr, then trailing ints


Expr = Union[Lit, Var, Sum, Product, Pow, Call]

# variable name -> form
_VARIABLES = {**{g.symbol: QJForm.generator(g) for g in Generator}, "e6": e6_form()}


# function name -> (number of form arguments, number of trailing integer
# arguments, implementation); the derivation and bracket names are the
# values of their enums. The table is built on the first function call, so
# an expression without one never loads calculus.
@lru_cache(maxsize=None)
def _functions() -> dict:
    from .calculus import Bracket, Derivation, bracket, derive, eisenstein_in_generators

    def eisenstein(two_n: int) -> QJForm:
        try:
            return eisenstein_in_generators(two_n)
        except ValueError as exc:
            raise EvalError(str(exc)) from exc

    return {
        **{tag.value: (1, 0, partial(derive, tag)) for tag in Derivation},
        **{tag.value: (2, 1, partial(bracket, tag)) for tag in Bracket},
        "q": (1, 2, q_coefficient),
        "eis": (0, 1, eisenstein),
    }


_SYMBOLS = "+-*^(),/"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":  # str.isdigit also accepts superscripts and other scripts' digits
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j].lower(), i))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            shown = tok[1] or "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", tok[2])
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return node

    # A run of one operand stays that operand, so q(...) stays valid at top level.
    def expr(self) -> Expr:
        terms = [(1, self.term())]
        while self.peek()[0] in ("+", "-"):
            sign = 1 if self.advance()[0] == "+" else -1
            terms.append((sign, self.term()))
        return Sum(tuple(terms)) if len(terms) > 1 else terms[0][1]

    def term(self) -> Expr:
        factors = [self.unary()]
        while self.peek()[0] == "*":
            self.advance()
            factors.append(self.unary())
        return Product(tuple(factors)) if len(factors) > 1 else factors[0]

    def unary(self) -> Expr:
        negate = False
        while self.peek()[0] == "-":
            self.advance()
            negate = not negate
        node = self.power()
        return Sum(((-1, node),)) if negate else node

    def power(self) -> Expr:
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            node = Pow(node, self._integer_literal("exponent"))
        return node

    def _integer_literal(self, role: str) -> int:
        # A nonnegative integer literal, optionally parenthesized; a
        # parenthesized rational parses but is rejected with a clear message.
        tok = self.peek()
        if tok[0] == "num":
            value = self._rational()
        elif tok[0] == "(":
            self.advance()
            inner = self.peek()
            if inner[0] == "num":
                value = self._rational()
            elif inner[0] == "-":
                self.advance()
                value = -self._rational()
            else:
                raise ParseError(f"{role} must be a nonnegative integer literal", inner[2])
            self.expect(")")
        elif tok[0] == "-":
            self.advance()
            value = -self._rational()
        else:
            raise ParseError(f"{role} must be a nonnegative integer literal", tok[2])
        if value.denominator != 1:
            raise ParseError(f"non-integer {role}: {value}", tok[2])
        if value < 0:
            raise ParseError(f"negative {role}: {value}", tok[2])
        return int(value)

    def _rational(self) -> Fraction:
        tok = self.expect("num")
        numerator = int(tok[1])
        if self.peek()[0] == "/":
            self.advance()
            dtok = self.peek()
            if dtok[0] != "num":
                raise ParseError("malformed rational: missing denominator", dtok[2])
            self.advance()
            denominator = int(dtok[1])
            if denominator == 0:
                raise ParseError("malformed rational: zero denominator", dtok[2])
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    def atom(self) -> Expr:
        tok = self.peek()
        if tok[0] == "num":
            return Lit(self._rational())
        if tok[0] == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok[0] == "ident":
            self.advance()
            name = tok[1]
            if self.peek()[0] == "(":
                if name not in _functions():
                    raise ParseError(f"unknown function {name!r}", tok[2])
                n_forms, n_ints, _ = _functions()[name]
                args: list = []
                while not args or self.peek()[0] == ",":  # the forms, then the integers
                    self.advance()
                    i = len(args) + 1  # past the integers: an arity error below
                    integer = n_forms < i <= n_forms + n_ints
                    args.append(self._integer_literal(f"argument {i} of {name}") if integer else self.expr())
                self.expect(")")
                if len(args) != n_forms + n_ints:
                    raise ParseError(f"{name} takes {n_forms + n_ints} argument(s), got {len(args)}", tok[2])
                return Call(name, tuple(args))
            if name not in _VARIABLES:
                raise ParseError(f"unknown identifier {name!r}", tok[2])
            return Var(name)
        shown = tok[1] or "end of input"
        raise ParseError(f"unexpected {shown!r}", tok[2])


def parse(text: str) -> Expr:
    """Parse an expression; raises :class:`ParseError` with a byte offset."""
    return _Parser(text).parse()


def _form_operand(value: QJForm | ScaledJForm, context: str) -> QJForm:
    if isinstance(value, ScaledJForm):
        raise EvalError(f"q(...) results cannot be used inside {context}")
    return value


def evaluate(expr: Expr) -> QJForm | ScaledJForm:
    """Evaluate an AST to a form; q(...) may appear only at top level."""
    if isinstance(expr, Lit):
        return QJForm.constant(expr.value)
    if isinstance(expr, Var):
        return _VARIABLES[expr.name]
    if isinstance(expr, Sum):
        # One numerator dict and one canonicalisation for the whole run.
        return sum_of_products((s, _form_operand(evaluate(term), "sums or negation"), ONE) for s, term in expr.terms)
    if isinstance(expr, Product):
        return reduce(mul, (_form_operand(evaluate(factor), "products") for factor in expr.factors))
    if isinstance(expr, Pow):
        return _form_operand(evaluate(expr.base), "powers") ** expr.exponent
    if isinstance(expr, Call) and expr.fn in _functions():
        n_forms, _, implementation = _functions()[expr.fn]
        forms = [_form_operand(evaluate(arg), expr.fn) for arg in expr.args[:n_forms]]
        return implementation(*forms, *expr.args[n_forms:])
    raise EvalError(f"cannot evaluate node {expr!r}")


def parse_and_evaluate(text: str) -> QJForm | ScaledJForm:
    return evaluate(parse(text))
