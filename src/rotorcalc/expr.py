"""A small expression language over rotor arithmetic.

Chains replace addition/subtraction: every infix symbol is a rotor, and
"a OP b" means a + rotor(OP)*b. `/` and `\\` are third-turns (not division),
`_`/`~` quarter-turns, and both `-` and `=` are the half turn, kept lexically
distinct. `*` and `^` keep their usual meanings. Constants: I = exp(i pi/3),
J = exp(i pi/4), i, and the generic literal rot(k,n) = exp(i 2 pi k/n).

Grammar:
    expr   := [opsym] term { opsym term }
    term   := factor { "*" factor }
    factor := atom [ "^" int ]
    atom   := number | "I" | "J" | "i" | "rot" "(" int "," int ")" | "(" expr ")"
    opsym  := "+" | "-" | "/" | "\\" | "_" | "~" | "="

A `Chain` holds every (opsym, term) pair of one chain and a `Mul` every
factor of one product, left to right, so a tree nests only as deep as its
parentheses; "(2*3)*4" parses to Mul((Mul((2, 3)), 4)), not to 2*3*4.
"""
from __future__ import annotations

import re
from functools import reduce
from operator import mul

from .errors import EvaluationError, LexError, ParseError
from .record import Record
from .unity import CONST_ROTORS, OPSYM_ROTORS, Rotor, rotor_value


class Token(Record):
    """A lexeme, its kind (number | opsym | star | caret | lparen | rparen |
    ident | rotkw | comma) and its (start, end) span in the source text."""

    __slots__ = _fields = ("kind", "lexeme", "span")


class Number(Record):
    __slots__ = _fields = ("value",)


class Const(Record):
    """A named constant: I | J | i."""

    __slots__ = _fields = ("name",)


class Rot(Record):
    """A rot(num,den) literal, kept as written; canonicalized at evaluation."""

    __slots__ = _fields = ("num", "den")


class Mul(Record):
    """Two or more factors, multiplied left to right."""

    __slots__ = _fields = ("factors",)


class Pow(Record):
    __slots__ = _fields = ("base", "exponent")


class Chain(Record):
    """Alternating opsym/term sequence; the first opsym may be an explicit unary."""

    __slots__ = _fields = ("items",)


# The expression-tree node types (`Expr` in annotations).
Expr = (Number, Const, Rot, Mul, Pow, Chain)

# One alternative per token kind, after any whitespace (every str.isspace()
# character); an empty match leaves no group set: the end of input, or a
# character that starts no token.
_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    rf"|(?P<opsym>[{re.escape(''.join(OPSYM_ROTORS))}])"
    r"|(?P<star>\*)|(?P<caret>\^)|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)"
    r"|(?P<word>[A-Za-z]+))?"
)
_WORD_KINDS = {"rot": "rotkw", **dict.fromkeys(CONST_ROTORS, "ident")}


def tokenize(text: str) -> list[Token]:
    """Split text into tokens; spans are offsets into the input."""
    tokens, pos = [], 0
    while kind := (m := _TOKEN.match(text, pos)).lastgroup:
        lexeme, span = m[kind], m.span(kind)
        if kind == "word":
            kind = _WORD_KINDS.get(lexeme)
            if kind is None:
                raise LexError(f"unknown name {lexeme!r}", span)
        tokens.append(Token(kind, lexeme, span))
        pos = m.end()
    if (pos := m.end()) < len(text):
        raise LexError(f"unrecognized character {text[pos]!r}", (pos, pos + 1))
    return tokens


_MAX_NESTING = 100  # node levels; == and repr hit the recursion limit from ~170


class _Parser:
    """Recursive-descent parser over the token list and a closing end token."""

    def __init__(self, text: str):
        self.tokens = tokenize(text) + [Token("end", "end of input", (len(text), len(text)))]
        self.pos = 0
        self.heights = {}  # levels of each node built, by id; all live until the end

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "end":
            self.pos += 1
        return tok

    def fail(self, expected: set[str]):
        tok = self.peek()
        raise ParseError(
            f"expected {', '.join(sorted(expected))}, found {tok.lexeme!r}",
            tok.span, frozenset(expected),
        )

    def nest(self, node: Expr, children) -> Expr:
        """node, one level above its highest child (an atom has level 0)."""
        height = self.heights[id(node)] = 1 + max(self.heights.get(id(c), 0) for c in children)
        if height > _MAX_NESTING:
            raise ParseError("expression nests too deeply", self.peek().span)
        return node

    def expect(self, kind: str) -> Token:
        if self.peek().kind != kind:
            self.fail({kind})
        return self.next()

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek().kind != "end":
            self.fail({"opsym", "*", "^", "end of input"})
        return e

    def expr(self) -> Expr:
        lead = self.next().lexeme if self.peek().kind == "opsym" else "+"
        items = [(lead, self.term())]
        while self.peek().kind == "opsym":
            items.append((self.next().lexeme, self.term()))
        # a lone term under a "+" (implicit or written) is just the term
        if len(items) == 1 and items[0][0] == "+":
            return items[0][1]
        return self.nest(Chain(tuple(items)), [e for _, e in items])

    def term(self) -> Expr:
        factors = [self.factor()]
        while self.peek().kind == "star":
            self.next()
            factors.append(self.factor())
        return self.nest(Mul(tuple(factors)), factors) if len(factors) > 1 else factors[0]

    def factor(self) -> Expr:
        e = self.atom()
        if self.peek().kind == "caret":
            self.next()
            e = self.nest(Pow(e, self.signed_int()), [e])
        return e

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            return Number(float(tok.lexeme))
        if tok.kind == "ident":
            self.next()
            return Const(tok.lexeme)
        if tok.kind == "rotkw":
            self.next()
            self.expect("lparen")
            num = self.signed_int()
            self.expect("comma")
            den = self.signed_int()
            self.expect("rparen")
            return Rot(num, den)
        if tok.kind == "lparen":
            self.next()
            e = self.expr()
            self.expect("rparen")
            return e
        self.fail({"number", "I", "J", "i", "rot", "("})

    def signed_int(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "opsym" and tok.lexeme in "+-":
            sign = -1 if tok.lexeme == "-" else 1
            self.next()
            tok = self.peek()
        if tok.kind != "number" or not tok.lexeme.isdigit():
            self.fail({"integer"})
        self.next()
        try:
            return sign * int(tok.lexeme)
        except ValueError:  # past Python's int-from-decimal-string digit limit
            raise ParseError("integer literal too long", tok.span) from None


def parse(text: str) -> Expr:
    """Parse text into an expression tree; ParseError on malformed input,
    on more than `_MAX_NESTING` levels of nodes, and on parentheses too deep
    for the recursive descent."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nests too deeply", parser.peek().span) from None


def evaluate(e: Expr) -> complex:
    """Floating value of an expression tree."""
    if isinstance(e, Number):
        return complex(e.value)
    if isinstance(e, Const):
        return rotor_value(CONST_ROTORS[e.name])
    if isinstance(e, Rot):
        return rotor_value(Rotor(e.num, e.den))
    if isinstance(e, Mul):
        return reduce(mul, map(evaluate, e.factors))  # left to right
    if isinstance(e, Pow):
        base = evaluate(e.base)
        if base == 0 and e.exponent < 0:
            raise EvaluationError("zero base with negative exponent")
        try:
            return base ** e.exponent
        except OverflowError:
            raise EvaluationError("power beyond float range") from None
    if isinstance(e, Chain):
        total = 0j
        for op, item in e.items:
            total += rotor_value(OPSYM_ROTORS[op]) * evaluate(item)
        return total
    raise TypeError(f"not an expression node: {e!r}")


def _fmt_number(value: float) -> str:
    if abs(value) < 1e16 and value == int(value):
        return str(int(value))
    # repr's "inf" does not lex; 1e999 parses back to the same infinity
    return repr(value).replace("inf", "1e999")


def _grouped(e: Expr, kinds) -> str:
    """format_expr(e), in parentheses when e is one of kinds."""
    return f"({format_expr(e)})" if isinstance(e, kinds) else format_expr(e)


def format_expr(e: Expr) -> str:
    """Canonical text; parse(format_expr(e)) is structurally equal to e."""
    if isinstance(e, Number):
        return _fmt_number(e.value)
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Rot):
        return f"rot({e.num},{e.den})"
    if isinstance(e, Pow):
        return f"{_grouped(e.base, (Mul, Pow, Chain))}^{e.exponent}"
    if isinstance(e, Mul):
        return "*".join(_grouped(f, (Chain, Mul)) for f in e.factors)
    if isinstance(e, Chain):
        (op, item), *rest = e.items
        head = ("" if op == "+" else op) + _grouped(item, Chain)
        return head + "".join(f" {sym} {_grouped(term, Chain)}" for sym, term in rest)
    raise TypeError(f"not an expression node: {e!r}")
