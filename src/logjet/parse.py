"""Chart equations as text: a recursive-descent parser and its inverse.

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' int)?
    atom     := rational | var | '(' expr ')'
    var      := 'x' index
    rational := int ('/' posint)?

Whitespace is insignificant.  A polynomial in x_1..x_n is an {exponent
tuple: Fraction} map with no zero coefficient, the one format of the
engine from the chart to the report; exponents may be negative
(Laurent).  parse_poly reads text into a map, render writes a map back
in degrevlex order, and parse_poly(render(f, ("x1", ..., "xn")), n) == f.
The arithmetic is that of jets.py, whose products are budgeted: one of
more than jets.MAX_PRODUCT_WORK coefficient products raises
ResourceLimitError.
"""

from fractions import Fraction

from .errors import ExpressionSyntaxError
from .jets import degrevlex, poly_add, poly_mul, poly_pow

_OPS = set("+-*/^()")
# Deepest parenthesis nesting parse_poly accepts; a deeper "(" is an
# ExpressionSyntaxError, never a RecursionError.  The parser recurses
# through four methods per level, 400 frames of the default limit of 1000.
MAX_NESTING = 100


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", int(text[i:j]), i))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ExpressionSyntaxError(
                    "variable 'x' without index", i, "digits")
            tokens.append(_Token("xvar", int(text[i + 1:j]), i))
            i = j
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text, n):
        self.n = n
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionSyntaxError(
                f"unexpected token {tok.value!r}", tok.pos, kind)
        return self.advance()

    def fail(self, message, expected=None):
        raise ExpressionSyntaxError(message, self.peek().pos, expected)

    # grammar ---------------------------------------------------------------

    def parse(self):
        poly = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"trailing input {tok.value!r}", "operator or end")
        return poly

    def expr(self):
        sign = 1
        if self.peek().kind in ("+", "-"):
            if self.advance().kind == "-":
                sign = -1
        poly = poly_add({}, self.term(), sign)
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            poly = poly_add(poly, self.term(), 1 if op == "+" else -1)
        return poly

    def term(self):
        poly = self.factor()
        while self.peek().kind == "*":
            self.advance()
            poly = poly_mul(poly, self.factor())
        return poly

    def factor(self):
        atom = self.atom()
        if self.peek().kind != "^":
            return atom
        self.advance()
        expo = self.signed_int()
        if expo >= 0:
            return poly_pow(atom, expo, self.n)
        # negative power: single-term monomials and nonzero rationals only
        if len(atom) != 1:
            self.fail("negative exponent on a non-monomial")
        ((mono, coeff),) = atom.items()
        return poly_pow({tuple(-a for a in mono): 1 / coeff}, -expo, self.n)

    def signed_int(self):
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        tok = self.expect("int")
        return sign * tok.value

    def atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            value = Fraction(tok.value)
            if self.peek().kind == "/":
                self.advance()
                den = self.expect("int")
                if den.value == 0:
                    raise ExpressionSyntaxError("zero denominator", den.pos)
                value = value / den.value
            return {(0,) * self.n: value} if value else {}
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested deeper than {MAX_NESTING}")
            self.advance()
            self.depth += 1
            poly = self.expr()
            self.depth -= 1
            self.expect(")")
            return poly
        if tok.kind == "xvar":
            self.advance()
            i = tok.value
            if not (1 <= i <= self.n):
                raise ExpressionSyntaxError(
                    f"variable x{i} outside ring (n={self.n})", tok.pos)
            return {tuple(int(k == i) for k in range(1, self.n + 1)):
                    Fraction(1)}
        self.fail(f"unexpected token {tok.value!r}", "atom")


def parse_poly(text, n):
    """Parse an expression in x_1..x_n into an {exponent tuple: Fraction}
    map."""
    return _Parser(text, n).parse()


def render(terms, names):
    """The canonical text of an {exponent tuple: coefficient} map whose
    column k is the variable names[k], one name per column (ValueError
    otherwise): terms in descending degrevlex, each
    a signed coefficient (left out when 1) times name^e factors; the zero
    map is "0".  The text of a chart equation in the chart variables
    parses back to the same map."""
    if not terms:
        return "0"
    parts = []
    for vec in sorted(terms, key=degrevlex, reverse=True):
        coeff = terms[vec]
        mag = -coeff if coeff < 0 else coeff
        factors = [name + (f"^{a}" if a != 1 else "")
                   for name, a in zip(names, vec, strict=True) if a]
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if not parts:
            parts.append("-" + body if coeff < 0 else body)
        else:
            parts.append(f" {'-' if coeff < 0 else '+'} {body}")
    return "".join(parts)
