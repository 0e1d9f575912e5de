"""Rational function fields k(t) over Q or F_p.

The base curve is always the projective line with a named coordinate, so a
place is either a monic irreducible polynomial or the point at infinity, and
every valuation is a multiplicity count.  Degrees of places weight every
global count, which is how closed points over a non-algebraically-closed
constant field are handled.  ``divisor_of_function``, the divisor kernel,
reads orders off ``factor``'s multiplicities for every reader of many places
but ``elliptic.deg_omega``, whose trial division keeps the degree check of
``sections.divisor`` independent; ``ord_at``, the single-place query, counts
with ``Poly.multiplicity_of``.

Also here: polynomials in an auxiliary variable x over the function field
(``XPoly``/``RatX``), covers of the line given by rational substitutions,
and the expression parser used by the CLI, which writes an expression as a
flat postfix program that ``eval_ast`` runs in one stack loop, the one
place unknown names are refused.  ``XPoly`` has one coefficient ring, K,
and its gcd is Euclid's algorithm there.  The witnesses the library builds
are canonical by construction (``_Quotient._trusted``): a pulled-back
fraction and ``find_pf``'s y N/f^2 take no gcd, so the gcd in x runs on
fractions read from a manifest and in the arithmetic of ``RatX``.

Each tower has one body.  ``XPoly`` takes its structure, its ring operations
(+, -, negation, ``scale``, ``derivative`` in x, powers) and ``cofactors``
from ``polynomials._DensePoly``, as ``Poly`` does, and keeps only its
product, division and gcd; the private base ``_Quotient`` holds the
canonical-fraction arithmetic (coprime with a monic denominator, equality,
+ - * / ** by Henrici's gcd splitting) of both ``FieldElement`` over k[t] and
``RatX`` over K[x].  The constant fields supply ``from_int`` and ``inv``;
``FieldElement`` reaches them only through ``Poly``.
"""

from __future__ import annotations

import operator
from functools import cached_property

from .errors import ConsistencyError, InputError, ParseError
from .polynomials import Poly, _DensePoly, _str_int, factor, is_irreducible

INF = float("inf")


class FunctionField:
    """K = k(var) for k = Q or F_p."""

    def __init__(self, constants, var: str):
        if not var.isidentifier() or var in ("x", "y"):  # x, y are the curve's coordinates
            raise InputError("bad variable name %r: need an identifier other than x, y" % var)
        self.constants = constants
        self.var = var

    @property
    def char(self) -> int:
        return self.constants.char

    def __eq__(self, other):
        return (
            isinstance(other, FunctionField)
            and self.constants == other.constants
            and self.var == other.var
        )

    def __hash__(self):
        return hash((self.constants, self.var))

    def __repr__(self):
        return "%r(%s)" % (self.constants, self.var)

    # -- constructors

    def element(self, num: Poly, den: Poly = None) -> FieldElement:
        return FieldElement(self, num, den)

    def poly(self, ints) -> Poly:
        return Poly.from_int_coeffs(self.constants, ints)

    @cached_property
    def zero(self) -> FieldElement:
        return FieldElement(self, Poly.zero(self.constants))

    @cached_property
    def one(self) -> FieldElement:
        return FieldElement(self, Poly.one(self.constants))

    @property
    def gen(self) -> FieldElement:
        return FieldElement(self, Poly.x(self.constants))

    def from_int(self, n: int) -> FieldElement:
        return FieldElement(self, Poly.const(self.constants, self.constants.from_int(n)))

    def from_fraction(self, a: int, b: int) -> FieldElement:
        return self.from_int(a) / self.from_int(b)

    def inv(self, a: FieldElement) -> FieldElement:
        return self.one / a

    def infinity(self) -> Place:
        return Place(self, None)

    def place(self, pi: Poly) -> Place:
        return Place(self, pi)


class _Quotient:
    """num/den in canonical form: coprime, with a monic denominator, and 1 for 0.

    The arithmetic ``FieldElement`` (over k[t]) and ``RatX`` (over K[x])
    share.  The polynomials supply ``cofactors`` (the monic gcd and both
    quotients by it), ``one`` and their coefficient domain ``field``, whose
    ``one`` and ``inv`` make a denominator monic; canonical forms make
    structural equality mathematical equality.  The constructor normalises
    outside input with a full gcd, and ``_trusted`` takes a fraction known
    to be canonical as it is.  The arithmetic takes canonical operands
    to a canonical result through ``_make``, with Henrici's gcd splitting
    (Henrici 1956; Knuth, TAOCP vol. 2, 4.5.1), which takes a gcd only where
    a common factor can remain:

    - a/b * c/d = (a/g1 * c/g2) / (b/g2 * d/g1), g1 = gcd(a, d), g2 = gcd(c, b);
    - a/b + c/d needs no gcd when b or d is 1; otherwise, with g = gcd(b, d)
      and t = a*(d/g) + c*(b/g), it is t/(b/g * d/g) when g = 1 and
      (t/g2) / (b/g * d/g * g/g2) with g2 = gcd(t, g) when not;
    - a power of a canonical fraction is canonical, and the reciprocal b/a
      only needs the scaling that makes a monic.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den=None):
        if den is not None and den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if den is None or num.is_zero():
            den = num.one(num.field)
        else:
            _, num, den = num.cofactors(den)
            if den.leading != den.field.one:
                inv = den.field.inv(den.leading)
                num, den = num.scale(inv), den.scale(inv)
        self.field = field
        self.num = num
        self.den = den

    @classmethod
    def _trusted(cls, field, num, den):
        """num/den for num and den already canonical (coprime, den monic, 1 for 0), unchecked."""
        q = object.__new__(cls)
        q.field, q.num, q.den = field, num, den
        return q

    def _make(self, num, den):
        """num/den of this type and field, for num and den already coprime, den monic."""
        if num.is_zero() and not den.is_one():
            den = num.one(num.field)
        return self._trusted(self.field, num, den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other):
        if type(other) is not type(self):
            raise TypeError("cannot combine %s with %r" % (type(self).__name__, other))
        if other.field != self.field:
            raise InputError("mixed function fields")
        return other

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except (TypeError, InputError):
            return False
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.is_one():
            return self._make(a * d + c, d)
        if d.is_one():
            return self._make(a + c * b, b)
        g, b, d = b.cofactors(d)
        t = a * d + c * b
        if g.degree == 0:
            return self._make(t, b * d)
        _, t, g = t.cofactors(g)
        return self._make(t, b * d * g)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __neg__(self):
        return self._make(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if not d.is_one():
            _, a, d = a.cofactors(d)
        if not b.is_one():
            _, c, b = c.cofactors(b)
        return self._make(a * c, b * d)

    def __truediv__(self, other):
        return self * self._coerce(other)._reciprocal()

    def _reciprocal(self):
        """den/num, both scaled to make num's leading coefficient 1."""
        if self.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        lc = self.num.leading
        k = self.num.field
        if lc == k.one:
            return self._make(self.den, self.num)
        inv = k.inv(lc)
        return self._make(self.den.scale(inv), self.num.scale(inv))

    def __pow__(self, n: int):
        if n < 0:
            return self._reciprocal() ** -n
        return self._make(self.num ** n, self.den ** n)


class FieldElement(_Quotient):
    """A rational function num/den in K = k(t), coprime with monic denominator."""

    __slots__ = ()

    __init__ = _Quotient.__init__

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_one()

    def _coerce(self, other) -> FieldElement:
        if isinstance(other, int):
            return self.field.from_int(other)
        return super()._coerce(other)

    __radd__ = _Quotient.__add__
    __rmul__ = _Quotient.__mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def derive(self) -> FieldElement:
        """d/d(var) by the quotient rule, with one gcd against gcd(den, den').

        With g = gcd(d, d'), d = g*e and d' = g*h, (n/d)' = (n'e - nh)/(g*e^2),
        and n'e - nh is prime to e (n and h are), so only a factor of g can
        cancel.  d' = 0 (d = 1, or a p-th power over F_p) gives g = d, e = 1.
        """
        n, d = self.num, self.den
        if d.is_one():
            return self._make(n.derivative(), d)
        g, e, h = d.cofactors(d.derivative())
        _, m, g = (n.derivative() * e - n * h).cofactors(g)
        return self._make(m, g * e * e)

    def __str__(self):
        ns = self.num.to_str(self.field.var)
        if self.den.is_one():
            return ns
        return "(%s)/(%s)" % (ns, self.den.to_str(self.field.var))

    def __repr__(self):
        return str(self)


class Place:
    """A closed point of the projective line: monic irreducible poly or infinity."""

    __slots__ = ("field", "pi")

    def __init__(self, field, pi):
        if pi is not None:
            pi = pi.monic()
            if pi.degree < 1:
                raise InputError("a finite place needs a non-constant polynomial")
            if pi.degree > 1 and not is_irreducible(pi):
                raise InputError("a place needs an irreducible polynomial: %s" % pi)
        self.field = field
        self.pi = pi

    @classmethod
    def _trusted(cls, field, pi):
        """The place of a monic irreducible pi, as ``factor`` returns it, unchecked."""
        place = object.__new__(cls)
        place.field, place.pi = field, pi
        return place

    @property
    def is_infinity(self) -> bool:
        return self.pi is None

    @property
    def degree(self) -> int:
        return 1 if self.pi is None else self.pi.degree

    def __eq__(self, other):
        return (
            isinstance(other, Place)
            and self.field == other.field
            and self.pi == other.pi
        )

    def __hash__(self):
        return hash((self.field, self.pi))

    def sort_key(self):
        if self.pi is None:
            return (1, 0, "")
        return (0, self.pi.degree, self.pi.to_str(self.field.var))

    def __str__(self):
        if self.pi is None:
            return "infinity"
        return self.pi.to_str(self.field.var)

    def __repr__(self):
        return "Place(%s)" % self


def ord_at(f: FieldElement, place: Place):
    """Valuation of f at a place; +inf for f = 0."""
    if f.is_zero():
        return INF
    if place.is_infinity:
        return f.den.degree - f.num.degree
    # num and den are coprime, so at most one of them vanishes at the place
    k = f.num.multiplicity_of(place.pi)
    return k if k else -f.den.multiplicity_of(place.pi)


def places_of_poly(q: Poly, field: FunctionField) -> list:
    """Finite places in the support of a nonzero polynomial, with multiplicities."""
    if q.is_constant():
        return []
    return [(Place._trusted(field, g), m) for g, m in factor(q)]


def _local_orders(*fs: FieldElement) -> dict:
    """{place: [ord f for f in fs]} over infinity and the factors of every
    numerator and denominator of fs, read off their divisors; a zero f has
    order INF."""
    divs = [None if f.is_zero() else dict(divisor_of_function(f)) for f in fs]
    places = {fs[0].field.infinity()}.union(*(d for d in divs if d))
    return {v: [INF if d is None else d.get(v, 0) for d in divs] for v in places}


def divisor_of_function(f: FieldElement) -> list:
    """The divisor of a nonzero rational function as [(Place, ord)]; degree 0.

    A correct ``factor`` makes the degree 0, so the check cannot fire: the
    finite orders of num (of den) have weighted sum deg num (deg den), and
    infinity takes deg den - deg num."""
    if f.is_zero():
        raise InputError("the zero function has no divisor")
    out = places_of_poly(f.num, f.field)
    out += [(place, -m) for place, m in places_of_poly(f.den, f.field)]
    o_inf = f.den.degree - f.num.degree
    if o_inf:
        out.append((f.field.infinity(), o_inf))
    total = sum(p.degree * m for p, m in out)
    if total != 0:
        raise ConsistencyError("divisor of a function has degree %d" % total)
    return sorted(out, key=lambda pm: pm[0].sort_key())


# ---------------------------------------------------------------------------
# covers of the line


def eval_poly_at(p: Poly, point: FieldElement) -> FieldElement:
    """Evaluate a constant-coefficient polynomial at a FieldElement (Horner)."""
    field = point.field
    acc = field.zero
    for c in reversed(p.coeffs):
        acc = acc * point + FieldElement(field, Poly.const(field.constants, c))
    return acc


class CoverMap:
    """The substitution target_var -> image(source_var), a cover of the line."""

    def __init__(self, source: FunctionField, target: FunctionField, image: FieldElement):
        if image.field != source:
            raise InputError("cover image must live in the source field")
        if source.constants != target.constants:
            raise InputError("cover must preserve the constant field")
        if image.is_constant():
            raise InputError("cover image must be non-constant")
        self.source = source
        self.target = target
        self.image = image

    def pullback(self, f: FieldElement) -> FieldElement:
        if f.field != self.target:
            raise InputError("pullback input must live in the target field")
        num = eval_poly_at(f.num, self.image)
        den = eval_poly_at(f.den, self.image)
        return num / den

    def then(self, other: CoverMap) -> CoverMap:
        """Compose with a further substitution of this cover's source variable."""
        if other.target != self.source:
            raise InputError("covers do not chain")
        return CoverMap(other.source, self.target, other.pullback(self.image))

    def __str__(self):
        return "%s -> %s" % (self.target.var, self.image)


# ---------------------------------------------------------------------------
# polynomials and rational functions in x over K


class XPoly(_DensePoly):
    """Polynomial in x over K = k(t)."""

    __slots__ = ()

    def __init__(self, field: FunctionField, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.terms = tuple(cs)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return XPoly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return XPoly(self.field, out)

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("XPoly division by zero")
        r = list(self.coeffs)
        d = other.degree
        if d == 0:
            return self.scale(self.field.inv(other.coeffs[0])), XPoly.zero(self.field)
        lc_inv = self.field.inv(other.leading)
        q = [self.field.zero] * max(0, len(r) - d)
        for i in range(len(r) - 1 - d, -1, -1):
            c = r[i + d]
            if c.is_zero():
                continue
            c = c * lc_inv
            q[i] = c
            for j, oc in enumerate(other.coeffs):
                r[i + j] = r[i + j] - c * oc
        return XPoly(self.field, q), XPoly(self.field, r[:d])

    def gcd(self, other):
        """Monic gcd over K by Euclid's algorithm."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def map_coeffs(self, fn, field=None):
        """Apply fn to each coefficient (e.g. d/dt, or a cover pullback)."""
        return XPoly(field or self.field, [fn(c) for c in self.coeffs])

    def evaluate(self, point: FieldElement) -> FieldElement:
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def to_str(self, xname: str = "x") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            if i == 0:
                parts.append("(%s)" % c)
            else:
                xi = xname if i == 1 else "%s^%d" % (xname, i)
                if c == self.field.one:
                    parts.append(xi)
                else:
                    parts.append("(%s)*%s" % (c, xi))
        return " + ".join(parts)


class RatX(_Quotient):
    """Rational function in x over K, canonical (coprime, monic denominator)."""

    __slots__ = ()

    @classmethod
    def from_xpoly(cls, p: XPoly):
        return cls(p.field, p)

    @classmethod
    def const(cls, c: FieldElement):
        return cls(c.field, XPoly.const(c.field, c))

    def is_xpoly(self):
        return self.den.degree == 0

    def as_xpoly(self) -> XPoly:
        if not self.is_xpoly():
            raise InputError("x appears in a denominator")
        return self.num

    def evaluate(self, point: FieldElement) -> FieldElement:
        dval = self.den.evaluate(point)
        if dval.is_zero():
            raise ZeroDivisionError("evaluation at a pole in x")
        return self.num.evaluate(point) / dval

    def __str__(self):
        if self.is_xpoly():
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)


# ---------------------------------------------------------------------------
# expression parser
#
#   expr   := ['-'] term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := base ('^' integer)?
#   base   := integer | variable | '(' expr ')'


def _tokenize(text: str) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if "0" <= c <= "9":  # ASCII only: str.isdigit also accepts "²" and "٣"
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("int", _str_int(text[i:j]), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("var", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % c, i)
    tokens.append(("end", None, n))
    return tokens


# Parentheses nest at most this deep: the descent takes 4 frames per level
# (expr, term, factor, base), so a deeper input is a ParseError with its
# position, not a failure that depends on the caller's stack.  Printed values
# nest at most 4 levels (a witness F).
MAX_DEPTH = 100

# No subexpression may have degree above this in any variable, so a manifest
# cannot ask for a dense power of degree 10^9.  Printed values stay far below
# it (mu over F_2003 on a quadratic cover, pinned in CI, has degree 4,004,
# about 2p), and a dense power of degree 10^5 over F_p takes well under 0.1 s.
MAX_DEGREE = 10 ** 5


class _Parser:
    """Recursive descent that writes the expression as a postfix program.

    The program is a flat list of operands ``("int", n)`` and
    ``("name", s)`` and operators ``("neg",)``, ``("add",)``, ``("sub",)``,
    ``("mul",)``, ``("div",)`` and ``("pow", k)``, each acting on the values
    before it.  A chain of + - or * / is a flat run of the list, so only
    parentheses make the descent recurse, at most ``MAX_DEPTH`` levels.
    ``degs`` bounds the degree of each value on the stack (a name 1, an
    integer 0, the sum for * and /, the exponent times it for ^).
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.out = []
        self.degs = []

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("trailing input %r" % tok[1], tok[2])
        return self.out

    def expr(self):
        neg = self.peek()[0] == "-"
        if neg:
            self.next()
        self.term()
        if neg:
            self.out.append(("neg",))
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            self.term()
            self.out.append(("add",) if op == "+" else ("sub",))
            self.degs[-2:] = [max(self.degs[-2:])]

    def term(self):
        self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.next()
            self.factor()
            self.out.append(("mul",) if op == "*" else ("div",))
            self.bound(sum(self.degs[-2:]), 2, pos)

    def factor(self):
        self.base()
        if self.peek()[0] == "^":
            self.next()
            tok = self.next()
            if tok[0] != "int":
                raise ParseError("exponent must be an integer", tok[2])
            self.out.append(("pow", tok[1]))
            self.bound(tok[1] * self.degs[-1], 1, tok[2])
            if self.peek()[0] == "^":
                raise ParseError("repeated exponent", self.peek()[2])

    def base(self):
        tok = self.next()
        if tok[0] in ("int", "var"):
            self.out.append(("int" if tok[0] == "int" else "name", tok[1]))
            self.degs.append(0 if tok[0] == "int" else 1)
        elif tok[0] == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError("parentheses nest deeper than %d" % MAX_DEPTH, tok[2])
            self.depth += 1
            self.expr()
            tok = self.next()
            if tok[0] != ")":
                raise ParseError("expected %r, found %r" % (")", tok[1]), tok[2])
            self.depth -= 1
        else:
            raise ParseError("unexpected token %r" % (tok[1],), tok[2])

    def bound(self, deg, arity, pos):
        if deg > MAX_DEGREE:
            raise ParseError("degree past %d" % MAX_DEGREE, pos)
        self.degs[-arity:] = [deg]


_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def parse_ast(text: str) -> list:
    """The postfix program of an expression (see ``_Parser``)."""
    return _Parser(text).parse()


def ast_names(ast) -> set:
    return {op[1] for op in ast if op[0] == "name"}


def eval_ast(ast, atoms: dict, from_int):
    """Run a postfix program in any algebra with +,-,*,/,** and an int embedding.

    Every name must be a key of ``atoms``: before anything is evaluated, the
    first unknown name in sorted order raises ``ParseError``.
    """
    unknown = ast_names(ast) - atoms.keys()
    if unknown:
        raise ParseError("unknown variable %r" % min(unknown))
    stack = []
    for op in ast:
        kind = op[0]
        if kind == "int":
            stack.append(from_int(op[1]))
        elif kind == "name":
            stack.append(atoms[op[1]])
        elif kind == "neg":
            stack[-1] = -stack[-1]
        elif kind == "pow":
            stack[-1] = stack[-1] ** op[1]
        elif kind == "div":
            rhs = stack.pop()
            try:
                stack[-1] = stack[-1] / rhs
            except ZeroDivisionError:
                raise ParseError("division by zero in expression")
        else:
            rhs = stack.pop()
            stack[-1] = _ARITH[kind](stack[-1], rhs)
    return stack.pop()


def parse_element(text: str, field: FunctionField) -> FieldElement:
    """Parse an expression in the base variable to an exact FieldElement."""
    return eval_ast(parse_ast(text), {field.var: field.gen}, field.from_int)


def parse(text: str, field: FunctionField):
    """Parse to a FieldElement, or to an XPoly when 'x' appears.

    An x occurring in a denominator is rejected: rational functions of x are
    not a value this entry point produces.
    """
    ast = parse_ast(text)
    if "x" not in ast_names(ast):
        return eval_ast(ast, {field.var: field.gen}, field.from_int)
    atoms = {field.var: RatX.const(field.gen), "x": RatX.from_xpoly(XPoly.x(field))}
    return eval_ast(ast, atoms, lambda n: RatX.const(field.from_int(n))).as_xpoly()
