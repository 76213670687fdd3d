"""Exact sparse polynomials in z, zb, w, wb over Gaussian rationals.

The four variables are formally independent; zb and wb play the role of the
complex conjugates of z and w.  A polynomial is "real" precisely when it is
fixed by the conjugation that swaps z with zb and w with wb while conjugating
coefficients.  All arithmetic is exact: coefficients are Gaussian rationals
(a + b*i)/d, each of which is the coprime integer triple (a, b, d) itself, a
tuple, never a float.  A polynomial's term map {monomial: coefficient} is
thus already the map of triples that the normal form in localideal reads.

Monomials are exponent tuples (a, b, c, d) for z^a zb^b w^c wb^d.  The
canonical display order sorts terms by total degree, lowest first, breaking
ties by exponent tuple with z-major priority, so "3*w^2 + 2*z^5*w" is the
canonical form of 3w^2 + 2z^5w.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from numbers import Rational
from operator import itemgetter
from typing import Mapping


def _power(base, n: int, one):
    """base**n by repeated squaring, for any type with an exact __mul__."""
    if n < 0:
        raise ValueError(f"negative power of {type(base).__name__}")
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


# ---------------------------------------------------------------------------
# Gaussian rationals


class GaussRational(tuple):
    """Exact complex number (a + b*i)/d, which is the integer triple (a, b, d).

    The triple is kept in lowest terms, d > 0 and gcd(a, b, d) = 1, so it is
    unique for its value: a coefficient is this tuple, equality and hashing
    are the tuple's, and a map {monomial: coefficient} is already the triple
    map that the normal form reads.  Every operation works on integers with
    one gcd to normalise its result.  a, b and d read the items back, and
    the real and imaginary parts read back as ``Fraction``s.
    """

    __slots__ = ()

    a = property(itemgetter(0))
    b = property(itemgetter(1))
    d = property(itemgetter(2))

    # A coefficient is no sequence: int * c and tuple + c do not repeat or
    # concatenate it, and coefficients have no order.  Each raises TypeError.
    __rmul__ = __radd__ = None
    __lt__ = __le__ = __gt__ = __ge__ = None

    def __new__(cls, re: Rational = 0, im: Rational = 0):
        for part in (re, im):
            if not isinstance(part, Rational):
                raise TypeError(
                    f"GaussRational parts must be rational, not {type(part).__name__}"
                )
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        # Over the lcm of two reduced denominators the numerators stay
        # coprime to it, so the triple needs no gcd.
        d = q * s // gcd(q, s)
        return tuple.__new__(cls, (p * (d // q), r * (d // s), d))

    @staticmethod
    def zero() -> "GaussRational":
        return _GR_ZERO

    @staticmethod
    def one() -> "GaussRational":
        return _GR_ONE

    def __reduce__(self):
        return GaussRational, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self[0], self[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self[1], self[2])

    def is_zero(self) -> bool:
        return not (self[0] or self[1])

    def conj(self) -> "GaussRational":
        a, b, d = self
        return _from_triple(a, -b, d)

    def __add__(self, other: "GaussRational") -> "GaussRational":
        (a, b, d1), (p, q, d2) = self, other
        k = gcd(d1, d2)
        u, v = d2 // k, d1 // k
        return _reduced(a * u + p * v, b * u + q * v, d1 * u)

    def __sub__(self, other: "GaussRational") -> "GaussRational":
        return self + -other

    def __neg__(self) -> "GaussRational":
        a, b, d = self
        return _from_triple(-a, -b, d)

    def __mul__(self, other: "GaussRational") -> "GaussRational":
        (a, b, d), (p, q, e) = self, other
        return _reduced(a * p - b * q, a * q + b * p, d * e)

    def __truediv__(self, other: "GaussRational") -> "GaussRational":
        # (a + b*i)/d / ((p + q*i)/e) = e*(a + b*i)*(p - q*i) / (d*(p^2 + q^2))
        (a, b, d), (p, q, e) = self, other
        norm = p * p + q * q
        if not norm:
            raise ZeroDivisionError("division by zero GaussRational")
        return _reduced(e * (a * p + b * q), e * (b * p - a * q), d * norm)

    def scale(self, q: Rational) -> "GaussRational":
        a, b, d = self
        n = q.numerator
        return _reduced(a * n, b * n, d * q.denominator)

    def __pow__(self, n: int) -> "GaussRational":
        return _power(self, n, _GR_ONE)

    def to_complex(self) -> complex:
        # Integer true division rounds correctly, as float(Fraction) does.
        a, b, d = self
        return complex(a / d, b / d)

    def __repr__(self) -> str:
        return f"GaussRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        return coeff_str(self)


def _from_triple(a: int, b: int, d: int) -> GaussRational:
    """The GaussRational (a + b*i)/d of a triple already in lowest terms."""
    return tuple.__new__(GaussRational, (a, b, d))


def _reduced(a: int, b: int, d: int) -> GaussRational:
    """The GaussRational (a + b*i)/d for any d > 0, brought to lowest terms."""
    k = gcd(a, b, d)
    if k != 1:
        a, b, d = a // k, b // k, d // k
    return _from_triple(a, b, d)


_GR_ZERO = _from_triple(0, 0, 1)
_GR_ONE = _from_triple(1, 0, 1)
_GR_I = _from_triple(0, 1, 1)


# ---------------------------------------------------------------------------
# Monomials

Mono = tuple  # (a, b, c, d) exponents of z, zb, w, wb

VAR_NAMES = ("z", "zb", "w", "wb")
Z, ZB, W, WB = 0, 1, 2, 3

MONO_ONE: Mono = (0, 0, 0, 0)


def mono_mul(m: Mono, n: Mono) -> Mono:
    return (m[0] + n[0], m[1] + n[1], m[2] + n[2], m[3] + n[3])


def mono_degree(m: Mono) -> int:
    return m[0] + m[1] + m[2] + m[3]


def mono_divides(m: Mono, n: Mono) -> bool:
    return m[0] <= n[0] and m[1] <= n[1] and m[2] <= n[2] and m[3] <= n[3]


def mono_div(n: Mono, m: Mono) -> Mono:
    return (n[0] - m[0], n[1] - m[1], n[2] - m[2], n[3] - m[3])


def mono_gcd(m: Mono, n: Mono) -> Mono:
    return (min(m[0], n[0]), min(m[1], n[1]), min(m[2], n[2]), min(m[3], n[3]))


def mono_conj(m: Mono) -> Mono:
    return (m[1], m[0], m[3], m[2])


def display_key(m: Mono):
    """Sort key for the canonical display order: degree up, z-major ties."""
    return (mono_degree(m), -m[0], -m[1], -m[2], -m[3])


def mono_str(m: Mono) -> str:
    return "*".join([
        name if e == 1 else f"{name}^{e}" for name, e in zip(VAR_NAMES, m) if e > 0
    ])


# ---------------------------------------------------------------------------
# Polynomials


class Poly:
    """Immutable sparse polynomial with GaussRational coefficients.

    Derived forms are computed on first use and kept in private slots: the
    hash in _hash, the canonical string in _str (canonical_str), the
    conjugate in _conj (conj) and the monic form in _monic (monic).  A
    polynomial that is its own monic form keeps None there, and a conjugate
    is not linked back to its source, so no Poly refers to itself through a
    slot.

    Poly(terms) copies the map and drops zero coefficients.  Poly._of(terms)
    takes a fresh map as it is, like _from_triple beside _reduced for
    coefficients: it is for results that cannot hold a zero coefficient and
    whose monomials cannot collide, such as the conjugate, the negation,
    a scaling by a nonzero c, a derivative (c*e with e >= 1), a division by
    a monomial and the power of a single term.
    """

    __slots__ = ("terms", "_hash", "_str", "_conj", "_monic")

    def __init__(self, terms: Mapping[Mono, GaussRational] | None = None):
        clean: dict[Mono, GaussRational] = {}
        if terms:
            for m, c in terms.items():
                if not c.is_zero():
                    clean[m] = c
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _of(terms: dict[Mono, GaussRational]) -> "Poly":
        """The Poly of a fresh term map with no zero coefficient, unchecked."""
        p = object.__new__(Poly)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return Poly, (self.terms,)

    # -- constructors

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly({MONO_ONE: _GR_ONE})

    @staticmethod
    def constant(c: GaussRational) -> "Poly":
        return Poly({MONO_ONE: c})

    @staticmethod
    def variable(var: str) -> "Poly":
        e = [0, 0, 0, 0]
        e[VAR_NAMES.index(var)] = 1
        return Poly({tuple(e): _GR_ONE})

    # -- basic predicates

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", h)
            return h

    def constant_term(self) -> GaussRational:
        return self.terms.get(MONO_ONE, _GR_ZERO)

    def is_holomorphic(self) -> bool:
        return all(m[ZB] == 0 and m[WB] == 0 for m in self.terms)

    def is_conj_symmetric(self) -> bool:
        """True iff the polynomial is a real-valued function of (z, w)."""
        for m, c in self.terms.items():
            cc = self.terms.get(mono_conj(m))
            if cc is None or cc != c.conj():
                return False
        return True

    # -- arithmetic

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            out[m] = c if s is None else s + c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __neg__(self) -> "Poly":
        return Poly._of({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Mono, GaussRational] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = c1 * c2
                s = out.get(m)
                out[m] = c if s is None else s + c
        return Poly(out)

    def scale(self, c: GaussRational) -> "Poly":
        if c.is_zero():
            return Poly()
        return Poly._of({m: k * c for m, k in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        """The n-th power, n >= 0.

        A single term c*x^e gives c^n*x^(n*e) directly; any other polynomial
        goes through repeated squaring.  Both are exact, so they agree.
        """
        if len(self.terms) != 1 or n < 0:
            return _power(self, n, Poly.one())
        ((m, c),) = self.terms.items()
        return Poly._of({(m[0] * n, m[1] * n, m[2] * n, m[3] * n): c ** n})

    def conj(self) -> "Poly":
        try:
            return self._conj
        except AttributeError:
            out = Poly._of({mono_conj(m): c.conj() for m, c in self.terms.items()})
            object.__setattr__(self, "_conj", out)
            return out

    def monic(self) -> "Poly":
        """Scale so the leading coefficient is 1.

        Two polynomials are equal up to a nonzero scalar exactly when their
        monic forms are equal.  The leading monomial of the local term order
        (least degree, ties to the larger exponent tuple) is the first one
        in display order.
        """
        try:
            q = self._monic
        except AttributeError:
            q = None
            if self.terms:
                c = self.terms[min(self.terms, key=display_key)]
                if c != _GR_ONE:
                    q = self.scale(_GR_ONE / c)
                    object.__setattr__(q, "_monic", None)
            object.__setattr__(self, "_monic", q)
        return self if q is None else q

    # -- calculus

    def wirtinger(self, var: str) -> "Poly":
        """Formal partial derivative in one of z, zb, w, wb."""
        idx = VAR_NAMES.index(var)
        out: dict[Mono, GaussRational] = {}
        for m, c in self.terms.items():
            e = m[idx]
            if e:
                n = list(m)
                n[idx] = e - 1
                out[tuple(n)] = c.scale(e)
        return Poly._of(out)

    # -- degrees

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def monomial_content(self) -> Mono:
        """Componentwise gcd of the exponent tuples; requires a nonzero poly."""
        if not self.terms:
            raise ValueError("zero polynomial has no monomial content")
        it = iter(self.terms)
        g = next(it)
        for m in it:
            g = mono_gcd(g, m)
            if g == MONO_ONE:
                break
        return g

    def divide_monomial(self, m: Mono) -> "Poly":
        return Poly._of({mono_div(n, m): c for n, c in self.terms.items()})

    # -- evaluation

    def eval_exact(self, z0: GaussRational, w0: GaussRational) -> GaussRational:
        zb0, wb0 = z0.conj(), w0.conj()
        total = _GR_ZERO
        for m, c in self.terms.items():
            total = total + c * z0 ** m[0] * zb0 ** m[1] * w0 ** m[2] * wb0 ** m[3]
        return total

    def sorted_terms(self) -> list[tuple[Mono, GaussRational]]:
        return sorted(self.terms.items(), key=lambda t: display_key(t[0]))

    def __str__(self) -> str:
        return canonical_str(self)

    def __repr__(self) -> str:
        return f"Poly({canonical_str(self)})"


def require_holomorphic(p: Poly, what: str = "polynomial") -> Poly:
    if not p.is_holomorphic():
        raise ValueError(f"{what} must be holomorphic (no zb or wb)")
    return p


def two_re(p: Poly) -> Poly:
    """The real polynomial p + conj(p)."""
    return p + p.conj()


# ---------------------------------------------------------------------------
# Canonical printing


def _ratio_str(n: int, d: int) -> str:
    """The rational n/d (d > 0) in lowest terms, without a denominator of 1."""
    k = gcd(n, d)
    n, d = n // k, d // k
    return str(n) if d == 1 else f"{n}/{d}"


def coeff_str(c: GaussRational) -> str:
    """Standalone rendering of a coefficient, used for constants."""
    a, b, d = c
    if not b:
        # gcd(a, 0, d) = gcd(a, d) = 1: a real triple is already a reduced ratio.
        return str(a) if d == 1 else f"{a}/{d}"
    mag = "" if abs(b) == d else _ratio_str(abs(b), d) + "*"
    if not a:
        return ("-" if b < 0 else "") + mag + "i"
    joiner = " + " if b > 0 else " - "
    return "(" + _ratio_str(a, d) + joiner + mag + "i)"


def _term_str(c: GaussRational, m: Mono) -> tuple[int, str]:
    """Return (sign, body) where sign applies only to pure re/im coefficients."""
    body, ms = coeff_str(c), mono_str(m)
    sign = -1 if body.startswith("-") else 1
    body = body.lstrip("-")
    if not ms:
        return sign, body
    return sign, ms if body == "1" else body + "*" + ms


def canonical_str(p: Poly) -> str:
    """Deterministic textual form; round-trips through parse_poly.

    The string is built on the first call and kept in the Poly's _str slot.
    """
    try:
        return p._str
    except AttributeError:
        pass
    pieces = []
    for m, c in p.sorted_terms():
        sign, body = _term_str(c, m)
        if not pieces:
            pieces.append(("-" if sign < 0 else "") + body)
        else:
            pieces.append((" - " if sign < 0 else " + ") + body)
    text = "".join(pieces) or "0"
    object.__setattr__(p, "_str", text)
    return text


# ---------------------------------------------------------------------------
# Parsing


class ParseError(ValueError):
    """Syntax error in polynomial text, with 1-based line/column."""

    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.column = col


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        self._scan()
        self.pos = 0

    def _scan(self) -> None:
        text = self.text
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdecimal():
                j = i
                while j < n and text[j].isdecimal():
                    j += 1
                self.toks.append(("num", text[i:j], i))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < n and text[j].isalpha():
                    j += 1
                name = text[i:j]
                if name not in ("z", "zb", "w", "wb", "i"):
                    raise ParseError(f"unknown symbol '{name}'", text, i)
                self.toks.append(("name", name, i))
                i = j
                continue
            if ch in "+-*/^()":
                self.toks.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character '{ch}'", text, i)

    def peek(self) -> tuple[str, str, int]:
        if self.pos < len(self.toks):
            return self.toks[self.pos]
        return ("end", "", len(self.text))

    def next(self) -> tuple[str, str, int]:
        t = self.peek()
        self.pos += 1
        return t

    def expect(self, kind: str) -> tuple[str, str, int]:
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected '{kind}', found '{t[1] or 'end of input'}'", self.text, t[2])
        return t


def parse_poly(text: str) -> Poly:
    """Parse polynomial text.

    Grammar: sums of terms; a term is '*'-separated factors; factors are
    variables with optional '^' powers, rational or imaginary coefficients
    ("3", "3/4", "i", "2i", "2*i", "3/4*i"), or parenthesized subexpressions
    such as "(1 + 2*i)".
    """
    tk = _Tokens(text)
    try:
        p = _parse_expr(tk)
    except RecursionError:
        raise ParseError("expression nested too deeply", text, tk.peek()[2]) from None
    t = tk.peek()
    if t[0] != "end":
        raise ParseError(f"unexpected '{t[1]}'", text, t[2])
    return p


def _parse_expr(tk: _Tokens) -> Poly:
    negate = False
    if tk.peek()[0] in ("+", "-"):
        negate = tk.next()[0] == "-"
    p = _parse_term(tk)
    if negate:
        p = -p
    while tk.peek()[0] in ("+", "-"):
        op = tk.next()[0]
        q = _parse_term(tk)
        p = p - q if op == "-" else p + q
    return p


def _parse_term(tk: _Tokens) -> Poly:
    p = _parse_factor(tk)
    while True:
        t = tk.peek()
        if t[0] == "*":
            tk.next()
            p = p * _parse_factor(tk)
        elif t[0] in ("name", "num", "("):
            # Adjacency such as "2i" or "3 z" multiplies implicitly.
            p = p * _parse_factor(tk)
        else:
            return p


def _parse_factor(tk: _Tokens) -> Poly:
    kind, val, pos = tk.next()
    if kind == "(":
        p = _parse_expr(tk)
        tk.expect(")")
        return _maybe_power(tk, p)
    if kind == "num":
        n, den = int(val), 1
        if tk.peek()[0] == "/":
            tk.next()
            dk, dv, dp = tk.expect("num")
            den = int(dv)
            if den == 0:
                raise ParseError("zero denominator", tk.text, dp)
        if tk.peek()[:2] == ("name", "i"):
            tk.next()
            return Poly.constant(_reduced(0, n, den))
        return Poly.constant(_reduced(n, 0, den))
    if kind == "name":
        if val == "i":
            return Poly.constant(_GR_I)
        return _maybe_power(tk, Poly.variable(val))
    raise ParseError(f"expected a factor, found '{val or 'end of input'}'", tk.text, pos)


def _maybe_power(tk: _Tokens, p: Poly) -> Poly:
    if tk.peek()[0] == "^":
        tk.next()
        _, ev, ep = tk.expect("num")
        return p ** int(ev)
    return p
