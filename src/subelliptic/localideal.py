"""Ideal membership at the origin and restricted real-radical certificates.

Membership in ideals of germs is decided with a standard basis under a local
term order (anti-graded lex, so the constant monomial is the largest) and
Mora's normal form with the ecart rule.  Every computation carries a
reduction-step budget, one module constant per kind of question, read when
the query runs; running out yields an honest "undecided", never a wrong
answer.  Each question passes its work, nf_mora or _buchberger, through one
gate, _bounded, which makes the budget and reads its exhaustion as None:

    DEFAULT_STEP_BUDGET  standard bases, ordinary memberships, reduce_modulo
    PROBE_BUDGET         a power sweep's questions b^m in I
    PRUNE_BUDGET         a power sweep's cap prune: the standard basis of
                         J = I + conj(I), the cone question (does a
                         dimension count put conj(b)^cap outside J's
                         tangent cone?), and the question conj(b)^cap in J

The normal form is the hot loop: inside it the remainder is bucketed by
degree, and coefficients are coprime integer triples, which is what a
Gaussian rational is, so a Poly's term map goes in as it is.  A standard
basis is its reducers: each monic element as its leading monomial, its
ecart and its tail of triples.  Generators are prepared once, and
completion, minimalization and tail stripping all run on the reducers, so
a finished basis is never prepared again and a membership query pays no
setup.  Completion builds each S-polynomial as a triple map straight from
two tails, so no GaussRational is made on the way.  The normal form copies
the reducer list only when a remainder first joins it (Mora's trick), so
most reductions copy nothing.  A remainder becomes a Poly only where a
caller needs one.

The radical machinery implements three sound certificate rules
(conjugation, hermitian squares via an exact rational LDL* decomposition of
the Gram matrix, and monomial roots via ascending power probes) and iterates
them to a fixpoint (radical_extend).  A power sweep may rule a base out on
the conjugate side, exactly (_power_sweep).  Certificates record enough
context (probe ideal snapshots, membership logs) for traces to be audited.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Optional, Sequence

from .polyring import (
    GaussRational,
    Mono,
    Poly,
    _from_triple,
    canonical_str,
    display_key,
    mono_degree,
    mono_divides,
)

DEFAULT_STEP_BUDGET = 100_000
PROBE_BUDGET = 20_000
PRUNE_BUDGET = 1_000
DEFAULT_ORDER_CAP = 32

VARIABLES = ("z", "w")


class Membership(enum.Enum):
    YES = "yes"
    NO = "no"
    UNDECIDED = "undecided"


class BudgetExhausted(Exception):
    """Raised internally when the reduction-step budget runs out."""


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, steps: int):
        self.remaining = steps

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExhausted


def _bounded(steps: int, work, *args):
    """work(*args, budget) under a fresh budget of steps, or None past it.

    The one place that makes a _Budget and catches BudgetExhausted.  Callers
    pass the module's nf_mora or _buchberger as they find it when they ask,
    so a wrapper set on the module sees every bounded call.
    """
    try:
        return work(*args, _Budget(steps))
    except BudgetExhausted:
        return None


# ---------------------------------------------------------------------------
# Local term order: lower total degree wins, ties by lex on exponents.


def _lead_ecart(terms) -> tuple[Mono, int]:
    """(leading monomial, ecart) of a nonempty term map, in one pass.

    The leading monomial has the least degree, ties going to the larger
    exponent tuple; the ecart is the total degree minus that least degree.
    """
    if not terms:
        raise ValueError("the zero polynomial has no leading monomial")
    lm = next(iter(terms))
    low = high = lm[0] + lm[1] + lm[2] + lm[3]
    for m in terms:
        d = m[0] + m[1] + m[2] + m[3]
        if d < low or (d == low and m > lm):
            lm, low = m, d
        elif d > high:
            high = d
    return lm, high - low


# ---------------------------------------------------------------------------
# Mora weak normal form


def _reducer(lm: Mono, ecart: int, terms: dict) -> tuple:
    """(lm, ecart, tail) with every tail term divided by the lead coefficient.

    A tail term is the flat tuple (m0, m1, m2, m3, degree, a, b, d) of its
    exponents, its degree and its coefficient triple.  The reducer thus
    stands for the element p.monic() of the polynomial p with these terms.
    """
    p, q, e = terms[lm]
    norm = p * p + q * q
    tail = []
    for m, (a, b, d) in terms.items():
        if m != lm:
            # (a + b*i)/d * e/(p + q*i) = e*(a + b*i)*(p - q*i) / (d*norm)
            re, im, den = e * (a * p + b * q), e * (b * p - a * q), d * norm
            k = gcd(re, im, den)
            tail.append((*m, m[0] + m[1] + m[2] + m[3], re // k, im // k, den // k))
    return lm, ecart, tail


def _prepare(polys: Iterable[Poly]) -> list[tuple]:
    """The reducer of each nonzero polynomial, in order, ready for nf_mora."""
    return [_reducer(*_lead_ecart(g.terms), g.terms) for g in polys if not g.is_zero()]


def _as_poly(remainder: dict) -> Poly:
    """The Poly of a remainder map {monomial: (a, b, d)} that nf_mora returns."""
    return Poly._of({m: _from_triple(*c) for m, c in remainder.items()})


def nf_mora(f: dict, reducers: Sequence[tuple], budget: _Budget) -> dict:
    """Weak normal form of f against a basis under the local order.

    f is a term map {monomial: (a, b, d)}: a Poly's terms, whose
    GaussRational coefficients are such triples, or a remainder.  The basis
    comes as its reducers and the result is again a triple map; _as_poly
    turns it into a Poly where one is needed.  There is a local unit u with
    u*f = (combination of basis) + result; the result is empty exactly
    when f lies in the ideal generated by the basis in the localized ring.
    Intermediate remainders join the reducers (Mora's trick), which
    guarantees termination despite the local order.  The caller's list is
    never changed: it is copied on the first join, so a reduction that
    joins nothing copies nothing.  Among the reducers whose leading monomial
    divides that of the remainder, the first of least ecart is used.

    Inside the loop the remainder is a map {degree: {monomial: coefficient}}.
    Its least degree holds the leading monomial (ties to the larger exponent
    tuple) and its degree spread is the ecart, which is read only once a
    reducer divides the lead, so a step never scans the whole remainder.  A
    coefficient is the triple (a, b, d) that a GaussRational is, for
    (a + b*i)/d with d > 0 and gcd(a, b, d) = 1: every step keeps it in
    lowest terms, and the result returns it as it is.  A reducer's tail is
    divided by its leading coefficient once, when it is prepared or joins.
    The triple is unique for its value and every operation on it is exact,
    so the result equals the one of GaussRational arithmetic term by term,
    step for step.  A shifted tail term whose monomial is not in the
    remainder yet is stored as the negated product, brought to lowest terms,
    with no merge against a zero; the product of two nonzero coefficients is
    never zero.
    """
    joined = False
    buckets: dict[int, dict[Mono, tuple[int, int, int]]] = {}
    for m, c in f.items():
        dg = m[0] + m[1] + m[2] + m[3]
        bucket = buckets.get(dg)
        if bucket is None:
            bucket = buckets[dg] = {}
        bucket[m] = c
    while buckets:
        low = min(buckets)
        lowest = buckets[low]
        lm_h = max(lowest) if len(lowest) > 1 else next(iter(lowest))
        h0, h1, h2, h3 = lm_h
        best = None
        for reducer in reducers:
            lm_g = reducer[0]
            if (lm_g[0] <= h0 and lm_g[1] <= h1 and lm_g[2] <= h2 and lm_g[3] <= h3
                    and (best is None or reducer[1] < best[1])):
                best = reducer
        if best is None:
            break
        budget.spend()
        (g0, g1, g2, g3), ecart_g, tail = best
        ecart_h = max(buckets) - low
        if ecart_g > ecart_h:
            snapshot = {m: c for bucket in buckets.values() for m, c in bucket.items()}
            if not joined:
                reducers, joined = list(reducers), True
            reducers.append(_reducer(lm_h, ecart_h, snapshot))
        # Subtract c_h * x^shift * tail; the leading terms cancel exactly.
        a, b, d = lowest.pop(lm_h)
        if not lowest:
            del buckets[low]
        s0, s1, s2, s3 = h0 - g0, h1 - g1, h2 - g2, h3 - g3
        shift = low - g0 - g1 - g2 - g3
        for m0, m1, m2, m3, dg, p, q, e in tail:
            m = (m0 + s0, m1 + s1, m2 + s2, m3 + s3)
            dg += shift
            re, im, den = a * p - b * q, a * q + b * p, d * e
            bucket = buckets.get(dg)
            if bucket is None:
                bucket = buckets[dg] = {}
            old = bucket.get(m)
            if old is None:
                k = gcd(re, im, den)
                bucket[m] = (-re // k, -im // k, den // k)
                continue
            x, y, den_old = old
            k = gcd(den_old, den)
            u, v = den // k, den_old // k
            x, y, den = x * u - re * v, y * u - im * v, den_old * u
            if x or y:
                k = gcd(x, y, den)
                bucket[m] = (x // k, y // k, den // k)
            else:
                del bucket[m]
                if not bucket:
                    del buckets[dg]
    return {m: c for bucket in buckets.values() for m, c in bucket.items()}


def _spoly(f: tuple, g: tuple) -> dict:
    """The S-polynomial of two reducers, as the triple map nf_mora reads.

    Both elements are monic, so their leading terms, shifted to the lcm of
    the leading monomials, cancel, and the shifted tails are what is left:
    f's tail, then g's tail subtracted from it.  The tails are triples in
    lowest terms and monomials within one tail are distinct, so only a
    monomial that both tails reach needs a merge, with one gcd like every
    sum in nf_mora; a merge to zero drops the term.
    """
    (f0, f1, f2, f3), _, f_tail = f
    (g0, g1, g2, g3), _, g_tail = g
    l0, l1, l2, l3 = max(f0, g0), max(f1, g1), max(f2, g2), max(f3, g3)
    s0, s1, s2, s3 = l0 - f0, l1 - f1, l2 - f2, l3 - f3
    terms = {(m0 + s0, m1 + s1, m2 + s2, m3 + s3): (a, b, d)
             for m0, m1, m2, m3, _, a, b, d in f_tail}
    s0, s1, s2, s3 = l0 - g0, l1 - g1, l2 - g2, l3 - g3
    for m0, m1, m2, m3, _, a, b, d in g_tail:
        m = (m0 + s0, m1 + s1, m2 + s2, m3 + s3)
        old = terms.get(m)
        if old is None:
            terms[m] = (-a, -b, d)
            continue
        x, y, e = old
        k = gcd(e, d)
        u, v = d // k, e // k
        x, y, den = x * u - a * v, y * u - b * v, e * u
        if x or y:
            k = gcd(x, y, den)
            terms[m] = (x // k, y // k, den // k)
        else:
            del terms[m]
    return terms


def _buchberger(reducers: Sequence[tuple], budget: _Budget) -> list[tuple]:
    """Standard basis of the ideal the reducers generate, as reducers.

    The given reducers come first, then those of the nonzero remainders;
    no element is ever a Poly on the way, and S-polynomials are triple maps
    built from the reducers' tails (_spoly).  Pairs are treated by least lcm
    of their leading monomials (degree first, then exponents), ties in the
    order they were formed.  The queue is a heap keyed by (degree, lcm,
    index of formation), which pops them in the order a stable sort of the
    pending pairs would list them.  A pair with coprime leading monomials
    never enters it (the product criterion: its S-polynomial reduces to
    zero).  The index counts only the pairs that enter and still grows with
    each, so they pop in the order they would if the coprime pairs had
    entered too and been skipped on the way out.
    """
    reducers = list(reducers)
    pairs: list[tuple[int, Mono, int, int, int]] = []
    formed = itertools.count()

    def push(i: int, j: int) -> None:
        (a0, a1, a2, a3), (b0, b1, b2, b3) = reducers[i][0], reducers[j][0]
        if not (a0 and b0 or a1 and b1 or a2 and b2 or a3 and b3):
            return
        lcm = (max(a0, b0), max(a1, b1), max(a2, b2), max(a3, b3))
        heapq.heappush(pairs, (lcm[0] + lcm[1] + lcm[2] + lcm[3], lcm, next(formed), i, j))

    for i in range(len(reducers)):
        for j in range(i + 1, len(reducers)):
            push(i, j)
    while pairs:
        _, _, _, i, j = heapq.heappop(pairs)
        h = nf_mora(_spoly(reducers[i], reducers[j]), reducers, budget)
        if h:
            reducers.append(_reducer(*_lead_ecart(h), h))
            for t in range(len(reducers) - 1):
                push(t, len(reducers) - 1)
    return reducers


def _dimension(leads: Iterable[Mono]) -> int:
    """Dimension of the zero set of the monomial ideal the leads generate.

    That zero set is the union of the coordinate subspaces spanned by the
    sets S of variables that hold no lead's support, so its dimension is
    the size of the largest such S: 4 without leads, -1 for a constant lead.
    """
    supports = {sum(1 << v for v in range(4) if m[v]) for m in leads}
    return max(
        (s.bit_count() for s in range(16) if all(t & ~s for t in supports)), default=-1
    )


def _minimalize(reducers: list[tuple]) -> list[tuple]:
    # Among elements sharing a leading monomial, prefer the sparsest and
    # lowest-degree representative (least ecart); tails of the discarded ones
    # carry junk.
    ordered = sorted(reducers, key=lambda r: (mono_degree(r[0]), r[0], len(r[2]), r[1]))
    kept: list[tuple] = []
    for r in ordered:
        if not any(mono_divides(k[0], r[0]) for k in kept):
            kept.append(r)
    return kept


def _tail_strip(reducers: list[tuple]) -> list[tuple]:
    """Erase tail terms divisible by single-term basis elements.

    Dropping such a term subtracts an exact multiple of a single-term ideal
    element, so leading monomials stay and the result is still a standard
    basis of the same ideal; the point is to keep tails from dragging
    high-degree junk into later seeded completions.  The ecart is recomputed
    from what is left.  A pass leaves no tail term that a single-term
    element it strips with divides, so another pass is due only when this
    one emptied a tail: that element is a new single-term one, and the next
    pass strips with the new ones alone.  The loop ends when a pass empties
    no tail, at the fixpoint where no tail term is divisible by any
    single-term element.
    """
    out = reducers
    monos = [lm for lm, _, tail in out if not tail]
    while monos:
        stripped, emptied = [], []
        for lm, ecart, tail in out:
            kept = [t for t in tail if not any(mono_divides(mm, t[:4]) for mm in monos)]
            if len(kept) < len(tail):
                if kept:
                    ecart = max(t[4] for t in kept) - mono_degree(lm)
                else:
                    ecart = 0
                    emptied.append(lm)
            stripped.append((lm, ecart, kept))
        out, monos = stripped, emptied
    return out


# ---------------------------------------------------------------------------
# Local ideals


class LocalIdeal:
    """Finitely generated ideal in the local ring at the origin.

    The standard basis is its reducers (lm, ecart, tail), the form nf_mora
    reads, so a membership query pays no setup.  The first read of basis
    completes, minimalizes and tail-strips it and keeps the result; once
    computed the object is immutable.  A basis of None means its budget ran
    out, and membership queries then answer UNDECIDED.
    """

    def __init__(
        self,
        generators: Iterable[Poly],
        _seed: Optional[list[tuple]] = None,
    ):
        # Exact duplicates collapse, keeping the first occurrence; scalar
        # multiples stay distinct generators.
        self.generators: tuple[Poly, ...] = tuple(
            dict.fromkeys(p for p in generators if not p.is_zero())
        )
        self._seed = _seed

    @property
    def basis(self) -> Optional[list[tuple]]:
        # Completion runs on the first read, which sets the _basis attribute.
        if "_basis" not in vars(self):
            self._basis = self._complete(DEFAULT_STEP_BUDGET)
        return self._basis

    def _complete(self, steps: int) -> Optional[list[tuple]]:
        """The completed, minimal, tail-stripped basis, or None past steps."""
        start = _prepare(self.generators) if self._seed is None else self._seed
        completed = _bounded(steps, _buchberger, start)
        return None if completed is None else _tail_strip(_minimalize(completed))

    def membership(self, p: Poly, step_budget: Optional[int] = None) -> Membership:
        if p.is_zero():
            return Membership.YES
        steps = DEFAULT_STEP_BUDGET if step_budget is None else step_budget
        nf = None if self.basis is None else _bounded(steps, nf_mora, p.terms, self.basis)
        if nf is None:
            return Membership.UNDECIDED
        return Membership.NO if nf else Membership.YES

    def outside_cone(self, p: Poly) -> bool:
        """True when the single term p = c*m lies outside the tangent cone.

        The tangent cone in(J) of this ideal J is the ideal of the
        lowest-degree forms of J's elements; True proves p outside J, since
        p in J would put in(p) = p in in(J).  The answer is False when p is
        not a single term, when there is no basis, when no lead of the basis
        divides m (membership then answers NO at no cost), or when m is
        divided by a basis element whose lowest form is its lead alone (p
        then lies in the cone).

        Otherwise a dimension count answers.  Let f be the product of the
        variables in m.  If p were in in(J), then f, whose power f^deg(m) is
        a multiple of m, would lie in the radical of in(J), so V(in(J) + (f))
        = V(in(J)).  So a dimension of in(J) + (f) below that of in(J) gives
        True.  The cone's reducers are the basis with each tail cut to the
        terms of its lead's degree, a Groebner basis of in(J) under the
        graded order.  Both ideals are homogeneous, and on homogeneous
        reducers every step stays in one degree, where the local order is
        lex, so _buchberger of the cone's reducers and f is one of
        in(J) + (f).  For a homogeneous ideal and a graded order the
        dimension is that of the leading monomials (Cox-Little-O'Shea,
        Ideals, Varieties, and Algorithms, ch. 9 sec. 3), which _dimension
        reads.  Equal dimensions prove nothing and answer False, as does a
        completion past PRUNE_BUDGET steps.
        """
        basis = self.basis
        if basis is None or len(p.terms) != 1:
            return False
        (m,) = p.terms
        divisors = [(lm, tail) for lm, _, tail in basis if mono_divides(lm, m)]
        if not divisors or any(all(t[4] > mono_degree(lm) for t in tail) for lm, tail in divisors):
            return False
        cone = [(lm, 0, [t for t in tail if t[4] == mono_degree(lm)]) for lm, _, tail in basis]
        f = tuple(min(e, 1) for e in m)
        completed = _bounded(PRUNE_BUDGET, _buchberger, cone + [(f, 0, [])])
        return completed is not None and (
            _dimension(lm for lm, _, _ in completed) < _dimension(lm for lm, _, _ in basis)
        )

    def reduce_modulo(self, p: Poly) -> Poly:
        """Best-effort reduction: returns p minus ideal elements, never None.

        The leading term is normalized with Mora's form and the tail is
        stripped against single-term basis elements.  On a missing basis the
        input comes back as it is.  When the normal form runs out of its
        budget its partial remainder is lost, and the input comes back with
        only the terms divisible by single-term basis elements stripped.
        Either way the result differs from p by an ideal element, which is
        always a sound answer.
        """
        if p.is_zero() or self.basis is None:
            return p
        h = _bounded(DEFAULT_STEP_BUDGET, nf_mora, p.terms, self.basis)
        if h is None:
            h = p.terms
        monos = [lm for lm, _, tail in self.basis if not tail]
        return _as_poly({
            m: c for m, c in h.items() if not any(mono_divides(mm, m) for mm in monos)
        })

    def unit_witness(self) -> Optional[Poly]:
        """The first generator that is a unit, or None for a proper ideal."""
        # The local ring has a unique maximal ideal, so the ideal is the
        # whole ring exactly when some generator has a nonzero constant term
        # (otherwise every element vanishes at the origin).
        for g in self.generators:
            if not g.constant_term().is_zero():
                return g
        return None

    def with_extra(self, more: Iterable[Poly]) -> "LocalIdeal":
        """Extend by new generators, reusing the computed basis as a seed.

        Seeding Buchberger with an already-completed basis plus the new
        generators produces a standard basis of the enlarged ideal without
        rediscovering the old reductions.
        """
        more = list(more)
        basis = vars(self).get("_basis")
        seed = None if basis is None else basis + _prepare(more)
        return LocalIdeal(list(self.generators) + more, _seed=seed)

    def generator_strings(self) -> tuple[str, ...]:
        return tuple(canonical_str(g) for g in self.generators)

    def __repr__(self) -> str:
        inner = ", ".join(self.generator_strings())
        return f"LocalIdeal({inner})"


def _conjugate_closure(ideal: LocalIdeal) -> LocalIdeal:
    """I + conj(I): the ideal extended by the conjugates of its generators.

    Only the conjugates that are not generators already join, and an ideal
    that holds all of them comes back as it is, so it builds no second
    standard basis.
    """
    conjugates = (g.conj() for g in ideal.generators)
    missing = [c for c in conjugates if c not in ideal.generators]
    return ideal.with_extra(missing) if missing else ideal


def _power_sweep(
    bases: dict[str, Poly], ideal: LocalIdeal, cap: int
) -> tuple[Optional[int], list[str], dict[str, list[tuple[int, str]]], list[str]]:
    """Probe b, b^2, b^3, ..., b^cap for every base b in lockstep.

    The first power at which any base lies in the ideal wins; it is returned
    with the cohort of bases that lie in the ideal at that power, the
    membership log of every base and the bases that the cap probe dropped.
    Probing cheapest-first keeps certificate orders (and hence the order
    ledger) as strong as the ideal allows.  An undecided membership retires
    its base: no certificate is ever issued on uncertain evidence.  Each
    question runs under its budget in the module docstring's table.

    When neither b nor b^2 wins, each base still alive is probed once at the
    cap before the sweep goes on from b^3.  The probe asks whether
    conj(b)^cap lies in J = I + conj(I), which is built once, here, and is I
    itself when I holds the conjugate of every generator.  A J basis that
    runs out makes every answer undecided.  Conjugation is a ring
    automorphism of the local ring and conj(J) = J, so a NO means that b^cap
    lies outside J, hence outside every ideal inside J, I among them.  Since
    b^m in an ideal implies b^cap in it, the NO is exact for every lower
    power too and drops the base, whose log ends with (cap, "no").  Before
    J is asked, the sweep asks the cheaper cone question
    J.outside_cone(conj(b)^cap) of J's tangent cone; for a variable base
    conj(b)^cap is one term, and a dimension count on the cone answers it.
    True proves conj(b)^cap outside J, the same exact NO, and J is not
    asked at all.  False proves nothing, and J is asked as before.
    A YES or an undecided answer from J leaves the base alive, and the
    sweep goes on as it was.  The conjugate side is cheap where the local
    order's tie-break picks z over zb as a lead: conj(b)^cap is
    antiholomorphic and such a lead never divides it.  PRUNE_BUDGET keeps
    a costly J or a costly YES at the cap from outweighing the sweep, and
    the two low powers spare the cap probe wherever one of them wins.  When b^3 is b^cap itself the sweep
    asks it next anyway, so no cap probe is made.  A dropped base never
    joins a cohort, so the power, the cohort and the cohort's logs are those
    of the plain sweep.
    """
    logs: dict[str, list[tuple[int, str]]] = {name: [] for name in bases}
    alive = list(bases)
    dropped: list[str] = []
    for m in range(1, cap + 1):
        if m == 3 and m < cap:
            closure = _conjugate_closure(ideal)
            if closure is not ideal:
                closure._basis = closure._complete(PRUNE_BUDGET)
            for name in list(alive):
                power = (bases[name] ** cap).conj()
                if (closure.outside_cone(power)
                        or closure.membership(power, PRUNE_BUDGET) is Membership.NO):
                    logs[name].append((cap, Membership.NO.value))
                    alive.remove(name)
                    dropped.append(name)
        cohort = []
        for name in list(alive):
            answer = ideal.membership(bases[name] ** m, PROBE_BUDGET)
            logs[name].append((m, answer.value))
            if answer is Membership.YES:
                cohort.append(name)
            elif answer is Membership.UNDECIDED:
                alive.remove(name)
        if cohort:
            return m, cohort, logs, dropped
        if not alive:
            break
    return None, [], logs, dropped


# ---------------------------------------------------------------------------
# Hermitian square decomposition (exact rational LDL*)


def _hol_part(m: Mono) -> Mono:
    return (m[0], 0, m[2], 0)


def _antihol_conj(m: Mono) -> Mono:
    return (m[1], 0, m[3], 0)


def hermitian_square_rows(p: Poly) -> Optional[list[tuple[Fraction, Poly]]]:
    """Write p as a positive rational combination of hermitian squares.

    Every monomial z^a zb^b w^c wb^d factors uniquely as a holomorphic
    monomial times the conjugate of one, so a real p determines a unique
    Hermitian Gram matrix over the holomorphic monomials it involves.  The
    decomposition p = sum d_j * row_j * conj(row_j) with d_j > 0 rational
    exists iff that matrix is positive semidefinite, which the pivoted-free
    LDL* factorization decides exactly.  Returns None when p is not real or
    the matrix is not PSD.
    """
    if p.is_zero():
        return []
    if not p.is_conj_symmetric():
        return None
    cols: set[Mono] = set()
    for m in p.terms:
        cols.add(_hol_part(m))
        cols.add(_antihol_conj(m))
    order = sorted(cols, key=display_key)
    n = len(order)
    zero = GaussRational.zero()
    a = [
        [
            p.terms.get((order[s][0], order[t][0], order[s][2], order[t][2]), zero)
            for t in range(n)
        ]
        for s in range(n)
    ]
    rows: list[tuple[Fraction, Poly]] = []
    for j in range(n):
        d = a[j][j]
        if d.im or d.re < 0:
            return None
        if not d.re:
            if any(not a[i][j].is_zero() for i in range(j + 1, n)):
                return None
            continue
        terms = {order[j]: GaussRational.one()}
        for i in range(j + 1, n):
            coeff = a[i][j] / d
            if not coeff.is_zero():
                terms[order[i]] = coeff
        rows.append((d.re, Poly(terms)))
        for i in range(j + 1, n):
            for t in range(j + 1, n):
                a[i][t] = a[i][t] - (a[i][j] * a[t][j].conj()) / d
    check = Poly.zero()
    for weight, row in rows:
        check = check + (row * row.conj()).scale(GaussRational(weight))
    if check != p:
        raise AssertionError("LDL* reconstruction mismatch")
    return rows


# ---------------------------------------------------------------------------
# Radical certificates


class RadicalCertificate(NamedTuple):
    """One sound step of real-radical closure.

    order is the certificate order (the exponent in the defining inequality
    |element|^order <= C * |witness data| near the origin); rule is one of
    conjugation, hermitian-square, monomial-root.  source is the polynomial
    whose multiplier order the new element inherits from (None for a rule
    whose bound runs through the whole ideal).  A monomial root keeps a
    snapshot of the ideal it was probed against and the per-power membership
    log, so traces can be audited and replayed.
    """

    element: Poly
    order: int
    rule: str
    witness: str
    source: Optional[Poly] = None
    probe_ideal: Optional[tuple[str, ...]] = None
    probe_log: Optional[tuple[tuple[int, str], ...]] = None


def _rebalance(row: Poly) -> list[tuple[str, Poly, int]]:
    """Factor a hermitian-square row as v^e * q with e >= 2, per variable.

    When |v^e * q|^2 is bounded by a generator, so is |v * q|^(2e) up to a
    constant (the extra factors of q are bounded near the origin), which
    trades a deep monomial factor for a certificate of higher order.
    """
    splits: list[tuple[str, Poly, int]] = []
    a, _, c, _ = row.monomial_content()
    if a >= 2:
        splits.append(("z", row.divide_monomial((a - 1, 0, 0, 0)), a))
    if c >= 2:
        splits.append(("w", row.divide_monomial((0, 0, c - 1, 0)), c))
    return splits


class Closure(list):
    """The certificates of one radical closure, in commit order.

    ideal is the ideal the closure ended on: the input generators followed
    by every certificate element, with the standard basis the closure built
    for it (see radical_extend).  Without certificates it is the input
    ideal.  undecided is True when a sweep answered a probe undecided, or
    when the ideal's basis ran out: the closure may then miss certificates
    that larger budgets would find.
    """

    def __init__(self, ideal: LocalIdeal):
        super().__init__()
        self.ideal = ideal
        self.undecided = False


def radical_extend(
    ideal: LocalIdeal,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> Closure:
    """Certified elements of the restricted real radical of the ideal.

    Passes over three rules until a pass commits nothing: (1) monomial-root
    probes commit the cheapest available variable powers first; (2)
    conjugates of known elements join at order 1 (a conjugate of an ideal
    element is always in the real radical, so no membership pre-check is
    needed); (3) real elements that decompose into hermitian squares
    contribute their rows at order 2 (2e after rebalancing a pure power
    v^e).  An element is new when its monic form is not yet known.
    Monomial-root probes sweep through _power_sweep, under the budgets of
    the module docstring's table, so a hopeless high-power sweep degrades
    to an honest "undecided" quickly; such an answer, like a basis that ran
    out, marks the closure undecided.  The sweep tries the two lowest powers
    before a probe at order_cap may drop a base, so a root that lies in the
    ideal at one of those powers never pays for the probe at order_cap.

    A variable v that a sweep drops stays out of later sweeps for as long as
    every commit since has been a conjugation certificate; any other commit
    lets it back in.  The drop means that v^cap lies outside J = I + conj(I)
    for the swept ideal I, and conj(J) = J:
    - the current ideal starts inside J and holds every element of work, so
      the conjugate of an element of work lies in J and it stays inside J;
    - hence v^m lies outside the current ideal for every m <= order_cap;
    - so v could never join a cohort, and leaving it out changes no power,
      cohort, log or certificate.

    The known set only grows, so revisiting an element could never commit
    anything: rules (2) and (3) visit each element once, in order, through
    one cursor each.  The loop ends because every pass but the last commits
    something and only finitely many commits are possible.  Monomial roots
    commit at most the two variables; each element has one conjugate; and
    only conj-symmetric elements decompose, into finitely many rows.  Beyond
    the generators no committed element is conj-symmetric unless it is a
    constant, whose only row 1 is already known: a conjugate q' of q with
    q' != q is not, and rows, rebalanced rows and roots are holomorphic.

    The result's ideal is the input ideal I plus (e_1, ..., e_n), where e_i
    are the certificate elements, generated by I's generators and the e_i
    and carrying the standard basis of the current ideal the closure ended
    on.  Both are the same ideal: each commit adds e_i.monic() or
    reduce_modulo(e_i).monic() to the current ideal, or nothing when e_i
    reduces to zero.  The reduction equals u*e_i minus an element of the
    current ideal for a local unit u, so either generator, like the zero
    case, gives current + (e_i).  The current ideal starts as I, so by
    induction it ends as I + (e_1, ..., e_n).
    """
    work: list[Poly] = list(ideal.generators)
    keys: set[Poly] = {p.monic() for p in work}
    certificates = Closure(ideal)
    conj_cursor = square_cursor = 0
    current = ideal  # reuse its cached standard basis across commits
    ruled_out: set[str] = set()  # dropped by J since the last non-conjugate commit

    def commit(cert: RadicalCertificate) -> None:
        nonlocal current
        if cert.rule != "conjugation":
            ruled_out.clear()
        certificates.append(cert)
        work.append(cert.element)
        keys.add(cert.element.monic())
        # The element and its reduction differ by members of the current
        # ideal, so either may stand in for the other as a new generator.
        # Committing the smaller of the two keeps standard bases from
        # swallowing high-degree tails; a reduction to zero means the element
        # is already inside and no rebuild is due at all.
        reduced = current.reduce_modulo(cert.element)
        if reduced.is_zero():
            return
        size = lambda p: (len(p.terms), p.total_degree())
        chosen = reduced if size(reduced) < size(cert.element) else cert.element
        current = current.with_extra([chosen.monic()])

    changed = True
    while changed:
        changed = False

        # Variables are monic, so each is its own key.
        pending = {
            v: Poly.variable(v)
            for v in VARIABLES
            if v not in ruled_out and Poly.variable(v) not in keys
        }
        m, cohort, logs, dropped = _power_sweep(pending, current, order_cap)
        ruled_out.update(dropped)
        certificates.undecided |= "undecided" in {a for log in logs.values() for _, a in log}
        if m is not None:
            snapshot = current.generator_strings()
            for v in cohort:
                commit(RadicalCertificate(
                    element=Poly.variable(v),
                    order=m,
                    rule="monomial-root",
                    witness=f"{v}^{m} reduces to 0 against the ideal; "
                            f"|{v}|^{m} <= C*sum|generators| near 0",
                    probe_ideal=snapshot,
                    probe_log=tuple(logs[v]),
                ))
            changed = True

        while conj_cursor < len(work):
            q = work[conj_cursor]
            conj_cursor += 1
            qc = q.conj()
            if qc == q or qc.monic() in keys:
                continue
            commit(RadicalCertificate(
                element=qc,
                order=1,
                rule="conjugation",
                witness="|conjugate(q)| = |q| pointwise",
                source=q,
            ))
            changed = True

        while square_cursor < len(work):
            q = work[square_cursor]
            square_cursor += 1
            for _weight, row in hermitian_square_rows(q) or ():
                if row.monic() not in keys:
                    commit(RadicalCertificate(
                        element=row,
                        order=2,
                        rule="hermitian-square",
                        witness="generator is a positive combination of hermitian "
                                "squares including |row|^2, so |row|^2 <= C*generator",
                        source=q,
                    ))
                    changed = True
                for v, reduced, e in _rebalance(row):
                    if reduced.monic() in keys:
                        continue
                    commit(RadicalCertificate(
                        element=reduced,
                        order=2 * e,
                        rule="hermitian-square",
                        witness=f"row factors as {v}^{e}*q, and |{v}*q|^{2*e} <= "
                                f"C*|{v}^{e}*q|^2 <= C'*generator near 0",
                        source=q,
                    ))
                    changed = True

    if certificates:
        certificates.ideal = LocalIdeal(work)  # the generators, then the elements
        certificates.ideal._basis = current.basis
    certificates.undecided |= certificates.ideal.basis is None
    return certificates
