"""Ideal membership at the origin and restricted real-radical certificates.

Membership in ideals of germs is decided with a standard basis under a local
term order (anti-graded lex, so the constant monomial is the largest) and
Mora's normal form with the ecart rule.  All computations carry an explicit
reduction-step budget; exhausting it yields an honest "undecided", never a
wrong answer.  The normal form is the hot loop: inside it the remainder is
bucketed by degree, and coefficients are the coprime integer triples that
Gaussian rationals store, read on entry and wrapped on return without any
conversion.

The radical machinery implements four sound certificate rules (conjugation,
hermitian squares via an exact rational LDL* decomposition of the Gram
matrix, monomial roots via ascending power probes, and algebraic powers) and
iterates them to a fixpoint.  Certificates record enough context (probe
ideal snapshots, membership logs) for traces to be replayed and audited.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from .polyring import (
    GaussRational,
    Mono,
    Poly,
    _from_triple,
    canonical_str,
    display_key,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
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


def leading_monomial(p: Poly) -> Mono:
    return _lead_ecart(p.terms)[0]


def monic(p: Poly) -> Poly:
    """Scale so the display-leading coefficient is 1.

    Two polynomials are equal up to a nonzero scalar exactly when their
    monic forms are equal, so monic(p) is the key wherever that identity
    matters (radical closure, the multiplier ledger, kept row children).
    """
    if p.is_zero():
        return p
    c = p.terms[min(p.terms, key=display_key)]
    if c == GaussRational.one():
        return p
    return p.scale(GaussRational.one() / c)


# ---------------------------------------------------------------------------
# Mora weak normal form


def _reducer(lm: Mono, ecart: int, terms: dict) -> tuple:
    """(lm, ecart, tail) with every tail term divided by the lead coefficient.

    A tail term is the flat tuple (m0, m1, m2, m3, degree, a, b, d) of its
    exponents, its degree and its coefficient triple.
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


def nf_mora(f: Poly, basis: Sequence[Poly], budget: _Budget) -> Poly:
    """Weak normal form of f against basis under the local order.

    There is a local unit u with u*f = (combination of basis) + result; the
    result is 0 exactly when f lies in the ideal generated by basis in the
    localized ring.  Intermediate remainders join the reducer set (Mora's
    trick), which guarantees termination despite the local order.  Among the
    reducers whose leading monomial divides that of the remainder, the first
    of least ecart is used.

    Inside the loop the remainder is a map {degree: {monomial: coefficient}}.
    Its least degree holds the leading monomial (ties to the larger exponent
    tuple) and its degree spread is the ecart, so a step never scans the
    whole remainder.  A coefficient is the triple (a, b, d) its
    GaussRational stores, for (a + b*i)/d with d > 0 and gcd(a, b, d) = 1:
    it is read as it is on entry, every step keeps it in lowest terms, and
    the result wraps it as it is.  A reducer's tail is divided by its
    leading coefficient once, when it joins.  The triple is unique for its
    value and every operation on it is exact, so the result equals the one
    of GaussRational arithmetic term by term, step for step.
    """
    if f.is_zero():
        return f
    reducers = [
        _reducer(*_lead_ecart(g.terms), {m: (c.a, c.b, c.d) for m, c in g.terms.items()})
        for g in basis
    ]
    buckets: dict[int, dict[Mono, tuple[int, int, int]]] = {}
    for m, c in f.terms.items():
        buckets.setdefault(m[0] + m[1] + m[2] + m[3], {})[m] = (c.a, c.b, c.d)
    while buckets:
        low = min(buckets)
        lowest = buckets[low]
        lm_h = max(lowest)
        ecart_h = max(buckets) - low
        best = None
        for reducer in reducers:
            lm_g = reducer[0]
            if (lm_g[0] <= lm_h[0] and lm_g[1] <= lm_h[1]
                    and lm_g[2] <= lm_h[2] and lm_g[3] <= lm_h[3]
                    and (best is None or reducer[1] < best[1])):
                best = reducer
        if best is None:
            break
        budget.spend()
        lm_g, ecart_g, tail = best
        if ecart_g > ecart_h:
            snapshot = {m: c for bucket in buckets.values() for m, c in bucket.items()}
            reducers.append(_reducer(lm_h, ecart_h, snapshot))
        # Subtract c_h * x^shift * tail; the leading terms cancel exactly.
        a, b, d = lowest.pop(lm_h)
        if not lowest:
            del buckets[low]
        s0, s1, s2, s3 = mono_div(lm_h, lm_g)
        shift = low - mono_degree(lm_g)
        for m0, m1, m2, m3, dg, p, q, e in tail:
            m = (m0 + s0, m1 + s1, m2 + s2, m3 + s3)
            bucket = buckets.setdefault(dg + shift, {})
            x, y, den_old = bucket.get(m, (0, 0, 1))
            re, im, den = a * p - b * q, a * q + b * p, d * e
            k = gcd(den_old, den)
            u, v = den // k, den_old // k
            x, y, den = x * u - re * v, y * u - im * v, den_old * u
            if x or y:
                k = gcd(x, y, den)
                bucket[m] = (x // k, y // k, den // k)
            else:
                del bucket[m]
                if not bucket:
                    del buckets[dg + shift]
    return Poly({
        m: _from_triple(*c) for bucket in buckets.values() for m, c in bucket.items()
    })


def _spoly(f: Poly, g: Poly) -> Poly:
    mf, mg = leading_monomial(f), leading_monomial(g)
    gamma = mono_lcm(mf, mg)
    left = Poly.monomial(GaussRational.one() / f.terms[mf], mono_div(gamma, mf)) * f
    right = Poly.monomial(GaussRational.one() / g.terms[mg], mono_div(gamma, mg)) * g
    return left - right


def _buchberger(gens: Sequence[Poly], budget: _Budget) -> list[Poly]:
    basis = [p for p in gens if not p.is_zero()]
    leads = [leading_monomial(p) for p in basis]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]

    def pair_key(ij):
        lcm = mono_lcm(leads[ij[0]], leads[ij[1]])
        return (mono_degree(lcm), lcm)

    while pairs:
        pairs.sort(key=pair_key)
        i, j = pairs.pop(0)
        mi, mj = leads[i], leads[j]
        if mono_lcm(mi, mj) == mono_mul(mi, mj):
            continue  # product criterion: coprime leading monomials
        h = nf_mora(_spoly(basis[i], basis[j]), basis, budget)
        if not h.is_zero():
            basis.append(h)
            leads.append(leading_monomial(h))
            pairs.extend((t, len(basis) - 1) for t in range(len(basis) - 1))
    return basis


def _minimalize(basis: list[Poly]) -> list[Poly]:
    # Among elements sharing a leading monomial, prefer the sparsest and
    # lowest-degree representative; tails of the discarded ones carry junk.
    ordered = sorted(
        basis,
        key=lambda p: (
            mono_degree(leading_monomial(p)),
            leading_monomial(p),
            len(p.terms),
            p.total_degree(),
        ),
    )
    kept: list[Poly] = []
    for p in ordered:
        lm = leading_monomial(p)
        if any(mono_divides(leading_monomial(q), lm) for q in kept):
            continue
        kept.append(p)
    return [monic(p) for p in kept]


def _strip_by_monomials(p: Poly, monos: Sequence[Mono], keep_leading: bool) -> Poly:
    """Drop terms divisible by a monomial known to generate part of the ideal.

    Dropping such a term subtracts an exact multiple of a single-term ideal
    element, so the result differs from p by ideal members.  Unlike general
    tail reduction under a local order this always terminates.
    """
    lead = leading_monomial(p) if keep_leading else None
    terms = {
        m: c
        for m, c in p.terms.items()
        if m == lead or not any(mono_divides(mm, m) for mm in monos)
    }
    if len(terms) == len(p.terms):
        return p
    return Poly(terms)


def _tail_strip(basis: list[Poly]) -> list[Poly]:
    """Erase tail terms divisible by single-term basis elements.

    Leading monomials are untouched, so the result is still a standard basis
    of the same ideal; the point is to keep tails from dragging high-degree
    junk into later seeded completions.  Stripping can expose new single-term
    elements, so the pass iterates until the term count stops dropping.
    """
    out = list(basis)
    while True:
        monos = [leading_monomial(g) for g in out if len(g.terms) == 1]
        if not monos:
            return out
        stripped = [
            g if len(g.terms) == 1 else _strip_by_monomials(g, monos, True)
            for g in out
        ]
        if sum(len(g.terms) for g in stripped) == sum(len(g.terms) for g in out):
            return stripped
        out = stripped


# ---------------------------------------------------------------------------
# Local ideals


class LocalIdeal:
    """Finitely generated ideal in the local ring at the origin.

    The standard basis is computed lazily and cached; once computed the
    object is immutable.  A basis of None means the step budget ran out and
    membership queries answer UNDECIDED.
    """

    def __init__(
        self,
        generators: Iterable[Poly],
        step_budget: int = DEFAULT_STEP_BUDGET,
        _seed: Optional[tuple[Poly, ...]] = None,
    ):
        # Exact duplicates collapse, keeping the first occurrence; scalar
        # multiples stay distinct generators.
        self.generators: tuple[Poly, ...] = tuple(
            dict.fromkeys(p for p in generators if not p.is_zero())
        )
        self.step_budget = step_budget
        self._seed = _seed
        self._basis: Optional[tuple[Poly, ...]] = None
        self._basis_failed = False

    @property
    def basis(self) -> Optional[tuple[Poly, ...]]:
        if self._basis is None and not self._basis_failed:
            start = self.generators if self._seed is None else self._seed
            try:
                computed = _buchberger(start, _Budget(self.step_budget))
                self._basis = tuple(_tail_strip(_minimalize(computed)))
            except BudgetExhausted:
                self._basis_failed = True
        return self._basis

    def membership(self, p: Poly, step_budget: Optional[int] = None) -> Membership:
        if p.is_zero():
            return Membership.YES
        basis = self.basis
        if basis is None:
            return Membership.UNDECIDED
        if step_budget is None:
            step_budget = self.step_budget
        try:
            nf = nf_mora(p, basis, _Budget(step_budget))
        except BudgetExhausted:
            return Membership.UNDECIDED
        return Membership.YES if nf.is_zero() else Membership.NO

    def reduce_modulo(self, p: Poly) -> Poly:
        """Best-effort reduction: returns p minus ideal elements, never None.

        The leading term is normalized with Mora's form and the tail is
        stripped against single-term basis elements.  On a missing basis or
        an exhausted budget the input (or a partial reduction) comes back
        unchanged, which is always a sound answer.
        """
        if p.is_zero() or self.basis is None:
            return p
        basis = self.basis
        try:
            h = nf_mora(p, basis, _Budget(self.step_budget))
        except BudgetExhausted:
            h = p
        if h.is_zero():
            return h
        monos = [leading_monomial(g) for g in basis if len(g.terms) == 1]
        if monos:
            h = _strip_by_monomials(h, monos, False)
        return h

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
        seed = None
        if self._basis is not None:
            seed = tuple(list(self._basis) + more)
        return LocalIdeal(list(self.generators) + more, self.step_budget, _seed=seed)

    def generator_strings(self) -> tuple[str, ...]:
        return tuple(canonical_str(g) for g in self.generators)

    def __repr__(self) -> str:
        inner = ", ".join(self.generator_strings())
        return f"LocalIdeal({inner})"


def _power_sweep(
    bases: dict[str, Poly],
    ideal: LocalIdeal,
    first: int,
    cap: int,
    step_budget: Optional[int] = None,
) -> tuple[Optional[int], list[str], dict[str, list[tuple[int, str]]]]:
    """Probe b^first, b^(first+1), ..., b^cap for every base b in lockstep.

    The first power at which any base lies in the ideal wins; it is returned
    with the cohort of bases that lie in the ideal at that power and the
    membership log of every base.  Probing cheapest-first keeps certificate
    orders (and hence the order ledger) as strong as the ideal allows.  An
    undecided membership retires its base: no certificate is ever issued on
    uncertain evidence.  step_budget bounds each membership query and
    defaults to the ideal's own budget.

    Before the sweep each base is probed once at b^cap, under at most
    PRUNE_BUDGET steps.  Since b^m in the ideal implies b^cap in it, a NO
    there is exact for every power and drops the base with the log
    [(cap, "no")]; a YES or an undecided answer leaves the sweep as it was.
    The bound keeps a costly YES at the cap from outweighing the sweep.
    """
    logs: dict[str, list[tuple[int, str]]] = {name: [] for name in bases}
    alive = list(bases)
    if first <= cap:
        budget = ideal.step_budget if step_budget is None else step_budget
        prune = min(PRUNE_BUDGET, budget)
        for name in bases:
            if ideal.membership(bases[name] ** cap, step_budget=prune) is Membership.NO:
                logs[name].append((cap, Membership.NO.value))
                alive.remove(name)
    powers = {name: bases[name] ** (first - 1) for name in alive}
    for m in range(first, cap + 1):
        cohort = []
        for name in list(alive):
            powers[name] = powers[name] * bases[name]
            answer = ideal.membership(powers[name], step_budget=step_budget)
            logs[name].append((m, answer.value))
            if answer is Membership.YES:
                cohort.append(name)
            elif answer is Membership.UNDECIDED:
                alive.remove(name)
        if cohort:
            return m, cohort, logs
        if not alive:
            break
    return None, [], logs


def min_algebraic_radical_order(g: Poly, ideal: LocalIdeal, cap: int) -> Optional[int]:
    """Smallest m <= cap with g**m in the ideal, or None."""
    return _power_sweep({"g": g}, ideal, 1, cap)[0]


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
        if d.im:
            return None
        if d.re < 0:
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
        check = check + (row * row.conj()).scale(GaussRational.of(weight))
    if check != p:
        raise AssertionError("LDL* reconstruction mismatch")
    return rows


# ---------------------------------------------------------------------------
# Radical certificates


@dataclass(frozen=True)
class RadicalCertificate:
    """One sound step of real-radical closure.

    order is the certificate order (the exponent in the defining inequality
    |element|^order <= C * |witness data| near the origin); rule is one of
    conjugation, hermitian-square, monomial-root, algebraic-power.  source
    is the polynomial whose multiplier order the new element inherits from
    (None for rules whose bound runs through the whole ideal).  Probe rules
    keep a snapshot of the ideal they ran against and the per-power
    membership log, so traces can be audited and replayed.
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


def radical_extend(
    ideal: LocalIdeal,
    order_cap: int = DEFAULT_ORDER_CAP,
    power_candidates: Sequence[Poly] = (),
    probe_budget: int = PROBE_BUDGET,
) -> list[RadicalCertificate]:
    """Certified elements of the restricted real radical of the ideal.

    Passes over four rules until a pass commits nothing: (1) monomial-root
    probes commit the cheapest available variable powers first; (2)
    conjugates of known elements join at order 1 (a conjugate of an ideal
    element is always in the real radical, so no membership pre-check is
    needed); (3) real elements that decompose into hermitian squares
    contribute their rows at order 2 (2e after rebalancing a pure power
    v^e); (4) explicit power candidates g with g(0) = 0 whose smallest power
    m <= order_cap lies in the ideal join at order 2m via Cauchy-Schwarz.
    An element is new when its monic form is not yet known.  Probes run
    under their own smaller budget so a hopeless high-power sweep degrades
    to an honest "undecided" quickly.

    The known set only grows, so revisiting an element could never commit
    anything: rules (2) and (3) visit each element once, in order, through
    one cursor each.  The loop ends because every pass but the last commits
    something and only finitely many commits are possible.  Monomial roots
    commit at most the two variables; each power candidate is swept once;
    each element has one conjugate; and only conj-symmetric elements
    decompose, into finitely many rows.  Beyond the generators and the
    candidates no committed element is conj-symmetric unless it is a
    constant, whose only row 1 is already known: a conjugate q' of q with
    q' != q is not, and rows, rebalanced rows and roots are holomorphic.
    """
    work: list[Poly] = list(ideal.generators)
    keys: set[Poly] = {monic(p) for p in work}
    certificates: list[RadicalCertificate] = []
    used_candidates: set[Poly] = set()
    conj_cursor = square_cursor = 0
    current = ideal  # reuse its cached standard basis across commits

    def commit(cert: RadicalCertificate) -> None:
        nonlocal current
        certificates.append(cert)
        work.append(cert.element)
        keys.add(monic(cert.element))
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
        current = current.with_extra([monic(chosen)])

    changed = True
    while changed:
        changed = False

        # Variables are monic, so each is its own key.
        pending = {v: Poly.variable(v) for v in VARIABLES if Poly.variable(v) not in keys}
        if pending:
            m, cohort, logs = _power_sweep(pending, current, 1, order_cap, probe_budget)
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
            if qc == q or monic(qc) in keys:
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
            if not q.is_conj_symmetric():
                continue
            for _weight, row in hermitian_square_rows(q) or ():
                if monic(row) not in keys:
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
                    if monic(reduced) in keys:
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

        for g in power_candidates:
            gkey = monic(g)
            if gkey in keys or gkey in used_candidates:
                continue
            if not g.constant_term().is_zero():
                continue
            if current.membership(g) is Membership.YES:
                continue
            found, _, logs = _power_sweep({"g": g}, current, 2, order_cap)
            used_candidates.add(gkey)
            if found is None:
                continue
            snapshot = current.generator_strings()
            commit(RadicalCertificate(
                element=g,
                order=2 * found,
                rule="algebraic-power",
                witness=f"g^{found} = sum a_i*f_i in the ideal; Cauchy-Schwarz gives "
                        f"|g|^{2*found} <= (sum|a_i|^2)(sum|f_i|^2)",
                probe_ideal=snapshot,
                probe_log=tuple(logs["g"]),
            ))
            changed = True

    return certificates
