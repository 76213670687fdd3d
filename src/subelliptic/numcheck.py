"""Floating-point sampling checks for the analytic side of the engine.

The symbolic chain certifies orders exactly; what it cannot certify is the
pointwise inequalities its hypotheses assert near the origin (domination of
the g-derivatives by the f-derivatives, pseudoconvexity of the boundary).
This module samples those inequalities on seeded polydiscs and
cross-validates the symbolic Levi determinant against finite differences.
Every float these checks read comes from one evaluator, `_evaluate_columns`,
which takes a polynomial at up to _BLOCK points a call, row by row and cell
by cell, each cell in one pass over whole columns.  Between cells it shares
only exact values (a zeroth power is 1+0j; a row's leading w-free sum is
the same in every column), so a check reads the same floats, bit for bit,
whatever the block size.  A block that overflows is evaluated again one
point at a time (`_by_point`), so that only the points that overflow alone
are lost.  Reports are deterministic for a fixed seed, never override a
symbolic result, and at most gate whether the effective chain may call its
hypothesis verified.

A sample that bounds nothing counts against the hypothesis: in
`sample_hypo` a point whose ||g_w||^2 is not a number, degenerate or not,
and one whose evaluation overflows, has an infinite ratio.  What the
degenerate count of a report means is decided in one place,
`skipped_points`.  Every float these checks put in a --json artifact goes
through `domain.spell_inf`, which writes +-inf as "infinity" or "-infinity".
"""

from __future__ import annotations

import math
import random
from itertools import islice, repeat
from operator import add, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .domain import DomainError, DomainSpec, expand_r, spell_inf
from .polyring import Mono, Poly

DEGENERATE_TOL = 1e-14
FIXED_POINT_TOL = 1e-12
FINITE_DIFF_STEP = 1e-4
FIXED_POINT_CAP = 100
HYPO_GATE = 0.99
# Points per `_evaluate_columns` call: long enough that a cell's work on a
# column outweighs the loops around it, short enough that the finite
# differences' 25 columns of r stay small at any sample count.
_BLOCK = 256


class BoundarySolveError(DomainError):
    """The boundary solve did not converge: the sample radius is too large."""


def _divergence(radius: float) -> BoundarySolveError:
    return BoundarySolveError(
        f"solving 2*Re(z) = -(|f|^2 - |g|^2) did not converge in "
        f"{FIXED_POINT_CAP} iterations at radius {radius}; "
        f"retry with a smaller radius"
    )


class _SampleFields(NamedTuple):
    radius: float
    n_samples: int
    seed: int
    delta_hat: Optional[float] = None
    min_lambda_on_boundary: Optional[float] = None
    degenerate: int = 0
    violations: Optional[list] = None


class SampleReport(_SampleFields):
    """Outcome of one sampling pass; fields unused by a check stay None.

    Each report owns its violations list, a fresh one unless one is passed.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        report = super().__new__(cls, *args, **kwargs)
        if report.violations is None:
            return report._replace(violations=[])
        return report

    def as_dict(self) -> dict:
        """The report as JSON values, each float through `domain.spell_inf`."""
        fields = {name: spell_inf(value) for name, value in self._asdict().items()}
        fields["violations"] = [
            {**record, "value": spell_inf(record["value"])} for record in self.violations
        ]
        return fields


def _disc_point(rng: random.Random, radius: float) -> complex:
    rho = radius * math.sqrt(rng.random())
    angle = 2.0 * math.pi * rng.random()
    return complex(rho * math.cos(angle), rho * math.sin(angle))


def polydisc_points(radius: float, n: int, seed: int) -> list[tuple[complex, complex]]:
    """Uniform points with |z|, |w| <= radius, as one nested seeded stream.

    The first n points for a given seed are a prefix of the first n' > n
    points, so sample statistics are monotone in n.
    """
    return list(_polydisc_stream(radius, n, seed))


def _polydisc_stream(radius: float, n: int, seed: int) -> Iterator[tuple[complex, complex]]:
    """The points of `polydisc_points`, each drawn when it is read."""
    rng = random.Random(seed)
    return ((_disc_point(rng, radius), _disc_point(rng, radius)) for _ in range(n))


def _blocks(pairs: Iterable[tuple]) -> Iterator[tuple[list, list]]:
    """The pairs _BLOCK at a time, the last block shorter, each block as its
    two columns; a pair is read only when its block is formed."""
    pairs = iter(pairs)
    while block := list(islice(pairs, _BLOCK)):
        yield [a for a, _ in block], [b for _, b in block]


def _by_point(evaluate: Callable, zs: list, ws: list, overflow) -> list:
    """evaluate(zs, ws), one value a point, with `overflow` for each point
    whose own evaluation overflows the float range.

    A block that raises OverflowError is evaluated again one point at a
    time.  Each operation of `_evaluate_columns`, and of the evaluators
    built on it, acts on one point, so a point raises in a block exactly
    when it raises alone, and every other point keeps its value.
    """
    try:
        return evaluate(zs, ws)
    except OverflowError:
        values = []
        for z, w in zip(zs, ws):
            try:
                values += evaluate([z], [w])
            except OverflowError:
                values.append(overflow)
        return values


def _sum_of_squares(components: Sequence[list], zs: list, ws: list) -> list:
    """Each point's sum of |h|^2 over the components, from 0 in their order."""
    squares = [[abs(v) ** 2 for v in _column(terms, zs, ws)] for terms in components]
    return list(map(sum, zip(*squares))) if squares else [0] * len(zs)


def _point_record(z: complex, w: complex, value: float) -> dict:
    return {"z": [z.real, z.imag], "w": [w.real, w.imag], "value": value}


def sample_hypo(
    spec: DomainSpec,
    radius: Optional[float] = None,
    n: int = 1000,
    seed: int = 42,
) -> SampleReport:
    """Estimate the smallest delta with ||g_w||^2 <= delta*||f_w||^2.

    delta_hat is the maximum sampled ratio.  Points where ||f_w||^2 falls
    below the degenerate threshold are counted separately; if g_w does not
    vanish there too, no finite delta works and the ratio is infinite.  A
    point whose evaluation overflows the float range reads as NaN norms, and
    every point takes the same path: a ||g_w||^2 that is not a number, or a
    NaN ratio, bounds nothing and counts as infinite, degenerate or not.
    Points whose ratio reaches 1 are violations since the hypothesis needs
    delta < 1.
    """
    radius = spec.sample_radius if radius is None else radius
    f_w = [_float_terms(c.wirtinger("w")) for c in spec.f]
    g_w = [_float_terms(c.wirtinger("w")) for c in spec.g]

    def norms(zs: list, ws: list) -> list:
        return list(zip(_sum_of_squares(f_w, zs, ws), _sum_of_squares(g_w, zs, ws)))

    delta_hat, degenerate, violations = 0.0, 0, []
    overflow = (math.nan, math.nan)
    for zs, ws in _blocks(_polydisc_stream(radius, n, seed)):
        for z, w, (fw2, gw2) in zip(zs, ws, _by_point(norms, zs, ws, overflow)):
            if fw2 < DEGENERATE_TOL:
                degenerate += 1
                if gw2 <= DEGENERATE_TOL:
                    continue
                ratio = math.inf
            else:
                ratio = gw2 / fw2
            if math.isnan(ratio):
                ratio = math.inf
            delta_hat = max(delta_hat, ratio)
            if ratio >= 1.0:
                violations.append(_point_record(z, w, ratio))
    return SampleReport(radius=radius, n_samples=n, seed=seed, delta_hat=delta_hat,
                        degenerate=degenerate, violations=violations)


def hypothesis_holds(report: SampleReport) -> bool:
    """Gate used by the effective chain: the sampled delta stays below 0.99.

    Degenerate points say nothing about the ratio, so at least one sample
    must be non-degenerate.
    """
    informative = report.n_samples > report.degenerate
    return informative and report.delta_hat is not None and report.delta_hat < HYPO_GATE


def skipped_points(report: SampleReport) -> int:
    """How many of the report's degenerate points are known to be skipped.

    A degenerate point is skipped when g_w vanishes there too, and reads
    infinite otherwise; `degenerate` counts both kinds.  A finite delta_hat
    means no point read infinite, so every degenerate point was skipped.
    An infinite one cannot tell the kinds apart, so none is called skipped.
    Every point was skipped exactly when this equals n_samples, and then
    delta_hat is 0.
    """
    return report.degenerate if report.delta_hat < math.inf else 0


def boundary_pseudoconvexity(
    spec: DomainSpec,
    radius: Optional[float] = None,
    n: int = 200,
    seed: int = 42,
) -> SampleReport:
    """Minimum of lambda over sampled points of the actual boundary.

    For each sampled (w, Im z) the boundary equation r = 0 is solved for
    Re z by fixed-point iteration; since r_z(0) = 1 the map is a
    contraction for small radii.  Failure to converge means the radius is
    too large for the normalization to dominate and is reported as such.
    A lambda that is not finite (NaN, an infinity, or an evaluation that
    overflows the float range) bounds nothing: it counts as -inf, a
    violation that also sets the minimum.
    """
    radius = spec.sample_radius if radius is None else radius
    lam = _float_terms(expand_r(spec).lam)
    f_terms = [_float_terms(c) for c in spec.f]
    g_terms = [_float_terms(c) for c in spec.g]

    def targets(zs: list, ws: list) -> list:
        fs, gs = _sum_of_squares(f_terms, zs, ws), _sum_of_squares(g_terms, zs, ws)
        return [-0.5 * (f2 - g2) for f2, g2 in zip(fs, gs)]

    def levi(zs: list, ws: list) -> list:
        return [value.real for value in _column(lam, zs, ws)]

    rng = random.Random(seed)
    draws = ((_disc_point(rng, radius), rng.uniform(-radius, radius)) for _ in range(n))
    min_lambda, violations = math.inf, []
    for ws, ys in _blocks(draws):
        # Each point keeps its own x sequence and leaves the iteration as
        # soon as it converges; only the points still moving are evaluated.
        xs, moving = [0.0] * len(ys), range(len(ys))
        for _ in range(FIXED_POINT_CAP):
            zs = [complex(xs[k], ys[k]) for k in moving]
            values = _by_point(targets, zs, [ws[k] for k in moving], math.inf)
            still = []
            for k, target in zip(moving, values):
                if not math.isfinite(target):
                    raise _divergence(radius)
                if abs(target - xs[k]) >= FIXED_POINT_TOL:
                    still.append(k)
                xs[k] = target
            moving = still
            if not moving:
                break
        else:
            raise _divergence(radius)
        zs = [complex(x, y) for x, y in zip(xs, ys)]
        for z, w, value in zip(zs, ws, _by_point(levi, zs, ws, -math.inf)):
            if not math.isfinite(value):
                value = -math.inf
            min_lambda = min(min_lambda, value)
            if value < -FIXED_POINT_TOL:
                violations.append(_point_record(z, w, value))
    return SampleReport(radius=radius, n_samples=n, seed=seed,
                        min_lambda_on_boundary=min_lambda, violations=violations)


def finite_diff_levi(spec: DomainSpec, points: Sequence[tuple[complex, complex]]) -> float:
    """Maximum relative gap between symbolic and finite-difference lambda.

    All second-order Wirtinger derivatives of r are rebuilt from central
    differences in the four real coordinates and assembled into the general
    tangential Hessian pairing, a route to lambda independent of the sum of
    squares the symbolic side uses.  The result is max |lam_num - lam_sym| /
    (1 + |lam_sym|) over the points, or inf as soon as one deviation is not
    finite or an evaluation overflows the float range (an overflowing r
    gives NaN or raises OverflowError, and either must fail the check).

    The points go through `_evaluate_columns` _BLOCK at a time: r at the 5x5
    stencil of every point of a block, lambda at the points themselves.
    Each value is the one a block of that point alone would give, and so
    is the result; the block size bounds memory, not the answer.
    """
    data = expand_r(spec)
    r, lam = _float_terms(data.r), _float_terms(data.lam)
    h, worst = FINITE_DIFF_STEP, 0.0
    for zs, ws in _blocks(points):
        try:
            cells = _evaluate_columns(r, _stencil_columns(zs, h), _stencil_columns(ws, h))
            numeric = _levi_by_differences(cells, h)
            reference = [value.real for value in _column(lam, zs, ws)]
        except OverflowError:
            return math.inf
        for num, ref in zip(numeric, reference):
            deviation = abs(num - ref) / (1.0 + abs(ref))
            if not math.isfinite(deviation):
                return math.inf
            worst = max(worst, deviation)
    return worst


def _float_terms(p: Poly) -> list[tuple[complex, Mono]]:
    return [(c.to_complex(), m) for m, c in p.terms.items()]


def _column(terms: Sequence[tuple[complex, Mono]], zs: list, ws: list) -> list[complex]:
    """The polynomial at each point (zs[n], ws[n])."""
    return _evaluate_columns(terms, [zs], [ws])[0][0]


def _evaluate_columns(
    terms: Sequence[tuple[complex, Mono]],
    zs: Sequence[Sequence[complex]],
    ws: Sequence[Sequence[complex]],
) -> list[list[list[complex]]]:
    """The polynomial at (zs[i][n], ws[j][n]), as cells[i][j][n].

    Every cell is its point's value by one fixed sequence of float
    operations: the terms summed from 0j in term order, each as
    ((((coeff*z^a)*zb^b)*w^c)*wb^d) with Python's complex ** and *.  Only the
    loop order depends on the columns: row by row, each cell is its terms
    chained as lazy maps over whole columns, materialised once.  Formed once
    and shared: a term's head (per row), a z-free term's product (per
    column), a w-free one's (per row), and a row's sum of its leading w-free
    terms (r starts with z + zb).  These are each cell's own values, since
    x**0 is exactly 1+0j for every complex x, NaN and inf included (CPython's
    integer power never reads x for the exponent 0).  So a cell does not
    depend on the other points, and a power that overflows (complex ** raises
    OverflowError, * and + never raise) does so at its point alone.
    """
    n, columns = len(zs[0]), range(len(ws))
    z_pow, zb_pow = _powers(zs, terms, 0), _powers(zs, terms, 1)
    w_pow, wb_pow = _powers(ws, terms, 2), _powers(ws, terms, 3)
    z_free, cells = {}, []
    for i in range(len(zs)):
        total, rest = [0j] * n, []
        for t, (coeff, (a, b, c, d)) in enumerate(terms):
            if t in z_free:
                rest.append(z_free[t])
                continue
            head = list(map(mul, map(mul, repeat(coeff, n), z_pow[i][a]), zb_pow[i][b]))
            products = [map(mul, map(mul, head, w_pow[j][c]), wb_pow[j][d]) for j in columns]
            if not (c or d or rest):
                total = map(add, total, products[0])
                continue
            if not (c or d):
                products = [list(products[0])] * len(ws)
            elif not (a or b):
                z_free[t] = products = list(map(list, products))
            rest.append(products)
        prefix, row = list(total), []
        for j in columns:
            total = prefix
            for products in rest:
                total = map(add, total, products[j])
            row.append(list(total))
        cells.append(row)
    return cells


def _powers(columns, terms, at: int) -> list[dict[int, list[complex]]]:
    """Each column's powers that the terms read at position at (zb, wb: of its conjugate)."""
    exponents = {m[at] for _, m in terms}
    if at % 2 and any(exponents):
        columns = [list(map(complex.conjugate, column)) for column in columns]
    return [{e: list(map(pow, column, repeat(e))) if e else [1 + 0j] * len(column)
             for e in exponents} for column in columns]


def _stencil_columns(points: Sequence[complex], h: float) -> list[list[complex]]:
    """The points moved by 0 or +-h along one real axis, one column a step.

    Column k moves by the k-th step of (0, 0), (h, 0), (-h, 0), (0, h),
    (0, -h), rebuilding each point as complex(x + dx, y + dy): the points,
    signed zeros included, that evaluating r one point at a time would read.
    """
    steps = ((0.0, 0.0), (h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h))
    return [[complex(p.real + dx, p.imag + dy) for p in points] for dx, dy in steps]


def _levi_by_differences(cells: list[list[list[complex]]], h: float) -> list[float]:
    """lambda from central differences of Re r on the stencil, per point.

    cells[i][j] holds r at the i-th z column and j-th w column of
    `_stencil_columns`; the arithmetic is the same, point by point.
    """
    grid = [[[value.real for value in cell] for cell in row] for row in cells]
    center = grid[0][0]
    # Column indices of the +h step along each real axis; the -h step follows.
    X = U = 1
    Y = V = 3

    def first(plus: list[float], minus: list[float]) -> list[float]:
        return [(p - m) / (2.0 * h) for p, m in zip(plus, minus)]

    def pure(plus: list[float], minus: list[float]) -> list[float]:
        return [(p - 2.0 * c + m) / (h * h) for p, c, m in zip(plus, center, minus)]

    def mixed(i: int, j: int) -> list[float]:
        quads = zip(grid[i][j], grid[i][j + 1], grid[i + 1][j], grid[i + 1][j + 1])
        return [(pp - pm - mp + mm) / (4.0 * h * h) for pp, pm, mp, mm in quads]

    x_axis = grid[X][0], grid[X + 1][0]
    y_axis = grid[Y][0], grid[Y + 1][0]
    u_axis = grid[0][U], grid[0][U + 1]
    v_axis = grid[0][V], grid[0][V + 1]
    r_z = [0.5 * complex(dx, -dy) for dx, dy in zip(first(*x_axis), first(*y_axis))]
    r_w = [0.5 * complex(du, -dv) for du, dv in zip(first(*u_axis), first(*v_axis))]
    r_zzb = [0.25 * (xx + yy) for xx, yy in zip(pure(*x_axis), pure(*y_axis))]
    r_wwb = [0.25 * (uu + vv) for uu, vv in zip(pure(*u_axis), pure(*v_axis))]
    r_zwb = [
        0.25 * complex(xu + yv, xv - yu)
        for xu, yv, xv, yu in zip(mixed(X, U), mixed(Y, V), mixed(X, V), mixed(Y, U))
    ]
    return [
        wwb * abs(z) ** 2 + zzb * abs(w) ** 2 - 2.0 * (zwb * w * z.conjugate()).real
        for z, w, zzb, wwb, zwb in zip(r_z, r_w, r_zzb, r_wwb, r_zwb)
    ]
