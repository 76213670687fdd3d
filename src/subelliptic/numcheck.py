"""Floating-point sampling checks for the analytic side of the engine.

The symbolic chain certifies orders exactly; what it cannot certify is the
pointwise inequalities its hypotheses assert near the origin (domination of
the g-derivatives by the f-derivatives, pseudoconvexity of the boundary).
This module samples those inequalities on seeded polydiscs and
cross-validates the symbolic Levi determinant against finite differences.
The differences at one sample read r on a shared 5x5 grid of z and w moved
by FINITE_DIFF_STEP, each point evaluated once by `Poly.compiled_grid`,
which repeats the float operations of `Poly.compiled()` in their order; so
the check is bit-identical to evaluating r point by point.
Reports are deterministic for a fixed seed and never override a symbolic
result; at most they gate whether the effective chain may call its
hypothesis verified.
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple, Optional, Sequence

from .domain import DomainError, DomainSpec, expand_r

DEGENERATE_TOL = 1e-14
FIXED_POINT_TOL = 1e-12
FINITE_DIFF_STEP = 1e-4
FIXED_POINT_CAP = 100
HYPO_GATE = 0.99


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
        """The report as JSON values; an infinite float becomes a string."""

        def encode(value):
            if isinstance(value, float) and math.isinf(value):
                return "infinity"
            return value

        fields = {name: encode(value) for name, value in self._asdict().items()}
        fields["violations"] = [
            {**record, "value": encode(record["value"])} for record in self.violations
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
    rng = random.Random(seed)
    return [(_disc_point(rng, radius), _disc_point(rng, radius)) for _ in range(n)]


def _squared_norm(evaluators: Sequence[Callable], z: complex, w: complex) -> float:
    return sum(abs(h(z, w)) ** 2 for h in evaluators)


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
    vanish there too, no finite delta works and the ratio is infinite, as is
    a NaN ratio or an evaluation that overflows the float range, either of
    which bounds nothing.  Points whose ratio reaches 1 are violations since
    the hypothesis needs delta < 1.
    """
    radius = spec.sample_radius if radius is None else radius
    f_w = [c.wirtinger("w").compiled() for c in spec.f]
    g_w = [c.wirtinger("w").compiled() for c in spec.g]
    delta_hat, degenerate, violations = 0.0, 0, []
    for z, w in polydisc_points(radius, n, seed):
        try:
            fw2 = _squared_norm(f_w, z, w)
            gw2 = _squared_norm(g_w, z, w)
        except OverflowError:
            delta_hat = math.inf
            violations.append(_point_record(z, w, math.inf))
            continue
        if fw2 < DEGENERATE_TOL:
            degenerate += 1
            if gw2 > DEGENERATE_TOL:
                delta_hat = math.inf
                violations.append(_point_record(z, w, math.inf))
            continue
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
    """
    radius = spec.sample_radius if radius is None else radius
    data = expand_r(spec)
    lam = data.lam.compiled()
    f_ev = [c.compiled() for c in spec.f]
    g_ev = [c.compiled() for c in spec.g]
    rng = random.Random(seed)
    min_lambda, violations = math.inf, []
    for _ in range(n):
        w = _disc_point(rng, radius)
        y = rng.uniform(-radius, radius)
        x = 0.0
        for _ in range(FIXED_POINT_CAP):
            z = complex(x, y)
            try:
                target = -0.5 * (
                    _squared_norm(f_ev, z, w) - _squared_norm(g_ev, z, w)
                )
            except OverflowError:
                target = math.inf
            if not math.isfinite(target):
                raise _divergence(radius)
            if abs(target - x) < FIXED_POINT_TOL:
                x = target
                break
            x = target
        else:
            raise _divergence(radius)
        z = complex(x, y)
        value = lam(z, w).real
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

    The differences read r at 25 points per sample, the 5x5 grid of
    `_stencil`, and r is evaluated once at each of them with
    `Poly.compiled_grid`, whose every value is bit-identical to
    `Poly.compiled()` at that point; so is the result.
    """
    data = expand_r(spec)
    r = data.r.compiled_grid()
    lam = data.lam.compiled()
    worst = 0.0
    for z0, w0 in points:
        try:
            numeric = _levi_by_differences(r, z0, w0, FINITE_DIFF_STEP)
            reference = lam(z0, w0).real
        except OverflowError:
            return math.inf
        deviation = abs(numeric - reference) / (1.0 + abs(reference))
        if not math.isfinite(deviation):
            return math.inf
        worst = max(worst, deviation)
    return worst


def _stencil(r, z0: complex, w0: complex, h: float) -> list[list[float]]:
    """Re r on the grid of z0 and w0 moved by 0 or +-h along one real axis.

    Row i holds z = complex(x + dx, y + dy) and column j holds
    w = complex(u + du, v + dv), for the i-th and j-th step of
    (0, 0), (h, 0), (-h, 0), (0, h), (0, -h): the points, signed zeros
    included, that evaluating r one point at a time would read.
    """
    x, y, u, v = z0.real, z0.imag, w0.real, w0.imag
    steps = ((0.0, 0.0), (h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h))
    zs = [complex(x + dx, y + dy) for dx, dy in steps]
    ws = [complex(u + du, v + dv) for du, dv in steps]
    return [[value.real for value in row] for row in r(zs, ws)]


def _levi_by_differences(r, z0: complex, w0: complex, h: float) -> float:
    grid = _stencil(r, z0, w0, h)
    center = grid[0][0]
    # Grid indices of the +h step along each real axis; the -h step follows.
    X = U = 1
    Y = V = 3

    def first(plus: float, minus: float) -> float:
        return (plus - minus) / (2.0 * h)

    def pure(plus: float, minus: float) -> float:
        return (plus - 2.0 * center + minus) / (h * h)

    def mixed(i: int, j: int) -> float:
        return (
            grid[i][j] - grid[i][j + 1] - grid[i + 1][j] + grid[i + 1][j + 1]
        ) / (4.0 * h * h)

    x_axis = grid[X][0], grid[X + 1][0]
    y_axis = grid[Y][0], grid[Y + 1][0]
    u_axis = grid[0][U], grid[0][U + 1]
    v_axis = grid[0][V], grid[0][V + 1]
    r_z = 0.5 * complex(first(*x_axis), -first(*y_axis))
    r_w = 0.5 * complex(first(*u_axis), -first(*v_axis))
    r_zzb = 0.25 * (pure(*x_axis) + pure(*y_axis))
    r_wwb = 0.25 * (pure(*u_axis) + pure(*v_axis))
    r_zwb = 0.25 * complex(
        mixed(X, U) + mixed(Y, V),
        mixed(X, V) - mixed(Y, U),
    )
    return (
        r_wwb * abs(r_z) ** 2
        + r_zzb * abs(r_w) ** 2
        - 2.0 * (r_zwb * r_w * r_z.conjugate()).real
    )
