"""Tests for the sampling verifier and the finite-difference oracle."""

import functools
import math
import random
import time
from fractions import Fraction

import pytest

from subelliptic.polyring import GaussRational, Poly, parse_poly
from subelliptic.domain import (
    DomainSpec,
    expand_r,
    flat_domain,
    cross_power_domain,
    borderline_domain,
)
from subelliptic import numcheck
from subelliptic.numcheck import (
    _BLOCK,
    BoundarySolveError,
    SampleReport,
    boundary_pseudoconvexity,
    finite_diff_levi,
    hypothesis_holds,
    polydisc_points,
    sample_hypo,
    skipped_points,
    _column,
    _float_terms,
)


def spec_of(f, g=(), name="test"):
    return DomainSpec(
        name=name,
        f=tuple(parse_poly(s) for s in f),
        g=tuple(parse_poly(s) for s in g),
    )


class TestPolydiscPoints:
    def test_points_stay_in_the_polydisc(self):
        for z, w in polydisc_points(0.3, 500, seed=7):
            assert abs(z) <= 0.3 and abs(w) <= 0.3

    def test_stream_is_nested(self):
        short = polydisc_points(0.2, 100, seed=11)
        long = polydisc_points(0.2, 300, seed=11)
        assert long[:100] == short

    def test_seed_determinism(self):
        assert polydisc_points(0.1, 50, seed=3) == polydisc_points(0.1, 50, seed=3)
        assert polydisc_points(0.1, 50, seed=3) != polydisc_points(0.1, 50, seed=4)


class TestSampleHypo:
    def test_empty_g_gives_zero(self):
        report = sample_hypo(flat_domain(), radius=0.3, n=200)
        assert report.delta_hat == 0.0
        assert report.violations == []

    def test_quarter_ratio_domain(self):
        """||f_w||^2 = 1 + |z|^2 and ||g_w||^2 = 1/4, so delta <= 0.25."""
        spec = spec_of(["w", "z*w"], g=["1/2*w"])
        report = sample_hypo(spec, radius=0.3, n=500)
        assert 0.2 < report.delta_hat <= 0.25
        assert hypothesis_holds(report)

    def test_borderline_domain_fails_the_gate(self):
        report = sample_hypo(borderline_domain(), radius=0.01, n=1000, seed=42)
        assert report.delta_hat >= 0.99
        assert not hypothesis_holds(report)

    def test_degenerate_f_with_live_g_is_infinite(self):
        """With f = (z*w) the derivative f_w = z is below the degeneracy
        threshold on the whole radius-1e-9 polydisc while g_w = 1 is not,
        so no finite delta can work."""
        spec = spec_of(["z*w"], g=["w"])
        report = sample_hypo(spec, radius=1e-9, n=50)
        assert report.delta_hat == math.inf
        assert report.degenerate == 50
        assert report.violations

    def test_no_informative_sample_fails_the_gate(self):
        """f_w = 3w^2 and g_w = 2w both fall below the degeneracy threshold
        on the radius-1e-9 polydisc, so no sample bounds the ratio (at
        radius 0.1 the same spec samples delta_hat > 1e5)."""
        spec = spec_of(["w^3"], g=["w^2"])
        report = sample_hypo(spec, radius=1e-9, n=1000)
        assert report.degenerate == report.n_samples == 1000
        assert report.delta_hat == 0.0
        assert not hypothesis_holds(report)

    def test_only_a_finite_delta_hat_calls_degenerate_points_skipped(self):
        """Both samples are all degenerate; g_w vanishes with f_w in the
        first and is 1 in the second, where every point reads infinite."""
        skipped = sample_hypo(spec_of(["w^3"], g=["w^2"]), radius=1e-9, n=100)
        live = sample_hypo(spec_of(["z*w"], g=["w"]), radius=1e-9, n=100)
        assert skipped.degenerate == live.degenerate == 100
        assert skipped_points(skipped) == 100
        assert skipped_points(live) == 0

    def test_an_overflowing_ratio_is_infinite(self):
        """f_w = g_w = 3w^2, so the ratio is 1 wherever it is a number; at
        radius 1e200 w^2 overflows to NaN, which bounds nothing."""
        spec = spec_of(["w^3"], g=["w^3"])
        report = sample_hypo(spec, radius=1e200, n=50)
        assert report.delta_hat == math.inf
        assert len(report.violations) == 50
        assert {v["value"] for v in report.violations} == {math.inf}
        assert not hypothesis_holds(report)

    def test_an_overflowing_evaluation_is_infinite(self):
        """At radius 1e100 |3w^2|^2 exceeds the float range in float **,
        which raises and so reads NaN: such a point bounds nothing either."""
        spec = spec_of(["w^3"], g=["w^3"])
        report = sample_hypo(spec, radius=1e100, n=50)
        assert report.delta_hat == math.inf
        assert len(report.violations) == 50
        assert {v["value"] for v in report.violations} == {math.inf}
        assert not hypothesis_holds(report)

    @pytest.mark.parametrize("radius", [1e60, 1e110])
    def test_a_degenerate_point_whose_g_is_not_a_number_is_infinite(self, radius):
        """f = z has f_w = 0 and g = z^2*w^2 has g_w = 2z^2*w.  At radius
        1e60 |g_w|^2 overflows in float ** and reads NaN; at 1e110 the
        product z^2*w overflows inside complex multiplication to NaN.  Either
        way every point is degenerate with a NaN |g_w|^2, which bounds
        nothing."""
        spec = spec_of(["z"], g=["z^2*w^2"])
        report = sample_hypo(spec, radius=radius, n=1000)
        assert report.degenerate == 1000
        assert report.delta_hat == math.inf
        assert len(report.violations) == 1000
        assert {v["value"] for v in report.violations} == {math.inf}
        assert not hypothesis_holds(report)

    @pytest.mark.parametrize("n", [0, -3])
    def test_no_samples_fail_the_gate(self, n):
        report = sample_hypo(borderline_domain(), radius=0.01, n=n)
        assert not hypothesis_holds(report)

    def test_monotone_in_n(self):
        spec = borderline_domain()
        small = sample_hypo(spec, radius=0.01, n=200, seed=42)
        large = sample_hypo(spec, radius=0.01, n=1000, seed=42)
        assert small.delta_hat <= large.delta_hat

    def test_determinism(self):
        a = sample_hypo(borderline_domain(), radius=0.05, n=300, seed=9)
        b = sample_hypo(borderline_domain(), radius=0.05, n=300, seed=9)
        assert a == b


class TestBoundaryPseudoconvexity:
    def test_flat_boundary(self):
        report = boundary_pseudoconvexity(flat_domain(), radius=0.3, n=100)
        assert report.min_lambda_on_boundary == 1.0

    @pytest.mark.parametrize(
        "spec,radius",
        [
            (borderline_domain(), 0.1),
            (cross_power_domain(3, 2, 5), 0.1),
            (cross_power_domain(4, 3, 6), 0.1),
        ],
        ids=["borderline", "325", "436"],
    )
    def test_sampled_boundary_is_pseudoconvex(self, spec, radius):
        report = boundary_pseudoconvexity(spec, radius=radius, n=200, seed=42)
        assert report.min_lambda_on_boundary >= -1e-10
        assert report.violations == []

    def test_divergent_solve_reports_radius(self):
        steep = spec_of(["4*z"])
        with pytest.raises(BoundarySolveError, match="smaller radius"):
            boundary_pseudoconvexity(steep, radius=0.5, n=50)

    @pytest.mark.parametrize(
        "f,g",
        [
            # The solve converges at x = -0.0 and lambda is NaN.
            (
                ["1/2*z^2*w^4 + 1/2*z^3*w^3"],
                ["1/2*z^2*w^4 + 1/2*z^3*w^3 + 2*z*w + i*z^3*w^2"],
            ),
            # Evaluating lambda overflows the float range.
            (["2*z*w + i*z*w^6"], ["2*z*w + i*z*w^6 + 2*w^6"]),
        ],
        ids=["nan", "overflow"],
    )
    def test_a_non_finite_lambda_is_a_violation(self, f, g):
        """Such a lambda bounds nothing: it counts as -inf, and so does the
        minimum."""
        report = boundary_pseudoconvexity(spec_of(f, g), radius=1e20, n=50)
        assert report.min_lambda_on_boundary == -math.inf
        assert [v["value"] for v in report.violations] == [-math.inf] * 50

    def test_determinism(self):
        a = boundary_pseudoconvexity(flat_domain(), radius=0.2, n=50, seed=5)
        b = boundary_pseudoconvexity(flat_domain(), radius=0.2, n=50, seed=5)
        assert a == b


class TestFiniteDifferenceOracle:
    def test_flat_is_machine_precision(self):
        points = polydisc_points(0.5, 20, seed=1)
        assert finite_diff_levi(flat_domain(), points) <= 1e-8

    @pytest.mark.parametrize(
        "spec",
        [
            cross_power_domain(3, 2, 4),
            cross_power_domain(3, 2, 5),
            cross_power_domain(3, 2, 6),
            cross_power_domain(4, 3, 6),
            borderline_domain(),
        ],
        ids=["324", "325", "326", "436", "borderline"],
    )
    def test_symbolic_matches_numeric(self, spec):
        points = polydisc_points(0.5, 100, seed=42)
        assert finite_diff_levi(spec, points) <= 1e-5

    def test_non_finite_deviation_fails_the_check(self):
        """At radius 1e80 r overflows and the differences turn NaN; a NaN
        deviation must read as infinite, not be skipped by the maximum."""
        points = polydisc_points(1e80, 50, seed=42)
        assert finite_diff_levi(cross_power_domain(3, 2, 5), points) == math.inf

    def test_an_overflowing_evaluation_fails_the_check(self):
        """At radius 1e110 w^3 overflows inside the stencil, so the point's
        cell is NaN; that point bounds nothing, so the result is infinite,
        not a traceback."""
        points = polydisc_points(1e110, 50, seed=42)
        terms = _float_terms(parse_poly("w^3"))
        [cell] = _column(terms, [points[0][0]], [points[0][1]])
        assert math.isnan(cell.real) and math.isnan(cell.imag)
        assert finite_diff_levi(spec_of(["w^3"]), points) == math.inf

    @pytest.mark.parametrize("count", [_BLOCK, 2 * _BLOCK + 5], ids=["full", "partial"])
    @pytest.mark.parametrize(
        "spec,far",
        [(spec_of(["w^3"]), 1e110), (cross_power_domain(3, 2, 5), 1e80)],
        ids=["overflow", "nan"],
    )
    def test_a_block_whose_last_point_fails_fails_the_check(self, spec, far, count):
        """Only the last point of a block, full or partial, is far out: there
        w^3 overflows, or r turns NaN.  Every other point passes."""
        near = polydisc_points(0.5, count - 1, seed=42)
        assert finite_diff_levi(spec, near) <= 1e-5
        assert finite_diff_levi(spec, near + polydisc_points(far, 1, seed=42)) == math.inf

    def test_blocks_give_the_maximum_of_single_points(self):
        """Over more than two blocks, the last one partial, the check is the
        maximum of its one-point calls, bit for bit, also with the worst
        point moved last, into the partial block."""
        spec = cross_power_domain(3, 2, 5)
        points = polydisc_points(0.5, 2 * _BLOCK + 5, seed=3)
        single = [finite_diff_levi(spec, [point]) for point in points]
        assert max(single) > 0.0
        assert finite_diff_levi(spec, points).hex() == max(single).hex()
        points.append(points.pop(single.index(max(single))))
        assert finite_diff_levi(spec, points).hex() == max(single).hex()


def _pointwise_evaluator(p: Poly):
    """Numeric evaluation of p one point at a call, the reference that the
    column kernel must match bit for bit: the terms summed from 0j in term
    order, each as ((((c*z^a)*zb^b)*w^c)*wb^d)."""
    data = [(c.to_complex(), m) for m, c in p.terms.items()]

    def ev(z0: complex, w0: complex) -> complex:
        zb0, wb0 = z0.conjugate(), w0.conjugate()
        total = 0j
        for cc, m in data:
            total += cc * z0 ** m[0] * zb0 ** m[1] * w0 ** m[2] * wb0 ** m[3]
        return total

    return ev


def _pointwise_levi(r, z0: complex, w0: complex, h: float) -> float:
    """The finite-difference lambda with r evaluated afresh at every read."""
    x, y, u, v = z0.real, z0.imag, w0.real, w0.imag

    def at(dx=0.0, dy=0.0, du=0.0, dv=0.0) -> float:
        return r(complex(x + dx, y + dy), complex(u + du, v + dv)).real

    center = at()

    def first(axis: str) -> float:
        return (at(**{axis: h}) - at(**{axis: -h})) / (2.0 * h)

    def pure(axis: str) -> float:
        return (at(**{axis: h}) - 2.0 * center + at(**{axis: -h})) / (h * h)

    def mixed(a: str, b: str) -> float:
        return (
            at(**{a: h, b: h})
            - at(**{a: h, b: -h})
            - at(**{a: -h, b: h})
            + at(**{a: -h, b: -h})
        ) / (4.0 * h * h)

    r_z = 0.5 * complex(first("dx"), -first("dy"))
    r_w = 0.5 * complex(first("du"), -first("dv"))
    r_zzb = 0.25 * (pure("dx") + pure("dy"))
    r_wwb = 0.25 * (pure("du") + pure("dv"))
    r_zwb = 0.25 * complex(
        mixed("dx", "du") + mixed("dy", "dv"),
        mixed("dx", "dv") - mixed("dy", "du"),
    )
    return (
        r_wwb * abs(r_z) ** 2
        + r_zzb * abs(r_w) ** 2
        - 2.0 * (r_zwb * r_w * r_z.conjugate()).real
    )


_COEFFICIENTS = [
    GaussRational(1),
    GaussRational(-1),
    GaussRational(0, 1),
    GaussRational(0, -2),
    GaussRational(-3),
    GaussRational(Fraction(1, 2)),
    GaussRational(2, -3),
    GaussRational(Fraction(-1, 3), Fraction(5, 7)),
]

_SIGNED_ZEROS = [
    (0j, 0j),
    (complex(-0.0, -0.0), complex(-0.0, 0.0)),
    (complex(0.0, -0.0), complex(-0.0, -0.0)),
    (complex(-0.0, 0.05), complex(0.03, -0.0)),
]


def _random_component(rng: random.Random) -> Poly:
    """1-3 terms z^a*w^c with a zero exponent allowed on either variable."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        a, c = rng.randint(0, 3), rng.randint(0, 3)
        terms[(a, 0, max(c, 1 - a), 0)] = rng.choice(_COEFFICIENTS)
    return Poly(terms)


def _random_spec(rng: random.Random) -> DomainSpec:
    return DomainSpec(
        name="random",
        f=tuple(_random_component(rng) for _ in range(rng.randint(1, 2))),
        g=tuple(_random_component(rng) for _ in range(rng.randint(1, 2))),
    )


class TestStencilKernel:
    """finite_diff_levi against r evaluated point by point, bit for bit."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pointwise_evaluation(self, seed, monkeypatch):
        # One finite_diff_levi call per point, so that no point's deviation
        # hides behind the maximum; the symbolic expansion is computed once
        # per spec, since it is not what this test compares.
        monkeypatch.setattr(numcheck, "expand_r", functools.lru_cache(expand_r))
        rng = random.Random(seed)
        for _ in range(8):
            spec = _random_spec(rng)
            data = expand_r(spec)
            r = _pointwise_evaluator(data.r)
            lam = _pointwise_evaluator(data.lam)
            radius = rng.choice([0.05, 0.3, 1.0])
            points = polydisc_points(radius, 6, rng.randrange(1000)) + _SIGNED_ZEROS
            for h in (1e-6, 1e-4, 1e-3):
                monkeypatch.setattr(numcheck, "FINITE_DIFF_STEP", h)
                for z0, w0 in points:
                    numeric = _pointwise_levi(r, z0, w0, h)
                    reference = lam(z0, w0).real
                    expected = max(0.0, abs(numeric - reference) / (1.0 + abs(reference)))
                    got = finite_diff_levi(spec, [(z0, w0)])
                    assert got.hex() == expected.hex(), (spec, z0, w0, h)


_SPECIAL_POINTS = [
    0j,
    complex(-0.0, 0.0),
    complex(0.0, -0.0),
    complex(-0.0, -0.0),
    complex(math.nan, 0.0),
    complex(-0.0, math.nan),
    complex(math.nan, math.nan),
]


def _random_poly(rng: random.Random) -> Poly:
    """Up to 8 terms of degree up to 4 in each variable, and a constant, a
    term free of z and a term free of w, so that every exponent position
    also reads zero."""
    terms = {(0, 0, 0, 0): rng.choice(_COEFFICIENTS)}
    terms[(0, 0, rng.randint(0, 3), rng.randint(1, 3))] = rng.choice(_COEFFICIENTS)
    terms[(rng.randint(1, 3), rng.randint(0, 3), 0, 0)] = rng.choice(_COEFFICIENTS)
    for _ in range(rng.randint(0, 8)):
        terms[tuple(rng.randint(0, 4) for _ in range(4))] = rng.choice(_COEFFICIENTS)
    order = list(terms)
    rng.shuffle(order)
    return Poly({m: terms[m] for m in order})


def _hexes(value: complex) -> tuple[str, str]:
    return value.real.hex(), value.imag.hex()


def _assert_kernel_is_pointwise(p: Poly, zs, ws) -> None:
    """For every pair of a z column and a w column, each value of one
    `_column` call is the per-point reference at its point, hex for hex, or
    NaN in both parts where the reference raises OverflowError."""
    f = _pointwise_evaluator(p)

    def reference(z0: complex, w0: complex) -> tuple[str, str]:
        try:
            return _hexes(f(z0, w0))
        except OverflowError:
            return _hexes(complex(math.nan, math.nan))

    expected = [
        [[reference(z0, w0) for z0, w0 in zip(z_col, w_col)] for w_col in ws]
        for z_col in zs
    ]
    terms = _float_terms(p)
    cells = [[_column(terms, z_col, w_col) for w_col in ws] for z_col in zs]
    assert [[[_hexes(v) for v in cell] for cell in row] for row in cells] == expected


class TestColumnKernel:
    """`_column` against `_pointwise_evaluator` point by point."""

    def test_cells_are_pointwise_bit_for_bit(self):
        """Columns longer than a block, with signed zeros and NaNs among the
        points and zero exponents in every position."""
        rng = random.Random(109)
        length = _BLOCK + 37

        def column():
            points = [
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(length)
            ]
            for special in _SPECIAL_POINTS:
                points[rng.randrange(length)] = special
            return points

        for _ in range(30):
            zs, ws = [column() for _ in range(3)], [column() for _ in range(2)]
            _assert_kernel_is_pointwise(_random_poly(rng), zs, ws)

    @pytest.mark.parametrize(
        "text",
        ["w^2 + 3*w*wb", "z + zb", "z*w + 2", "(1 + i)*z^2*zb*w*wb^3 - 1/3", "z*wb + 5"],
    )
    def test_every_pair_of_special_points(self, text):
        """Signed zeros, NaNs, infinities and huge values against each other.
        A positive power of an infinite point overflows; its zeroth power is
        1+0j, so a term free of that variable stays finite, in any row."""
        p = parse_poly(text)
        points = _SPECIAL_POINTS + [
            complex(math.inf, 0.0),
            complex(0.0, -math.inf),
            complex(math.inf, math.nan),
            complex(1e200, 1e200),
            complex(0.5, -0.25),
        ]
        for z0 in points:
            for w0 in points:
                _assert_kernel_is_pointwise(p, [[z0]], [[w0]])
                _assert_kernel_is_pointwise(p, [[0.5 + 0j], [z0]], [[0.25j], [w0]])

    @pytest.mark.parametrize(
        "monomials",
        [
            # The leading run of w-free terms (r starts with z + zb) has
            # length 0, 1, 2, and then holds every term.
            [(0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 2, 1)],
            [(1, 0, 0, 0), (0, 0, 2, 1), (2, 1, 1, 0)],
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (1, 1, 2, 0)],
            [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 0)],
            # A w-free term after a w-dependent one does not join the run.
            [(1, 0, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0), (0, 0, 0, 0)],
            [(0, 1, 1, 1), (1, 0, 0, 0), (0, 1, 0, 0)],
            # Terms free of z between terms free of w: a constant inside the
            # run, and z-free products between w-free ones.
            [(1, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 1), (3, 0, 0, 0),
             (0, 0, 0, 3), (1, 2, 0, 0), (1, 1, 1, 1)],
        ],
    )
    def test_sharing_rules(self, monomials):
        """Orders of w-free, z-free and constant terms, at every pair of
        special points and on several z and w columns mixing them with finite
        points.  At a huge z the head of z*zb is infinite without an
        overflow, and multiplying it by w^0*wb^0 = 1+0j turns a part into
        NaN, so a product that skipped those factors would show."""
        p = Poly({m: _COEFFICIENTS[k % len(_COEFFICIENTS)] for k, m in enumerate(monomials)})
        assert [m for _, m in _float_terms(p)] == monomials
        points = _SPECIAL_POINTS + [
            complex(math.inf, 0.0),
            complex(-math.inf, 2.0),
            complex(math.nan, math.inf),
            complex(1e200, -1e200),
            complex(1e200, 0.0),
            complex(0.5, -0.25),
        ]
        for z0 in points:
            for w0 in points:
                _assert_kernel_is_pointwise(p, [[z0]], [[w0]])
                zs = [[z0, 0.5 + 0j], [0.5 + 0j, z0], [z0, -0.0j]]
                ws = [[w0, 0.25j], [0.25j, w0]]
                _assert_kernel_is_pointwise(p, zs, ws)
        rng = random.Random(len(monomials))

        def column():
            column = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(40)]
            for special in _SPECIAL_POINTS:
                column[rng.randrange(len(column))] = special
            return column

        for _ in range(5):
            _assert_kernel_is_pointwise(p, [column() for _ in range(3)],
                                        [column() for _ in range(4)])

    def test_a_long_polynomial_over_one_block(self):
        """5,000 terms chain 5,000 lazy adds over a whole _BLOCK column; the
        values are the per-point reference's, hex for hex, in under 10 s
        (about 0.4 s on a 2-core x86 host with CPython 3.11)."""
        rng = random.Random(5000)
        monomials = [(a, b, c, d) for a in range(9) for b in range(9)
                     for c in range(9) for d in range(9)]
        p = Poly({m: rng.choice(_COEFFICIENTS) for m in rng.sample(monomials, 5000)})
        zs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(_BLOCK)]
        ws = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(_BLOCK)]
        start = time.perf_counter()
        values = _column(_float_terms(p), zs, ws)
        elapsed = time.perf_counter() - start
        f = _pointwise_evaluator(p)
        assert len(values) == _BLOCK
        for n in (0, 1, _BLOCK // 2, _BLOCK - 1):
            assert _hexes(values[n]) == _hexes(f(zs[n], ws[n])), n
        assert elapsed < 10.0

    @pytest.mark.parametrize(
        "p",
        _SPECIAL_POINTS + [
            complex(math.inf, 0.0),
            complex(-math.inf, 0.0),
            complex(0.0, math.inf),
            complex(0.0, -math.inf),
            complex(math.inf, -math.inf),
            complex(math.nan, math.inf),
            complex(-math.inf, math.nan),
            complex(1e200, 0.0),
            complex(-1e200, 1e200),
            complex(0.0, -1e200),
        ],
        ids=repr,
    )
    def test_a_zeroth_power_is_one(self, p):
        """The premise of the kernel's free zeroth powers on this Python:
        p ** 0 is exactly 1+0j, also for NaN, infinite and huge parts."""
        assert _hexes(p ** 0) == _hexes(1 + 0j)
        assert _hexes(pow(p, 0)) == _hexes(1 + 0j)


def _reference_norm(evaluators, z0: complex, w0: complex) -> float:
    return sum(abs(h(z0, w0)) ** 2 for h in evaluators)


def _reference_record(z0: complex, w0: complex, value: float) -> dict:
    return {"z": [z0.real, z0.imag], "w": [w0.real, w0.imag], "value": value}


def _reference_square(h, z0: complex, w0: complex) -> float:
    """|h|^2 at the point, NaN where evaluating it overflows."""
    try:
        return abs(h(z0, w0)) ** 2
    except OverflowError:
        return math.nan


def _reference_sample_hypo(spec: DomainSpec, radius: float, n: int, seed: int) -> SampleReport:
    """`sample_hypo` one point at a time on the per-point reference: a norm
    whose term overflows is NaN, and then the degenerate rule applies."""
    f_w = [_pointwise_evaluator(c.wirtinger("w")) for c in spec.f]
    g_w = [_pointwise_evaluator(c.wirtinger("w")) for c in spec.g]
    delta_hat, degenerate, violations = 0.0, 0, []
    for z, w in polydisc_points(radius, n, seed):
        fw2 = sum(_reference_square(h, z, w) for h in f_w)
        gw2 = sum(_reference_square(h, z, w) for h in g_w)
        if fw2 < numcheck.DEGENERATE_TOL:
            degenerate += 1
            if gw2 <= numcheck.DEGENERATE_TOL:
                continue
            delta_hat = math.inf
            violations.append(_reference_record(z, w, math.inf))
            continue
        ratio = gw2 / fw2
        if math.isnan(ratio):
            ratio = math.inf
        delta_hat = max(delta_hat, ratio)
        if ratio >= 1.0:
            violations.append(_reference_record(z, w, ratio))
    return SampleReport(radius=radius, n_samples=n, seed=seed, delta_hat=delta_hat,
                        degenerate=degenerate, violations=violations)


def _reference_boundary(spec: DomainSpec, radius: float, n: int, seed: int) -> SampleReport:
    """`boundary_pseudoconvexity` one point at a time on the per-point
    reference: each point's fixed point runs to convergence before the next
    point is drawn."""
    lam = _pointwise_evaluator(expand_r(spec).lam)
    f_ev = [_pointwise_evaluator(c) for c in spec.f]
    g_ev = [_pointwise_evaluator(c) for c in spec.g]
    rng = random.Random(seed)
    min_lambda, violations = math.inf, []
    for _ in range(n):
        w = numcheck._disc_point(rng, radius)
        y = rng.uniform(-radius, radius)
        x = 0.0
        for _ in range(numcheck.FIXED_POINT_CAP):
            z = complex(x, y)
            try:
                target = -0.5 * (_reference_norm(f_ev, z, w) - _reference_norm(g_ev, z, w))
            except OverflowError:
                target = math.inf
            if not math.isfinite(target):
                raise numcheck._divergence(radius)
            if abs(target - x) < numcheck.FIXED_POINT_TOL:
                x = target
                break
            x = target
        else:
            raise numcheck._divergence(radius)
        z = complex(x, y)
        try:
            value = lam(z, w).real
        except OverflowError:
            value = -math.inf
        if not math.isfinite(value):
            value = -math.inf
        min_lambda = min(min_lambda, value)
        if value < -numcheck.FIXED_POINT_TOL:
            violations.append(_reference_record(z, w, value))
    return SampleReport(radius=radius, n_samples=n, seed=seed,
                        min_lambda_on_boundary=min_lambda, violations=violations)


def _outcome(sampler, spec: DomainSpec, radius: float, n: int, seed: int):
    """A report as hex strings, or the exception's type and message."""
    try:
        report = sampler(spec, radius=radius, n=n, seed=seed)
    except BoundarySolveError as exc:
        return type(exc).__name__, str(exc)

    def text(value):
        return value.hex() if isinstance(value, float) else repr(value)

    return (
        text(report.radius), report.n_samples, report.seed, text(report.delta_hat),
        text(report.min_lambda_on_boundary), report.degenerate,
        [
            [text(v) for v in (*record["z"], *record["w"], record["value"])]
            for record in report.violations
        ],
    )


_SAMPLERS = [
    (sample_hypo, _reference_sample_hypo),
    (boundary_pseudoconvexity, _reference_boundary),
]
_MIXED = spec_of(["w^40 + z^3*w"], g=["w^2"])


class TestSamplersAgainstPointwise:
    """The block samplers against themselves one point at a time, bit for
    bit: the same report, or the same exception."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_specs(self, seed):
        rng = random.Random(seed)
        for _ in range(6):
            spec = DomainSpec(
                name="random",
                f=tuple(_random_component(rng) for _ in range(rng.randint(1, 2))),
                g=tuple(_random_component(rng) for _ in range(rng.randint(0, 2))),
            )
            for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 600):
                # Half the radii spread over the float range, half near 1.
                if rng.random() < 0.5:
                    radius = 10.0 ** rng.uniform(-300, 200)
                else:
                    radius = rng.uniform(0.01, 1.0)
                stream = rng.randrange(1000)
                for sampler, reference in _SAMPLERS:
                    assert _outcome(sampler, spec, radius, n, stream) == _outcome(
                        reference, spec, radius, n, stream
                    ), (sampler.__name__, spec, radius, n, stream)

    @pytest.mark.parametrize("radius", [1e8, 3e8])
    def test_a_block_of_overflowing_and_finite_points(self, radius):
        """On f = w^40 + z^3*w, g = w^2 some points of the first block raise
        OverflowError and others do not; each keeps its own outcome."""
        f_w = [_pointwise_evaluator(c.wirtinger("w")) for c in _MIXED.f]
        raised = []
        for z, w in polydisc_points(radius, _BLOCK, seed=7):
            try:
                _reference_norm(f_w, z, w)
                raised.append(False)
            except OverflowError:
                raised.append(True)
        assert any(raised) and not all(raised)
        for sampler, reference in _SAMPLERS:
            assert _outcome(sampler, _MIXED, radius, 600, 7) == _outcome(
                reference, _MIXED, radius, 600, 7
            )

    def test_a_later_block_diverges(self):
        """At this radius the boundary solve converges on the first block and
        diverges at a point of the second."""
        spec, radius = spec_of(["z^2"]), 0.8626
        assert boundary_pseudoconvexity(spec, radius=radius, n=_BLOCK, seed=1).violations == []
        with pytest.raises(BoundarySolveError):
            boundary_pseudoconvexity(spec, radius=radius, n=600, seed=1)
        assert _outcome(boundary_pseudoconvexity, spec, radius, 600, 1) == _outcome(
            _reference_boundary, spec, radius, 600, 1
        )


class TestReportSerialization:
    def test_each_report_owns_its_violations(self):
        first = SampleReport(radius=0.1, n_samples=5, seed=1)
        second = SampleReport(radius=0.1, n_samples=5, seed=1)
        assert first == second
        first.violations.append({"value": 1.0})
        assert second.violations == []
        assert first != second

    def test_report_fields_cannot_be_assigned(self):
        report = SampleReport(radius=0.1, n_samples=5, seed=1)
        with pytest.raises(AttributeError):
            report.degenerate = 3
        assert report.degenerate == 0

    def test_report_compares_by_value_and_is_unhashable(self):
        report = SampleReport(radius=0.1, n_samples=5, seed=1, degenerate=2)
        assert report != SampleReport(radius=0.1, n_samples=5, seed=2, degenerate=2)
        assert repr(report) == (
            "SampleReport(radius=0.1, n_samples=5, seed=1, delta_hat=None, "
            "min_lambda_on_boundary=None, degenerate=2, violations=[])"
        )
        with pytest.raises(TypeError):
            hash(report)

    def test_infinities_are_encoded(self):
        report = SampleReport(radius=0.1, n_samples=5, seed=1, delta_hat=math.inf)
        encoded = report.as_dict()
        assert encoded["delta_hat"] == "infinity"
        assert encoded["min_lambda_on_boundary"] is None

    def test_negative_infinities_keep_their_sign(self):
        report = SampleReport(
            radius=0.1,
            n_samples=5,
            seed=1,
            min_lambda_on_boundary=-math.inf,
            violations=[{"z": [0.0, 0.0], "w": [0.0, 0.0], "value": -math.inf}],
        )
        encoded = report.as_dict()
        assert encoded["min_lambda_on_boundary"] == "-infinity"
        assert [v["value"] for v in encoded["violations"]] == ["-infinity"]

    def test_infinite_violation_values_are_encoded(self):
        report = sample_hypo(spec_of(["z*w"], g=["w"]), radius=1e-9, n=5)
        assert [v["value"] for v in report.violations] == [math.inf] * 5
        encoded = report.as_dict()["violations"]
        assert [v["value"] for v in encoded] == ["infinity"] * 5
        assert [v["z"] for v in encoded] == [v["z"] for v in report.violations]

    def test_plain_fields_pass_through(self):
        report = sample_hypo(flat_domain(), radius=0.2, n=10)
        encoded = report.as_dict()
        assert encoded["delta_hat"] == 0.0
        assert encoded["n_samples"] == 10
        assert encoded["seed"] == 42
