"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints exactly one PASS/FAIL line
(bypassing capture so the verdicts show up in plain pytest output), and
fails loudly when any sub-check misses.  Tolerances are exact unless a
numeric bound is stated inline.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from subelliptic.polyring import GaussRational, Poly, canonical_str, parse_poly
from subelliptic.domain import (
    DomainSpec,
    borderline_domain,
    cross_power_domain,
    expand_r,
    flat_domain,
    type_lower_bound,
)
from subelliptic.localideal import LocalIdeal, _power_sweep
from subelliptic.kohn import Outcome, run_kohn, serialize_trace
from subelliptic.effective import HypoStatus, zeta_chain
from subelliptic.numcheck import (
    boundary_pseudoconvexity,
    finite_diff_levi,
    polydisc_points,
    sample_hypo,
)
from subelliptic.cli import EXIT_REFUSED, main


def announce(capsys, number: int, label: str, problems: list, detail: str) -> None:
    verdict = "PASS" if not problems else "FAIL"
    report = detail if not problems else "; ".join(problems)
    with capsys.disabled():
        print(f"[acceptance] criterion {number} ({label}): {verdict} [{report}]")
    assert not problems, f"criterion {number} ({label}): {report}"


def random_gauss(rng: random.Random) -> GaussRational:
    return GaussRational(
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
    )


def random_holo(rng: random.Random, max_terms: int = 5, max_exp: int = 3) -> Poly:
    """Random holomorphic polynomial vanishing at the origin, degree <= 6."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e_z, e_w = rng.randint(0, max_exp), rng.randint(0, max_exp)
        if e_z == 0 and e_w == 0:
            e_w = 1
        terms[(e_z, 0, e_w, 0)] = random_gauss(rng)
    return Poly(terms)


def random_poly(rng: random.Random, max_terms: int = 6, max_exp: int = 3) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(4))
        terms[mono] = random_gauss(rng)
    return Poly(terms)


PROP1 = [(3, 2, 4), (3, 2, 5), (4, 3, 6)]


@pytest.fixture(scope="module")
def classic_runs():
    """Classic chain runs for every family instance used below, timed."""
    runs = {}
    for tau, l, k in PROP1 + [(3, 2, 6)]:
        spec = cross_power_domain(tau, l, k)
        start = time.perf_counter()
        runs[(tau, l, k)] = (run_kohn(spec), time.perf_counter() - start)
    return runs


def test_criterion_1_levi_identity(capsys):
    """Symbolic Levi form of a pure square is exactly f_w * conj(f_w)."""
    problems = []
    rng = random.Random(20260814)
    start = time.perf_counter()
    for case in range(20):
        f = random_holo(rng)
        spec = DomainSpec(name=f"square-{case}", f=(f,))
        lam = expand_r(spec).lam
        f_w = f.wirtinger("w")
        if lam != f_w * f_w.conj():
            problems.append(f"case {case}: lambda != |f_w|^2 for {canonical_str(f)}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 1s")
    announce(capsys, 1, "Levi identity", problems, f"20 random squares exact, {elapsed:.2f}s")


def test_criterion_2_classic_family_reproduction(capsys, classic_runs):
    """Cross-power runs succeed at step 2 with the certified exact orders."""
    problems = []
    details = []
    for tau, l, k in PROP1:
        result, elapsed = classic_runs[(tau, l, k)]
        tag = f"({tau},{l},{k})"
        expected = Fraction(1, 8 * l * k - 8 * k)
        if result.outcome is not Outcome.SUCCESS or result.steps_used != 2:
            problems.append(f"{tag}: expected success at step 2, got {result.summary()}")
            continue
        if result.final_order != expected:
            problems.append(f"{tag}: order {result.final_order} != {expected}")
        radical = next(
            e for e in result.events if e["kind"] == "radical" and e["step"] == 2
        )
        w_cert = next(
            (c for c in radical["certificates"] if c["element"] == "w"), None
        )
        if w_cert is None or w_cert["order"] != tau - l + 1:
            problems.append(f"{tag}: missing w^(tau-l+1) membership certificate")
        elif w_cert["probe_log"][-1] != [tau - l + 1, "yes"]:
            problems.append(f"{tag}: w probe log does not end in yes")
        z_cert = next(
            (c for c in radical["certificates"] if c["element"] == "z"), None
        )
        if z_cert is None:
            problems.append(f"{tag}: no z root certificate")
        else:
            if z_cert["probe_log"] != [[m, "no"] for m in range(1, k)] + [[k, "yes"]]:
                problems.append(f"{tag}: z probe log misses failures below {k}")
            snapshot = LocalIdeal([parse_poly(s) for s in z_cert["probe_ideal"]])
            floor = _power_sweep({"z": parse_poly("z")}, snapshot, 8)[0]
            if floor != k:
                problems.append(f"{tag}: recomputed z floor {floor} != {k}")
        if elapsed >= 10.0:
            problems.append(f"{tag}: runtime {elapsed:.1f}s exceeds 10s")
        details.append(f"{tag} -> {result.final_order} in {elapsed:.1f}s")
    announce(capsys, 2, "classic family orders", problems, ", ".join(details))


def test_criterion_3_ineffectiveness_divergence(capsys, classic_runs):
    """Type stays at 6 while certified orders decay along k = 4, 5, 6."""
    problems = []
    orders = []
    for k in (4, 5, 6):
        spec = cross_power_domain(3, 2, k)
        bound = type_lower_bound(spec)
        if bound != 6:
            problems.append(f"k={k}: type bound {bound} != 6")
        orders.append(classic_runs[(3, 2, k)][0].final_order)
    if orders != [Fraction(1, 32), Fraction(1, 40), Fraction(1, 48)]:
        problems.append(f"orders {orders} != [1/32, 1/40, 1/48]")
    if not (orders[0] > orders[1] > orders[2]):
        problems.append("orders are not strictly decreasing")
    announce(
        capsys,
        3,
        "ineffectiveness divergence",
        problems,
        "type 6 constant, orders " + " > ".join(str(o) for o in orders),
    )


def test_criterion_4_effective_chains(capsys):
    """Derivative chains have length tau and order 2^-(tau+1)."""
    problems = []
    start = time.perf_counter()
    cases = [(spec_args, Fraction(1, 2 ** (tau + 1)), tau) for spec_args, tau in
             [((3, 2, 4), 3), ((3, 2, 5), 3), ((4, 3, 6), 4)]]
    for (tau, l, k), expected, tau_expected in cases:
        result = zeta_chain(cross_power_domain(tau, l, k), HypoStatus.ASSERTED)
        tag = f"({tau},{l},{k})"
        if len(result.chain) != tau_expected:
            problems.append(f"{tag}: chain length {len(result.chain)} != {tau_expected}")
        if result.chain[-1].poly.constant_term().is_zero():
            problems.append(f"{tag}: chain does not end in a unit")
        if result.final_order != expected:
            problems.append(f"{tag}: order {result.final_order} != {expected}")
    flat = zeta_chain(flat_domain(), HypoStatus.ASSERTED)
    if flat.final_order != Fraction(1, 4) or len(flat.chain) != 1:
        problems.append(f"flat: expected single-step chain at 1/4, got {flat.summary()}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 1s")
    announce(
        capsys,
        4,
        "effective chains",
        problems,
        f"orders 1/16, 1/16, 1/32 and flat 1/4, {elapsed:.2f}s",
    )


def test_criterion_5_type_computation(capsys):
    """type_lower_bound returns 2*tau on the family and 2 on the flat domain."""
    problems = []
    start = time.perf_counter()
    for tau, l, k in PROP1:
        bound = type_lower_bound(cross_power_domain(tau, l, k))
        if bound != 2 * tau:
            problems.append(f"({tau},{l},{k}): type {bound} != {2 * tau}")
    flat_bound = type_lower_bound(flat_domain())
    if flat_bound != 2:
        problems.append(f"flat: type {flat_bound} != 2")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 5s")
    announce(capsys, 5, "type computation", problems, f"6, 6, 8 and flat 2, {elapsed:.2f}s")


def test_criterion_6_borderline_domain(capsys, tmp_path):
    """The k=5 borderline domain: hypothesis fails, boundary stays convex."""
    problems = []
    start = time.perf_counter()
    spec = borderline_domain()
    report = sample_hypo(spec, radius=0.01, n=1000, seed=42)
    if report.delta_hat is None or report.delta_hat < 0.99:
        problems.append(f"delta_hat {report.delta_hat} < 0.99")
    boundary = boundary_pseudoconvexity(spec, radius=0.1, seed=42)
    if boundary.min_lambda_on_boundary < -1e-10:
        problems.append(f"boundary min {boundary.min_lambda_on_boundary} < -1e-10")
    if boundary.violations:
        problems.append(f"{len(boundary.violations)} pseudoconvexity violations")
    expected_lam = parse_poly("5*w^4 + 5*wb^4 + 25*w^4*wb^4 + 4*w*wb")
    lam = expand_r(spec).lam
    if lam != expected_lam:
        problems.append(f"lambda {canonical_str(lam)} is not the closed form")
    spec_path = tmp_path / "borderline.json"
    spec_path.write_text(
        json.dumps(
            {
                "name": "borderline",
                "f": ["w + w^5", "w^2"],
                "g": ["w"],
                "sample_radius": 0.01,
            }
        ),
        encoding="utf-8",
    )
    code = main(["effective", str(spec_path)])
    if code != EXIT_REFUSED:
        problems.append(f"effective exit code {code} != {EXIT_REFUSED}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 5s")
    announce(
        capsys,
        6,
        "borderline refusal",
        problems,
        f"delta_hat {report.delta_hat:.7f}, exact lambda, exit 3, {elapsed:.2f}s",
    )


def test_criterion_7_finite_difference_oracle(capsys):
    """Numerical Levi values agree with the symbolic form on every spec."""
    problems = []
    start = time.perf_counter()
    specs = [flat_domain(), borderline_domain()] + [
        cross_power_domain(tau, l, k) for tau, l, k in PROP1 + [(3, 2, 6)]
    ]
    points = polydisc_points(0.5, 100, 20260814)
    worst_overall = 0.0
    for spec in specs:
        worst = finite_diff_levi(spec, points)
        worst_overall = max(worst_overall, worst)
        if worst > 1e-5:
            problems.append(f"{spec.name}: relative error {worst:.2e} > 1e-5")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 5s")
    announce(
        capsys,
        7,
        "finite difference oracle",
        problems,
        f"{len(specs)} specs, max error {worst_overall:.2e}, {elapsed:.2f}s",
    )


def test_criterion_8_property_suites(capsys):
    """Randomized invariants, at least 100 cases per suite, zero failures."""
    problems = []
    rng = random.Random(8141)
    counts = {}

    failures = 0
    for _ in range(150):
        p = random_poly(rng)
        if p.conj().conj() != p:
            failures += 1
    counts["involution"] = 150
    if failures:
        problems.append(f"conjugation involution failed {failures} times")

    failures = 0
    for _ in range(120):
        p, q = random_poly(rng), random_poly(rng)
        v = rng.choice(("z", "w", "zb", "wb"))
        if (p * q).wirtinger(v) != p.wirtinger(v) * q + p * q.wirtinger(v):
            failures += 1
    counts["leibniz"] = 120
    if failures:
        problems.append(f"Leibniz rule failed {failures} times")

    failures = 0
    for case in range(100):
        f = tuple(random_holo(rng) for _ in range(rng.randint(1, 2)))
        g = tuple(random_holo(rng) for _ in range(rng.randint(0, 1)))
        lam = expand_r(DomainSpec(name=f"real-{case}", f=f, g=g)).lam
        if lam != lam.conj():
            failures += 1
    counts["levi reality"] = 100
    if failures:
        problems.append(f"Levi reality failed {failures} times")

    failures = 0
    for case in range(100):
        a = rng.randint(1, 2)
        terms = {(0, 0, a, 0): GaussRational(Fraction(1), Fraction(0))}
        if rng.random() < 0.8:
            coeff = random_gauss(rng)
            while coeff.is_zero():
                coeff = random_gauss(rng)
            terms[(rng.randint(1, 3), 0, rng.randint(0, 1), 0)] = coeff
        spec = DomainSpec(name=f"pool-{case}", f=(Poly(terms),))
        first = run_kohn(spec, max_steps=3, radical_cap=8)
        second = run_kohn(spec, max_steps=3, radical_cap=8)
        if serialize_trace(first) != serialize_trace(second):
            failures += 1
    counts["trace determinism"] = 100
    if failures:
        problems.append(f"trace determinism failed {failures} times")

    failures = 0
    for _ in range(150):
        p = random_poly(rng)
        if parse_poly(canonical_str(p)) != p:
            failures += 1
    counts["round-trip"] = 150
    if failures:
        problems.append(f"parse/print round-trip failed {failures} times")

    detail = ", ".join(f"{name} x{n}" for name, n in counts.items())
    announce(capsys, 8, "property suites", problems, detail)
