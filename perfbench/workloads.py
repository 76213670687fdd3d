"""The three workloads: their inputs, drawn from a seed, and their known answers.

Every workload is a list of instances that makes one *pass*; a run repeats
the pass.  Instances are checked against answers fixed here, never against
the engine itself, and the checks run outside the timed interval.

* grid - `run_kohn` on the cross-power contract grid plus one seeded
  instance.  Known answer: order 1/(8lk - 8k) on the diagonal l = tau - 1,
  and for the four contract instances a pinned SHA-256 of the trace.
* pool - `run_kohn` on f = w^a + c*z^b*w^e, the criterion-8 family.
  Known answer: order 1/2 for a = 1 (nondegenerate Levi form) and 1/8 for
  a = 2 (2^-(tau+1) at tau = 2).
* cli - `python -m subelliptic` subcommands on four spec files, checked
  on exit status and printed values.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

from subelliptic import kohn
from subelliptic.domain import DomainSpec, cross_power_domain
from subelliptic.polyring import GaussRational, Poly, parse_poly

MAX_STEPS = 16  # the CLI defaults, which is what users run
RADICAL_CAP = 32

# ROADMAP byte-identity contract: serialize_trace of these runs never changes.
GRID_DIGESTS = {
    (3, 2, 4): "758c4937fbd5b977d11e53a222b8bdd9e292ec8e99bfe66516fc45dec9fdaa53",
    (3, 2, 5): "dee80937a9d47f503facf0738741fb2a0acc75f6be7c4e08a18e5f79fcc1dfd0",
    (4, 3, 6): "aad2ad28d3157acb9586b405118c43b93ab617397ad6b4edcd37e3061e342e5b",
    (3, 2, 6): "6665549fde72d38080a2f20b8640611515b9ffe3c2b2130c8c3706d90e5527f3",
}
GRID_SEEDED = ((3, 2, 7), (4, 3, 5), (4, 3, 7), (5, 4, 6))


@dataclass(frozen=True)
class KohnCase:
    """One in-process run_kohn call and the answer it must give."""

    label: str
    spec: DomainSpec
    order: Fraction
    digest: Optional[str] = None


@dataclass(frozen=True)
class CliCase:
    """One CLI subprocess and the check its output must pass."""

    label: str
    subcommand: str
    argv: tuple[str, ...]
    check: Callable[[subprocess.CompletedProcess], list[str]]


def trace_digest(result) -> str:
    return hashlib.sha256(kohn.serialize_trace(result).encode("utf-8")).hexdigest()


def check_kohn(case: KohnCase, result) -> list[str]:
    """Problems with one run_kohn result; an empty list means it is right."""
    problems = []
    if result.outcome is not kohn.Outcome.SUCCESS:
        problems.append(f"{case.label}: {result.outcome.value} ({result.reason})")
    elif result.final_order != case.order:
        problems.append(f"{case.label}: order {result.final_order}, expected {case.order}")
    audit = kohn.audit_trace(result)
    if audit:
        problems.append(f"{case.label}: audit_trace: {audit[0]}")
    if case.digest is not None and trace_digest(result) != case.digest:
        problems.append(f"{case.label}: trace digest differs from the pinned one")
    return problems


# ---------------------------------------------------------------------------
# grid


def cross_power_order(tau: int, l: int, k: int) -> Fraction:
    """The certified order of the cross-power family on its diagonal l = tau - 1.

    Off the diagonal the closed form is wrong (see README), so it is refused.
    """
    if l != tau - 1:
        raise ValueError(f"no known order off the diagonal l = tau - 1: {(tau, l, k)}")
    return Fraction(1, 8 * l * k - 8 * k)


# (4,3,6) and (3,2,6) run twice a pass, so that the median always lands on
# one of them, the largest contract instances, whichever instance the seed
# draws: (4,3,5) costs about what (3,2,5) does, the other three more than
# (3,2,6), and with one copy each the median would jump by a fifth between
# seeds.
GRID_PASS = ((3, 2, 4), (3, 2, 5), (4, 3, 6), (3, 2, 6), (4, 3, 6), (3, 2, 6))


def grid_pass(rng: random.Random) -> list[KohnCase]:
    params = list(GRID_PASS) + [rng.choice(GRID_SEEDED)]
    return [
        KohnCase(
            label=f"cross-power{p}",
            spec=cross_power_domain(*p),
            order=cross_power_order(*p),
            digest=GRID_DIGESTS.get(p),
        )
        for p in params
    ]


# ---------------------------------------------------------------------------
# pool

# Shares of one 40-instance pass, chosen so that the median and the tail
# percentile both land inside the cluster of cheap a=2 instances (about
# 0.3 s each) rather than on the edge between two clusters: 12 a=1
# instances (the pre-loop fast path, a few ms), w^2 alone, 8 of each cheap
# shape z^b (b = 1, 2, 3) and one of each costly shape z^b*w (1.4-5.4 s).
POOL_A1 = 12
POOL_CHEAP_REPEAT = 8
POOL_SHAPES = ((1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1))


def _gauss(rng: random.Random) -> GaussRational:
    while True:
        c = GaussRational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        )
        if not c.is_zero():
            return c


def pool_case(a: int, shape: Optional[tuple[int, int]], c: GaussRational) -> KohnCase:
    terms = {(0, 0, a, 0): GaussRational.one()}
    if shape is not None:
        b, e = shape
        terms[(b, 0, e, 0)] = c
    spec = DomainSpec(name=f"pool-a{a}", f=(Poly(terms),))
    order = Fraction(1, 2) if a == 1 else Fraction(1, 8)
    return KohnCase(label=f"pool a={a} shape={shape} c={c}", spec=spec, order=order)


def pool_pass(rng: random.Random) -> list[KohnCase]:
    shapes_a1 = [None, *POOL_SHAPES]
    cases = [pool_case(1, rng.choice(shapes_a1), _gauss(rng)) for _ in range(POOL_A1)]
    cases.append(pool_case(2, None, GaussRational.one()))
    for b, e in POOL_SHAPES:
        repeat = POOL_CHEAP_REPEAT if e == 0 else 1
        cases.extend(pool_case(2, (b, e), _gauss(rng)) for _ in range(repeat))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# cli

BORDERLINE = {"name": "borderline", "f": ["w + w^5", "w^2"], "g": ["w"]}
FLAT = {"name": "flat", "f": ["w"]}
TWO = {"name": "two-component", "f": ["w^2 + z*w^2", "w^3"], "g": ["z*w^2"]}

# Levi determinants worked out by hand.  With r = 2Re(z) + |f|^2 for one
# component f, lambda = |f_w|^2; the two-component spec reduces to
# r = 2Re(z) + |w|^4 (1 + z + zb) + |w|^6.
LEVI_BORDERLINE = "5*w^4 + 5*wb^4 + 25*w^4*wb^4 + 4*w*wb"
LEVI_TWO = (
    "4*w*wb + 4*z*w*wb + 4*zb*w*wb + 9*w^2*wb^2 + 6*w^4*wb^4"
    " - 4*w^5*wb^5 - 4*z*w^5*wb^5 - 4*zb*w^5*wb^5 - 3*w^6*wb^6"
)
ORDER_TWO = Fraction(1, 8)  # pinned from the seed's certified run


def levi_cross_power(tau: int, l: int, k: int) -> str:
    """|f_w|^2 for f = w^tau + z^k*w^l, written out term by term."""
    return (
        f"{tau * tau}*w^{tau - 1}*wb^{tau - 1}"
        f" + {tau * l}*w^{tau - 1}*zb^{k}*wb^{l - 1}"
        f" + {tau * l}*z^{k}*w^{l - 1}*wb^{tau - 1}"
        f" + {l * l}*z^{k}*zb^{k}*w^{l - 1}*wb^{l - 1}"
    )


def _exit(proc, code: int) -> list[str]:
    if proc.returncode != code:
        tail = (proc.stderr or "").strip().splitlines()[-1:] or [""]
        return [f"exit {proc.returncode}, expected {code}: {tail[0]}"]
    return []


def expect_levi(text: str):
    want = parse_poly(text)

    def check(proc):
        problems = _exit(proc, 0)
        if not problems and parse_poly(proc.stdout.strip()) != want:
            problems.append(f"levi printed {proc.stdout.strip()!r}, expected {text!r}")
        return problems

    return check


def expect_lines(code: int, *lines: str):
    """Exit status code, and each of lines printed verbatim on stdout."""

    def check(proc):
        problems = _exit(proc, code)
        printed = proc.stdout.splitlines()
        problems += [f"no line {line!r} in {proc.stdout!r}" for line in lines
                     if line not in printed]
        return problems

    return check


def expect_trace(path: Path, order: Fraction):
    """kohn --json: success at the known order, and the events pass audit_trace."""

    def check(proc):
        problems = _exit(proc, 0)
        if problems:
            return problems
        events = json.loads(path.read_text(encoding="utf-8"))["events"]
        outcome = events[-1]
        if outcome.get("outcome") != "success" or Fraction(outcome["order"]) != order:
            problems.append(f"trace outcome {outcome}, expected order {order}")
        audit = kohn.audit_trace(SimpleNamespace(events=events))
        if audit:
            problems.append(f"audit_trace: {audit[0]}")
        return problems

    return check


def cli_pass(rng: random.Random, workdir: Path) -> list[CliCase]:
    """Fourteen subcommands over four specs; writes the spec files to workdir.

    `kohn two` and `compare two` cost about the same and the most, and make
    the top tenth of a run's latencies, so that the tail percentile falls
    inside their cluster rather than at the top of the `verify` one.
    """
    tau = rng.randint(3, 6)
    l, k = rng.randint(1, tau - 1), rng.randint(tau + 1, tau + 4)
    cross = {"name": f"cross-power({tau},{l},{k})", "params": {"tau": tau, "l": l, "k": k}}
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, spec in (("cross", cross), ("borderline", BORDERLINE), ("flat", FLAT), ("two", TWO)):
        paths[key] = workdir / f"{key}.json"
        paths[key].write_text(json.dumps(spec), encoding="utf-8")
    trace_flat, trace_two = workdir / "kohn-flat.json", workdir / "kohn-two.json"
    effective = f"unit found, component 0, tau {tau}, order 1/{2 ** (tau + 1)}"
    cases = [
        ("levi", "cross", (), expect_levi(levi_cross_power(tau, l, k))),
        ("type", "cross", (), expect_lines(0, f"type >= {2 * tau} (witness (0, t))")),
        ("effective", "cross", (), expect_lines(0, effective)),
        ("check-hypo", "cross", (), expect_lines(0, "hypothesis holds (gate 0.99)")),
        ("verify", "cross", (), expect_lines(0)),
        ("levi", "borderline", (), expect_levi(LEVI_BORDERLINE)),
        ("effective", "borderline", (), expect_lines(3)),
        ("check-hypo", "borderline", (), expect_lines(3, "hypothesis fails (gate 0.99)")),
        ("verify", "borderline", (), expect_lines(0)),
        ("kohn", "flat", ("--json", str(trace_flat)), expect_trace(trace_flat, Fraction(1, 2))),
        ("compare", "flat", (), expect_lines(
            0, "type             2", "optimal order    1/2",
            "classic order    1/2", "effective order  1/4")),
        ("levi", "two", (), expect_levi(LEVI_TWO)),
        ("kohn", "two", ("--json", str(trace_two)), expect_trace(trace_two, ORDER_TWO)),
        ("compare", "two", (), expect_lines(
            0, "type             4", "optimal order    1/4",
            "classic order    1/8", "effective order  1/8")),
    ]
    return [
        CliCase(
            label=f"{sub} {key}",
            subcommand=sub,
            argv=(sub, str(paths[key]), *extra),
            check=check,
        )
        for sub, key, extra, check in cases
    ]
