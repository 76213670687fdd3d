"""Tests of the benchmark's own parts: the known-answer oracle and the spans.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, spans, workloads  # noqa: E402
from subelliptic import kohn  # noqa: E402
from subelliptic.domain import cross_power_domain, expand_r  # noqa: E402
from subelliptic.polyring import GaussRational, canonical_str  # noqa: E402


def small_case():
    """w^2 alone: about 0.2 s, with probes, standard bases and Mora steps."""
    return workloads.pool_case(2, None, GaussRational.one())


def run_small(case):
    return kohn.run_kohn(case.spec, max_steps=workloads.MAX_STEPS,
                         radical_cap=workloads.RADICAL_CAP)


def test_oracle_accepts_the_known_answer():
    case = small_case()
    assert workloads.check_kohn(case, run_small(case)) == []


def test_oracle_rejects_a_tampered_order():
    case = small_case()
    result = run_small(case)
    tampered = dataclasses.replace(result, final_order=Fraction(1, 16))
    assert workloads.check_kohn(case, tampered) == [
        f"{case.label}: order 1/16, expected 1/8"]
    wrong_answer = dataclasses.replace(case, order=Fraction(1, 2))
    assert workloads.check_kohn(wrong_answer, result)


def test_oracle_rejects_a_tampered_trace_digest():
    case = small_case()
    result = run_small(case)
    pinned = dataclasses.replace(case, digest=workloads.trace_digest(result))
    assert workloads.check_kohn(pinned, result) == []
    events = [dict(e) for e in result.events]
    events[0]["domain"] = "renamed"
    tampered = dataclasses.replace(result, events=events)
    assert workloads.check_kohn(pinned, tampered) == [
        f"{case.label}: trace digest differs from the pinned one"]


def test_grid_pins_the_four_contract_digests():
    cases = workloads.grid_pass(random.Random(0))
    assert {c.digest for c in cases[:-1]} == set(workloads.GRID_DIGESTS.values())
    assert cases[-1].digest is None and cases[-1].spec.params is not None
    first = cases[0]  # (3, 2, 4), about 2 s
    assert workloads.check_kohn(first, run_small(first)) == []


def test_cross_power_order_is_refused_off_the_diagonal():
    assert workloads.cross_power_order(4, 3, 6) == Fraction(1, 96)
    with pytest.raises(ValueError):
        workloads.cross_power_order(4, 2, 5)


@pytest.mark.parametrize("params", [(3, 1, 4), (4, 2, 7), (6, 5, 10)])
def test_hand_written_levi_matches_the_engine(params):
    check = workloads.expect_levi(workloads.levi_cross_power(*params))
    printed = canonical_str(expand_r(cross_power_domain(*params)).lam) + "\n"
    assert check(subprocess.CompletedProcess([], 0, printed, "")) == []
    assert check(subprocess.CompletedProcess([], 0, "w*wb\n", ""))


def test_cli_checks_reject_a_wrong_exit_status():
    check = workloads.expect_lines(3, "hypothesis fails (gate 0.99)")
    ok = subprocess.CompletedProcess([], 3, "hypothesis fails (gate 0.99)\n", "")
    assert check(ok) == []
    assert check(subprocess.CompletedProcess([], 0, ok.stdout, ""))


def current_patch_points():
    return {(owner, attr): vars(owner).get(attr) for owner, attr in spans.patch_points()}


def test_untraced_run_installs_no_wrappers(monkeypatch):
    before = current_patch_points()

    class Refused:
        def __init__(self, *args):
            raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(spans, "traced", Refused)
    monkeypatch.setattr(run, "build_pass", lambda workload, seed: [small_case()])
    monkeypatch.setattr(run, "setup_seconds", lambda workload, seed: 1.0)
    tally, metrics = run.measure("pool", 0, 0.0)
    assert tally.failed == 0 and len(tally.latencies) == 1
    assert current_patch_points() == before


def test_traced_run_records_spans_and_restores_every_wrapper(monkeypatch, tmp_path):
    before = current_patch_points()
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    monkeypatch.setattr(run, "build_pass", lambda workload, seed: [small_case()])
    monkeypatch.setattr(run, "spawn_seconds", lambda argv, repeats: 0.1)
    tally, metrics = run.measure_traced("pool", 0)
    assert tally.failed == 0 and len(tally.latencies) == 2
    assert metrics["localideal.nf_mora.calls"] > 0
    assert metrics["localideal.nf_mora.steps"] > 0
    assert metrics["localideal.probe.memberships"] > 0
    assert metrics["kohn.run_kohn.steps_used"] == 1
    assert current_patch_points() == before


def test_wrappers_are_restored_when_the_traced_block_raises():
    before = current_patch_points()
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Recorder()):
            assert current_patch_points() != before
            raise RuntimeError("boom")
    assert current_patch_points() == before


def test_self_time_subtracts_child_spans():
    totals = spans.Totals()
    totals.add([
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["d", 2.0, 3.0, 1, None],
        ["c", 5.0, 6.0, 0, None],
    ])
    assert totals.self_s == {"a": 6.0, "b": 2.0, "d": 1.0, "c": 1.0}
    assert totals.total_s["a"] == 10.0


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(30))) == (19, 100.0 * 20 / 30)
    assert run.tail(list(range(11))) == (5, 50.0)
