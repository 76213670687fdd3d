"""The 161-spec digest: the traces and certified orders of a fixed spec set.

A change to the engine that must leave every answer alone keeps this digest,
and the Mora steps the set takes, as they are.  The specs, in this order:

- for each seed 7, 8 and 9, the benchmark's `grid_pass` and then its
  `pool_pass` of one `random.Random(seed)`;
- the cross-power specs of CROSS_POWERS;
- the borderline and two-component specs of the benchmark, read by
  `cli.spec_from_dict`;
- two z*w specs read the same way, so they carry its default name.

Each spec gives the SHA-256 hex of `serialize_trace(result) + "|" +
str(result.final_order)` under `run_kohn`'s defaults; the digest is the
SHA-256 of those hex strings, concatenated in order.  The steps are the
calls of `_Budget.spend`, each of which is one Mora reduction step.
"""

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from subelliptic import cli, localideal  # noqa: E402
from subelliptic.domain import cross_power_domain  # noqa: E402
from subelliptic.kohn import run_kohn, serialize_trace  # noqa: E402

CROSS_POWERS = [
    (3, 2, 4), (3, 2, 5), (3, 2, 6), (3, 2, 7), (3, 2, 16), (4, 3, 5), (4, 3, 6),
    (4, 3, 7), (5, 4, 6), (8, 7, 9), (4, 2, 5), (4, 1, 5), (6, 2, 7), (5, 3, 10),
    (5, 3, 14), (7, 5, 10),
]
# The first 16 hex digits of the digest.  A change may restate the step count
# only downward, and the digest only with a bump of the trace schema.
DIGEST = "547fc926deec021b"
MORA_STEPS = 52_923


def spec_set():
    specs = []
    for seed in (7, 8, 9):
        rng = random.Random(seed)
        specs += [case.spec for case in workloads.grid_pass(rng)]
        specs += [case.spec for case in workloads.pool_pass(rng)]
    specs += [cross_power_domain(*params) for params in CROSS_POWERS]
    specs += [cli.spec_from_dict(workloads.BORDERLINE), cli.spec_from_dict(workloads.TWO)]
    specs += [cli.spec_from_dict({"f": [f]}) for f in ("w^2 - z*w", "w^2 + (-5/2 + 6*i)*z*w")]
    return specs


def test_the_161_spec_digest_and_its_mora_steps(monkeypatch):
    steps, spend = [], localideal._Budget.spend

    def counted(budget):
        steps.append(None)
        spend(budget)

    monkeypatch.setattr(localideal._Budget, "spend", counted)
    specs = spec_set()
    assert len(specs) == 161
    digest = hashlib.sha256()
    for spec in specs:
        result = run_kohn(spec)
        text = serialize_trace(result) + "|" + str(result.final_order)
        digest.update(hashlib.sha256(text.encode("utf-8")).hexdigest().encode("ascii"))
    assert digest.hexdigest()[:16] == DIGEST
    assert len(steps) == MORA_STEPS
