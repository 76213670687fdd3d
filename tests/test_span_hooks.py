"""The benchmark's span hooks on the CLI path.

The traced `cli` pass of `perfbench/run.py` runs each command through
`perfbench/launch.py`: `cli.main` inside `spans.traced`, whose hooks read the
arguments and results of the engine calls they wrap (`_samples` reads a
report's `n_samples`).  A command whose calls no longer fit a hook dies in
the traced pass only, so these tests run the commands the same way.

`verify` checks lambda by an exact identity and no longer calls
`cli.finite_diff_levi`, so that stand-in is gone; the benchmark's hooks
skip its patch point, and so do these tests, by name only.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spans  # noqa: E402
from subelliptic import cli  # noqa: E402

CP325 = {"name": "cross-power(3,2,5)", "params": {"tau": 3, "l": 2, "k": 5}}
SAMPLES = 50
RETIRED = {"subelliptic.cli.finite_diff_levi"}


def _traced_main(argv, path):
    """What launch.py does: cli.main under the wrappers, spans to a file."""
    recorder = spans.Recorder()
    with spans.traced(recorder):
        code = recorder.call("cli.main", cli.main, argv)
    recorder.write(path)
    return code


SAMPLING = ["--samples", str(SAMPLES)]
# Each command's flags after the spec path; {tmp} is the test's directory.
FLAGS = {
    "verify": SAMPLING,
    "check-hypo": SAMPLING,
    "levi": [],
    "type": [],
    "kohn": ["--json", "{tmp}/trace.json"],
    "effective": SAMPLING,
    "compare": SAMPLING,
}


@pytest.mark.parametrize(
    "command, counted",
    [
        ("verify", ["domain.expand_r", "numcheck.boundary_pseudoconvexity"]),
        ("check-hypo", ["numcheck.sample_hypo"]),
        ("levi", ["domain.expand_r"]),
        ("type", ["domain.type_lower_bound"]),
        ("kohn", ["kohn.run_kohn"]),
        ("effective", ["effective.zeta_chain", "numcheck.sample_hypo"]),
        ("compare", ["kohn.run_kohn", "effective.zeta_chain", "numcheck.sample_hypo"]),
    ],
)
def test_a_traced_command_runs_as_untraced(command, counted, tmp_path, capsys):
    """The traced run gives the untraced exit status and stdout.  Every
    span in counted opens at least once (`kohn.run_kohn` opens twice, as
    both `cli.run_kohn` and `kohn.run_kohn` are wrapped under that name),
    and a numcheck span exactly once, with --samples points."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(CP325), encoding="utf-8")
    argv = [command, str(spec), *(flag.format(tmp=tmp_path) for flag in FLAGS[command])]
    code = cli.main(argv)
    untraced = capsys.readouterr().out
    assert code == 0

    path = tmp_path / "spans.jsonl"
    points = [(owner, attr) for owner, attr in spans.patch_points()
              if f"{owner.__name__}.{attr}" not in RETIRED]
    originals = [vars(owner)[attr] for owner, attr in points]
    assert _traced_main(argv, path) == code
    assert capsys.readouterr().out == untraced

    totals = spans.Totals()
    totals.add(spans.read_spans(path))
    assert totals.calls["cli.main"] == 1
    for name in counted:
        assert totals.calls[name] >= 1, name
        if name.startswith("numcheck."):
            assert totals.calls[name] == 1, name
            assert totals.counts[f"{name}.points"] == SAMPLES, name
    # The wrappers are gone once the block ends.
    assert [vars(owner)[attr] for owner, attr in points] == originals
