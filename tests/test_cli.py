"""Command line behavior: spec parsing, exit codes, JSON artifacts."""

import ast
import errno
import gc
import importlib
import json
import os
import re
import stat
import subprocess
import sys
import threading

import pytest

from subelliptic import cli
from subelliptic.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_UNDECIDED,
    SpecFileError,
    load_spec,
    main,
    spec_from_dict,
    trace_schema,
)
from subelliptic.domain import DomainError, DomainSpec, UndecidedError, expand_r
from subelliptic.effective import EffectiveError, InfiniteTypeError
from subelliptic.kohn import KohnError, run_kohn
from subelliptic.numcheck import BoundarySolveError
from subelliptic.polyring import Poly, canonical_str, parse_poly


def write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run_module(*argv):
    """Run `python -m subelliptic ARGV...` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "subelliptic", *argv], capture_output=True, text=True
    )


FLAT = {"name": "flat", "f": ["w"]}
CP325 = {"name": "cross-power(3,2,5)", "params": {"tau": 3, "l": 2, "k": 5}}
CP324 = {"name": "cross-power(3,2,4)", "params": {"tau": 3, "l": 2, "k": 4}}
BORDERLINE = {
    "name": "borderline",
    "f": ["w + w^5", "w^2"],
    "g": ["w"],
    "sample_radius": 0.01,
}
TWO = {"name": "two-component", "f": ["w^2 + z*w^2", "w^3"], "g": ["z*w^2"]}


class TestSpecLoading:
    def test_minimal_spec_defaults(self, tmp_path):
        """Name falls back to the file stem and the radius to 0.1."""
        spec = load_spec(write_spec(tmp_path, {"f": ["w"]}, name="disc.json"))
        assert spec.name == "disc"
        assert canonical_str(spec.f[0]) == "w"
        assert spec.g == ()
        assert spec.sample_radius == 0.1

    def test_library_and_spec_files_share_one_default_radius(self, tmp_path):
        from_file = load_spec(write_spec(tmp_path, {"f": ["w"]}))
        built = DomainSpec(name="disc", f=(parse_poly("w"),))
        assert built.sample_radius == from_file.sample_radius

    def test_full_spec_round_trip(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, BORDERLINE))
        assert spec.name == "borderline"
        assert [canonical_str(p) for p in spec.f] == ["w + w^5", "w^2"]
        assert [canonical_str(p) for p in spec.g] == ["w"]
        assert spec.sample_radius == 0.01

    def test_family_params_expand_before_anything_runs(self):
        spec = spec_from_dict(CP325)
        assert canonical_str(spec.f[0]) == "w^3 + z^5*w^2"
        assert spec.params == {"tau": 3, "l": 2, "k": 5}

    def test_family_with_l_zero_drops_the_w_factor(self, capsys):
        spec = spec_from_dict({"params": {"tau": 3, "l": 0, "k": 5}})
        assert canonical_str(spec.f[0]) == "w^3 + z^5"
        assert "warning" in capsys.readouterr().err

    def test_out_of_window_params_warn_but_run(self, capsys):
        spec = spec_from_dict({"params": {"tau": 2, "l": 1, "k": 3}})
        err = capsys.readouterr().err
        assert "k > tau > l > 0" in err
        assert canonical_str(spec.f[0]) == "w^2 + z^3*w"

    def test_in_window_params_stay_silent(self, capsys):
        spec_from_dict(CP325)
        assert capsys.readouterr().err == ""

    def test_nonpositive_exponents_are_hard_errors(self):
        with pytest.raises(SpecFileError, match="out of range"):
            spec_from_dict({"params": {"tau": 0, "l": 0, "k": 3}})

    def test_conjugate_variables_rejected(self):
        with pytest.raises(SpecFileError, match="holomorphic"):
            spec_from_dict({"f": ["wb"]})

    def test_syntax_errors_cite_the_position(self):
        with pytest.raises(SpecFileError, match="line 1"):
            spec_from_dict({"f": ["w^"]})

    @pytest.mark.parametrize(
        "params",
        [
            {"tau": 3.7, "l": 2, "k": 5},
            {"tau": 3.0, "l": 2, "k": 5},
            {"tau": "3", "l": 2, "k": 5},
            {"tau": 3, "l": True, "k": 5},
        ],
    )
    def test_family_params_must_be_json_integers(self, params):
        with pytest.raises(SpecFileError, match="needs integer entries"):
            spec_from_dict({"params": params})

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecFileError, match="unknown spec keys"):
            spec_from_dict({"f": ["w"], "radius": 0.2})

    def test_f_and_params_are_mutually_exclusive(self):
        with pytest.raises(SpecFileError, match="not both"):
            spec_from_dict({"f": ["w"], "params": {"tau": 3, "l": 2, "k": 5}})

    def test_empty_component_list_rejected(self):
        with pytest.raises(SpecFileError, match="at least one"):
            spec_from_dict({"f": []})

    def test_bad_radius_rejected(self):
        with pytest.raises(SpecFileError):
            spec_from_dict({"f": ["w"], "sample_radius": -0.5})
        with pytest.raises(SpecFileError, match="positive number"):
            spec_from_dict({"f": ["w"], "sample_radius": True})


class TestExitCodes:
    def test_levi_on_flat_prints_the_unit(self, tmp_path, capsys):
        code = main(["levi", write_spec(tmp_path, FLAT)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "1"

    def test_type_reports_bound_and_witness(self, tmp_path, capsys):
        code = main(["type", write_spec(tmp_path, CP325)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "type >= 6 (witness (0, t))"

    def test_kohn_success_line(self, tmp_path, capsys):
        code = main(["kohn", write_spec(tmp_path, CP325)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.strip() == "unit found, step 2, order 1/40, max radical order 5"

    def test_kohn_stall_exits_two(self, tmp_path, capsys):
        code = main(["kohn", write_spec(tmp_path, CP325), "--max-steps", "1"])
        assert code == EXIT_UNDECIDED
        assert "stalled after 1 steps" in capsys.readouterr().out

    def test_kohn_negative_levi_determinant_exits_two(self, tmp_path, capsys):
        code = main(["kohn", write_spec(tmp_path, {"f": ["z*w"], "g": ["w"]})])
        assert code == EXIT_UNDECIDED
        assert capsys.readouterr().out.strip() == (
            "stalled after 0 steps (Levi determinant is negative at the origin "
            "(lambda(0) = -1))"
        )

    def test_kohn_minus_a_sum_of_squares_exits_two(self, tmp_path, capsys):
        """lambda = -12*w*wb: verify samples the violation, kohn refuses it."""
        code = main(["kohn", write_spec(tmp_path, {"f": ["w^2"], "g": ["2*w^2"]})])
        assert code == EXIT_UNDECIDED
        assert capsys.readouterr().out.strip() == (
            "stalled after 0 steps (Levi determinant is negative near the origin: "
            "its lowest-degree part -12*w*wb is -12 at the boundary direction (0, 1))"
        )

    @pytest.mark.parametrize(
        "f,g",
        [("w^2", "z*w"), ("w^2", "w^2 + z*w"), ("w^3", "z*w - w^2")],
    )
    def test_kohn_indefinite_lowest_part_exits_two(self, tmp_path, capsys, f, g):
        """verify samples boundary violations on these specs; kohn refuses
        them at step 0 instead of certifying an order or running on."""
        out_path = tmp_path / "trace.json"
        spec = write_spec(tmp_path, {"f": [f], "g": [g]})
        code = main(["kohn", spec, "--json", str(out_path)])
        assert code == EXIT_UNDECIDED
        assert capsys.readouterr().out.startswith(
            "stalled after 0 steps (Levi determinant is negative near the origin: "
            "its lowest-degree part "
        )
        events = json.loads(out_path.read_text(encoding="utf-8"))["events"]
        assert [event["kind"] for event in events] == ["init", "outcome"]

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["levi", str(tmp_path / "absent.json")])
        assert code == EXIT_INPUT
        assert "cannot read spec file" in capsys.readouterr().err

    def test_invalid_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"f": [', encoding="utf-8")
        code = main(["levi", str(path)])
        assert code == EXIT_INPUT
        assert "invalid JSON" in capsys.readouterr().err

    def test_deeply_nested_component_exits_one(self, tmp_path, capsys):
        depth = sys.getrecursionlimit()
        spec = write_spec(tmp_path, {"f": ["(" * depth + "w" + ")" * depth]})
        assert main(["levi", spec]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: f\[0\]: expression nested too deeply \(line 1, column \d+\)\n", err
        )

    def test_spec_file_not_utf8_exits_one(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b'\xff\xfe{"f":["w"]}')
        proc = run_module("levi", str(path))
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr.startswith(f"error: {path}: not UTF-8 text: ")
        assert "Traceback" not in proc.stderr

    def test_deeply_nested_json_document_exits_one(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"f": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        proc = run_module("levi", str(path))
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr == f"error: {path}: invalid JSON: nested too deeply\n"

    @pytest.mark.parametrize(
        "radius", ["Infinity", "1e400", pytest.param("1" + "0" * 400, id="int-1e400")]
    )
    def test_infinite_sample_radius_exits_one(self, tmp_path, capsys, radius):
        path = tmp_path / "spec.json"
        path.write_text(
            f'{{"f": ["w"], "g": ["1/2*w"], "sample_radius": {radius}}}', encoding="utf-8"
        )
        code = main(["check-hypo", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.startswith("error: sample_radius")
        assert captured.out == ""

    def test_effective_refuses_failed_hypothesis(self, tmp_path, capsys):
        code = main(
            ["effective", write_spec(tmp_path, BORDERLINE), "--samples", "200"]
        )
        captured = capsys.readouterr()
        assert code == EXIT_REFUSED
        assert "hypothesis failed" in captured.out
        assert "refused" in captured.err
        assert "pass --force to run anyway" in captured.err

    def test_effective_refuses_when_no_sample_is_informative(self, tmp_path, capsys):
        spec = {"f": ["w^3"], "g": ["w^2"], "sample_radius": 1e-9}
        code = main(["effective", write_spec(tmp_path, spec)])
        captured = capsys.readouterr()
        assert code == EXIT_REFUSED
        assert "hypothesis failed on 1000 samples" in captured.out
        assert "no informative sample: all 1000 points were degenerate" in captured.out
        assert "refused" in captured.err

    @pytest.mark.parametrize(
        "command,code",
        [
            ("check-hypo", EXIT_REFUSED),
            ("effective", EXIT_UNDECIDED),
            ("compare", EXIT_UNDECIDED),
        ],
    )
    @pytest.mark.parametrize(
        "spec",
        [
            {"f": ["z"], "g": ["z^2*w^2"], "sample_radius": 1e110},
            {"f": ["z"], "g": ["z^2*w^2"], "sample_radius": 1e60},
            {"f": ["z*w"], "g": ["w"], "sample_radius": 1e-9},
        ],
        ids=["nan-g-1e110", "overflow-1e60", "live-g"],
    )
    def test_degenerate_points_that_read_infinite_are_not_called_skipped(
        self, tmp_path, capsys, command, code, spec
    ):
        """f_w vanishes, so every point that does not overflow is degenerate
        (all 1000 at 1e110 and 1e-9, none at 1e60, where the overflow raises),
        and each reads infinite: g_w is NaN or live there.  An infinite
        delta_hat cannot tell a skipped degenerate point from an infinite one,
        so neither the skipped line nor the no-informative-sample line is
        printed."""
        assert main([command, write_spec(tmp_path, spec)]) == code
        out = capsys.readouterr().out
        assert "delta_hat = infinity" in out
        assert "degenerate points skipped" not in out
        assert "no informative sample" not in out

    @pytest.mark.parametrize(
        "command,code,lines",
        [
            (
                "check-hypo",
                EXIT_REFUSED,
                [
                    "delta_hat = 0 over 1000 samples (radius 1e-09, seed 42)",
                    "degenerate points skipped: 1000",
                    "hypothesis fails (gate 0.99)",
                ],
            ),
            (
                "effective",
                EXIT_REFUSED,
                [
                    "hypothesis failed on 1000 samples: delta_hat = 0 (gate 0.99)",
                    "no informative sample: all 1000 points were degenerate",
                ],
            ),
            (
                "compare",
                EXIT_OK,
                [
                    "hypothesis failed on 1000 samples: delta_hat = 0 (gate 0.99)",
                    "no informative sample: all 1000 points were degenerate",
                    "type             4",
                    "optimal order    1/4",
                    "classic order    -",
                    "effective order  -",
                ],
            ),
        ],
    )
    def test_degenerate_points_are_skipped_when_delta_hat_is_finite(
        self, tmp_path, capsys, command, code, lines
    ):
        """f_w = 3w^2 and g_w = 2w both vanish to within the degeneracy
        threshold at radius 1e-9: every point is skipped."""
        spec = write_spec(tmp_path, {"f": ["w^3"], "g": ["w^2"], "sample_radius": 1e-9})
        assert main([command, spec]) == code
        assert capsys.readouterr().out.splitlines() == lines

    def test_effective_on_infinite_type_is_undecided_without_force_advice(
        self, tmp_path, capsys
    ):
        code = main(["effective", write_spec(tmp_path, {"f": ["z"]})])
        captured = capsys.readouterr()
        assert code == EXIT_UNDECIDED
        assert "no informative sample" in captured.out
        assert captured.err.startswith("undecided: ")
        assert "infinite type" in captured.err
        assert "--force" not in captured.err

    def test_effective_force_runs_but_marks_unsound(self, tmp_path, capsys):
        code = main(
            [
                "effective",
                write_spec(tmp_path, BORDERLINE),
                "--samples",
                "200",
                "--force",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "UNSOUND" in out

    def test_effective_assert_hypo_skips_sampling(self, tmp_path, capsys):
        code = main(
            ["effective", write_spec(tmp_path, BORDERLINE), "--assert-hypo"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "asserted" in out
        assert "delta_hat" not in out
        assert "unit found, component 0, tau 1, order 1/4" in out

    def test_check_hypo_exit_tracks_the_gate(self, tmp_path, capsys):
        ok = main(["check-hypo", write_spec(tmp_path, FLAT), "--samples", "100"])
        assert ok == EXIT_OK
        bad = main(
            ["check-hypo", write_spec(tmp_path, BORDERLINE), "--samples", "200"]
        )
        assert bad == EXIT_REFUSED
        assert "hypothesis fails" in capsys.readouterr().out

    def test_an_overflowing_hypothesis_sample_fails_the_gate(self, tmp_path, capsys):
        """The ratio |g_w|^2/|f_w|^2 is 1 everywhere, and at radius 1e200
        every sample of it is NaN: no sample verifies the hypothesis."""
        spec = write_spec(
            tmp_path,
            {"name": "same", "f": ["w^3"], "g": ["w^3"], "sample_radius": 1e200},
        )
        out_path = tmp_path / "hypo.json"
        code = main(["check-hypo", spec, "--samples", "20", "--json", str(out_path)])
        assert code == EXIT_REFUSED
        assert "delta_hat = infinity over 20 samples" in capsys.readouterr().out
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["report"]["delta_hat"] == "infinity"
        assert main(["effective", spec, "--samples", "20"]) == EXIT_REFUSED
        assert "refused" in capsys.readouterr().err

    def test_a_sample_that_overflows_the_float_range_fails_the_gate(self, tmp_path, capsys):
        """At radius 1e100 |f_w|^2 overflows in float **, which raises
        instead of giving inf, and so reads NaN; the point still counts as an
        infinite ratio, not a crash."""
        spec = write_spec(
            tmp_path,
            {"name": "same", "f": ["w^3"], "g": ["w^3"], "sample_radius": 1e100},
        )
        assert main(["check-hypo", spec, "--samples", "20"]) == EXIT_REFUSED
        out = capsys.readouterr().out
        assert "delta_hat = infinity over 20 samples" in out
        assert "hypothesis fails" in out
        assert main(["effective", spec, "--samples", "20"]) == EXIT_REFUSED
        assert "refused" in capsys.readouterr().err
        assert main(["compare", spec, "--samples", "20"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "effective order  -" in captured.out
        assert "effective run refused (hypothesis failed)" in captured.err

    def test_verify_when_the_boundary_solve_overflows_exits_one(self, tmp_path):
        """w^3 at 1e110: the exact Levi identity holds, then the boundary
        solve overflows and refuses."""
        spec = write_spec(tmp_path, {"f": ["w^3"], "sample_radius": 1e110})
        proc = run_module("verify", spec)
        assert proc.returncode == EXIT_INPUT
        assert proc.stdout == "Levi identity: exact\n"
        assert "retry with a smaller radius" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_verify_at_a_radius_too_large_to_solve_exits_one(self, tmp_path, capsys):
        code = main(["verify", write_spec(tmp_path, {"f": ["4*z"], "sample_radius": 0.5})])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.startswith("error: solving 2*Re(z) = -(|f|^2 - |g|^2)")
        assert captured.err.endswith("; retry with a smaller radius\n")

    def test_a_kohn_error_exits_two(self, tmp_path, capsys, monkeypatch):
        def inconsistent(*_, **__):
            raise KohnError("no ledger entry for z")

        monkeypatch.setattr(cli, "run_kohn", inconsistent)
        assert main(["kohn", write_spec(tmp_path, FLAT)]) == EXIT_UNDECIDED
        assert capsys.readouterr().err == "undecided: no ledger entry for z\n"

    @pytest.mark.parametrize(
        "error,bases",
        [
            (KohnError, (UndecidedError,)),
            (InfiniteTypeError, (EffectiveError, UndecidedError)),
            (BoundarySolveError, (DomainError,)),
        ],
    )
    def test_an_engine_error_carries_its_exit_status_in_its_class(self, error, bases):
        """main catches UndecidedError for exit 2 and DomainError for exit 1,
        both defined in `domain`, which every subcommand loads."""
        assert all(issubclass(error, base) for base in bases)

    def test_verify_passes_on_flat(self, tmp_path, capsys):
        code = main(["verify", write_spec(tmp_path, FLAT), "--samples", "100"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "Levi identity: exact" in out
        assert "boundary Levi minimum" in out

    def test_verify_fails_on_a_lambda_with_one_flipped_coefficient(
        self, tmp_path, capsys, monkeypatch
    ):
        """The exact identity catches a single wrong sign in expand_r's lambda."""

        def flipped(spec):
            data = expand_r(spec)
            terms = dict(data.lam.terms)
            mono = next(iter(terms))
            terms[mono] = -terms[mono]
            return data._replace(lam=Poly(terms))

        monkeypatch.setattr(cli, "expand_r", flipped)
        out_path = tmp_path / "verify.json"
        code = main(
            ["verify", write_spec(tmp_path, CP325), "--samples", "50", "--json", str(out_path)]
        )
        captured = capsys.readouterr()
        assert code == EXIT_UNDECIDED
        assert captured.out.splitlines()[0] == "Levi identity: fails"
        assert captured.err == "undecided: Levi identity fails\n"
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["levi_identity"] is False
        assert payload["summary"] == "Levi identity fails"

    def test_compare_prints_exact_fractions(self, tmp_path, capsys):
        code = main(["compare", write_spec(tmp_path, CP325), "--samples", "50"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        rows = {
            line.split()[0]: line.split()[-1]
            for line in out.splitlines()
            if line and not line.startswith("hypothesis")
        }
        assert rows["type"] == "6"
        assert rows["optimal"] == "1/6"
        assert rows["classic"] == "1/40"
        assert rows["effective"] == "1/16"

    @pytest.mark.parametrize(
        "spec,kind,optimal,classic",
        [
            (BORDERLINE, "4", "1/4", "1/32"),
            ({"name": "levi-flat", "f": ["w"], "g": ["w"]}, "infinity", "-", "-"),
            # lambda = -3*|r_z|^2: the classic chain refuses the origin
            ({"name": "concave", "f": ["w"], "g": ["2*w"]}, "2", "1/2", "-"),
        ],
        ids=["borderline", "levi-flat", "negative-levi"],
    )
    def test_compare_type_is_the_type_bound(
        self, tmp_path, capsys, spec, kind, optimal, classic
    ):
        """The type row agrees with the type subcommand, g included."""
        path = write_spec(tmp_path, spec)
        out_path = tmp_path / "cmp.json"
        main(["type", path])
        assert capsys.readouterr().out.startswith(f"type >= {kind} ")
        code = main(["compare", path, "--samples", "50", "--json", str(out_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert f"type             {kind}\noptimal order    {optimal}\n" in out
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["table"] == {
            "type": kind,
            "optimal": optimal,
            "classic": classic,
            "effective": "-",
        }

    def test_compare_without_a_finite_component_is_undecided(self, tmp_path, capsys):
        """f = (z*w) vanishes along (0, t), so the effective column has no
        component even though the refused run never selects one."""
        code = main(["compare", write_spec(tmp_path, {"f": ["z*w"], "g": ["w"]})])
        captured = capsys.readouterr()
        assert code == EXIT_UNDECIDED
        assert "hypothesis failed" in captured.out
        assert captured.err.startswith("undecided: every component of f vanishes")

    def test_orders_never_printed_as_decimals(self, tmp_path, capsys):
        main(["kohn", write_spec(tmp_path, CP324)])
        out = capsys.readouterr().out
        assert "1/32" in out
        assert "0.03" not in out and "0.031" not in out


class TestUsageErrors:
    """Bad flags and missing arguments exit 1 (malformed input), never 2."""

    @pytest.mark.parametrize(
        "command,extra,message",
        [
            ("kohn", ["--max-steps", "0"], "--max-steps: must be at least 1, got 0"),
            ("kohn", ["--max-steps", "-1"], "--max-steps: must be at least 1, got -1"),
            ("kohn", ["--max-steps", "x"], "--max-steps: invalid int value: 'x'"),
            ("kohn", ["--radical-cap", "0"], "--radical-cap: must be at least 1, got 0"),
            ("compare", ["--radical-cap", "0"], "--radical-cap: must be at least 1"),
            ("effective", ["--samples", "0"], "--samples: must be at least 1, got 0"),
            ("effective", ["--samples", "-3"], "--samples: must be at least 1, got -3"),
            ("check-hypo", ["--radius", "0"], "--radius: must be a positive number"),
            ("verify", ["--radius", "-0.1"], "--radius: must be a positive number"),
            ("verify", ["--radius", "nan"], "--radius: must be a positive number"),
        ],
    )
    def test_out_of_range_flags_exit_one(self, tmp_path, capsys, command, extra, message):
        out_path = tmp_path / "out.json"
        argv = [command, write_spec(tmp_path, BORDERLINE), *extra, "--json", str(out_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_INPUT
        assert message in captured.err
        assert captured.out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [[], ["kohn"], ["bogus", "spec.json"]])
    def test_missing_or_unknown_arguments_exit_one(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_type_takes_no_curve_degree_cap(self, tmp_path, capsys):
        """The type bound is the vertical contact; there is no curve search to cap."""
        with pytest.raises(SystemExit) as exc:
            main(["type", write_spec(tmp_path, FLAT), "--curve-degree-cap", "3"])
        assert exc.value.code == EXIT_INPUT
        assert "unrecognized arguments: --curve-degree-cap 3" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    spec_path = write_spec(tmp, CP324)
    out_path = tmp / "trace.json"
    code = main(["kohn", spec_path, "--json", str(out_path)])
    assert code == EXIT_OK
    return json.loads(out_path.read_text(encoding="utf-8"))


class TestJsonArtifacts:
    def test_schema_file_is_itself_valid(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.Draft202012Validator.check_schema(trace_schema())

    def test_kohn_trace_validates_against_schema(self, trace):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(trace, trace_schema())

    def test_a_certificate_with_an_unknown_rule_fails_validation(self, trace):
        jsonschema = pytest.importorskip("jsonschema")
        doctored = json.loads(json.dumps(trace))
        doctored["certificates"][0]["rule"] = "algebraic-power"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doctored, trace_schema())

    def test_trace_brackets_and_config_echo(self, trace):
        assert trace["events"][0]["kind"] == "init"
        assert trace["events"][-1]["kind"] == "outcome"
        assert trace["config"]["max_steps"] == 16
        assert trace["config"]["radical_cap"] == 32
        assert trace["spec"]["f"] == ["w^3 + z^4*w^2"]
        assert trace["summary"].startswith("unit found")

    def test_flattened_certificates_carry_steps(self, trace):
        assert trace["certificates"], "expected at least one radical certificate"
        for cert in trace["certificates"]:
            assert cert["step"] >= 1
            assert "/" in cert["multiplier_order"] or cert["multiplier_order"] == "1"

    def test_rerun_from_spec_echo_reproduces_events(self, trace):
        """The artifact carries everything needed to replay the run."""
        echo = trace["spec"]
        replayed = spec_from_dict(
            {
                "name": echo["name"],
                "f": echo["f"],
                "g": echo["g"],
                "sample_radius": echo["sample_radius"],
            }
        )
        result = run_kohn(
            replayed,
            max_steps=trace["config"]["max_steps"],
            radical_cap=trace["config"]["radical_cap"],
        )
        assert json.loads(json.dumps(list(result.events))) == trace["events"]

    def test_effective_artifact_records_soundness(self, tmp_path):
        out_path = tmp_path / "eff.json"
        code = main(
            [
                "effective",
                write_spec(tmp_path, BORDERLINE),
                "--samples",
                "200",
                "--force",
                "--json",
                str(out_path),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["hypothesis"] == "failed"
        assert payload["sound"] is False
        assert payload["final_order"] == "1/4"
        assert [step["order"] for step in payload["chain"]] == ["1/4"]

    def test_compare_artifact_uses_fraction_strings(self, tmp_path):
        out_path = tmp_path / "cmp.json"
        code = main(
            [
                "compare",
                write_spec(tmp_path, CP324),
                "--samples",
                "50",
                "--json",
                str(out_path),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["table"] == {
            "type": "6",
            "optimal": "1/6",
            "classic": "1/32",
            "effective": "1/16",
        }

    @pytest.mark.parametrize(
        "spec,extra,min_lambda",
        [
            (FLAT, [], "0x1.0000000000000p+0"),
            (BORDERLINE, [], "0x1.1f4db7fa0a1d3p-20"),
            (TWO, [], "0x1.c0f0544fe6f62p-14"),
            (CP325, [], "0x1.bacc040927056p-28"),
            # Several blocks of the boundary sampler, the last one partial.
            (
                {"name": "cross-power(6,1,10)", "params": {"tau": 6, "l": 1, "k": 10}},
                ["--samples", "2500"],
                "0x1.a47e0cb2a049dp-83",
            ),
        ],
        ids=[
            "flat",
            "borderline",
            "two-component",
            "cross-power(3,2,5)",
            "cross-power(6,1,10)",
        ],
    )
    def test_verify_artifact_is_pinned(self, tmp_path, capsys, spec, extra, min_lambda):
        """The verify run holds the exact Levi identity and reproduces its
        boundary floats bit for bit."""
        out_path = tmp_path / "verify.json"
        code = main(
            ["verify", write_spec(tmp_path, spec), *extra, "--json", str(out_path)]
        )
        assert code == EXIT_OK
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["levi_identity"] is True
        assert float(payload["boundary"]["min_lambda_on_boundary"]).hex() == min_lambda

    def test_degenerate_check_hypo_artifact_is_strict_json(self, tmp_path):
        """Infinite ratios are written as strings, never as bare Infinity."""
        out_path = tmp_path / "hypo.json"
        spec = write_spec(tmp_path, {"f": ["z"], "g": ["w"]})
        code = main(["check-hypo", spec, "--samples", "20", "--json", str(out_path)])
        assert code == EXIT_REFUSED

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        payload = json.loads(out_path.read_text(encoding="utf-8"), parse_constant=reject)
        report = payload["report"]
        assert report["degenerate"] == 20
        assert report["delta_hat"] == "infinity"
        assert len(report["violations"]) == 20
        assert {v["value"] for v in report["violations"]} == {"infinity"}

    @pytest.mark.parametrize(
        "command,extra,target",
        [
            ("levi", [], "directory"),
            ("verify", ["--samples", "20"], "missing/x.json"),
            ("levi", [], "missing/"),
        ],
    )
    def test_unwritable_artifact_path_exits_one(
        self, tmp_path, capsys, command, extra, target
    ):
        """A directory, a path in a missing directory or a path that names a
        directory by its trailing separator is an input error."""
        spec = write_spec(tmp_path, FLAT)
        (tmp_path / "directory").mkdir()
        code = main([command, spec, *extra, "--json", os.path.join(tmp_path, target)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out  # the subcommand ran and reported before the write
        assert "error: cannot write --json artifact:" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["directory", "spec.json"]

    def test_an_empty_artifact_path_exits_one(self, tmp_path, capsys, monkeypatch):
        """--json "" names no file: it fails like any other unwritable path
        instead of being read as no --json at all."""
        monkeypatch.chdir(tmp_path)
        code = main(["levi", write_spec(tmp_path, FLAT), "--json", ""])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out
        assert captured.err == (
            "error: cannot write --json artifact: "
            f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_rewriting_an_artifact_replaces_the_file(self, tmp_path, capsys):
        """A second run onto the same path writes a new file, not a truncation."""
        spec = write_spec(tmp_path, FLAT)
        fresh, out_path = tmp_path / "fresh.json", tmp_path / "kohn.json"
        assert main(["kohn", spec, "--json", str(fresh)]) == EXIT_OK
        assert main(["kohn", spec, "--json", str(out_path)]) == EXIT_OK
        first = out_path.stat().st_ino
        assert main(["kohn", spec, "--json", str(out_path)]) == EXIT_OK
        assert out_path.read_bytes() == fresh.read_bytes()
        assert out_path.stat().st_ino != first
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fresh.json",
            "kohn.json",
            "spec.json",
        ]

    @staticmethod
    def _fail_part_way(monkeypatch, error):
        """Make the artifact's write raise error after writing 10 characters."""

        def failing_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            write = fh.write

            def write_part(text):
                write(text[:10])
                fh.flush()
                raise error

            fh.write = write_part
            return fh

        monkeypatch.setattr(cli, "open", failing_open, raising=False)

    def test_a_failed_write_leaves_the_old_artifact(self, tmp_path, capsys, monkeypatch):
        """The old artifact survives a write that fails part way, and no
        sibling file is left behind."""
        spec = write_spec(tmp_path, FLAT)
        out_path = tmp_path / "kohn.json"
        assert main(["kohn", spec, "--json", str(out_path)]) == EXIT_OK
        before = out_path.read_bytes()
        capsys.readouterr()
        self._fail_part_way(monkeypatch, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
        code = main(["kohn", spec, "--json", str(out_path)])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert out_path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kohn.json", "spec.json"]
        assert err == (
            "error: cannot write --json artifact: "
            f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{out_path}'\n"
        )

    def test_an_interrupted_write_leaves_no_sibling(self, tmp_path, capsys, monkeypatch):
        spec = write_spec(tmp_path, FLAT)
        self._fail_part_way(monkeypatch, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            main(["kohn", spec, "--json", str(tmp_path / "kohn.json")])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_a_symlinked_path_updates_its_target(self, tmp_path, capsys):
        spec = write_spec(tmp_path, FLAT)
        fresh, target = tmp_path / "fresh.json", tmp_path / "target.json"
        link = tmp_path / "link.json"
        target.write_text("old\n", encoding="utf-8")
        link.symlink_to(target.name)
        assert main(["kohn", spec, "--json", str(fresh)]) == EXIT_OK
        assert main(["kohn", spec, "--json", str(link)]) == EXIT_OK
        assert link.is_symlink()
        assert os.readlink(link) == target.name
        assert target.read_bytes() == fresh.read_bytes()

    def test_a_device_target_is_written_in_place(self, tmp_path, capsys):
        """--json os.devnull discards the artifact and leaves the device be."""
        spec = write_spec(tmp_path, FLAT)
        assert main(["kohn", spec, "--json", os.devnull]) == EXIT_OK
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_fifo_target_is_written_in_place(self, tmp_path, capsys):
        spec = write_spec(tmp_path, FLAT)
        fresh, fifo = tmp_path / "fresh.json", tmp_path / "pipe"
        assert main(["kohn", spec, "--json", str(fresh)]) == EXIT_OK
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True
        )
        reader.start()
        assert main(["kohn", spec, "--json", str(fifo)]) == EXIT_OK
        reader.join(timeout=10)
        assert received == [fresh.read_bytes()]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fresh.json",
            "pipe",
            "spec.json",
        ]

    def test_json_to_redirected_stdout_keeps_the_redirect_target(self, tmp_path):
        """/dev/stdout resolves to the file stdout is open on; that file is
        written through, not unlinked."""
        spec = write_spec(tmp_path, FLAT)
        fresh, out_path = tmp_path / "fresh.json", tmp_path / "out.json"
        assert main(["levi", spec, "--json", str(fresh)]) == EXIT_OK
        with open(out_path, "w", encoding="utf-8") as out:
            inode = os.fstat(out.fileno()).st_ino
            proc = subprocess.run(
                [sys.executable, "-m", "subelliptic", "levi", spec, "--json", "/dev/stdout"],
                stdout=out,
            )
        assert proc.returncode == 0
        assert out_path.stat().st_ino == inode
        assert out_path.read_bytes().startswith(fresh.read_bytes())
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fresh.json",
            "out.json",
            "spec.json",
        ]

    def test_a_stale_sibling_is_replaced(self, tmp_path, capsys):
        """A sibling left by a killed run with this pid does not block the write."""
        spec = write_spec(tmp_path, FLAT)
        fresh, out_path = tmp_path / "fresh.json", tmp_path / "kohn.json"
        (tmp_path / f".kohn.json.{os.getpid()}.tmp").write_text("stale", encoding="utf-8")
        assert main(["kohn", spec, "--json", str(fresh)]) == EXIT_OK
        assert main(["kohn", spec, "--json", str(out_path)]) == EXIT_OK
        assert out_path.read_bytes() == fresh.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fresh.json",
            "kohn.json",
            "spec.json",
        ]

    def test_an_artifact_that_cannot_be_unlinked_is_written_in_place(
        self, tmp_path, capsys, monkeypatch
    ):
        """Another user's writable artifact in a sticky directory is rewritten
        in place, and the sibling is removed."""
        spec = write_spec(tmp_path, FLAT)
        fresh, out_path = tmp_path / "fresh.json", tmp_path / "kohn.json"
        assert main(["kohn", spec, "--json", str(fresh)]) == EXIT_OK
        out_path.write_text("old\n", encoding="utf-8")
        inode = out_path.stat().st_ino
        unlink = os.unlink

        def refuse_target(path, *args, **kwargs):
            if os.fspath(path) == str(out_path):
                raise PermissionError(errno.EPERM, os.strerror(errno.EPERM), path)
            return unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", refuse_target)
        assert main(["kohn", spec, "--json", str(out_path)]) == EXIT_OK
        assert out_path.stat().st_ino == inode
        assert out_path.read_bytes() == fresh.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fresh.json",
            "kohn.json",
            "spec.json",
        ]

    def test_an_artifact_in_a_directory_refusing_new_files_is_written_in_place(
        self, tmp_path, capsys, monkeypatch
    ):
        spec = write_spec(tmp_path, FLAT)
        fresh, out_path = tmp_path / "fresh.json", tmp_path / "kohn.json"
        assert main(["kohn", spec, "--json", str(fresh)]) == EXIT_OK
        out_path.write_text("old\n", encoding="utf-8")
        inode = out_path.stat().st_ino

        def refuse_new_files(path, mode="r", *args, **kwargs):
            if "x" in mode:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", refuse_new_files, raising=False)
        assert main(["kohn", spec, "--json", str(out_path)]) == EXIT_OK
        assert out_path.stat().st_ino == inode
        assert out_path.read_bytes() == fresh.read_bytes()
        assert main(["kohn", spec, "--json", str(tmp_path / "new.json")]) == EXIT_INPUT
        assert "[Errno 13]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,spec,key",
        [("type", {"f": ["z"]}, "type"), ("compare", {"f": ["w"], "g": ["w"]}, "table")],
    )
    def test_an_infinite_type_is_written_as_a_string(self, tmp_path, command, spec, key):
        """f = z, and f = g = w, leave r = 2*Re(z) along (0, t): infinite type."""
        out_path = tmp_path / "out.json"
        main([command, write_spec(tmp_path, spec), "--json", str(out_path)])
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        value = payload[key]["type"] if command == "compare" else payload[key]["value"]
        assert value == "infinity"

    def test_infinity_is_spelled_in_one_module(self):
        """The report and artifact spelling of +-inf has one owner."""
        package = os.path.dirname(cli.__file__)
        owners = []
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                if any(
                    isinstance(node, ast.Constant) and node.value == "infinity"
                    for node in ast.walk(tree)
                ):
                    owners.append(name)
        assert owners == ["domain.py"]

    def test_verify_passes_where_r_overflows_the_float_range(self, tmp_path, capsys):
        """w^2 at 1e77: r overflows floats, but the Levi identity is exact and
        lambda = 4*w*wb >= 0 on the sampled boundary, so verify passes and
        writes strict JSON."""
        out_path = tmp_path / "verify.json"
        spec = write_spec(tmp_path, {"f": ["w^2"], "sample_radius": 1e77})
        code = main(["verify", spec, "--json", str(out_path)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.out.splitlines()[0] == "Levi identity: exact"
        assert captured.err == ""

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        payload = json.loads(out_path.read_text(encoding="utf-8"), parse_constant=reject)
        assert payload["levi_identity"] is True
        assert payload["summary"] == "checks passed"

    @pytest.mark.parametrize(
        "spec",
        [
            # lambda is -inf on the sampled boundary, or NaN where the
            # infinities cancel.
            {"f": ["(1+i)*z*w^4"], "g": ["(1+i)*z*w^4 + i*w^2"]},
            # The solve converges at x = -0.0 and lambda is NaN everywhere.
            {
                "f": ["1/2*z^2*w^4 + 1/2*z^3*w^3"],
                "g": ["1/2*z^2*w^4 + 1/2*z^3*w^3 + 2*z*w + i*z^3*w^2"],
            },
            # Evaluating lambda overflows the float range.
            {"f": ["2*z*w + i*z*w^6"], "g": ["2*z*w + i*z*w^6 + 2*w^6"]},
        ],
        ids=["negative-infinity", "nan", "overflow"],
    )
    def test_a_non_finite_boundary_lambda_is_minus_infinity(self, tmp_path, capsys, spec):
        """Every sampled lambda bounds nothing: each is a violation of value
        -inf, printed and written with its sign."""
        out_path = tmp_path / "verify.json"
        path = write_spec(tmp_path, {**spec, "sample_radius": 1e20})
        code = main(["verify", path, "--samples", "50", "--json", str(out_path)])
        assert code == EXIT_UNDECIDED
        captured = capsys.readouterr()
        assert "boundary Levi minimum: -infinity" in captured.out
        assert "pseudoconvexity violated on 50 boundary samples" in captured.err

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        payload = json.loads(out_path.read_text(encoding="utf-8"), parse_constant=reject)
        boundary = payload["boundary"]
        assert boundary["min_lambda_on_boundary"] == "-infinity"
        assert [v["value"] for v in boundary["violations"]] == ["-infinity"] * 50

    @pytest.mark.parametrize(
        "command,extra,fields",
        [
            (
                "levi",
                [],
                {"config": {"command": "levi"}, "lambda": "1", "summary": "1"},
            ),
            (
                "type",
                [],
                {
                    "config": {"command": "type"},
                    "type": {"value": "2", "witness": "(0, t)"},
                    "summary": "type >= 2 (witness (0, t))",
                },
            ),
            (
                "check-hypo",
                ["--samples", "20", "--seed", "7"],
                {
                    "config": {
                        "command": "check-hypo",
                        "radius": None,
                        "samples": 20,
                        "seed": 7,
                    },
                    "report": {
                        "degenerate": 0,
                        "delta_hat": 0.0,
                        "min_lambda_on_boundary": None,
                        "n_samples": 20,
                        "radius": 0.1,
                        "seed": 7,
                        "violations": [],
                    },
                    "summary": "hypothesis holds",
                },
            ),
            (
                "verify",
                ["--samples", "20", "--seed", "7"],
                {
                    "config": {
                        "command": "verify",
                        "radius": None,
                        "samples": 20,
                        "seed": 7,
                    },
                    "boundary": {
                        "degenerate": 0,
                        "delta_hat": None,
                        "min_lambda_on_boundary": 1.0,
                        "n_samples": 20,
                        "radius": 0.1,
                        "seed": 7,
                        "violations": [],
                    },
                    "levi_identity": True,
                    "summary": "checks passed",
                },
            ),
        ],
    )
    def test_flat_artifact_fields(self, tmp_path, command, extra, fields):
        """Every artifact is {config, spec} plus its own fields, nothing else."""
        out_path = tmp_path / "out.json"
        code = main([command, write_spec(tmp_path, FLAT), *extra, "--json", str(out_path)])
        assert code == EXIT_OK
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload.pop("spec") == {
            "name": "flat",
            "f": ["w"],
            "g": [],
            "params": None,
            "sample_radius": 0.1,
        }
        assert payload == fields


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "subelliptic.cli", "levi", write_spec(tmp_path, FLAT)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1"

    def test_package_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "subelliptic", "type", write_spec(tmp_path, FLAT)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "type >= 2 (witness (0, t))"

    def test_replay_is_byte_identical_across_hash_seeds(self, tmp_path):
        """The engine keeps sets of strings, whose iteration order follows the
        interpreter's hash seed; a kohn artifact must not depend on it."""
        spec = write_spec(tmp_path, TWO)
        artifacts = []
        for seed in ("0", "1"):
            out = tmp_path / f"kohn-{seed}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "subelliptic", "kohn", spec, "--json", str(out)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            artifacts.append(out.read_bytes())
        assert artifacts[0] == artifacts[1]

    def test_help_lists_subcommands(self):
        proc = subprocess.run(
            [sys.executable, "-m", "subelliptic.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for name in ("levi", "type", "kohn", "effective", "check-hypo", "verify", "compare"):
            assert name in proc.stdout

    @pytest.mark.parametrize(
        "argv, engine",
        [
            (["levi"], set()),
            (["type"], set()),
            (["check-hypo", "--samples", "20"], {"numcheck"}),
            (["verify", "--samples", "20"], {"numcheck"}),
            (["effective", "--samples", "20"], {"effective", "numcheck"}),
            (["kohn"], {"kohn", "localideal"}),
            (["compare", "--samples", "20"], {"kohn", "localideal", "effective", "numcheck"}),
        ],
        ids=["levi", "type", "check-hypo", "verify", "effective", "kohn", "compare"],
    )
    def test_subcommand_imports_only_the_engine_it_runs(self, tmp_path, argv, engine):
        """Start-up time is mostly import, so levi and type skip the Kohn engine
        and no subcommand but kohn and compare imports dataclasses."""
        child = (
            "import json, sys\n"
            "from subelliptic import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )
        spec = write_spec(tmp_path, FLAT)
        proc = subprocess.run(
            [sys.executable, "-c", child, argv[0], spec, *argv[1:]],
            capture_output=True,
            text=True,
        )
        code, modules = json.loads(proc.stdout.splitlines()[-1])
        assert code == EXIT_OK, proc.stderr
        loaded = {name.rpartition(".")[2] for name in modules if name.startswith("subelliptic.")}
        assert loaded & {"kohn", "localideal", "effective", "numcheck"} == engine
        # Every record is a named tuple but kohn's KohnResult, still a
        # dataclass, so only kohn and compare import dataclasses.
        assert ("dataclasses" in modules) == ("kohn" in engine)


class TestProcessEntry:
    """`subelliptic` and `python -m subelliptic` run cli.run, which wraps main.

    The entry only ever runs in a child process: it freezes the heap, which
    must not happen to the test process.
    """

    SUBCOMMANDS = [
        ["levi"],
        ["type"],
        ["kohn"],
        ["effective", "--samples", "50"],
        ["check-hypo", "--samples", "50"],
        ["verify", "--samples", "50"],
        ["compare", "--samples", "50"],
    ]

    def test_main_leaves_the_heap_unfrozen(self, tmp_path, capsys):
        before = gc.get_freeze_count()
        assert main(["levi", write_spec(tmp_path, CP325)]) == EXIT_OK
        assert gc.get_freeze_count() == before

    def test_the_entry_freezes_the_heap_and_keeps_atexit(self, tmp_path):
        child = (
            "import atexit, gc, sys\n"
            "from subelliptic import cli\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
            "sys.exit(cli.run())\n"
        )
        spec = write_spec(tmp_path, CP325)
        proc = subprocess.run(
            [sys.executable, "-c", child, "levi", spec], capture_output=True, text=True
        )
        assert proc.returncode == EXIT_OK
        assert proc.stdout == "9*w^2*wb^2 + 6*z^5*w*wb^2 + 6*zb^5*w^2*wb + 4*z^5*zb^5*w*wb\n"
        assert re.fullmatch(r"frozen (\d+)\n", proc.stderr)
        assert int(proc.stderr.split()[1]) > 0

    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=[a[0] for a in SUBCOMMANDS])
    def test_the_entry_matches_main(self, tmp_path, capsys, argv):
        """Output, status and artifact of the entry are those of main in-process."""
        spec = write_spec(tmp_path, CP325)
        child_json, main_json = tmp_path / "child.json", tmp_path / "main.json"
        proc = run_module(argv[0], spec, *argv[1:], "--json", str(child_json))
        code = main([argv[0], spec, *argv[1:], "--json", str(main_json)])
        out, err = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        assert child_json.read_bytes() == main_json.read_bytes()

    def test_the_console_script_runs_the_module_entry(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["subelliptic"]
        module, _, name = target.partition(":")
        entry = getattr(importlib.import_module(module), name)
        assert entry is importlib.import_module("subelliptic.__main__").run

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_a_reader_that_closed_the_pipe_exits_1_quietly(self, tmp_path, unbuffered):
        """The child writes into a pipe whose read end is already closed."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "subelliptic", "levi", write_spec(tmp_path, CP325)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_a_closed_stdout_is_no_error(self, tmp_path):
        """Started with stdout closed, Python has no sys.stdout to flush."""
        proc = subprocess.run(
            [sys.executable, "-m", "subelliptic", "levi", write_spec(tmp_path, CP325)],
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=lambda: os.close(1),
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
