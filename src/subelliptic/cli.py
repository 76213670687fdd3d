"""Command line front end: spec files in, certified orders and checks out.

A spec file is a JSON object carrying the holomorphic data of one model
domain near the origin of C^2:

    {
      "name": "cross-power(3,2,5)",
      "f": ["w^3 + z^5*w^2"],
      "g": [],
      "sample_radius": 0.1
    }

Component strings use the variables z and w only; conjugates never appear
in input because the defining function builds them internally.  Instead of
an explicit list "f" the file may carry {"params": {"tau": 3, "l": 2,
"k": 5}}, which expands to the single component w^tau + z^k*w^l before
anything else runs.  Exponents outside the window k > tau > l > 0 with
tau > 2 are accepted for experimentation but draw a warning, since the
order comparisons are only certified inside it.

Certified orders are printed as exact fractions, never as decimals.  Exit
status is the machine interface: 0 for success, 1 for malformed input
(usage errors included), 2 when a run stalls or a check remains undecided,
and 3 when the requested computation is refused because its hypothesis
failed on samples.  An error's class sets its status: a
`domain.UndecidedError` exits 2, a `DomainError` or `ParseError` exits 1,
and a spec file error is a `DomainError`.

Most of a short command's wall time is interpreter start and import, so a
subcommand imports only the engine modules it runs.  At module level this
file loads `polyring` and `domain`, which every subcommand needs to read a
spec.  `levi` and `type` need nothing more.  `check-hypo` and `verify` load
the samplers in `numcheck`; `effective` loads `effective` and `numcheck`;
`kohn` loads `kohn` with its ideal layer `localideal`; `compare` loads all
of them.  The entry points of those modules stay names of this module
(`run_kohn`, `zeta_chain`, `sample_hypo`, `finite_diff_levi`,
`boundary_pseudoconvexity`), each a stand-in that imports its module on the
first call, so a caller can still patch them here.

The engine's records (`DomainSpec`, `LeviData`, `SampleReport`, `ZetaStep`,
`EffectiveResult`, `RadicalCertificate`) are named tuples, not
dataclasses: importing `dataclasses` pulls in `inspect`, `ast`, `dis`,
`tokenize` and `copy`, 13-16 ms under `python -X importtime` on one CPU,
more than `argparse`.  Only `kohn.KohnResult` is a dataclass, because the
benchmark's tests rebuild results with `dataclasses.replace`; so only `kohn`
and `compare` load it.

A `--json` artifact is written whole to a new file beside its resolved
path, then the old artifact is unlinked and the new one renamed onto the
path, so while the system stays up a reader never sees a half-written
artifact there.  Truncating an existing file instead makes ext4 (mounted
with `auto_da_alloc`) flush it when it is closed, and renaming onto it
flushes too: on a 2-core VM either took 45-88 ms to rewrite a 10-36 KB
artifact, and this write 0.2-0.3 ms.  The path is briefly absent between
the unlink and the rename, a rewritten artifact gets a new file's default
mode, and hard links to the old artifact keep the old content.  Nothing
calls fsync, and the flush no longer happens: a crash before the next
writeback can leave an empty file at the path, or none, with the old
artifact gone.  A device, a FIFO, a stream such as /dev/stdout, and an
artifact whose directory refuses the new file or the unlink are written in
place, as before.

Process lifecycle: `subelliptic` and `python -m subelliptic` enter at `run`,
which calls `main`, flushes stdout and calls `gc.freeze()` before the
interpreter exits.  Unfrozen, the exit collects a heap that the operating
system is about to reclaim anyway: 5 ms of each of the fourteen commands
of the benchmark's `cli` workload (Python 3.11, one pinned CPU of a 2-core
VM, with or without a bytecode cache).  The collections at exit leave
frozen objects out, so all the exit skips is freeing memory and the
`__del__` of objects still in reference cycles at exit, which Python never
promises to run.  It still runs the atexit handlers (coverage and
`weakref.finalize` among them), flushes the std streams and keeps the exit
status, and every file a command writes is closed by a `with` block before
`main` returns.  `os._exit` would save 1 ms more but skips the atexit
handlers and the flush.  `main` itself neither flushes nor freezes, so the
tests and the benchmark's launcher can call it in-process.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import json
import math
import os
import stat
import sys
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .polyring import ParseError, canonical_str, parse_poly
from .domain import (
    DEFAULT_SAMPLE_RADIUS,
    TYPE_WITNESS,
    DomainError,
    DomainSpec,
    UndecidedError,
    expand_r,
    type_lower_bound,
)

if TYPE_CHECKING:
    from .effective import HypoStatus


def _on_first_call(module: str, name: str):
    """A stand-in for module.name that imports the module when first called."""

    def call(*args, **kwargs):
        return getattr(import_module(f"{__package__}.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


run_kohn = _on_first_call("kohn", "run_kohn")
zeta_chain = _on_first_call("effective", "zeta_chain")
sample_hypo = _on_first_call("numcheck", "sample_hypo")
finite_diff_levi = _on_first_call("numcheck", "finite_diff_levi")
boundary_pseudoconvexity = _on_first_call("numcheck", "boundary_pseudoconvexity")


EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNDECIDED = 2
EXIT_REFUSED = 3

FINITE_DIFF_TOL = 1e-5

_SPEC_KEYS = {"name", "f", "g", "params", "sample_radius"}


class SpecFileError(DomainError):
    """A spec file could not be turned into a domain description."""


def _parse_components(values, label: str) -> tuple:
    if not isinstance(values, list) or not all(isinstance(s, str) for s in values):
        raise SpecFileError(f"'{label}' must be a list of polynomial strings")
    components = []
    for idx, text in enumerate(values):
        try:
            components.append(parse_poly(text))
        except ParseError as exc:
            raise SpecFileError(f"{label}[{idx}]: {exc}") from None
    return tuple(components)


def _expand_family(params) -> tuple[str, dict]:
    """Turn {"tau", "l", "k"} into the component string w^tau + z^k*w^l."""
    if not isinstance(params, dict):
        raise SpecFileError("'params' must be an object with tau, l and k")
    extra = set(params) - {"tau", "l", "k"}
    if extra:
        raise SpecFileError(f"unknown family parameters: {', '.join(sorted(extra))}")
    values = [params.get(key) for key in ("tau", "l", "k")]
    if not all(type(v) is int for v in values):
        raise SpecFileError("'params' needs integer entries tau, l and k")
    tau, l, k = values
    if tau < 1 or k < 1 or l < 0:
        raise SpecFileError(
            f"family exponents out of range: tau={tau}, l={l}, k={k} "
            "(need tau >= 1, k >= 1, l >= 0)"
        )
    if not (k > tau > l > 0 and tau > 2):
        print(
            f"warning: parameters tau={tau}, l={l}, k={k} leave the window "
            "k > tau > l > 0, tau > 2; order comparisons are not certified here",
            file=sys.stderr,
        )
    return f"w^{tau} + z^{k}*w^{l}", {"tau": tau, "l": l, "k": k}


def spec_from_dict(data, default_name: str = "spec") -> DomainSpec:
    """Validate a decoded spec document and build the DomainSpec."""
    if not isinstance(data, dict):
        raise SpecFileError("spec file must hold a JSON object")
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise SpecFileError(f"unknown spec keys: {', '.join(sorted(unknown))}")
    name = data.get("name", default_name)
    if not isinstance(name, str) or not name:
        raise SpecFileError("'name' must be a nonempty string")
    params = None
    if "params" in data:
        if "f" in data:
            raise SpecFileError("give either 'f' or family 'params', not both")
        text, params = _expand_family(data["params"])
        f = (parse_poly(text),)
    elif "f" in data:
        f = _parse_components(data["f"], "f")
        if not f:
            raise SpecFileError("'f' must name at least one component")
    else:
        raise SpecFileError("spec needs 'f' components or family 'params'")
    g = _parse_components(data.get("g", []), "g")
    radius = data.get("sample_radius", DEFAULT_SAMPLE_RADIUS)
    if isinstance(radius, bool) or not isinstance(radius, (int, float)):
        raise SpecFileError("'sample_radius' must be a positive number")
    try:
        radius = float(radius)
    except OverflowError:  # an integer beyond the float range
        radius = math.inf
    try:
        return DomainSpec(name=name, f=f, g=g, params=params, sample_radius=radius)
    except (DomainError, ValueError) as exc:
        raise SpecFileError(str(exc)) from None


def load_spec(path: str) -> DomainSpec:
    """Read and validate a JSON spec file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"{path}: not UTF-8 text: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise SpecFileError(f"{path}: invalid JSON: nested too deeply") from None
    return spec_from_dict(data, default_name=Path(path).stem)


def spec_echo(spec: DomainSpec) -> dict:
    return {
        "name": spec.name,
        "f": [canonical_str(p) for p in spec.f],
        "g": [canonical_str(p) for p in spec.g],
        "params": spec.params,
        "sample_radius": spec.sample_radius,
    }


def trace_schema() -> dict:
    """The published schema for the kohn trace artifact."""
    from importlib import resources

    text = resources.files("subelliptic").joinpath("trace_schema.json").read_text()
    return json.loads(text)


def _write_artifact(path: str, text: str) -> None:
    """Write text to a new file beside path, then move it onto path.

    The sibling is created exclusively in the directory of the resolved
    path and named from the target and the pid; one left by a killed run
    with the same pid is removed first.  The old artifact is unlinked before
    the rename, because truncating it or renaming onto it makes ext4 flush
    it (see the module docstring).  On an OSError, or an interrupt, the
    sibling is removed and the exception propagates: a failed write leaves
    the old artifact in place, and only a rename that fails after the unlink
    leaves the path absent.

    A target that exists but is not a regular file (a device such as
    /dev/null, a FIFO), and a path under /dev or /proc (a stream such as
    /dev/stdout resolves to the file that stream is open on), is written in
    place, as is an existing artifact whose directory refuses a new file or
    the unlink.
    """
    if path.endswith(os.sep):  # realpath would drop the separator
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    target = os.path.realpath(path)
    try:
        exists, regular = True, stat.S_ISREG(os.stat(target).st_mode)
    except FileNotFoundError:
        exists, regular = False, True
    if not regular or os.path.abspath(path).startswith(("/dev/", "/proc/")):
        _write_in_place(path, text)
        return
    directory, name = os.path.split(target)
    sibling = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        fh = open(sibling, "x", encoding="utf-8")
    except FileExistsError:  # left by a killed run that had this pid
        os.unlink(sibling)
        fh = open(sibling, "x", encoding="utf-8")
    except PermissionError:
        if not exists:
            raise
        _write_in_place(target, text)
        return
    try:
        with fh:
            fh.write(text)
        try:
            os.unlink(target)
        except FileNotFoundError:
            pass
        except PermissionError:  # e.g. another user's file in a sticky directory
            os.unlink(sibling)
            _write_in_place(target, text)
            return
        os.rename(sibling, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(sibling)
        raise


def _write_in_place(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _config_echo(args: argparse.Namespace) -> dict:
    """The subcommand and its flags, as parsed."""
    return {k: v for k, v in vars(args).items() if k not in ("spec", "json", "func")}


def _float_text(value) -> str:
    if value is None:
        return "n/a"
    if math.isinf(value):
        return "infinity" if value > 0 else "-infinity"
    return f"{value:.10g}"


def _cell(value) -> str:
    if value is None:
        return "-"
    return "infinity" if value == math.inf else str(value)


def _flatten_certificates(events) -> list[dict]:
    """Radical certificates from every step, tagged with their step index."""
    certs = []
    for event in events:
        if event.get("kind") != "radical":
            continue
        for cert in event.get("certificates", ()):
            entry = dict(cert)
            entry["step"] = event["step"]
            certs.append(entry)
    return certs


def _hypothesis_status(spec: DomainSpec, args) -> tuple[HypoStatus, Optional[object]]:
    """Sample the comparison hypothesis, or take it on faith with the flag."""
    from .effective import HypoStatus
    from .numcheck import HYPO_GATE, hypothesis_holds

    if args.assert_hypo:
        print("hypothesis asserted by flag, sampling skipped")
        return HypoStatus.ASSERTED, None
    report = sample_hypo(spec, radius=args.radius, n=args.samples, seed=args.seed)
    holds = hypothesis_holds(report)
    verdict = "verified" if holds else "failed"
    print(
        f"hypothesis {verdict} on {report.n_samples} samples: "
        f"delta_hat = {_float_text(report.delta_hat)} (gate {HYPO_GATE})"
    )
    if report.degenerate == report.n_samples:
        print(f"no informative sample: all {report.degenerate} points were degenerate")
    return (HypoStatus.VERIFIED if holds else HypoStatus.FAILED), report


# Each cmd_* prints its report and returns (exit code, artifact fields); main
# wraps the fields in the {config, spec, ...} envelope when --json is given.
# A command that returns no fields writes no artifact.
Artifact = Optional[dict]


def cmd_levi(spec: DomainSpec, args) -> tuple[int, Artifact]:
    lam = canonical_str(expand_r(spec).lam)
    print(lam)
    return EXIT_OK, {"lambda": lam, "summary": lam}


def cmd_type(spec: DomainSpec, args) -> tuple[int, Artifact]:
    value = _cell(type_lower_bound(spec))
    line = f"type >= {value} (witness {TYPE_WITNESS})"
    print(line)
    return EXIT_OK, {"type": {"value": value, "witness": TYPE_WITNESS}, "summary": line}


def _resolve_run_flags(args) -> None:
    """Fill in the run flags left unset with the engine's own defaults."""
    from .kohn import DEFAULT_MAX_STEPS
    from .localideal import DEFAULT_ORDER_CAP

    if args.max_steps is None:
        args.max_steps = DEFAULT_MAX_STEPS
    if args.radical_cap is None:
        args.radical_cap = DEFAULT_ORDER_CAP


def cmd_kohn(spec: DomainSpec, args) -> tuple[int, Artifact]:
    from .kohn import Outcome

    _resolve_run_flags(args)
    result = run_kohn(spec, max_steps=args.max_steps, radical_cap=args.radical_cap)
    print(result.summary())
    code = EXIT_OK if result.outcome is Outcome.SUCCESS else EXIT_UNDECIDED
    return code, {
        "events": list(result.events),
        "certificates": _flatten_certificates(result.events),
        "summary": result.summary(),
    }


def cmd_effective(spec: DomainSpec, args) -> tuple[int, Artifact]:
    from .effective import HypothesisFailedError

    status, report = _hypothesis_status(spec, args)
    try:
        result = zeta_chain(spec, status, force=args.force)
    except HypothesisFailedError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED, None
    print(result.summary())
    return EXIT_OK, {
        "hypothesis": status.name.lower(),
        "delta_hat": None if report is None else report.as_dict()["delta_hat"],
        "chain": [
            {"index": step.index, "poly": canonical_str(step.poly), "order": str(step.order)}
            for step in result.chain
        ],
        "final_order": str(result.final_order),
        "sound": result.sound,
        "summary": result.summary(),
    }


def cmd_check_hypo(spec: DomainSpec, args) -> tuple[int, Artifact]:
    from .numcheck import HYPO_GATE, hypothesis_holds

    report = sample_hypo(spec, radius=args.radius, n=args.samples, seed=args.seed)
    holds = hypothesis_holds(report)
    print(
        f"delta_hat = {_float_text(report.delta_hat)} over {report.n_samples} "
        f"samples (radius {_float_text(report.radius)}, seed {report.seed})"
    )
    if report.degenerate:
        print(f"degenerate points skipped: {report.degenerate}")
    print(f"hypothesis {'holds' if holds else 'fails'} (gate {HYPO_GATE})")
    code = EXIT_OK if holds else EXIT_REFUSED
    return code, {
        "report": report.as_dict(),
        "summary": f"hypothesis {'holds' if holds else 'fails'}",
    }


def cmd_verify(spec: DomainSpec, args) -> tuple[int, Artifact]:
    from .numcheck import polydisc_points

    radius = args.radius if args.radius is not None else spec.sample_radius
    points = polydisc_points(radius, args.samples, args.seed)
    worst = finite_diff_levi(spec, points)
    print(
        f"finite difference check: max relative deviation {worst:.3e} "
        f"over {len(points)} points"
    )
    boundary = boundary_pseudoconvexity(
        spec, radius=args.radius, n=args.samples, seed=args.seed
    )
    print(f"boundary Levi minimum: {_float_text(boundary.min_lambda_on_boundary)}")
    problems = []
    if worst > FINITE_DIFF_TOL:
        problems.append(f"finite difference deviation above {FINITE_DIFF_TOL}")
    if boundary.violations:
        problems.append(
            f"pseudoconvexity violated on {len(boundary.violations)} boundary samples"
        )
    for line in problems:
        print(f"undecided: {line}", file=sys.stderr)
    code = EXIT_OK if not problems else EXIT_UNDECIDED
    return code, {
        "finite_diff_error": "infinity" if math.isinf(worst) else worst,
        "boundary": boundary.as_dict(),
        "summary": "checks passed" if not problems else "; ".join(problems),
    }


def cmd_compare(spec: DomainSpec, args) -> tuple[int, Artifact]:
    from .effective import HypothesisFailedError, compare_orders

    _resolve_run_flags(args)
    classic = run_kohn(spec, max_steps=args.max_steps, radical_cap=args.radical_cap)
    status, _ = _hypothesis_status(spec, args)
    effective = None
    note = None
    try:
        effective = zeta_chain(spec, status, force=args.force)
    except HypothesisFailedError:
        note = "effective run refused (hypothesis failed); pass --force to include it"
    row = compare_orders(spec, classic, effective)
    for label, key in (
        ("type", "type"),
        ("optimal order", "optimal"),
        ("classic order", "classic"),
        ("effective order", "effective"),
    ):
        print(f"{label:<16} {_cell(row[key])}")
    if note:
        print(note, file=sys.stderr)
    return EXIT_OK, {
        "table": {key: _cell(value) for key, value in row.items()},
        "summary": f"classic {_cell(row['classic'])} vs effective {_cell(row['effective'])}",
    }


def _checked(kind, ok, rule: str):
    """An argparse type: convert with kind, then reject values failing ok."""

    def convert(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    convert.__name__ = kind.__name__  # argparse reports "invalid int value"
    return convert


_AT_LEAST_ONE = _checked(int, lambda v: v >= 1, "at least 1")
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "a positive number")


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with the malformed-input exit status."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_sampling_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--samples", type=_AT_LEAST_ONE, default=1000, help="number of sample points"
    )
    parser.add_argument("--seed", type=int, default=42, help="sampling seed")
    parser.add_argument(
        "--radius",
        type=_POSITIVE,
        default=None,
        help="polydisc radius (defaults to the spec's sample_radius)",
    )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-steps",
        type=_AT_LEAST_ONE,
        default=None,
        help="step budget for the chain",
    )
    parser.add_argument(
        "--radical-cap",
        type=_AT_LEAST_ONE,
        default=None,
        help="largest root power probed",
    )


def _add_hypo_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--assert-hypo",
        action="store_true",
        help="skip sampling and take the comparison hypothesis on faith",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="run even when the hypothesis failed (result marked unsound)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="subelliptic",
        description="Exact subellipticity certificates for model domains in C^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_text: str, func) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("spec", help="path to a JSON spec file")
        p.add_argument(
            "--json",
            metavar="PATH",
            default=None,
            help="also write a machine readable trace to PATH",
        )
        p.set_defaults(func=func)
        return p

    add("levi", "print the Levi determinant along the complex tangent", cmd_levi)

    add("type", "lower bound for the type at the origin", cmd_type)

    p_kohn = add("kohn", "run the multiplier ideal chain to a unit", cmd_kohn)
    _add_run_flags(p_kohn)

    p_eff = add(
        "effective", "run the derivative chain on the selected component", cmd_effective
    )
    _add_sampling_flags(p_eff)
    _add_hypo_flags(p_eff)

    p_chk = add("check-hypo", "sample the comparison hypothesis", cmd_check_hypo)
    _add_sampling_flags(p_chk)

    p_ver = add("verify", "numerical cross checks of the symbolic data", cmd_verify)
    _add_sampling_flags(p_ver)

    p_cmp = add(
        "compare", "table of type, optimal, classic and effective orders", cmd_compare
    )
    _add_run_flags(p_cmp)
    _add_sampling_flags(p_cmp)
    _add_hypo_flags(p_cmp)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = load_spec(args.spec)
        code, fields = args.func(spec, args)
    except UndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (DomainError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.json and fields is not None:
        envelope = {"config": _config_echo(args), "spec": spec_echo(spec), **fields}
        text = json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False)
        try:
            _write_artifact(args.json, text + "\n")
        except OSError as exc:
            reason = f"[Errno {exc.errno}] {exc.strerror}: {args.json!r}"
            print(f"error: cannot write --json artifact: {reason}", file=sys.stderr)
            return EXIT_INPUT
    return code


def run() -> int:
    """The process entry of `subelliptic` and `python -m subelliptic`.

    It runs main, flushes stdout and freezes the heap, so that the exit
    does not collect it (see the module docstring); main itself stays free
    of these side effects for in-process callers.  A reader that closes
    stdout early ends the process with status 1 and nothing on stderr, as
    the SIGPIPE note of the Python docs has it: stdout's descriptor then
    points at devnull, so the flush at exit cannot fail again.
    """
    try:
        try:
            code = main()
        finally:
            if sys.stdout is not None:
                sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
