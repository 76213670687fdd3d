"""Outside-in layer spans for the traced benchmark run.

`traced(recorder)` replaces public engine functions by wrappers, at the name
each caller looks up (a module global such as `localideal.nf_mora`, or a
class attribute such as `Poly.__mul__`), and puts every original back when
the block ends, also on error.  A wrapper records one span: name, start, end,
the span that was open when it was entered, and a few counts read from the
arguments or the result.  Spans stay in memory until `Recorder.write`.

A span's self time is its duration minus the time its child spans cover.
Every span of one benchmark instance descends from that instance's root span,
`bench.instance` in process or `cli.main` in a CLI subprocess (launch.py).
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from subelliptic import cli, domain, effective, kohn, localideal, numcheck, polyring

# A span is [name, start, end, parent index (-1 for a root), attrs or None].


class Recorder:
    """Append-only span list with a stack of the spans still open."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args, before=None, after=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        state = before(args, kwargs) if before is not None else None
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        result = None
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            span[2] = perf_counter()
            self._open.pop()
            if after is not None:
                span[4] = after(state, args, kwargs, result)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def read_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Counts taken at the layer boundaries


def _budget_before(args, kwargs):
    budget = args[2] if len(args) > 2 else kwargs["budget"]
    return budget, budget.remaining


def _budget_after(state, args, kwargs, result):
    budget, before = state
    return {"steps": before - max(budget.remaining, 0)}


def _answer(state, args, kwargs, result):
    return {"answer": result.value if result is not None else "raised"}


def _basis_size(state, args, kwargs, result):
    return {"size": len(result) if result is not None else 0, "failed": result is None}


def _count_result(key: str):
    return lambda state, args, kwargs, result: {key: len(result) if result is not None else 0}


def _steps_used(state, args, kwargs, result):
    return {"steps_used": result.steps_used if result is not None else 0}


def _terms_out(state, args, kwargs, result):
    return {"terms": len(result.terms) if result is not None else 0}


def _samples(state, args, kwargs, result):
    return {"points": result.n_samples if result is not None else 0}


def _diff_points(state, args, kwargs, result):
    points = args[1] if len(args) > 1 else kwargs["points"]
    return {"points": len(points)}


def _targets():
    """(owner, attribute, span name, before hook, after hook) for each wrapper.

    Owners are the modules and classes whose attribute the callers read, so
    that a call made anywhere in the engine goes through the wrapper.
    """
    spans = [
        (localideal, "nf_mora", "localideal.nf_mora", _budget_before, _budget_after),
        (localideal.LocalIdeal, "membership", "localideal.membership", None, _answer),
        (localideal.LocalIdeal, "reduce_modulo", "localideal.reduce_modulo", None, None),
        (kohn, "radical_extend", "localideal.radical_extend", None, _count_result("certificates")),
        (polyring.Poly, "__mul__", "polyring.mul", None, _terms_out),
        (kohn, "run_kohn", "kohn.run_kohn", None, _steps_used),
        (cli, "run_kohn", "kohn.run_kohn", None, _steps_used),
        (cli, "type_lower_bound", "domain.type_lower_bound", None, None),
        (cli, "zeta_chain", "effective.zeta_chain", None, None),
        (cli, "sample_hypo", "numcheck.sample_hypo", None, _samples),
        (cli, "finite_diff_levi", "numcheck.finite_diff_levi", None, _diff_points),
        (cli, "boundary_pseudoconvexity", "numcheck.boundary_pseudoconvexity", None, _samples),
    ]
    for module in (kohn, cli, numcheck):
        spans.append((module, "expand_r", "domain.expand_r", None, None))
    for module in (polyring, localideal, kohn, domain, effective, cli):
        spans.append((module, "canonical_str", "polyring.canonical_str", None, None))
    return spans


def _wrap(recorder: Recorder, name: str, fn: Callable, before, after) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, *args, before=before, after=after, **kwargs)

    return wrapper


def _wrap_basis(recorder: Recorder, prop: property) -> property:
    """Span only the first read of each ideal's basis, the one that computes it."""
    seen: "weakref.WeakSet" = weakref.WeakSet()

    def fget(ideal):
        if ideal in seen:
            return prop.fget(ideal)
        seen.add(ideal)
        return recorder.call("localideal.basis", prop.fget, ideal, after=_basis_size)

    return property(fget, doc=prop.__doc__)


def patch_points() -> list[tuple[object, str]]:
    """Every (owner, attribute) that a traced run replaces."""
    points = [(owner, attr) for owner, attr, *_ in _targets()]
    points.append((localideal.LocalIdeal, "basis"))
    return points


class traced:
    """Context manager: install the wrappers on entry, restore on exit."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Recorder:
        try:
            for owner, attr, name, before, after in _targets():
                original = vars(owner).get(attr)
                if original is None:
                    print(f"perfbench: no {attr} on {owner.__name__}; span {name} skipped",
                          file=sys.stderr)
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, _wrap(self.recorder, name, original, before, after))
            original = vars(localideal.LocalIdeal).get("basis")
            if isinstance(original, property):
                self._saved.append((localideal.LocalIdeal, "basis", original))
                localideal.LocalIdeal.basis = _wrap_basis(self.recorder, original)
        except BaseException:
            self._restore()
            raise
        return self.recorder

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# From spans to per-layer totals


@dataclass
class Totals:
    """Per-name sums over one or more span lists."""

    calls: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    total_s: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)  # "name.key" -> sum of attrs
    peaks: dict = field(default_factory=dict)  # "name.key" -> max of attrs
    answers: dict = field(default_factory=dict)  # membership answers
    probe: dict = field(default_factory=lambda: {
        "memberships": 0, "yes": 0, "steps": 0, "self_s": 0.0, "total_s": 0.0})

    def add(self, spans: list[list]) -> None:
        n = len(spans)
        child_s = [0.0] * n
        steps = [0] * n
        for i in range(n - 1, -1, -1):
            name, start, end, parent, attrs = spans[i]
            if attrs and "steps" in attrs:
                steps[i] += attrs["steps"]
            if parent >= 0:
                child_s[parent] += end - start
                steps[parent] += steps[i]
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            duration = end - start
            own = duration - child_s[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
            for key, value in (attrs or {}).items():
                label = f"{name}.{key}"
                if key == "answer":
                    self.answers[value] = self.answers.get(value, 0) + 1
                elif key == "size":
                    self.peaks[label] = max(self.peaks.get(label, 0), value)
                else:
                    self.counts[label] = self.counts.get(label, 0) + int(value)
            if (name == "localideal.membership" and parent >= 0
                    and spans[parent][0] == "localideal.radical_extend"):
                self.probe["memberships"] += 1
                self.probe["yes"] += attrs is not None and attrs.get("answer") == "yes"
                self.probe["steps"] += steps[i]
                self.probe["self_s"] += own
                self.probe["total_s"] += duration

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json that spans give."""
        calls, own, counts = self.calls.get, self.self_s.get, self.counts.get
        steps = counts("localideal.nf_mora.steps", 0)
        nf_self = own("localideal.nf_mora", 0.0)
        probes = self.probe["memberships"]
        return {
            "localideal.nf_mora.calls": calls("localideal.nf_mora", 0),
            "localideal.nf_mora.steps": steps,
            "localideal.nf_mora.self_s": nf_self,
            "localideal.nf_mora.total_s": self.total_s.get("localideal.nf_mora", 0.0),
            "localideal.nf_mora.us_per_step": 1e6 * nf_self / steps if steps else 0.0,
            "localideal.probe.memberships": probes,
            "localideal.probe.steps": self.probe["steps"],
            "localideal.probe.self_s": self.probe["self_s"],
            "localideal.probe.total_s": self.probe["total_s"],
            "localideal.probe.yes_ratio": self.probe["yes"] / probes if probes else 0.0,
            "localideal.membership.yes": self.answers.get("yes", 0),
            "localideal.membership.no": self.answers.get("no", 0),
            "localideal.membership.undecided": self.answers.get("undecided", 0),
            "localideal.membership.self_s": own("localideal.membership", 0.0),
            "localideal.basis.calls": calls("localideal.basis", 0),
            "localideal.basis.self_s": own("localideal.basis", 0.0),
            "localideal.basis.size_max": self.peaks.get("localideal.basis.size", 0),
            "localideal.basis.failed": counts("localideal.basis.failed", 0),
            "localideal.radical_extend.calls": calls("localideal.radical_extend", 0),
            "localideal.radical_extend.certificates":
                counts("localideal.radical_extend.certificates", 0),
            "localideal.radical_extend.self_s": own("localideal.radical_extend", 0.0),
            "localideal.reduce_modulo.self_s": own("localideal.reduce_modulo", 0.0),
            "polyring.mul.calls": calls("polyring.mul", 0),
            "polyring.mul.terms_out": counts("polyring.mul.terms", 0),
            "polyring.mul.self_s": own("polyring.mul", 0.0),
            "polyring.canonical_str.calls": calls("polyring.canonical_str", 0),
            "polyring.canonical_str.self_s": own("polyring.canonical_str", 0.0),
            "domain.expand_r.self_s": own("domain.expand_r", 0.0),
            "domain.type_lower_bound.self_s": own("domain.type_lower_bound", 0.0),
            "kohn.run_kohn.self_s": own("kohn.run_kohn", 0.0),
            "kohn.run_kohn.steps_used": counts("kohn.run_kohn.steps_used", 0),
            "effective.zeta_chain.self_s": own("effective.zeta_chain", 0.0),
            "numcheck.sample_hypo.points": counts("numcheck.sample_hypo.points", 0),
            "numcheck.sample_hypo.self_s": own("numcheck.sample_hypo", 0.0),
            "numcheck.finite_diff_levi.points": counts("numcheck.finite_diff_levi.points", 0),
            "numcheck.finite_diff_levi.self_s": own("numcheck.finite_diff_levi", 0.0),
            "numcheck.boundary_pseudoconvexity.points":
                counts("numcheck.boundary_pseudoconvexity.points", 0),
            "numcheck.boundary_pseudoconvexity.self_s":
                own("numcheck.boundary_pseudoconvexity", 0.0),
        }
