"""Span tracer for one workload process.

``install`` wraps public functions and methods of the qclifford layers at
run time, inside the benchmark's own process; the package source is not
touched.  Every wrapped call pushes a frame on one stack.  When the call
returns, its self time is its duration minus the time its child calls
covered, and the whole wrapper interval (bookkeeping included) counts as
covered for the caller, so tracer bookkeeping is charged to no layer.

Coarse calls (checks, Hopf checkers, algebra constructors, report
writers) are recorded one span each: id, parent span id, name, start, end,
self time.  Hot calls (scalar dunders, ``normal_form``, ``matmul``, ...)
are too many for that; they are aggregated per enclosing span as calls,
time and self time.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from collections import defaultdict

HOT, SPAN = "hot", "span"


class PairCounter:
    """Counts calls and distinct ordered operand pairs.

    Operands are told apart by ``hash``, which the scalar types compute from
    their canonical key and cache on the object; a collision of two 64-bit
    hashes would undercount by one pair."""

    def __init__(self):
        self.calls = 0
        self.pairs = set()

    def add(self, a, b) -> None:
        self.calls += 1
        self.pairs.add((hash(a), hash(b)))

    def ratio(self) -> float:
        return len(self.pairs) / self.calls if self.calls else 0.0


class Probe:
    """What the tracer knows about one name: calls, time and self time per
    enclosing span id, and the time of its outermost calls."""

    __slots__ = ("depth", "total", "per_parent")

    def __init__(self):
        self.depth = 0  # calls of this name now open
        self.total = 0.0  # time of outermost calls, so recursion counts once
        self.per_parent = {}  # enclosing span id -> [calls, total_s, self_s]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (id, parent id, name, start, end, self_s)
        self.probes = defaultdict(Probe)
        self.extras = defaultdict(float)  # "name.key" -> accumulated value
        self.pairs = PairCounter()  # operands of scalars.radical_mul
        # a frame is [time covered by children, id of the enclosing span]
        self._stack = [[0.0, 0]]

    def wrap(self, name: str, fn, kind: str = HOT, on_return=None):
        """Return ``fn`` wrapped so that each call is timed under ``name``.

        ``on_return(tracer, args, result)`` runs after a successful call,
        outside the timed interval."""
        clock, stack, spans = self.clock, self._stack, self.spans
        probe = self.probes[name]
        per_parent = probe.per_parent
        is_span = kind == SPAN

        def traced(*args, **kwargs):
            entered = clock()
            parent = stack[-1]
            if is_span:
                spans.append(None)  # reserve the id; filled in on return
                frame = [0.0, len(spans)]
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            probe.depth += 1
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                probe.depth -= 1
                dur = end - start
                self_s = dur - frame[0]
                agg = per_parent.get(parent[1])
                if agg is None:
                    per_parent[parent[1]] = [1, dur, self_s]
                else:
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += self_s
                if not probe.depth:
                    probe.total += dur
                if is_span:
                    spans[frame[1] - 1] = (frame[1], parent[1], name, start, end, self_s)
                if ok and on_return is not None:
                    on_return(self, args, result)
                parent[0] += clock() - entered
            return result

        traced.__wrapped__ = fn
        return traced

    def stat(self, name: str) -> dict:
        probe = self.probes[name]
        aggs = probe.per_parent.values()
        return {
            "calls": sum(a[0] for a in aggs),
            "self_s": sum(a[2] for a in aggs),
            "s": probe.total,
        }

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": i, "parent": p, "name": n, "start": a, "end": b, "self_s": s}
                for i, p, n, a, b, s in self.spans
            ],
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for n, probe in sorted(self.probes.items())
                for p, (c, t, s) in sorted(probe.per_parent.items())
            ],
        }


# ---------------------------------------------------------------------------
# probes: which functions of which layer are wrapped, and under what name
# ---------------------------------------------------------------------------


def _count_pair(tracer, args, result):
    tracer.pairs.add(args[0], args[1])


def _normal_form_sizes(tracer, args, result):
    tracer.extras["rewrite.normal_form.words"] += len(args[1].terms)
    key = "rewrite.normal_form.out_terms_max"
    tracer.extras[key] = max(tracer.extras[key], len(result.terms))


def _axiom_words(name):
    def record(tracer, args, result):
        tracer.extras[f"{name}.words"] += result.checked_words

    return record


def _report_bytes(tracer, args, result):
    tracer.extras["report.bytes"] += len(result.encode("utf-8"))


# (metric name, module, attributes, kind, on_return); modules are listed in
# dependency order, so a module that binds a name with ``from .x import f``
# is imported after ``f`` has been wrapped
PROBES = (
    ("scalars.radical_mul", "scalars", ("RadicalScalar.__mul__", "RadicalScalar.__rmul__"), HOT, _count_pair),
    ("scalars.radical_add", "scalars", ("RadicalScalar.__add__", "RadicalScalar.__radd__"), HOT, None),
    ("scalars.radical_inverse", "scalars", ("RadicalScalar.inverse",), HOT, None),
    ("scalars.laurentfrac_mul", "scalars", ("LaurentFrac.__mul__",), HOT, None),
    ("scalars.poly_gcd", "scalars", ("poly_gcd",), HOT, None),
    ("linalg.matmul", "linalg", ("matmul",), HOT, None),
    ("linalg.kron", "linalg", ("kron",), HOT, None),
    ("linalg.inverse", "linalg", ("Matrix.inverse",), HOT, None),
    ("linalg.solve_exact", "linalg", ("solve_exact",), HOT, None),
    ("rewrite.normal_form", "rewrite", ("RewriteSystem.normal_form",), HOT, _normal_form_sizes),
    ("rewrite.multiply", "rewrite", ("RewriteSystem.multiply",), HOT, None),
    ("rewrite.tensor_power", "rewrite", ("RewriteSystem.tensor_power",), SPAN, None),
    ("rewrite.local_confluence_check", "rewrite", ("local_confluence_check",), SPAN, None),
    *(
        (f"hopf.{fn}", "hopf", (fn,), SPAN, _axiom_words(f"hopf.{fn}"))
        for fn in ("check_coassociativity", "check_counit", "check_antipode")
    ),
    ("hopf.check_bialgebra_compatibility", "hopf", ("check_bialgebra_compatibility",), SPAN, None),
    ("qgamma.build", "qgamma", ("build_q_gammas", "build_metric"), SPAN, None),
    (
        "presentations.build",
        "presentations",
        ("build_glq2", "build_ch2", "build_chq2", "build_group_toy", "build_affine_irrep"),
        SPAN,
        None,
    ),
    ("presentations.su2_action_report", "presentations", ("su2_action_report",), SPAN, None),
    ("fierz.quadratic_identity_report", "fierz", ("quadratic_identity_report",), SPAN, None),
    ("report.reports_to_json", "report", ("reports_to_json",), SPAN, _report_bytes),
    ("report.validate_report", "report", ("validate_report",), SPAN, None),
)


def _patch(module, attr: str, wrapper_for) -> None:
    owner = module
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    setattr(owner, last, wrapper_for(owner.__dict__[last]))


def install(tracer: Tracer) -> None:
    """Import the qclifford layers and wrap every probe, then the checks."""
    for name, module_name, attrs, kind, on_return in PROBES:
        module = importlib.import_module(f"qclifford.{module_name}")
        for attr in attrs:
            _patch(module, attr, lambda fn: tracer.wrap(name, fn, kind, on_return))
    suites = importlib.import_module("qclifford.suites")
    registry = suites.registry

    def traced_registry():
        return [
            dataclasses.replace(c, fn=tracer.wrap(f"suites.check.{c.check_id}", c.fn, SPAN))
            for c in registry()
        ]

    suites.registry = traced_registry
    importlib.import_module("qclifford.cli")


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer number this tracer can give, by metric name."""
    out = {}
    for name, *_ in PROBES:
        stat = tracer.stat(name)
        out[f"{name}.calls"] = stat["calls"]
        out[f"{name}.self_s"] = stat["self_s"]
        out[f"{name}.s"] = stat["s"]
    out.update(tracer.extras)
    nf_s = tracer.probes["rewrite.normal_form"].total
    out["rewrite.normal_form.words_per_s"] = out.get("rewrite.normal_form.words", 0) / nf_s if nf_s else 0.0
    out["scalars.radical_mul.distinct_pairs"] = len(tracer.pairs.pairs)
    out["scalars.radical_mul.distinct_pair_ratio"] = tracer.pairs.ratio()
    for name, probe in tracer.probes.items():
        if name.startswith("suites.check.") and probe.per_parent:  # checks that ran
            out[f"{name}.s"] = probe.total
    return out
