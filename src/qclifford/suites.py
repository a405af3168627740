"""Check registry and suite execution.

Every check has a stable id, a one-line description (the claims index
shown by ``list-checks``), and a function from the run context to one
report record.  Status semantics: ``pass``/``fail`` for claims the engine
can decide; ``report`` for convention-dependent comparisons, which carry
residual data and a mismatch flag instead of a verdict (strict mode turns
flagged mismatches into failures at exit-code level).  Verdicts are decided
in the exact scalar ring; the float cross-checks evaluate plain-Python
complex matrices through ``linalg``'s numeric helpers, carrying each float
as a ``linalg.Sized`` value, and each one judges a float residual by the
one relative bound of ``RunContext.agrees``.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from itertools import chain, islice

from . import blades, fierz, hopf, presentations, qgamma
from .linalg import (
    Matrix,
    Sized,
    anticommutator,
    cadd,
    cidentity,
    cmatmul,
    cscale,
    csub,
    matmul,
    max_abs_at_points,
    sized,
)
from .report import MODES, STATUS_FAIL, STATUS_PASS, STATUS_REPORT, CheckReport, format_float
from .rewrite import NCPolynomial, local_confluence_check, rule_witnesses
from .scalars import GaussRational, PointSet, RadicalScalar

SUITES = ("clifford", "qgamma", "glq2", "ch2", "chq2", "fierz")
EXTRA_SUITES = ("selfcheck",)

# points that measure exact residuals in exact mode, and oracle points below five samples
REFERENCE_SAMPLES = (0.5, 0.75, 1.25, 1.5, 1.75)

# most q samples a run may draw; each costs a float oracle pass per check
MAX_Q_SAMPLES = 4096

# (centre, radius): sampled q values keep at least this distance from each
# centre, away from the classical point q = 1 and from q = 0
Q_EXCLUSIONS = ((1.0, 0.05), (0.0, 1e-6))

# largest q a range may reach, the image of the window around 0 under q -> 1/q: t = sqrt(q)
# lies in [1e-3, 1e3], so t**k is finite for |k| <= 102, beyond any check's |k| <= 20
Q_MAX = 1e6

# least share of the q range the sampler may keep once the exclusions are cut
# out: it rejection-samples, so a share s costs about 1/s draws per sample
MIN_ADMISSIBLE_SHARE = 0.01

# a float residual r agrees with zero when |r| <= CROSS_CHECK_TOL * s, s the
# size of the evaluation that gave r (``linalg.Sized``): the sum of the
# absolute values of the terms of its expanded expression
CROSS_CHECK_TOL = 1e-10

# most witnesses a failing decided check shows
WITNESSES_SHOWN = 3


def _draw_q(rng: random.Random, lo: float, hi: float) -> float:
    """One q drawn uniformly from [lo, hi] outside every exclusion window."""
    while True:
        x = rng.uniform(lo, hi)
        if all(abs(x - c) >= r for c, r in Q_EXCLUSIONS):
            return x


def admissible_q_share(lo: float, hi: float) -> Fraction:
    """Share of [lo, hi], lo < hi, left to the q sampler once the exclusions are cut out.

    The share is exact in the float values of the bounds, centres and radii:
    near a centre ``x - c`` is exact in floats, so ``_draw_q`` keeps exactly
    the x with |x - c| >= r, and a float share would round a window edge
    past a bound it admits.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    covered = sum(
        max(0, min(hi, Fraction(c) + Fraction(r)) - max(lo, Fraction(c) - Fraction(r)))
        for c, r in Q_EXCLUSIONS
    )
    return 1 - covered / (hi - lo)


@dataclass
class RunContext:
    mode: str = "both"
    q_samples: int = 8
    q_range: tuple[float, float] = (0.5, 2.0)
    seed: int = 0
    conventions: tuple[qgamma.ActionConvention, ...] = qgamma.ALL_CONVENTIONS

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 1 <= self.q_samples <= MAX_Q_SAMPLES:
            raise ValueError(
                f"q_samples must be between 1 and {MAX_Q_SAMPLES}, got {self.q_samples}"
            )
        lo, hi = self.q_range
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"q range {lo}:{hi} must have finite bounds")
        if not 0 < lo < hi <= Q_MAX:  # exact and principal-branch values agree for q > 0
            raise ValueError(
                f"q range {lo}:{hi} must have LO < HI and lie in q > 0 and q <= {Q_MAX:g}"
            )
        share = admissible_q_share(lo, hi)
        if share <= 0.0:
            raise ValueError(
                f"q range {lo}:{hi} has no admissible samples: every q in it lies "
                "within 0.05 of 1 or within 1e-6 of 0"
            )
        if share < MIN_ADMISSIBLE_SHARE:
            raise ValueError(
                f"q range {lo}:{hi} has too few admissible samples: only {float(share):.3g} of "
                f"it lies 0.05 or more from 1 and 1e-6 or more from 0, below the "
                f"least share {MIN_ADMISSIBLE_SHARE}"
            )
        # exact mode draws no q samples (nor numeric irreps), measures at
        # REFERENCE_SAMPLES and reports no q values
        rng = random.Random(self.seed)
        count = 0 if self.mode == "exact" else self.q_samples
        self.samples = [_draw_q(rng, lo, hi) for _ in range(count)]
        self.q_values_field = [format_float(x) for x in self.samples]
        self.measure_points = PointSet(REFERENCE_SAMPLES if self.mode == "exact" else self.samples)
        # an oracle check compares five points, a prefix of the measure points
        # or the reference points when fewer were drawn; q_values name them
        if len(self.measure_points) >= 5:
            self.oracle_points = self.measure_points.prefix(5)
            self.oracle_q_values = self.q_values_field[:5]
        else:
            self.oracle_points = PointSet(REFERENCE_SAMPLES)
            self.oracle_q_values = [format_float(x) for x in REFERENCE_SAMPLES]
        # set by ``measure`` whenever a radicand evaluates onto the principal
        # branch cut; the runner copies it into the report
        self.branch_cut_hit = False

    # ---- lazily built shared objects ------------------------------------

    @cached_property
    def gammas(self) -> dict[str, Matrix]:
        return qgamma.build_q_gammas()

    @cached_property
    def linear_relation_residuals(self) -> list[Matrix]:
        return fierz.linear_relation_residuals(self.gammas)

    @cached_property
    def metric(self) -> qgamma.QMetric:
        return qgamma.build_metric()

    @cached_property
    def bare_system(self) -> qgamma.BareSystem:
        """The bare relation's systems, which both bare-relation checks read."""
        return qgamma.bare_relation_system(self.gammas, self.metric)

    @cached_property
    def dirac_witnesses(self) -> list[tuple[str, str]]:
        """The rules of ``blades.CL31`` that e_mu -> gamma_mu does not respect."""
        row = rule_witnesses(blades.CL31, blades.dirac_image, matmul, "rho", str)
        return [w for w in row if w is not None]

    @cached_property
    def glq2(self) -> hopf.HopfData:
        return presentations.build_glq2()

    @cached_property
    def ch2(self) -> hopf.HopfData:
        return presentations.build_ch2()

    @cached_property
    def chq2(self) -> hopf.HopfData:
        return presentations.build_chq2()

    @cached_property
    def irreps(self) -> list[presentations.CH2Irrep]:
        """The 20 seeded exact chq2 irreps.

        Checks that use fewer take a prefix: all draws come from one stream.
        """
        return _seeded_irreps(self.seed, 20)

    @cached_property
    def numeric_irreps(self) -> list:
        """The 20 seeded numeric chq2 irreps as ((z, lx, ly, qv), matrices by
        name), each entry a ``Sized`` value; none in exact mode."""
        rng = random.Random(self.seed + 13)
        out = []
        for _ in range(0 if self.mode == "exact" else 20):
            z = complex(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
            lx = complex(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
            ly = complex(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
            qv = _draw_q(rng, *self.q_range)
            mats = presentations.affine_irrep_numeric(z, lx, ly, qv)
            sized_mats = {k: [list(map(Sized, row)) for row in m] for k, m in mats.items()}
            out.append(((z, lx, ly, qv), sized_mats))
        return out

    @cached_property
    def deformed_metrics(self) -> dict[qgamma.ActionConvention, qgamma.DeformedMetricResult]:
        """The deformed metric of each requested convention."""
        return {conv: qgamma.deformed_metric(self.gammas, conv) for conv in self.conventions}

    @cached_property
    def su2_actions(self) -> list[dict]:
        """The su(2) action residuals of every requested convention for the
        first five ``irreps`` at levels 0 and 1, one dict per (irrep, level),
        whose conventions share one table of products: they map (sigma_1,
        sigma_2) to (A, B), (B, A), (0, A) and (0, B), so most repeat."""
        out = []
        for irrep in self.irreps[:5]:
            for level in (0, 1):
                products: dict = {}
                out.append(
                    {
                        conv: presentations.su2_action_report(irrep, level, conv, products)
                        for conv in self.conventions
                    }
                )
        return out

    def measure(self, values, points=None) -> float:
        """Largest |v(q)| over the scalars ``values`` at the measure points,
        or at ``points``: 0.0 when there are none or all are zero.  Sets
        ``branch_cut_hit`` when a radicand evaluates onto the branch cut."""
        maxima, flag = max_abs_at_points(values, self.measure_points if points is None else points)
        self.branch_cut_hit = self.branch_cut_hit or flag
        return max([0.0, *maxima])

    @staticmethod
    def agrees(residuals) -> bool:
        """Whether every float residual r agrees with zero: |r| <=
        ``CROSS_CHECK_TOL`` * s, s the size of r's evaluation (``Sized``;
        a plain number is its own size)."""
        return all(abs(r.v) <= CROSS_CHECK_TOL * r.s for r in map(sized, residuals))


@dataclass(frozen=True)
class CheckDef:
    check_id: str
    suite: str
    description: str
    fn: object
    # a check of one action convention runs only when that one is requested
    convention: qgamma.ActionConvention | None = None


_REGISTRY: list[CheckDef] = []


def _check(check_id: str, description: str, convention: qgamma.ActionConvention | None = None):
    """Register a check; its suite is the first dotted component of its id."""

    def deco(fn):
        _REGISTRY.append(CheckDef(check_id, check_id.split(".")[0], description, fn, convention))
        return fn

    return deco


def registry() -> list[CheckDef]:
    return sorted(_REGISTRY, key=lambda c: c.check_id)


def _pass_fail(ok, residual="0", witness=None, **kw) -> CheckReport:
    return CheckReport(
        check_id="",
        status=STATUS_PASS if ok else STATUS_FAIL,
        residual_max=residual,
        witness=witness,
        **kw,
    )


def _report(residual, mismatch=False, **kw) -> CheckReport:
    return CheckReport(
        check_id="", status=STATUS_REPORT, residual_max=residual, mismatch=mismatch, **kw
    )


def _verdict(witnesses: list, **kw) -> CheckReport:
    """Pass when there is no witness; else fail, showing the first ``WITNESSES_SHOWN``."""
    return _pass_fail(
        not witnesses, witness=str(witnesses[:WITNESSES_SHOWN]) if witnesses else None, **kw
    )


def _confluence_report(rs) -> CheckReport:
    """Pass when every critical overlap of ``rs`` rejoins; else fail with the
    failure count as residual and the first five overlaps as witness."""
    failures = local_confluence_check(rs)
    if not failures:
        return _pass_fail(True)
    return _pass_fail(
        False,
        residual=format_float(len(failures)),
        witness="; ".join(f"word {w}" for w in failures[:5]),
        details={"failures": len(failures)},
    )


# ===========================================================================
# clifford suite
# ===========================================================================
# Decided from CL31's rules, as the Hopf laws are: the Dirac map from its
# rule witnesses, the blade product from the rules' confluence.


@_check(
    "clifford.dirac_anticommutation",
    "4x4 matrix generators anticommute to twice the diag(-1,1,1,1) metric",
)
def _clifford_anticommutation(ctx: RunContext) -> CheckReport:
    # CL31's rules are exactly gamma_mu^2 = g_mu I and gamma_nu gamma_mu = -gamma_mu gamma_nu
    details = {"representation": "i times the standard Dirac basis"}
    return _verdict(ctx.dirac_witnesses, details=details)


@_check(
    "clifford.blade_matrix_agreement",
    "blade products map onto matrix products for all 16 basis blades",
)
def _clifford_blades(ctx: RunContext) -> CheckReport:
    # each rewrite step keeps a word's matrix product when the map respects
    # every rule, so a blade product maps onto the product of its factors' images
    return _verdict(ctx.dirac_witnesses)


@_check(
    "clifford.blade_associativity",
    "blade product is associative on all of Cl(3,1): its critical overlaps rejoin",
)
def _clifford_assoc(ctx: RunContext) -> CheckReport:
    # normal forms of a confluent, terminating system are unique, so
    # NF(NF(ab)c) = NF(abc) = NF(a NF(bc)) for every a, b and c
    return _confluence_report(blades.CL31)


# ===========================================================================
# qgamma suite
# ===========================================================================


@_check(
    "qgamma.transcription",
    "pinned entries of the deformed gammas and the metric match re-entered literals",
)
def _qgamma_transcription(ctx: RunContext) -> CheckReport:
    from .scalars import q_half, q_plus_qinv, qinv, qvar, sqrt

    gs = ctx.gammas
    qm = ctx.metric
    q = qvar()
    Q = q_plus_qinv()
    one = RadicalScalar.one()
    pins = [
        (gs["0"][0, 2], q**2),
        (gs["0"][1, 3], -one),
        (gs["0"][2, 0], -one),
        (gs["0"][3, 1], -one),
        (gs["+"][0, 3], sqrt(q * Q)),
        (gs["+"][2, 1], -sqrt(q * Q)),
        (gs["-"][0, 3], sqrt(Q) * q_half(-3)),
        (gs["-"][3, 0], -(sqrt(Q) * q_half(3))),
        (gs["3"][0, 2], qinv() + q - q**2),
        (gs["3"][1, 3], -(q**-2)),
        (qm.c[0, 3], qinv()),
        (qm.c[1, 1], -one + q**-2),
        (qm.c[1, 2], -qinv()),
        (qm.c[2, 1], -qinv()),
        (qm.c[3, 0], q),
        (qm.c[0, 0], RadicalScalar.zero()),
        (qm.c[2, 2], RadicalScalar.zero()),
        (qm.c[3, 3], RadicalScalar.zero()),
    ]
    bad = [i for i, (got, want) in enumerate(pins) if got != want]
    return _pass_fail(
        not bad,
        witness=None if not bad else f"pin indices {bad}",
        details={"pins": len(pins)},
    )


@_check(
    "qgamma.gamma_plus_square_zero",
    "the raising deformed gamma squares to zero exactly in q",
)
def _qgamma_plus_sq(ctx: RunContext) -> CheckReport:
    gs = ctx.gammas
    sq = matmul(gs["+"], gs["+"])
    ok = sq.is_zero()
    worst = "0" if ok else format_float(ctx.measure(sq.data))
    return _pass_fail(ok, residual=worst, q_values=[] if ok else ctx.q_values_field)


@_check(
    "qgamma.metric_inverse",
    "the metric times its eliminated inverse is the identity exactly",
)
def _qgamma_metric(ctx: RunContext) -> CheckReport:
    qm = ctx.metric
    diff = matmul(qm.c, qm.c_inverse) - Matrix.identity(4)
    return _pass_fail(diff.is_zero())


@_check(
    "qgamma.gamma5_structure",
    "the pseudoscalar product is nonzero and annihilates the raising gamma",
)
def _qgamma_gamma5(ctx: RunContext) -> CheckReport:
    gs = ctx.gammas
    g5 = qgamma.gamma5(gs)
    nz = not g5.is_zero()
    # rank over the field bounds the rank at every q
    rank_ok = matmul(gs["+"], g5).rank() <= 2
    return _pass_fail(nz and rank_ok)


def _deformed_metric_check(conv: qgamma.ActionConvention) -> None:
    @_check(
        f"qgamma.deformed_metric.{conv.value}",
        f"induced deformed metric vs the transcribed target ({conv.value})",
        conv,
    )
    def fn(ctx: RunContext) -> CheckReport:
        res = ctx.deformed_metrics[conv]
        target = qgamma.deformed_metric_target()
        diff = res.matrix - target
        exact_match = diff.is_zero()
        matched = sum(
            1
            for i in range(4)
            for j in range(4)
            if diff[i, j].is_zero()
        )
        return _report(
            format_float(ctx.measure(diff.data)),
            mismatch=not exact_match,
            witness=str(diff),
            q_values=ctx.q_values_field,
            details={
                "entries_matching_target": matched,
                "symmetric": res.matrix == res.matrix.transpose(),
                "anticommutators_scalar": res.deviation_zero,
            },
        )


for _conv in qgamma.ALL_CONVENTIONS:
    _deformed_metric_check(_conv)


@_check(
    "qgamma.deformed_metric_oracle",
    "matrix-representation route agrees with the blade-algebra route per convention",
)
def _qgamma_dm_oracle(ctx: RunContext) -> CheckReport:
    diffs = [
        res.matrix - qgamma.deformed_metric_blade_oracle(ctx.gammas, conv)
        for conv, res in ctx.deformed_metrics.items()
    ]
    worst = ctx.measure((s for d in diffs for s in d.data), ctx.oracle_points)
    ok = all(d.is_zero() for d in diffs)
    return _pass_fail(ok, residual=format_float(worst), q_values=ctx.oracle_q_values)


@_check(
    "qgamma.bare_relation_flip",
    "defining-relation residuals with the braiding replaced by the flip",
)
def _qgamma_flip(ctx: RunContext) -> CheckReport:
    # row (mu, nu) is that pair's residual matrix; row 5 is pair (+, +)
    residual = ctx.bare_system.residual(qgamma.FLIP)
    worst = ctx.measure(residual.data)
    zero_pairs = sum(all(s.is_zero() for s in residual.row(p)) for p in range(residual.rows))
    anchor = Matrix(4, 4, residual.row(5)).map(lambda s: s.at(1))
    return _report(
        format_float(worst),
        mismatch=zero_pairs < residual.rows,
        witness=f"residual(+,+) at q=1: {anchor}",
        q_values=ctx.q_values_field,
        details={"pairs_exactly_zero": zero_pairs},
    )


@_check(
    "qgamma.bare_relation_solve",
    "solvability of the defining relation for unknown braiding coefficients",
)
def _qgamma_solve(ctx: RunContext) -> CheckReport:
    system = ctx.bare_system
    exact = system.at(1).solve()
    generic = system.solve()
    checked = []
    if generic.witness is not None:
        # the exact generic solution is the certificate the floats evaluate
        checked = system.float_residuals(generic.witness, ctx.oracle_points)
    sample_flags = [ctx.agrees(residuals) for residuals in checked]
    worst = max([0.0, *(abs(r) for residuals in checked for r in residuals)])
    return _report(
        format_float(worst),
        mismatch=not (exact.solvable and generic.solvable and all(sample_flags)),
        witness="solvable exactly at q=1" if exact.solvable else str(exact.infeasible_pairs),
        q_values=ctx.oracle_q_values if checked else [],
        details={
            "exact_q1_solvable": exact.solvable,
            "generic_q_solvable": generic.solvable,
            "samples_solvable": sample_flags,
        },
    )


# ===========================================================================
# Hopf axiom checks of glq2, ch2 and chq2
# ===========================================================================

# One row per check: (check id, checker, word-length bound L whose word
# count goes into details.words or None, description).  The checkers decide
# each law on all of H from the generators; details.words counts the words
# of length 1 to L that the id's claim names.  The id's first component
# names the suite and the RunContext algebra the check runs on.  A failing
# check shows its first witnesses, failed premises first (``_verdict``).

_AXIOM_CHECKS = (
    ("glq2.bialgebra_relations", hopf.check_bialgebra_compatibility, None,
     "coproduct and counit preserve all six defining relations exactly"),
    ("glq2.coassociativity_len4", hopf.check_coassociativity, 4,
     "matrix coproduct is coassociative on all words to length 4"),
    ("glq2.counit_len4", hopf.check_counit, 4,
     "counit laws hold on all words to length 4"),
    ("ch2.bialgebra_relations", hopf.check_bialgebra_compatibility, None,
     "coproduct and counit preserve every defining relation"),
    ("ch2.coassociativity_len4", hopf.check_coassociativity, 4,
     "coassociativity on all six generators and words to length 4"),
    ("ch2.counit_len4", hopf.check_counit, None,
     "counit laws on all words to length 4"),
    ("ch2.antipode_len4", hopf.check_antipode, None,
     "antipode axiom on all words to length 4"),
    ("chq2.bialgebra_relations", hopf.check_bialgebra_compatibility, None,
     "deformed coproduct and counit preserve every defining relation"),
    ("chq2.coassociativity_len3", hopf.check_coassociativity, 3,
     "deformed coproduct is coassociative on all words to length 3"),
    ("chq2.counit_len3", hopf.check_counit, None,
     "counit laws on all words to length 3"),
)


def _word_count(letters: int, max_len: int) -> int:
    """Number of words of length 1 to ``max_len`` over ``letters`` letters."""
    return sum(letters**k for k in range(1, max_len + 1))


def _axiom_check(check_id, checker, max_len, description) -> None:
    suite = check_id.split(".")[0]

    @_check(check_id, description)
    def fn(ctx: RunContext) -> CheckReport:
        h = getattr(ctx, suite)
        return _verdict(
            checker(h).witnesses,
            details={} if max_len is None else {"words": _word_count(h.rs.size, max_len)},
        )


for _row in _AXIOM_CHECKS:
    _axiom_check(*_row)


def _antipode_missing(check_id: str, description: str) -> None:
    suite = check_id.split(".")[0]

    @_check(check_id, description)
    def fn(ctx: RunContext) -> CheckReport:
        missing = getattr(ctx, suite).missing_antipode_generators()
        return _report(
            "0", witness=f"antipode missing for: {', '.join(missing)}", details={"missing": missing}
        )


_antipode_missing(
    "glq2.antipode", "no antipode is assigned by the presentation; reported, not asserted"
)
_antipode_missing(
    "chq2.antipode_missing",
    "the deformed generators carry no stated antipode; reported, not asserted",
)


# ===========================================================================
# glq2 suite
# ===========================================================================


@_check(
    "glq2.rules_degree_homogeneous",
    "every defining rewrite rule preserves total word degree",
)
def _glq2_degree(ctx: RunContext) -> CheckReport:
    rs = ctx.glq2.rs
    return _pass_fail(all(len(w) == 2 for rhs in rs.rules.values() for w in rhs.terms))


@_check(
    "glq2.local_confluence_len4",
    "the critical overlaps of the six relations rejoin, so normal forms are unique at every length",
)
def _glq2_confluence(ctx: RunContext) -> CheckReport:
    return _confluence_report(ctx.glq2.rs)


@_check(
    "glq2.termination_len8",
    "normal forms of all words to length 8 complete under the step budget",
)
def _glq2_termination(ctx: RunContext) -> CheckReport:
    rs = ctx.glq2.rs
    count = 0
    try:
        for w in rs.iter_words(8):
            rs.normal_form(NCPolynomial.word(w))
            count += 1
    except Exception as exc:  # BudgetExceeded or anything unexpected
        return _pass_fail(False, witness=f"{type(exc).__name__}: {exc}")
    return _pass_fail(True, details={"words": count})


# ===========================================================================
# ch2 suite
# ===========================================================================


def _perturbed_ch2(which: str) -> hopf.HopfData:
    h = presentations.build_ch2()
    g = h.rs.size
    if which == "coassoc":
        # Delta'(G1) = G1 (x) G2: breaks coassociativity
        h.coproduct[presentations.CH_G[0]] = NCPolynomial.word(
            (presentations.CH_G[0], g + presentations.CH_G[1])
        )
    elif which == "counit":
        h.counit[presentations.CH_G[0]] = RadicalScalar.one()
    elif which == "antipode":
        h.antipode[presentations.CH_G3] = NCPolynomial.word(
            (presentations.CH_G3,), -1
        )
    return h


def _negative_control(which: str, checker) -> None:
    @_check(
        f"ch2.negative_control_{which}",
        f"a deliberately perturbed {which} structure map must fail its axiom",
    )
    def fn(ctx: RunContext) -> CheckReport:
        h = _perturbed_ch2(which)
        r = checker(h)
        return _pass_fail(not r.ok, witness=None if not r.ok else "perturbation passed")


_negative_control("coassoc", hopf.check_coassociativity)
_negative_control("counit", hopf.check_counit)
_negative_control("antipode", hopf.check_antipode)


@_check(
    "ch2.grouplike_toy",
    "single grouplike generator with inverse passes all three axioms",
)
def _ch2_toy(ctx: RunContext) -> CheckReport:
    toy = presentations.build_group_toy()
    ok = (
        hopf.check_coassociativity(toy).ok
        and hopf.check_counit(toy).ok
        and hopf.check_antipode(toy).ok
    )
    return _pass_fail(ok)


# ===========================================================================
# chq2 suite
# ===========================================================================


@_check(
    "chq2.antipode_inherited",
    "the undeformed antipode satisfies the axiom with the deformed coproduct",
)
def _chq2_antipode_inherited(ctx: RunContext) -> CheckReport:
    h = presentations.build_chq2(include_inherited_antipode=True)
    r = hopf.check_antipode(h)
    return _report(
        "0" if r.ok else "1",
        mismatch=not r.ok,
        witness="axiom holds with the undeformed assignment" if r.ok else str(r.witnesses[:1]),
        # the words of length 1 to 2, the count this id's report has carried
        details={"words": _word_count(h.rs.size, 2)},
    )


def _irrep_q_values(ctx: RunContext) -> list[str]:
    """The q of each numeric irrep, the points a float irrep check evaluates."""
    return [format_float(qv) for (*_, qv), _ in ctx.numeric_irreps]


def _seeded_irreps(seed: int, count: int) -> list[presentations.CH2Irrep]:
    rng = random.Random(seed + 7)

    def draw_gauss():
        while True:
            re = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            im = Fraction(rng.randint(-2, 2), rng.randint(1, 4)) if rng.random() < 0.5 else Fraction(0)
            g = GaussRational(re, im)
            if not g.is_zero() and g not in (GaussRational(1), GaussRational(-1)):
                return g

    out = []
    for _ in range(count):
        params = presentations.IrrepParams(draw_gauss(), draw_gauss(), draw_gauss())
        out.append(presentations.build_affine_irrep(params))
    return out


@_check(
    "chq2.irrep_square_law",
    "squares of the level-i matrices equal the q-bracket of the level weight",
)
def _chq2_square_law(ctx: RunContext) -> CheckReport:
    worst_exact = None
    for irrep in ctx.irreps:
        for level in (0, 1):
            for axis in ("x", "y"):
                g = irrep.gammas[f"{axis}{level}"]
                if matmul(g, g) != Matrix.identity(2).scale(irrep.bracket(level, axis)):
                    worst_exact = (irrep.params, (level, axis))
    residuals = []
    for (z, lx, ly, qv), mats in ctx.numeric_irreps:
        qv = Sized(qv)
        denom = qv - 1.0 / qv
        for level in (0, 1):
            for axis, lval in (("x", Sized(lx)), ("y", Sized(ly))):
                w = 1.0 / lval if level == 0 else lval
                bracket = cscale((w - 1.0 / w) / denom, cidentity(2))
                m = mats[f"{axis}{level}"]
                residuals += chain(*csub(cmatmul(m, m), bracket))
    ok = worst_exact is None and ctx.agrees(residuals)
    return _pass_fail(
        ok,
        residual=format_float(max([0.0, *map(abs, residuals)])),
        witness=None if worst_exact is None else str(worst_exact),
        q_values=_irrep_q_values(ctx),
        details={"exact_draws": len(ctx.irreps), "numeric_draws": len(ctx.numeric_irreps)},
    )


@_check(
    "chq2.irrep_anticommutation",
    "per-level anticommutation relations and the involution square hold",
)
def _chq2_anticomm(ctx: RunContext) -> CheckReport:
    witness = None
    for irrep in ctx.irreps:
        g = irrep.gammas
        levels = [(g[f"x{lvl}"], g[f"y{lvl}"]) for lvl in (0, 1)]
        pairs = [p for x, y in levels for p in ((x, y), (x, g["g3"]), (y, g["g3"]))]
        anticomm_zero = all(anticommutator(a, b).is_zero() for a, b in pairs)
        if not (anticomm_zero and matmul(g["g3"], g["g3"]) == Matrix.identity(2)):
            witness = str(irrep.params)
    residuals = []
    for _, mats in ctx.numeric_irreps:
        for lvl in (0, 1):
            x, y = mats[f"x{lvl}"], mats[f"y{lvl}"]
            for a, b in ((x, y), (x, mats["g3"]), (y, mats["g3"])):
                residuals += chain(*cadd(cmatmul(a, b), cmatmul(b, a)))
    return _pass_fail(
        witness is None and ctx.agrees(residuals),
        residual=format_float(max([0.0, *map(abs, residuals)])),
        witness=witness,
        q_values=_irrep_q_values(ctx),
    )


@_check(
    "chq2.irrep_pinned",
    "pinned square-law values at rational parameter points are exact",
)
def _chq2_pinned(ctx: RunContext) -> CheckReport:
    params = presentations.IrrepParams(
        GaussRational(1), GaussRational(2), GaussRational(3)
    )
    irrep = presentations.build_affine_irrep(params)
    sq_x = matmul(irrep.gammas["x0"], irrep.gammas["x0"])
    sq_y = matmul(irrep.gammas["y1"], irrep.gammas["y1"])
    ok = (
        sq_x[0, 0].at(3) == GaussRational(Fraction(-9, 16))
        and sq_x[1, 1].at(3) == GaussRational(Fraction(-9, 16))
        and sq_x[0, 1].is_zero()
        and sq_y[0, 0].at(2) == GaussRational(Fraction(16, 9))
    )
    return _pass_fail(ok)


@_check(
    "chq2.irrep_cross_index",
    "anticommutators mixing the two levels, computed but never asserted",
)
def _chq2_cross(ctx: RunContext) -> CheckReport:
    draws = ctx.irreps[:5]
    pairs = (("x0", "x1"), ("x0", "y1"), ("y0", "x1"), ("y0", "y1"))
    worst = ctx.measure(
        s
        for irrep in draws
        for a, b in pairs
        for s in anticommutator(irrep.gammas[a], irrep.gammas[b]).data
    )
    return _report(format_float(worst), q_values=ctx.q_values_field, details={"draws": len(draws)})


def _su2_check(conv: qgamma.ActionConvention) -> None:
    @_check(
        f"chq2.su2_action.{conv.value}",
        f"post-action relation values for the mapped Pauli basis ({conv.value})",
        conv,
    )
    def fn(ctx: RunContext) -> CheckReport:
        residuals = [tables[conv] for tables in ctx.su2_actions]
        worst = ctx.measure(s for res in residuals for name in sorted(res) for s in res[name].data)
        claims_zero = sorted(n for n in residuals[0] if all(res[n].is_zero() for res in residuals))
        return _report(
            format_float(worst),
            q_values=ctx.q_values_field,
            details={"claims_exactly_zero": claims_zero},
        )


for _conv in qgamma.ALL_CONVENTIONS:
    _su2_check(_conv)


# ===========================================================================
# fierz suite
# ===========================================================================


@_check(
    "fierz.rhat_hecke",
    "the exchange matrix satisfies its quadratic Hecke relation exactly",
)
def _fierz_hecke(ctx: RunContext) -> CheckReport:
    return _pass_fail(fierz.hecke_residual(fierz.hecke_rmatrix()).is_zero())


@_check(
    "fierz.rhat_braid",
    "the exchange matrix satisfies the braid relation on the tensor cube",
)
def _fierz_braid(ctx: RunContext) -> CheckReport:
    return _pass_fail(fierz.braid_residual(fierz.hecke_rmatrix()).is_zero())


@_check(
    "fierz.rhat_q1_flip",
    "the exchange matrix degenerates to the flip at q = 1",
)
def _fierz_flip(ctx: RunContext) -> CheckReport:
    r1 = fierz.hecke_rmatrix().map(lambda s: s.at(1))
    return _pass_fail(r1 == fierz.flip_matrix())


def _oracle_numeric_gammas(q: Sized):
    """Independent float transcription of the deformed gammas (oracle path);
    every entry carries its size."""
    Q = q + 1.0 / q
    rqQ = (q * Q).sqrt()
    rQ = Q.sqrt()
    g0 = cscale(1 + 0j, [[0, 0, q**2, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    gp = cscale(rqQ, [[0, 0, 0, 1], [0, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 0]])
    gm = cscale(
        rQ,
        [
            [0, 0, 0, q ** -1.5],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [-(q**1.5), 0, 0, 0],
        ],
    )
    g3 = cscale(
        1 + 0j,
        [
            [0, 0, 1.0 / q + q - q**2, 0],
            [0, 0, 0, -(q**-2.0)],
            [-1, 0, 0, 0],
            [0, q**2, 0, 0],
        ],
    )
    g5 = cmatmul(cmatmul(cmatmul(g0, gp), gm), g3)
    return {"0": g0, "+": gp, "-": gm, "3": g3, "5": g5}


@_check(
    "fierz.linear_relations",
    "exact residuals of the seven transcribed linear current relations",
)
def _fierz_linear(ctx: RunContext) -> CheckReport:
    residuals = ctx.linear_relation_residuals
    worst = ctx.measure(s for m in residuals for s in m.data)
    holding = [name for (name, *_), m in zip(fierz.LINEAR_RELATIONS, residuals) if m.is_zero()]
    return _report(
        format_float(worst),
        mismatch=len(holding) != len(fierz.LINEAR_RELATIONS),
        witness=f"{len(holding)} of {len(fierz.LINEAR_RELATIONS)} hold exactly",
        q_values=ctx.q_values_field,
        details={"holding_exactly": holding, "relations": len(residuals)},
    )


@_check(
    "fierz.linear_relations_oracle",
    "engine residuals match an independent float matrix oracle at sampled q",
)
def _fierz_linear_oracle(ctx: RunContext) -> CheckReport:
    points = ctx.oracle_points
    engine = [m.evaluate(points, sized=True) for m in ctx.linear_relation_residuals]
    worst_gap = 0.0
    ok = True
    for i, x in enumerate(points.qs):
        q = Sized(x)
        oracle = _oracle_numeric_gammas(q)
        for (_, lhs, scale, rhs), e_res in zip(fierz.LINEAR_RELATIONS, engine):
            a, b, c, d = (oracle[label] for label in (*lhs, *rhs))
            o_res = csub(cmatmul(a, b), cscale(scale(q), cmatmul(c, d)))
            e, o = (list(map(sized, chain(*m))) for m in (e_res[i], o_res))
            # both residuals, and their gap, are judged against the sizes of
            # both evaluations
            sizes = [r.s + u.s for r, u in zip(e, o)]
            e_zero, o_zero = (ctx.agrees(map(Sized, (r.v for r in rs), sizes)) for rs in (e, o))
            gap = abs(max(map(abs, e)) - max(map(abs, o)))
            worst_gap = max(worst_gap, gap)
            ok = ok and e_zero == o_zero and ctx.agrees([Sized(gap, max(sizes))])
    return _pass_fail(ok, residual=format_float(worst_gap), q_values=ctx.oracle_q_values)


@_check(
    "fierz.reflection_rule_count",
    "the doublet exchange relation expands into exactly four rewrite rules",
)
def _fierz_rule_count(ctx: RunContext) -> CheckReport:
    rs = fierz.reflection_rules(1)
    return _pass_fail(len(rs.rules) == 4)


@_check(
    "fierz.reflection_q1_commutation",
    "at q = 1 and unit exchange constant the rules are plain commutation",
)
def _fierz_q1_rules(ctx: RunContext) -> CheckReport:
    rs = fierz.reflection_rules(1)
    ok = True
    for (a, b), rhs in rs.rules.items():
        at_1 = NCPolynomial({w: c.at(1) for w, c in rhs.terms.items()})
        if at_1 != NCPolynomial.word((b, a)):
            ok = False
    return _pass_fail(ok)


@_check(
    "fierz.reflection_confluence",
    "local confluence outcome of the exchange rules, recorded not asserted",
)
def _fierz_confluence(ctx: RunContext) -> CheckReport:
    counts = {}
    for label, k in (("k=1", Fraction(1)), ("k=3/5", Fraction(3, 5))):
        counts[label] = len(local_confluence_check(fierz.reflection_rules(k)))
    return _report(format_float(max(counts.values())), witness=str(counts), details=counts)


def _quadratic_check(convention: str, tag: str) -> None:
    @_check(
        f"fierz.quadratic.{tag}",
        f"quadratic current identity residual and exchange-constant analysis ({tag})",
    )
    def fn(ctx: RunContext) -> CheckReport:
        k_dependence = fierz.quadratic_identity_report(ctx.gammas, convention)
        # the identity at the reference k = 1: each word's coefficient sum
        at_one = (sum(poly.coeffs, RadicalScalar.zero()) for poly in k_dependence.values())
        worst = ctx.measure(v for v in at_one if not v.is_zero())
        gcd = reduce(fierz.kpoly_gcd, k_dependence.values(), fierz.KPolynomial([]))
        k_info = {
            "nonzero_words": len(k_dependence),
            "gcd_degree": None if gcd.is_zero() else gcd.degree(),
            # the one k that kills every coefficient, when the gcd is linear
            "k_roots": [str(-(gcd.coeffs[0] / gcd.coeffs[1]))] if gcd.degree() == 1 else [],
        }
        witness_lines = [
            f"{'*'.join(fierz.SPINOR_NAMES[i] for i in w) or '1'} -> {poly.render()}"
            for w, poly in islice(k_dependence.items(), 6)
        ]
        return _report(
            format_float(worst),
            witness="; ".join(witness_lines),
            convention=convention,
            q_values=ctx.q_values_field,
            details=k_info,
        )


_quadratic_check(fierz.CONVENTION_COMMUTE, "convention_a")
_quadratic_check(fierz.CONVENTION_REFLECT, "convention_b")


# ===========================================================================
# selfcheck suite (fixture for exit-code tests; not part of "all")
# ===========================================================================


@_check(
    "selfcheck.expected_failure",
    "deliberately failing fixture used to exercise the exit-code contract",
)
def _selfcheck(ctx: RunContext) -> CheckReport:
    return _pass_fail(False, residual="1")


# ===========================================================================
# runner
# ===========================================================================


def resolve_suites(requested) -> list[str]:
    chosen: list[str] = []
    for s in requested:
        if s == "all":
            for name in SUITES:
                if name not in chosen:
                    chosen.append(name)
        elif s in SUITES or s in EXTRA_SUITES:
            if s not in chosen:
                chosen.append(s)
        else:
            raise ValueError(f"unknown suite: {s!r}")
    return chosen


def run_checks(suites, ctx: RunContext) -> list[CheckReport]:
    wanted = set(suites)
    reports = []
    for cdef in registry():
        if cdef.suite not in wanted:
            continue
        if cdef.convention is not None and cdef.convention not in ctx.conventions:
            continue
        t0 = time.monotonic()
        ctx.branch_cut_hit = False
        report = cdef.fn(ctx)
        report.check_id = cdef.check_id  # check bodies leave it empty
        if cdef.convention is not None:
            report.convention = cdef.convention.value
        if ctx.branch_cut_hit:
            report.details = dict(report.details, branch_cut=True)
        report.elapsed_ms = int((time.monotonic() - t0) * 1000)
        reports.append(report)
    return sorted(reports, key=lambda r: r.check_id)


def exit_code(reports: list[CheckReport], strict: bool) -> int:
    for r in reports:
        if r.status == STATUS_FAIL:
            return 1
        if strict and r.status == STATUS_REPORT and r.mismatch:
            return 1
    return 0
