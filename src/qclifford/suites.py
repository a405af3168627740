"""Check registry and suite execution.

Every check has a stable id, a one-line description (the claims index
shown by ``list-checks``), and a function from the run context to one
report record.  Status semantics: ``pass``/``fail`` for claims the engine
can decide; ``report`` for convention-dependent comparisons, which carry
residual data and a mismatch flag instead of a verdict (strict mode turns
flagged mismatches into failures at exit-code level).  Verdicts are decided
in the exact scalar ring; the float cross-checks evaluate plain-Python
complex matrices through ``linalg``'s numeric helpers.
"""

from __future__ import annotations

import cmath
import random
import time
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from . import blades, fierz, hopf, presentations, qgamma
from .linalg import (
    Matrix,
    anticommutator,
    cadd,
    cidentity,
    cmatmul,
    cscale,
    csub,
    matmul,
    max_abs,
)
from .report import STATUS_FAIL, STATUS_PASS, STATUS_REPORT, CheckReport, format_float
from .rewrite import NCPolynomial, local_confluence_check
from .scalars import GaussRational, RadicalScalar

SUITES = ("clifford", "qgamma", "glq2", "ch2", "chq2", "fierz")
EXTRA_SUITES = ("selfcheck",)

# fallback sample points used to measure exact residuals in exact mode
REFERENCE_SAMPLES = (0.5, 0.75, 1.25, 1.5, 1.75)

# most q samples a run may draw; each costs a float oracle pass per check
MAX_Q_SAMPLES = 4096

# (centre, radius): sampled q values keep at least this distance from each
# centre, away from the classical point q = 1 and from q = 0
Q_EXCLUSIONS = ((1.0, 0.05), (0.0, 1e-6))


def admissible_q_length(lo: float, hi: float) -> float:
    """Length of [lo, hi] left to the q sampler once the exclusions are cut out."""
    covered = sum(max(0.0, min(hi, c + r) - max(lo, c - r)) for c, r in Q_EXCLUSIONS)
    return hi - lo - covered


@dataclass
class RunContext:
    mode: str = "both"
    q_samples: int = 8
    q_range: tuple[float, float] = (0.5, 2.0)
    seed: int = 0
    conventions: tuple[qgamma.ActionConvention, ...] = qgamma.ALL_CONVENTIONS

    def __post_init__(self):
        if not 1 <= self.q_samples <= MAX_Q_SAMPLES:
            raise ValueError(
                f"q_samples must be between 1 and {MAX_Q_SAMPLES}, got {self.q_samples}"
            )
        lo, hi = self.q_range
        if admissible_q_length(lo, hi) <= 1e-9:
            raise ValueError(
                f"q range {lo}:{hi} has no admissible samples: every q in it lies "
                "within 0.05 of 1 or within 1e-6 of 0"
            )
        # exact mode measures at REFERENCE_SAMPLES and reports no q values
        self.samples = []
        if self.mode != "exact":
            rng = random.Random(self.seed)
            while len(self.samples) < self.q_samples:
                x = rng.uniform(lo, hi)
                if all(abs(x - c) >= r for c, r in Q_EXCLUSIONS):
                    self.samples.append(x)
        # set by the measurement helpers whenever a radicand evaluates onto
        # the principal branch cut; the runner copies it into the report
        self.branch_cut_hit = False
        self._deformed_metrics: dict = {}

    # ---- lazily built shared objects ------------------------------------

    @cached_property
    def gammas(self) -> qgamma.QGammaSet:
        return qgamma.build_q_gammas()

    @cached_property
    def linear_relation_residuals(self) -> list[fierz.LinearRelationResult]:
        return fierz.linear_relation_residuals(self.gammas)

    @cached_property
    def metric(self) -> qgamma.QMetric:
        return qgamma.build_metric()

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
    def chq2_full(self) -> hopf.HopfData:
        """chq2 with the undeformed antipode assigned to every generator."""
        return presentations.build_chq2(include_inherited_antipode=True)

    @cached_property
    def irreps(self) -> list:
        """The 20 seeded exact chq2 irreps as (params, irrep, relation residuals).

        Checks that use fewer take a prefix: all draws come from one stream.
        """
        return _seeded_irreps(self.seed, 20)

    @cached_property
    def numeric_irreps(self) -> list:
        """The 20 seeded numeric chq2 irreps as ((z, lx, ly, qv), matrices by name)."""
        rng = random.Random(self.seed + 13)
        out = []
        for _ in range(20):
            z = complex(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
            lx = complex(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
            ly = complex(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
            qv = rng.uniform(*self.q_range)
            if abs(qv - 1.0) < 0.05:
                qv += 0.1
            out.append(((z, lx, ly, qv), presentations.affine_irrep_numeric(z, lx, ly, qv)))
        return out

    def deformed_metric(self, conv: qgamma.ActionConvention) -> qgamma.DeformedMetricResult:
        """The deformed metric of ``conv``, built on first use."""
        if conv not in self._deformed_metrics:
            self._deformed_metrics[conv] = qgamma.deformed_metric(self.gammas, conv)
        return self._deformed_metrics[conv]

    # ---- measurement helpers --------------------------------------------

    @property
    def measure_points(self) -> list[float]:
        if self.mode == "exact":
            return list(REFERENCE_SAMPLES)
        return self.samples

    @property
    def oracle_points(self) -> list[float]:
        return self.measure_points[:5] if len(self.measure_points) >= 5 else list(
            REFERENCE_SAMPLES
        )

    @property
    def q_values_field(self) -> list[str]:
        return [format_float(x) for x in self.samples]

    @property
    def oracle_q_values(self) -> list[str]:
        """``q_values`` of an oracle check: the reference points when
        ``oracle_points`` fell back to them, else the drawn samples."""
        if len(self.measure_points) < 5:
            return [format_float(x) for x in self.oracle_points]
        return self.q_values_field

    def measure_matrix(self, m: Matrix) -> float:
        maxima, flag = m.max_abs_at_points(self.measure_points)
        if flag:
            self.branch_cut_hit = True
        return max([0.0, *maxima])

    def measure_scalar(self, s: RadicalScalar) -> float:
        worst = 0.0
        for x in self.measure_points:
            val, flag = s.eval_with_flags(x)
            if flag:
                self.branch_cut_hit = True
            worst = max(worst, abs(val))
        return worst


@dataclass(frozen=True)
class CheckDef:
    check_id: str
    suite: str
    description: str
    fn: object


_REGISTRY: list[CheckDef] = []


def _check(check_id: str, description: str):
    """Register a check; its suite is the first dotted component of its id."""

    def deco(fn):
        _REGISTRY.append(CheckDef(check_id, check_id.split(".")[0], description, fn))
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


# ===========================================================================
# clifford suite
# ===========================================================================


@_check(
    "clifford.dirac_anticommutation",
    "4x4 matrix generators anticommute to twice the diag(-1,1,1,1) metric",
)
def _clifford_anticommutation(ctx: RunContext) -> CheckReport:
    gam = blades.dirac_matrices()
    signs = (-1, 1, 1, 1)
    worst = Matrix.zeros(4, 4)
    ok = True
    for mu in range(4):
        for nu in range(mu, 4):
            ac = anticommutator(gam[mu], gam[nu])
            expect = (
                Matrix.identity(4).scale(2 * signs[mu])
                if mu == nu
                else Matrix.zeros(4, 4)
            )
            diff = ac - expect
            if not diff.is_zero():
                ok = False
                worst = diff
    return _pass_fail(
        ok,
        witness=None if ok else str(worst),
        details={"representation": "i times the standard Dirac basis"},
    )


@_check(
    "clifford.blade_matrix_agreement",
    "blade products map onto matrix products for all 16 basis blades",
)
def _clifford_blades(ctx: RunContext) -> CheckReport:
    cl = blades.CL31
    gam = blades.dirac_matrices()
    images = {b: blades.blade_matrix(b, gam) for b in blades.all_basis_blades(cl)}
    ok = True
    witness = None
    for b1 in images:
        for b2 in images:
            prod = cl.multiply(NCPolynomial.word(b1), NCPolynomial.word(b2))
            expect = Matrix.zeros(4, 4)
            for bl, c in prod.terms.items():
                expect = expect + images[bl].scale(c)
            got = matmul(images[b1], images[b2])
            if got != expect:
                ok = False
                witness = f"blades {b1} * {b2}"
    return _pass_fail(ok, witness=witness)


@_check(
    "clifford.blade_associativity",
    "blade product is associative on seeded random multivector triples",
)
def _clifford_assoc(ctx: RunContext) -> CheckReport:
    cl = blades.CL31
    rng = random.Random(ctx.seed + 101)
    basis = blades.all_basis_blades(cl)

    def rand_mv():
        mv = NCPolynomial.zero()
        for _ in range(3):
            b = basis[rng.randrange(len(basis))]
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            mv = mv + NCPolynomial.word(b, c)
        return mv

    ok = True
    for _ in range(50):
        a, b, c = rand_mv(), rand_mv(), rand_mv()
        if cl.multiply(cl.multiply(a, b), c) != cl.multiply(a, cl.multiply(b, c)):
            ok = False
            break
    return _pass_fail(ok)


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
        (gs.gamma0[0, 2], q**2),
        (gs.gamma0[1, 3], -one),
        (gs.gamma0[2, 0], -one),
        (gs.gamma0[3, 1], -one),
        (gs.gamma_plus[0, 3], sqrt(q * Q)),
        (gs.gamma_plus[2, 1], -sqrt(q * Q)),
        (gs.gamma_minus[0, 3], sqrt(Q) * q_half(-3)),
        (gs.gamma_minus[3, 0], -(sqrt(Q) * q_half(3))),
        (gs.gamma3[0, 2], qinv() + q - q**2),
        (gs.gamma3[1, 3], -(q**-2)),
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
    sq = matmul(gs.gamma_plus, gs.gamma_plus)
    ok = sq.is_zero()
    return _pass_fail(ok, residual="0" if ok else format_float(ctx.measure_matrix(sq)))


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
    rank_ok = matmul(gs.gamma_plus, g5).rank() <= 2
    return _pass_fail(nz and rank_ok, q_values=ctx.q_values_field)


def _deformed_metric_check(conv: qgamma.ActionConvention) -> None:
    @_check(
        f"qgamma.deformed_metric.{conv.value}",
        f"induced deformed metric vs the transcribed target ({conv.value})",
    )
    def fn(ctx: RunContext) -> CheckReport | None:
        if conv not in ctx.conventions:
            return None
        res = ctx.deformed_metric(conv)
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
            format_float(ctx.measure_matrix(diff)),
            mismatch=not exact_match,
            witness=str(diff),
            convention=conv.value,
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
    worst = 0.0
    ok = True
    for conv in ctx.conventions:
        engine = ctx.deformed_metric(conv).matrix
        oracle = qgamma.deformed_metric_blade_oracle(ctx.gammas, conv)
        if engine != oracle:
            ok = False
        worst = max([worst, *(engine - oracle).max_abs_at_points(ctx.oracle_points)[0]])
    if worst > 1e-10:
        ok = False
    return _pass_fail(ok, residual=format_float(worst), q_values=ctx.oracle_q_values)


@_check(
    "qgamma.bare_relation_flip",
    "defining-relation residuals with the braiding replaced by the flip",
)
def _qgamma_flip(ctx: RunContext) -> CheckReport:
    residuals = qgamma.bare_relation_flip_residuals(ctx.gammas, ctx.metric)
    worst = 0.0
    zero_pairs = 0
    for key in sorted(residuals):
        m = residuals[key]
        if m.is_zero():
            zero_pairs += 1
        else:
            worst = max(worst, ctx.measure_matrix(m))
    anchor = residuals[(1, 1)].map(lambda s: s.limit_q1())
    return _report(
        format_float(worst),
        mismatch=zero_pairs < len(residuals),
        witness=f"residual(+,+) at q=1: {anchor}",
        q_values=ctx.q_values_field,
        details={"pairs_exactly_zero": zero_pairs},
    )


@_check(
    "qgamma.bare_relation_solve",
    "solvability of the defining relation for unknown braiding coefficients",
)
def _qgamma_solve(ctx: RunContext) -> CheckReport:
    exact = qgamma.bare_relation_solve_exact_q1(ctx.gammas, ctx.metric)
    sample_flags = []
    worst = 0.0
    for x in ctx.oracle_points:
        ok, resid = qgamma.bare_relation_solve_numeric(ctx.gammas, ctx.metric, x)
        sample_flags.append(ok)
        worst = max(worst, resid)
    return _report(
        format_float(worst),
        mismatch=not (exact.solvable and all(sample_flags)),
        witness="solvable exactly at q=1" if exact.solvable else str(exact.infeasible_pairs),
        q_values=ctx.oracle_q_values,
        details={
            "exact_q1_solvable": exact.solvable,
            "samples_solvable": sample_flags,
        },
    )


# ===========================================================================
# Hopf axiom checks of glq2, ch2 and chq2
# ===========================================================================

# One row per check: (check id, checker, word-length bound or None for the
# relation-level check, witnesses shown on failure, whether the report
# carries details.words, description).  The id's first component names
# both the suite and the RunContext algebra the check runs on.
_AXIOM_CHECKS = (
    ("glq2.bialgebra_relations", hopf.check_bialgebra_compatibility, None, 2, False,
     "coproduct and counit preserve all six defining relations exactly"),
    ("glq2.coassociativity_len4", hopf.check_coassociativity, 4, 1, True,
     "matrix coproduct is coassociative on all words to length 4"),
    ("glq2.counit_len4", hopf.check_counit, 4, 1, True,
     "counit laws hold on all words to length 4"),
    ("ch2.bialgebra_relations", hopf.check_bialgebra_compatibility, None, 0, False,
     "coproduct and counit preserve every defining relation"),
    ("ch2.coassociativity_len4", hopf.check_coassociativity, 4, 0, True,
     "coassociativity on all six generators and words to length 4"),
    ("ch2.counit_len4", hopf.check_counit, 4, 0, False,
     "counit laws on all words to length 4"),
    ("ch2.antipode_len4", hopf.check_antipode, 4, 0, False,
     "antipode axiom on all words to length 4"),
    ("chq2.bialgebra_relations", hopf.check_bialgebra_compatibility, None, 1, False,
     "deformed coproduct and counit preserve every defining relation"),
    ("chq2.coassociativity_len3", hopf.check_coassociativity, 3, 0, True,
     "deformed coproduct is coassociative on all words to length 3"),
    ("chq2.counit_len3", hopf.check_counit, 3, 0, False,
     "counit laws on all words to length 3"),
)


def _axiom_check(check_id, checker, max_len, shown, words, description) -> None:
    suite = check_id.split(".")[0]

    @_check(check_id, description)
    def fn(ctx: RunContext) -> CheckReport:
        h = getattr(ctx, suite)
        r = checker(h) if max_len is None else checker(h, max_len)
        return _pass_fail(
            r.ok,
            witness=None if r.ok or not shown else str(r.witnesses[:shown]),
            details={"words": r.checked_words} if words else {},
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
    failures = local_confluence_check(ctx.glq2.rs)
    if not failures:
        return _pass_fail(True)
    witness = "; ".join(f"word {w}" for w in failures[:5])
    return _report(
        format_float(len(failures)),
        mismatch=True,
        witness=witness,
        details={"failures": len(failures)},
    )


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
        r = checker(h, 2)
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
        hopf.check_coassociativity(toy, 3).ok
        and hopf.check_counit(toy, 3).ok
        and hopf.check_antipode(toy, 3).ok
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
    r = hopf.check_antipode(ctx.chq2_full, 2)
    return _report(
        "0" if r.ok else "1",
        mismatch=not r.ok,
        witness="axiom holds with the undeformed assignment" if r.ok else str(r.witnesses[:1]),
        details={"words": r.checked_words},
    )


def _seeded_irreps(seed: int, count: int):
    rng = random.Random(seed + 7)

    def draw_gauss():
        while True:
            re = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            im = Fraction(rng.randint(-2, 2), rng.randint(1, 4)) if rng.random() < 0.5 else Fraction(0)
            g = GaussRational(re, im)
            if g.is_zero():
                continue
            if g in (GaussRational(1), GaussRational(-1)):
                continue
            return g

    out = []
    for _ in range(count):
        params = presentations.IrrepParams(draw_gauss(), draw_gauss(), draw_gauss())
        irrep = presentations.build_affine_irrep(params)
        out.append((params, irrep, presentations.verify_irrep_relations(irrep)))
    return out


@_check(
    "chq2.irrep_square_law",
    "squares of the level-i matrices equal the q-bracket of the level weight",
)
def _chq2_square_law(ctx: RunContext) -> CheckReport:
    worst_exact = None
    for params, _, rep in ctx.irreps:
        for key in sorted(rep.square_residuals):
            if not rep.square_residuals[key].is_zero():
                worst_exact = (params, key)
    numeric_worst = 0.0
    if ctx.mode != "exact":
        for (z, lx, ly, qv), mats in ctx.numeric_irreps:
            denom = qv - 1.0 / qv
            for level in (0, 1):
                for axis, lval in (("x", lx), ("y", ly)):
                    w = 1.0 / lval if level == 0 else lval
                    bracket = (w - 1.0 / w) / denom
                    m = mats[f"{axis}{level}"]
                    numeric_worst = max(
                        numeric_worst,
                        max_abs(csub(cmatmul(m, m), cscale(bracket, cidentity(2)))),
                    )
    ok = worst_exact is None and numeric_worst <= 1e-10
    return _pass_fail(
        ok,
        residual=format_float(numeric_worst),
        witness=None if worst_exact is None else str(worst_exact),
        q_values=ctx.q_values_field,
        details={"exact_draws": len(ctx.irreps), "numeric_draws": 0 if ctx.mode == "exact" else 20},
    )


@_check(
    "chq2.irrep_anticommutation",
    "per-level anticommutation relations and the involution square hold",
)
def _chq2_anticomm(ctx: RunContext) -> CheckReport:
    ok = True
    witness = None
    for params, _, rep in ctx.irreps:
        anticomm_zero = all(m.is_zero() for m in rep.anticommutator_residuals.values())
        if not (anticomm_zero and rep.gamma3_square_residual.is_zero()):
            ok = False
            witness = str(params)
    numeric_worst = 0.0
    if ctx.mode != "exact":
        for _, mats in ctx.numeric_irreps:
            for lvl in (0, 1):
                x, y = mats[f"x{lvl}"], mats[f"y{lvl}"]
                numeric_worst = max(numeric_worst, max_abs(cadd(cmatmul(x, y), cmatmul(y, x))))
                for m in (x, y):
                    numeric_worst = max(
                        numeric_worst,
                        max_abs(cadd(cmatmul(m, mats["g3"]), cmatmul(mats["g3"], m))),
                    )
    if numeric_worst > 1e-10:
        ok = False
    return _pass_fail(
        ok,
        residual=format_float(numeric_worst),
        witness=witness,
        q_values=ctx.q_values_field,
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
    sq_x = matmul(irrep.gamma(0, "x"), irrep.gamma(0, "x"))
    sq_y = matmul(irrep.gamma(1, "y"), irrep.gamma(1, "y"))
    ok = (
        sq_x[0, 0].subs_q(Fraction(3)) == GaussRational(Fraction(-9, 16))
        and sq_x[1, 1].subs_q(Fraction(3)) == GaussRational(Fraction(-9, 16))
        and sq_x[0, 1].is_zero()
        and sq_y[0, 0].subs_q(Fraction(2)) == GaussRational(Fraction(16, 9))
    )
    return _pass_fail(ok)


@_check(
    "chq2.irrep_cross_index",
    "anticommutators mixing the two levels, computed but never asserted",
)
def _chq2_cross(ctx: RunContext) -> CheckReport:
    draws = ctx.irreps[:5]
    worst = 0.0
    for _, _, rep in draws:
        for key in sorted(rep.cross_level_anticommutators):
            m = rep.cross_level_anticommutators[key]
            if not m.is_zero():
                worst = max(worst, ctx.measure_matrix(m))
    return _report(format_float(worst), q_values=ctx.q_values_field, details={"draws": len(draws)})


def _su2_check(conv: qgamma.ActionConvention) -> None:
    @_check(
        f"chq2.su2_action.{conv.value}",
        f"post-action relation values for the mapped Pauli basis ({conv.value})",
    )
    def fn(ctx: RunContext) -> CheckReport | None:
        if conv not in ctx.conventions:
            return None
        worst = 0.0
        claim_zero: dict[str, bool] = {}
        for _, irrep, _ in ctx.irreps[:5]:
            for level in (0, 1):
                rep = presentations.su2_action_report(irrep, level, conv)
                for name in sorted(rep.residuals):
                    m = rep.residuals[name]
                    z = m.is_zero()
                    claim_zero[name] = claim_zero.get(name, True) and z
                    if not z:
                        worst = max(worst, ctx.measure_matrix(m))
        return _report(
            format_float(worst),
            convention=conv.value,
            q_values=ctx.q_values_field,
            details={"claims_exactly_zero": sorted(k for k, v in claim_zero.items() if v)},
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
    r1 = fierz.hecke_rmatrix().map(lambda s: s.limit_q1())
    return _pass_fail(r1 == fierz.flip_matrix())


def _oracle_numeric_gammas(q: complex):
    """Independent float transcription of the deformed gammas (oracle path)."""
    Q = q + 1.0 / q
    rqQ = cmath.sqrt(q * Q)
    rQ = cmath.sqrt(Q)
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


def _oracle_relation_scale(tag: str, q: complex) -> complex:
    return {
        "one": 1.0,
        "minus_one": -1.0,
        "q2": q * q,
        "minus_q2": -(q * q),
        "qinv2": 1.0 / (q * q),
    }[tag]


@_check(
    "fierz.linear_relations",
    "exact residuals of the seven transcribed linear current relations",
)
def _fierz_linear(ctx: RunContext) -> CheckReport:
    results = ctx.linear_relation_residuals
    worst = 0.0
    holding = []
    for r in results:
        if r.holds_exactly:
            holding.append(r.name)
        else:
            worst = max(worst, ctx.measure_matrix(r.residual))
    return _report(
        format_float(worst),
        mismatch=len(holding) != 7,
        witness=f"{len(holding)} of 7 hold exactly",
        q_values=ctx.q_values_field,
        details={"holding_exactly": holding, "relations": len(results)},
    )


@_check(
    "fierz.linear_relations_oracle",
    "engine residuals match an independent float matrix oracle at sampled q",
)
def _fierz_linear_oracle(ctx: RunContext) -> CheckReport:
    results = ctx.linear_relation_residuals
    points = ctx.oracle_points
    e_norms = [res.residual.max_abs_at_points(points)[0] for res in results]
    worst_gap = 0.0
    ok = True
    for i, x in enumerate(points):
        oracle = _oracle_numeric_gammas(x)
        for (name, lhs, tag, rhs), norms in zip(fierz.LINEAR_RELATIONS, e_norms):
            o_res = csub(
                cmatmul(oracle[lhs[0]], oracle[lhs[1]]),
                cscale(_oracle_relation_scale(tag, x), cmatmul(oracle[rhs[0]], oracle[rhs[1]])),
            )
            e_norm = norms[i]
            o_norm = max_abs(o_res)
            gap = abs(e_norm - o_norm)
            worst_gap = max(worst_gap, gap)
            if (e_norm < 1e-9) != (o_norm < 1e-9):
                ok = False
    if worst_gap > 1e-9:
        ok = False
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
        at_one = NCPolynomial({w: c.limit_q1() for w, c in rhs.terms.items()})
        if at_one != NCPolynomial.word((b, a)):
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
        rep = fierz.quadratic_identity_report(ctx.gammas, convention)
        worst = 0.0
        for w in sorted(rep.residual_at_reference.terms, key=lambda x: (len(x), x)):
            worst = max(worst, ctx.measure_scalar(rep.residual_at_reference.terms[w]))
        gcd = rep.gcd_polynomial
        k_info = {
            "nonzero_words": len(rep.k_dependence),
            "gcd_degree": None if gcd.is_zero() else gcd.degree(),
            "k_roots": [str(r) for r in rep.common_k_roots],
        }
        witness_lines = [f"{w} -> {p}" for w, p in rep.render_k_dependence()[:6]]
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
            raise ValueError(f"unknown suite: {s}")
    return chosen


def run_checks(suites, ctx: RunContext) -> list[CheckReport]:
    wanted = set(suites)
    reports = []
    for cdef in registry():
        if cdef.suite not in wanted:
            continue
        t0 = time.monotonic()
        ctx.branch_cut_hit = False
        report = cdef.fn(ctx)
        if report is None:  # check not applicable under this configuration
            continue
        report.check_id = cdef.check_id  # check bodies leave it empty
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
