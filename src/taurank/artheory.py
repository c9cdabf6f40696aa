"""Auslander-Reiten translate via the Nakayama functor, E-invariant,
tau-rigidity and tau-regularity verdicts, the AR formula, the module
hierarchy, and reduction to quotient algebras.

tau(M) is the kernel of the Nakayama functor applied to a minimal
presentation (0 -> tau M -> nu P1 -> nu P0), which stays inside left
representations end to end; tau^- runs the same code over the opposite
algebra.  Non-regularity verdicts always carry a strictly-higher-rank
witness; regularity is certified only when the rank bound or symbolic
oracle certifies the generic rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Ideal
from .presentations import (
    TwoComplex,
    generic_rank,
    min_presentation,
    realize_pair,
)
from .reps import (
    Morphism,
    Representation,
    analysis_scope,
    annihilates,
    annihilator,
    cokernel,
    dual_morphism,
    dual_rep,
    ext1_dim,
    hom_dim,
    injective_envelope,
    kernel,
    proj_dim,
    scoped,
    zero_rep,
)


def nakayama_complex(cx: TwoComplex) -> Morphism:
    """Image of a two-complex under the Nakayama functor: the morphism
    nu P1 -> nu P0 between the corresponding injective sums, the dual of
    the map P0 -> P1 over the opposite algebra with the same coefficients.
    Item (s0, s1, x) there is right multiplication by x from summand s0
    into summand s1, so it takes the coefficient of item (s1, s0, x)."""
    fld = cx.hom.field
    op = cx.algebra.opposite()
    coeff_of = dict(zip(cx.hom.items, cx.coeffs))
    hs_op = realize_pair(op, cx.p0, cx.p1, fld)
    g = hs_op.morphism_from_coeffs([coeff_of[s1, s0, x] for s0, s1, x in hs_op.items])
    return dual_morphism(g)


def tau(m: Representation) -> Representation:
    """Auslander-Reiten translate; zero exactly on projectives."""
    cx = scoped(min_presentation, m)
    if cx.p1.is_zero():
        return zero_rep(m.algebra, m.field)
    nu = nakayama_complex(cx)
    t, _ = kernel(nu)
    if t.is_zero():
        raise AssertionError("tau vanished on a non-projective module")
    return t


def tau_minus(m: Representation) -> Representation:
    """Inverse translate, computed as D tau_op(D M)."""
    dm = dual_rep(m)
    t = tau(dm)
    if t.is_zero():
        return zero_rep(m.algebra, m.field)
    return dual_rep(t)


def e_invariant(m: Representation, n: Representation | None = None) -> int:
    """dim Hom(N, tau M); with N omitted, the E-invariant dim Hom(M, tau M)."""
    t = scoped(tau, m)
    if t.is_zero():
        return 0
    return hom_dim(n if n is not None else m, t)


def is_tau_rigid(m: Representation) -> bool:
    return e_invariant(m) == 0


@dataclass
class Verdict:
    """Three-valued outcome of a randomized decision.

    certified-no always carries a witness of strictly larger rank;
    certified-yes requires the generic rank itself to be certified."""

    outcome: str  # "certified-yes" | "certified-no" | "probable-yes"
    presentation_rank: int
    generic_rank: int
    certified: bool
    method: str | None
    witness: TwoComplex | None = None
    note: str = ""

    def is_yes(self):
        return self.outcome in ("certified-yes", "probable-yes")

    def to_json(self):
        return {
            "outcome": self.outcome,
            "witness_rank": self.witness.rank() if self.witness else None,
            "generic_rank": self.generic_rank,
            "presentation_rank": self.presentation_rank,
            "certified": self.certified,
            "method": self.method,
            "note": self.note,
        }


def is_tau_regular(m: Representation, trials: int = 8, seed: int = 42) -> Verdict:
    """Rank criterion: M is tau-regular iff its minimal presentation map
    attains the maximal rank r(P1, P0)."""
    cx = scoped(min_presentation, m)
    res = generic_rank(
        m.algebra,
        cx.p1,
        cx.p0,
        trials=trials,
        seed=seed,
        extra_samples=[cx.map],
        field=m.field,
    )
    rk = cx.rank()
    if rk < res.value:
        return Verdict(
            outcome="certified-no",
            presentation_rank=rk,
            generic_rank=res.value,
            certified=True,
            method=res.method,
            witness=res.witness,
            note="witness of strictly larger rank found",
        )
    if res.certified:
        return Verdict(
            outcome="certified-yes",
            presentation_rank=rk,
            generic_rank=res.value,
            certified=True,
            method=res.method,
            witness=res.witness,
        )
    return Verdict(
        outcome="probable-yes",
        presentation_rank=rk,
        generic_rank=res.value,
        certified=False,
        method=None,
        witness=res.witness,
        note=(
            "no sampled morphism beat the presentation rank, but the maximal "
            "rank was not certified; a larger-rank element may exist"
        ),
    )


def stable_hom_dim_inj(n: Representation, x: Representation) -> int:
    """dim Hom(N, X) minus the morphisms factoring through injectives.

    A map from N into an injective extends along the envelope mono
    N -> E, so these are the maps that factor through E.  Hom(-, X) is
    left exact, so 0 -> N -> E -> C -> 0 (C the cokernel of the mono)
    gives 0 -> Hom(C, X) -> Hom(E, X) -> Hom(N, X), and the maps that
    factor through E, the image of the last arrow, number
    dim Hom(E, X) - dim Hom(C, X)."""
    base = hom_dim(n, x)
    if base == 0:
        return 0
    env, mono = injective_envelope(n)
    c, _ = cokernel(mono)
    return base - hom_dim(env, x) + hom_dim(c, x)


@analysis_scope()
def ar_formula_check(m: Representation, n: Representation) -> bool:
    """Ext^1(M, N) and the stable Hom(N, tau M) have equal dimensions."""
    t = scoped(tau, m)
    rhs = 0 if t.is_zero() else stable_hom_dim_inj(n, t)
    return ext1_dim(m, n) == rhs


class HierarchyError(AssertionError):
    """An implication edge of the module-class hierarchy failed."""


@dataclass
class HierarchyReport:
    projective: bool
    pd_le_1: bool
    rigid: bool
    tau_rigid: bool
    partial_tilting: bool
    tau_regular: bool
    verdict: Verdict
    pd: object
    e_value: int
    E_value: int

    def to_json(self):
        return {
            "projective": self.projective,
            "pd_le_1": self.pd_le_1,
            "rigid": self.rigid,
            "tau_rigid": self.tau_rigid,
            "partial_tilting": self.partial_tilting,
            "tau_regular": self.tau_regular,
            "verdict": self.verdict.to_json(),
            "proj_dim": self.pd.to_json(),
            "e": self.e_value,
            "E": self.E_value,
        }


@analysis_scope()
def hierarchy_report(
    m: Representation,
    trials: int = 8,
    seed: int = 42,
    cap: int = 10,
) -> HierarchyReport:
    """All six hierarchy flags, with the implication edges asserted."""
    cx = scoped(min_presentation, m)
    projective = cx.p1.is_zero()
    pd1 = cx.rank() == cx.hom.r1.total_dim  # presentation map injective
    e_val = ext1_dim(m, m)
    rigid = e_val == 0
    big_e = e_invariant(m)
    tau_rigid = big_e == 0
    partial_tilting = rigid and pd1
    verdict = is_tau_regular(m, trials=trials, seed=seed)
    tau_regular = verdict.is_yes()
    pd = proj_dim(m, cap=cap)

    edges = [
        (not projective or partial_tilting, "projective => partial tilting"),
        (not partial_tilting or (pd1 and tau_rigid), "partial tilting => pd<=1 and tau-rigid"),
        (not pd1 or tau_regular, "pd<=1 => tau-regular"),
        (not tau_rigid or (tau_regular and rigid), "tau-rigid => tau-regular and rigid"),
        (partial_tilting == (pd1 and rigid), "partilt = P<=1 ∩ rigid"),
        (partial_tilting == (pd1 and tau_rigid), "partilt = P<=1 ∩ tau-rigid"),
        (not pd1 or pd.le(1), "presentation-injectivity agrees with proj_dim"),
        (e_val <= big_e, "e(M) <= E(M)"),
    ]
    for ok, label in edges:
        if not ok:
            raise HierarchyError(f"hierarchy violated: {label}")
    return HierarchyReport(
        projective=projective,
        pd_le_1=pd1,
        rigid=rigid,
        tau_rigid=tau_rigid,
        partial_tilting=partial_tilting,
        tau_regular=tau_regular,
        verdict=verdict,
        pd=pd,
        e_value=e_val,
        E_value=big_e,
    )


@dataclass
class ReduceReport:
    ideal_dim: int
    quotient_dim: int
    pd_parent: object
    pd_quotient: object
    tau_rigid_parent: bool
    tau_rigid_quotient: bool
    tau_regular_parent: Verdict
    tau_regular_quotient: Verdict
    e_parent: int
    e_quotient: int
    E_parent: int
    E_quotient: int

    def to_json(self):
        return {
            "ideal_dim": self.ideal_dim,
            "quotient_dim": self.quotient_dim,
            "pd_A": self.pd_parent.to_json(),
            "pd_B": self.pd_quotient.to_json(),
            "tau_rigid_A": self.tau_rigid_parent,
            "tau_rigid_B": self.tau_rigid_quotient,
            "tau_regular_A": self.tau_regular_parent.to_json(),
            "tau_regular_B": self.tau_regular_quotient.to_json(),
            "e_A": self.e_parent,
            "e_B": self.e_quotient,
            "E_A": self.E_parent,
            "E_B": self.E_quotient,
        }


@analysis_scope()
def reduce_and_compare(
    algebra,
    m: Representation,
    ideal: Ideal | None = None,
    trials: int = 8,
    seed: int = 42,
    cap: int = 10,
) -> ReduceReport:
    """Reduce M to B = A/I (I the annihilator by default) and compare the
    homological invariants on both sides.

    The e and E inequalities e_B <= e_A, E_B <= E_A are asserted."""
    if ideal is None:
        ideal = annihilator(algebra, m)
    if ideal.algebra is not algebra:
        raise ValueError("ideal defined over a different algebra")
    if not annihilates(ideal, m):
        raise ValueError("ideal does not annihilate the module")
    if ideal.dim == algebra.dim:
        raise ValueError("the ideal is the whole algebra (the module is zero), "
                         "so A/I does not exist")
    quot, _ = algebra.quotient(ideal)
    m_b = Representation(quot, m.field, m.dims, m.arrows)

    pd_a = proj_dim(m, cap=cap)
    pd_b = proj_dim(m_b, cap=cap)
    e_a = ext1_dim(m, m)
    e_b = ext1_dim(m_b, m_b)
    big_e_a = e_invariant(m)
    big_e_b = e_invariant(m_b)
    if e_b > e_a or big_e_b > big_e_a:
        raise AssertionError("reduction increased e or E; this must not happen")
    va = is_tau_regular(m, trials=trials, seed=seed)
    vb = is_tau_regular(m_b, trials=trials, seed=seed)
    return ReduceReport(
        ideal_dim=ideal.dim,
        quotient_dim=quot.dim,
        pd_parent=pd_a,
        pd_quotient=pd_b,
        tau_rigid_parent=big_e_a == 0,
        tau_rigid_quotient=big_e_b == 0,
        tau_regular_parent=va,
        tau_regular_quotient=vb,
        e_parent=e_a,
        e_quotient=e_b,
        E_parent=big_e_a,
        E_quotient=big_e_b,
    )
