"""Auslander-Reiten translate via the Nakayama functor, the E-map of a
presentation with the E-invariant and Ext^1 it gives, tau-rigidity and
tau-regularity verdicts, the AR formula, the module hierarchy, and
reduction to quotient algebras.

tau(M) is the kernel of the Nakayama functor applied to a minimal
presentation (0 -> tau M -> nu P1 -> nu P0), which stays inside left
representations end to end; tau^- runs the same code over the opposite
algebra.  Non-regularity verdicts always carry a strictly-higher-rank
witness; regularity is certified only when the dimension bound, the
symbolic oracle or cancellation of a common summand certifies the
generic rank ("dimension-bound", "oracle", "cancellation").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import Ideal
from .linalg import _echelon
from .presentations import (
    GenericRankResult,
    TwoComplex,
    cover_upper_bound,
    generic_rank,
    min_presentation,
    realize_pair,
)
from .reps import (
    Morphism,
    Representation,
    _check_same_base,
    act_word,
    annihilates,
    annihilator,
    cokernel,
    dual_morphism,
    dual_rep,
    hom_dim,
    injective,
    injective_envelope_mults,
    kernel,
    proj_dim,
    scoped,
    syzygy,
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
    """Inverse translate, computed as D tau_op(D M); D M is kept with M's analyses."""
    dm = scoped(dual_rep, m)
    t = tau(dm)
    if t.is_zero():
        return zero_rep(m.algebra, m.field)
    return dual_rep(t)


def e_map(cx: TwoComplex, n: Representation):
    """(rows, columns, rank) of the E-map Hom(P0, N) -> Hom(P1, N),
    phi -> phi f, of f: P1 -> P0.  Its kernel is Hom(coker f, N), and for
    a minimal presentation of M its cokernel is D Hom(N, tau M)
    (Adachi-Iyama-Reiten 2014, Prop. 2.4).  As Hom(P(j), N) = N_j, block
    (s1, s0) is the sum of c * act_word(N, x) over the Hom items
    (s1, s0, x) with coefficient c."""
    hs, p = cx.hom, n.field.characteristic
    _check_same_base(hs.r0.rep, n)
    row_at, col_at = ([*itertools.accumulate((n.vertex_dim(i) for i, _ in r.summands),
                                             initial=0)] for r in (hs.r1, hs.r0))
    rows = [{} for _ in range(row_at[-1])]
    for (s1, s0, x), c in zip(hs.items, cx.coeffs):
        if c:
            b = hs.algebra.basis[x]
            for row, act in zip(rows[row_at[s1]:], act_word(n, b.word, b.source).rows):
                for k, y in enumerate(act, start=col_at[s0]):
                    if y:
                        y = c * y + row.pop(k, 0)
                        if y := (y % p if p else y):
                            row[k] = y
    rank = len(_echelon(n.field, rows)[1])
    return row_at[-1], col_at[-1], rank


def e_invariant(m: Representation, n: Representation | None = None) -> int:
    """dim Hom(N, tau M) from M's E-map; with N omitted, dim Hom(M, tau M)."""
    rows, _, rank = e_map(scoped(min_presentation, m), m if n is None else n)
    return rows - rank


def ext1_dim(m: Representation, n: Representation) -> int:
    """dim Ext^1(M, N) = dim Hom(Omega M, N) minus the rank of M's E-map into
    N, the rank of Hom(P0, N) -> Hom(Omega M, N), both with kernel Hom(M, N)."""
    _, _, rank = e_map(scoped(min_presentation, m), n)
    return hom_dim(syzygy(m), n) - rank


_NOTES = {
    "certified-yes": "",
    "certified-no": "witness of strictly larger rank found",
    "probable-yes": (
        "no sampled morphism beat the presentation rank, but the maximal "
        "rank was not certified; a larger-rank element may exist"
    ),
}


@dataclass
class Verdict:
    """Three-valued outcome of a randomized decision: the presentation's
    rank against the maximal rank that `result` found.

    certified-no always carries a witness of strictly larger rank;
    certified-yes requires the generic rank itself to be certified."""

    presentation_rank: int
    result: GenericRankResult

    @property
    def outcome(self):
        if self.presentation_rank < self.result.value:
            return "certified-no"
        return "certified-yes" if self.result.certified else "probable-yes"

    @property
    def generic_rank(self):
        return self.result.value

    @property
    def certified(self):
        return self.outcome != "probable-yes"

    @property
    def method(self):
        return self.result.method

    @property
    def witness(self):
        return self.result.witness

    @property
    def note(self):
        return _NOTES[self.outcome]

    def is_yes(self):
        return self.outcome in ("certified-yes", "probable-yes")

    def to_json(self):
        return {
            "outcome": self.outcome,
            "witness_rank": self.witness.rank(),
            "generic_rank": self.generic_rank,
            "presentation_rank": self.presentation_rank,
            "certified": self.certified,
            "method": self.method,
            "note": self.note,
        }


def is_tau_regular(m: Representation, trials: int = 8, seed: int = 42) -> Verdict:
    """Rank criterion: M is tau-regular iff its minimal presentation map
    attains the maximal rank r(P1, P0).

    A presentation whose rank reaches the term rank of the generic map of
    its Hom space (`cover_upper_bound`) has maximal rank, certified: the
    verdict is certified-yes with the presentation itself as witness, and
    no sample is drawn.  Every injective presentation (pd M <= 1) is such
    a one, since its rank is dim P1.  Otherwise `generic_rank` samples the
    pair with the presentation as an extra sample.  The shortcut lives
    here, not in `generic_rank`, where an extra sample attaining the bound
    would also end the trials of scan levels t >= 2, whose counts the
    benchmark harness pins."""
    cx = scoped(min_presentation, m)
    rank, upper = cx.rank(), cover_upper_bound(cx.hom)
    if rank == upper:
        return Verdict(rank, GenericRankResult(rank, cx, "dimension-bound", upper))
    res = generic_rank(m.algebra, cx.p1, cx.p0, trials=trials, seed=seed,
                       extra_samples=[cx.map], field=m.field)
    return Verdict(rank, res)


def stable_hom_dim_inj(n: Representation, x: Representation) -> int:
    """dim Hom(N, X) minus the morphisms factoring through injectives.

    A map from N into an injective extends along the envelope mono
    N -> E, so these are the maps that factor through E.  Hom(-, X) is
    left exact, so 0 -> N -> E -> C -> 0 (C the cokernel of the mono)
    gives 0 -> Hom(C, X) -> Hom(E, X) -> Hom(N, X), and the maps that
    factor through E, the image of the last arrow, number
    dim Hom(E, X) - dim Hom(C, X).  Hom(-, X) is additive, so with
    E = sum of k_j copies of I(j), dim Hom(E, X) is the sum of
    k_j dim Hom(I(j), X): one small system per indecomposable injective
    instead of one for all of E.  The envelope is kept with N's analyses."""
    base = hom_dim(n, x)
    if base == 0:
        return 0
    _, mono, mults = scoped(injective_envelope_mults, n)
    c, _ = cokernel(mono)
    hom_env = sum(k * hom_dim(injective(n.algebra, j, n.field), x)
                  for j, k in enumerate(mults, start=1) if k)
    return base - hom_env + hom_dim(c, x)


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
    verdict: Verdict
    pd: object
    e_value: int
    E_value: int

    @property
    def rigid(self):
        return self.e_value == 0

    @property
    def tau_rigid(self):
        return self.E_value == 0

    @property
    def partial_tilting(self):
        return self.rigid and self.pd_le_1

    @property
    def tau_regular(self):
        return self.verdict.is_yes()

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


def hierarchy_report(
    m: Representation,
    trials: int = 8,
    seed: int = 42,
    cap: int = 10,
) -> HierarchyReport:
    """All six hierarchy flags, with the implication edges asserted."""
    cx = scoped(min_presentation, m)
    r = HierarchyReport(
        projective=cx.p1.is_zero(),
        pd_le_1=cx.rank() == cx.hom.r1.total_dim,  # presentation map injective
        e_value=scoped(ext1_dim, m, m),
        E_value=scoped(e_invariant, m),
        verdict=is_tau_regular(m, trials=trials, seed=seed),
        pd=scoped(proj_dim, m, cap),
    )
    edges = [
        (not r.projective or r.partial_tilting, "projective => partial tilting"),
        (not r.partial_tilting or (r.pd_le_1 and r.tau_rigid),
         "partial tilting => pd<=1 and tau-rigid"),
        (not r.pd_le_1 or r.tau_regular, "pd<=1 => tau-regular"),
        (not r.tau_rigid or (r.tau_regular and r.rigid), "tau-rigid => tau-regular and rigid"),
        (r.partial_tilting == (r.pd_le_1 and r.rigid), "partilt = P<=1 ∩ rigid"),
        (r.partial_tilting == (r.pd_le_1 and r.tau_rigid), "partilt = P<=1 ∩ tau-rigid"),
        (not r.pd_le_1 or r.pd.le(1), "presentation-injectivity agrees with proj_dim"),
        (r.e_value <= r.E_value, "e(M) <= E(M)"),
    ]
    for ok, label in edges:
        if not ok:
            raise HierarchyError(f"hierarchy violated: {label}")
    return r


@dataclass
class ReduceReport:
    """M over A (`parent`) against M over B = A/I (`quotient`)."""

    ideal_dim: int
    quotient_dim: int
    parent: HierarchyReport
    quotient: HierarchyReport

    def to_json(self):
        a, b = self.parent, self.quotient
        return {
            "ideal_dim": self.ideal_dim,
            "quotient_dim": self.quotient_dim,
            "pd_A": a.pd.to_json(),
            "pd_B": b.pd.to_json(),
            "tau_rigid_A": a.tau_rigid,
            "tau_rigid_B": b.tau_rigid,
            "tau_regular_A": a.verdict.to_json(),
            "tau_regular_B": b.verdict.to_json(),
            "e_A": a.e_value,
            "e_B": b.e_value,
            "E_A": a.E_value,
            "E_B": b.E_value,
        }


def _reduction(m: Representation, ideal: Ideal):
    """(I, B = A/I, M over B) for an ideal I of M's algebra A that
    annihilates M and is not all of A."""
    algebra = m.algebra
    if ideal.algebra is not algebra:
        raise ValueError("ideal defined over a different algebra")
    if not annihilates(ideal, m):
        raise ValueError("ideal does not annihilate the module")
    if ideal.dim == algebra.dim:
        raise ValueError("the ideal is the whole algebra (the module is zero), "
                         "so A/I does not exist")
    quot = algebra.quotient(ideal)
    return ideal, quot, Representation(quot, m.field, m.dims, m.arrows)


def _annihilator_reduction(m: Representation):
    """The reduction of M along its annihilator."""
    return _reduction(m, annihilator(m))


def reduce_and_compare(
    m: Representation,
    ideal: Ideal | None = None,
    trials: int = 8,
    seed: int = 42,
    cap: int = 10,
) -> ReduceReport:
    """Reduce M to B = A/I (I the annihilator by default) and compare the
    hierarchy reports of M over A and over B.

    The e and E inequalities e_B <= e_A, E_B <= E_A are asserted.  The
    ideal (the annihilator, or the given one), B and M over B are kept with
    M's analyses, so a repeated call on M with the same ideal reuses them,
    and M over B's own analyses under its own content key."""
    if ideal is None:
        ideal, quot, m_b = scoped(_annihilator_reduction, m)
    else:
        ideal, quot, m_b = scoped(_reduction, m, ideal)
    a = hierarchy_report(m, trials=trials, seed=seed, cap=cap)
    b = hierarchy_report(m_b, trials=trials, seed=seed, cap=cap)
    if b.e_value > a.e_value or b.E_value > a.E_value:
        raise AssertionError("reduction increased e or E; this must not happen")
    return ReduceReport(ideal.dim, quot.dim, a, b)
