"""The bundled example expectations behind `taurank paper-examples`.

Each check reruns one of the worked fixture examples and compares
against its expected values.  Yes-verdicts accept probable-yes (the
randomized path may lose certification under adversarial seeds), but a
certified expectation may never flip to its negation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Ideal
from .artheory import hierarchy_report, is_tau_regular, reduce_and_compare
from .fixtures import load_fixture
from .presentations import (
    ProjDecomp,
    additivity_scan,
    complex_from_coeffs,
    generic_rank,
)
from .reps import annihilator, cokernel, direct_sum, injective, projective, simple


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_json(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _check(name, cond, detail=""):
    return CheckResult(name, bool(cond), detail)


def cok_f_100(alg_a):
    cx = complex_from_coeffs(alg_a, ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1)), [1, 0, 0])
    m, _ = cokernel(cx.map)
    return m


def run_paper_examples(trials=8, seed=42):
    checks = []
    alg_a = load_fixture("ALG-A")
    alg_b = load_fixture("ALG-B")
    alg_b0 = load_fixture("ALG-B0")
    alg_c = load_fixture("ALG-C")

    # ALG-A structure
    p_dims = tuple(alg_a.dims_of_projective(i) for i in (1, 2, 3))
    checks.append(
        _check(
            "ALG-A: dim A = 12 and projective dimension vectors",
            alg_a.dim == 12 and p_dims == ((1, 0, 0), (3, 1, 0), (3, 3, 1)),
            f"dim={alg_a.dim}, P={p_dims}",
        )
    )

    # maximal rank of Hom(P(2), P(3))
    res1 = generic_rank(
        alg_a, ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1)),
        trials=max(trials, 2), seed=seed,
    )
    checks.append(
        _check(
            "ALG-A: r(P(2), P(3)) = 3, certified",
            res1.value == 3 and res1.certified,
            f"value={res1.value}, certified={res1.certified}, method={res1.method}",
        )
    )

    # doubled pair jumps to 8 and the scan flags t = 2
    res2 = generic_rank(
        alg_a, ProjDecomp((0, 2, 0)), ProjDecomp((0, 0, 2)),
        trials=max(trials, 2), seed=seed,
    )
    scan = additivity_scan(
        alg_a, ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1)),
        t_max=2, trials=max(trials, 2), seed=seed,
    )
    checks.append(
        _check(
            "ALG-A: r(P(2)^2, P(3)^2) = 8, certified; scan flags t=2",
            res2.value == 8 and res2.certified and scan.violations == [2],
            f"value={res2.value}, certified={res2.certified}, violations={scan.violations}",
        )
    )

    # the cokernel module and its double
    m = cok_f_100(alg_a)
    v_m = is_tau_regular(m, trials=trials, seed=seed)
    mm = direct_sum([m, m])
    v_mm = is_tau_regular(mm, trials=max(trials, 2), seed=seed)
    checks.append(
        _check(
            "ALG-A: Cok f^(1,0,0) is tau-regular",
            m.dims == (1, 2, 1) and v_m.is_yes(),
            f"dims={m.dims}, outcome={v_m.outcome}",
        )
    )
    checks.append(
        _check(
            "ALG-A: the doubled cokernel is certified not tau-regular (rank-8 witness)",
            v_mm.outcome == "certified-no" and v_mm.generic_rank == 8
            and v_mm.witness is not None and v_mm.witness.rank() == 8,
            f"outcome={v_mm.outcome}, generic_rank={v_mm.generic_rank}",
        )
    )

    # ALG-B: S(2) + S(3)
    m_b = direct_sum([simple(alg_b, 2), simple(alg_b, 3)])
    rep_b = hierarchy_report(m_b, trials=trials, seed=seed)
    checks.append(
        _check(
            "ALG-B: S(2)+S(3) is tau-regular with pd = 2 and not tau-rigid",
            rep_b.tau_regular and rep_b.pd.value == 2 and not rep_b.tau_rigid,
            f"outcome={rep_b.verdict.outcome}, pd={rep_b.pd}, tau_rigid={rep_b.tau_rigid}",
        )
    )

    # ALG-B0: P(2) + I(2) + S(3) and its reduction
    m_b0 = direct_sum(
        [projective(alg_b0, 2), injective(alg_b0, 2), simple(alg_b0, 3)]
    )
    ann = annihilator(alg_b0, m_b0)
    ab = alg_b0.element_from_terms([(1, ("a", "b"))])
    ann_ok = ann == Ideal.from_generators(alg_b0, [ab])
    red = reduce_and_compare(alg_b0, m_b0, trials=trials, seed=seed)
    checks.append(
        _check(
            "ALG-B0: annihilator of P(2)+I(2)+S(3) is (a*b)",
            ann_ok,
            f"ann_dim={ann.dim}",
        )
    )
    checks.append(
        _check(
            "ALG-B0: pd_A = 1, pd_B = 2, not tau-rigid, tau_A-regular, "
            "certified not tau_B-regular",
            red.pd_parent.value == 1
            and red.pd_quotient.value == 2
            and not red.tau_rigid_parent
            and red.tau_regular_parent.is_yes()
            and red.tau_regular_quotient.outcome == "certified-no",
            f"pd_A={red.pd_parent}, pd_B={red.pd_quotient}, "
            f"A:{red.tau_regular_parent.outcome}, B:{red.tau_regular_quotient.outcome}",
        )
    )

    # ALG-C: quotient by (a) is Kronecker-shaped; S(1)+S(2) flips regularity
    ideal_a = Ideal.from_generators(alg_c, [alg_c.arrow_element("a")])
    quot, _ = alg_c.quotient(ideal_a)
    kron_shape = (
        quot.dim == 4
        and len(quot.vertices) == 2
        and quot.dims_of_projective(1) == (1, 0)
        and quot.dims_of_projective(2) == (2, 1)
    )
    n_c = direct_sum([simple(alg_c, 1), simple(alg_c, 2)])
    red_c = reduce_and_compare(alg_c, n_c, ideal=ideal_a, trials=trials, seed=seed)
    checks.append(
        _check(
            "ALG-C: A/(a) is the Kronecker path algebra (2 vertices, dim 4)",
            kron_shape,
            f"dim={quot.dim}, vertices={list(quot.vertices)}",
        )
    )
    checks.append(
        _check(
            "ALG-C: S(1)+S(2) is tau_B-regular, certified not tau_A-regular, "
            "pd_A certified infinite",
            red_c.tau_regular_quotient.is_yes()
            and red_c.tau_regular_parent.outcome == "certified-no"
            and red_c.pd_parent.kind == "infinite",
            f"B:{red_c.tau_regular_quotient.outcome}, A:{red_c.tau_regular_parent.outcome}, "
            f"pd_A={red_c.pd_parent}",
        )
    )
    return checks
