import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from taurank import artheory, presentations, reps
from taurank.algebra import Ideal
from taurank.artheory import (
    Verdict,
    ar_formula_check,
    e_invariant,
    hierarchy_report,
    is_tau_regular,
    nakayama_complex,
    reduce_and_compare,
    stable_hom_dim_inj,
    tau,
    tau_minus,
)
from taurank.fields import QQ, PrimeField, SeedStream
from taurank.fixtures import FIXTURE_NAMES, load_fixture
from taurank.linalg import Matrix
from taurank.presentations import (
    ProjDecomp,
    complex_from_coeffs,
    cover_upper_bound,
    generic_rank,
    min_presentation,
    random_module,
)
from taurank.reps import (
    cokernel,
    direct_sum,
    ext1_dim,
    hom_basis,
    hom_dim,
    injective,
    injective_envelope_mults,
    iso_test,
    proj_dim,
    projective,
    simple,
)


def cok_f(alg_a, lam):
    cx = complex_from_coeffs(
        alg_a, ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1)),
        [Fraction(x) for x in lam],
    )
    m, _ = cokernel(cx.map)
    return m


def test_nakayama_of_zero_syzygy(alg_b):
    cx = min_presentation(projective(alg_b, 1))
    nu = nakayama_complex(cx)
    assert nu.source.is_zero()
    assert nu.target.dims == injective(alg_b, 1).dims
    assert nu.rank() == 0


def test_nakayama_simple_alg_b(alg_b):
    # oracle: Hom(I(1), I(2)) is one-dimensional (the path a), so the
    # transported map has rank exactly 1
    assert hom_dim(injective(alg_b, 1), injective(alg_b, 2)) == 1
    cx = min_presentation(simple(alg_b, 2))
    nu = nakayama_complex(cx)
    assert nu.source.dims == injective(alg_b, 1).dims
    assert nu.target.dims == injective(alg_b, 2).dims
    assert nu.rank() == 1
    nu.check_intertwines()


def test_tau_of_projectives_vanishes(alg_a, alg_b):
    for alg in (alg_a, alg_b):
        for i in alg.vertices:
            assert tau(projective(alg, i)).is_zero()


def test_tau_simples_alg_b(alg_b):
    assert iso_test(tau(simple(alg_b, 2)), simple(alg_b, 1))
    assert iso_test(tau(simple(alg_b, 3)), simple(alg_b, 2))


def test_tau_kronecker_coxeter_dims(alg_k):
    # oracle: Coxeter transformation of the Kronecker quiver sends (0,1) to (2,3)
    assert tau(simple(alg_k, 2)).dims == (2, 3)


def test_tau_minus(alg_b):
    for i in alg_b.vertices:
        assert tau_minus(injective(alg_b, i)).is_zero()
    assert iso_test(tau_minus(simple(alg_b, 1)), simple(alg_b, 2))
    for i in (2, 3):
        s = simple(alg_b, i)
        assert iso_test(tau_minus(tau(s)), s)
        assert iso_test(tau(tau_minus(simple(alg_b, i - 1))), simple(alg_b, i - 1))


def test_e_invariant_examples(alg_b):
    for i in alg_b.vertices:
        assert e_invariant(projective(alg_b, i), simple(alg_b, 2)) == 0
    assert e_invariant(simple(alg_b, 2)) == 0
    assert e_invariant(simple(alg_b, 2)) == 0
    m = direct_sum([simple(alg_b, 2), simple(alg_b, 3)])
    assert e_invariant(m) == 1
    assert e_invariant(m) != 0


def test_e_invariant_pairwise(alg_b):
    # E(M, N) = dim Hom(N, tau M), checked against a direct Hom solve
    m = direct_sum([simple(alg_b, 2), simple(alg_b, 3)])
    t = tau(m)
    assert t.dims == (1, 1, 0)
    assert e_invariant(m, simple(alg_b, 2)) == hom_dim(simple(alg_b, 2), t)


def test_tau_rigid_fails_for_b0_reduction_module(alg_b0):
    m = direct_sum([projective(alg_b0, 2), injective(alg_b0, 2), simple(alg_b0, 3)])
    assert e_invariant(m) != 0


def test_tau_regular_projective(alg_b):
    v = is_tau_regular(projective(alg_b, 2), trials=2, seed=1)
    assert v.outcome == "certified-yes"


def test_tau_regular_cok_family(monkeypatch, alg_a):
    # both presentations stay below the cover bound, so each is sampled
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return generic_rank(*args, **kwargs)

    monkeypatch.setattr(artheory, "generic_rank", spy)
    m = cok_f(alg_a, (1, 0, 0))
    assert m.dims == (1, 2, 1)
    v = is_tau_regular(m, trials=8, seed=42)
    assert v.outcome == "certified-yes" and v.method == "oracle"
    assert v.presentation_rank == 3 == v.generic_rank

    mm = direct_sum([m, m])
    v2 = is_tau_regular(mm, trials=8, seed=42)
    assert v2.outcome == "certified-no"
    assert v2.presentation_rank == 6
    assert v2.generic_rank == 8
    assert v2.witness.rank() == 8
    assert len(calls) == 2


def test_tau_regular_alg_b_sum(alg_b):
    m = direct_sum([simple(alg_b, 2), simple(alg_b, 3)])
    v = is_tau_regular(m, trials=8, seed=42)
    assert v.outcome == "certified-yes"
    assert v.presentation_rank == 2


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(FIXTURE_NAMES),
    st.sampled_from([QQ, PrimeField(2**31 - 1)]),
    st.integers(0, 10**6),
)
def test_verdict_equals_sampling_with_the_presentation_as_extra_sample(fixture, field, seed):
    # the cover-bound shortcut must give the bytes of the sampled verdict
    m = random_module(load_fixture(fixture), SeedStream(seed), max_total_dim=7, field=field)
    cx = min_presentation(m)
    sampled = generic_rank(m.algebra, cx.p1, cx.p0, trials=2, seed=seed,
                           extra_samples=[cx.map], field=field)
    want = Verdict(cx.rank(), sampled).to_json()
    assert is_tau_regular(m, trials=2, seed=seed).to_json() == want


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIXTURE_NAMES), st.integers(0, 10**6))
def test_pd_le_1_modules_draw_no_sample(fixture, seed):
    m = random_module(load_fixture(fixture), SeedStream(seed), max_total_dim=7)
    cx = reps.scoped(min_presentation, m)  # the presentation is_tau_regular reads
    if cx.rank() < cx.hom.r1.total_dim:  # not injective: pd M > 1
        return
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(artheory, "generic_rank", lambda *a, **k: calls.append(a))
        v = is_tau_regular(m, trials=2, seed=seed)
    assert not calls
    assert v.outcome == "certified-yes" and v.method == "dimension-bound"
    assert v.witness is cx and v.generic_rank == cover_upper_bound(cx.hom)


def test_stable_hom_examples(alg_b):
    s1, s2 = simple(alg_b, 1), simple(alg_b, 2)
    # nothing factors through I(1) since Hom(I(1), S(1)) = 0
    assert hom_dim(injective(alg_b, 1), s1) == 0
    assert stable_hom_dim_inj(s1, s1) == 1
    # identity of an injective factors through itself
    i2 = injective(alg_b, 2)
    assert stable_hom_dim_inj(i2, i2) == 0
    # no injective receiver: stable hom equals plain hom
    assert stable_hom_dim_inj(s2, tau(s2)) == hom_dim(s2, tau(s2)) == 0


def stable_hom_by_composition(n, x):
    """Reference count: dim Hom(N, X) minus the rank of the maps g . mono,
    g running over a basis of Hom(E, X), E the injective envelope of N."""
    env, mono, _ = injective_envelope_mults(n)
    rows = []
    for g in hom_basis(env, x):
        comp = g.compose(mono)
        rows.append([c for v in n.algebra.quiver.vertices
                     for row in comp.maps[v].rows for c in row])
    factoring = Matrix(n.field, rows, len(rows[0])).rank() if rows and rows[0] else 0
    return hom_dim(n, x) - factoring


FIELDS = {"Q": QQ, "F7": PrimeField(7), "Fp": PrimeField(2**31 - 1)}


def small_modules(alg, field=QQ):
    """S(i), P(i), I(i) for every vertex i, then every sum of two of them
    (S(i) + S(i) among them)."""
    singles = [make(alg, i, field) for i in alg.vertices
               for make in (simple, projective, injective)]
    pairs = [direct_sum([a, b]) for k, a in enumerate(singles) for b in singles[k:]]
    return singles, singles + pairs


def test_stable_hom_rank_formula_matches_composition(all_fixture_algebras):
    # translates of dimension 8 to 11 (only ALG-A's) pair with the singles
    # alone: the reference composes every map of a large Hom(E, X)
    for field in FIELDS.values():
        nonzero = 0
        for alg in all_fixture_algebras.values():
            singles, mods = small_modules(alg, field)
            for t in map(tau, singles):
                if t.is_zero() or t.dim_total > 11:
                    continue
                for n in mods if t.dim_total <= 7 else singles:
                    want = stable_hom_by_composition(n, t)
                    assert stable_hom_dim_inj(n, t) == want
                    nonzero += want > 0
        assert nonzero >= 150, field


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
def test_envelope_hom_is_the_sum_over_its_indecomposable_injectives(
    all_fixture_algebras, field
):
    # Hom(-, X) is additive: dim Hom(E, X) = sum of k_j dim Hom(I(j), X)
    # for E = sum of k_j copies of I(j); N = S(i) + S(i) and the other
    # doubled modules have envelopes with a repeated summand
    repeated = 0
    for alg in all_fixture_algebras.values():
        singles, _ = small_modules(alg, field)
        targets = singles + [t for t in map(tau, singles) if not t.is_zero()]
        for n in singles + [direct_sum([a, a]) for a in singles]:
            env, mono, mults = injective_envelope_mults(n)
            parts = [injective(alg, j, field) for j, k in enumerate(mults, 1) for _ in range(k)]
            assert env == direct_sum(parts)
            repeated += any(k > 1 for k in mults)
            for x in targets:
                want = sum(k * hom_dim(injective(alg, j, field), x)
                           for j, k in enumerate(mults, 1))
                assert hom_dim(env, x) == want
    assert repeated >= 20


def test_ar_formula_examples(alg_b):
    assert ar_formula_check(projective(alg_b, 2), simple(alg_b, 1))
    m, n = simple(alg_b, 2), simple(alg_b, 1)
    assert ext1_dim(m, n) == 1
    assert stable_hom_dim_inj(n, tau(m)) == 1
    assert ar_formula_check(m, n)
    assert ext1_dim(simple(alg_b, 2), simple(alg_b, 3)) == 0
    assert ar_formula_check(simple(alg_b, 2), simple(alg_b, 3))


def test_ext_equals_e_for_low_pd(alg_b0):
    # hereditary: dim Ext^1(M, N) = dim Hom(N, tau M) outright
    for i in alg_b0.vertices:
        for j in alg_b0.vertices:
            m, n = simple(alg_b0, i), simple(alg_b0, j)
            assert ext1_dim(m, n) == e_invariant(m, n)


def test_hierarchy_projective(alg_a):
    rep = hierarchy_report(projective(alg_a, 3), trials=2, seed=1)
    assert rep.projective and rep.partial_tilting and rep.pd_le_1
    assert rep.rigid and rep.tau_rigid and rep.tau_regular


def test_hierarchy_alg_b_sum(alg_b):
    m = direct_sum([simple(alg_b, 2), simple(alg_b, 3)])
    rep = hierarchy_report(m, trials=8, seed=42)
    assert rep.tau_regular
    assert not rep.tau_rigid
    assert not rep.pd_le_1
    assert rep.pd.value == 2
    assert rep.e_value == 1 and rep.E_value == 1


def test_hierarchy_b0_reduction_module(alg_b0):
    m = direct_sum([projective(alg_b0, 2), injective(alg_b0, 2), simple(alg_b0, 3)])
    rep = hierarchy_report(m, trials=8, seed=42)
    assert rep.pd_le_1
    assert not rep.tau_rigid
    assert rep.tau_regular
    assert rep.verdict.outcome == "certified-yes"


def test_reduce_b0_module(alg_b0):
    m = direct_sum([projective(alg_b0, 2), injective(alg_b0, 2), simple(alg_b0, 3)])
    report = reduce_and_compare(m, trials=8, seed=42)
    assert report.ideal_dim == 1
    assert report.quotient_dim == 5
    assert report.parent.pd.value == 1
    assert report.quotient.pd.value == 2
    assert not report.parent.tau_rigid
    assert report.parent.verdict.outcome == "certified-yes"
    assert report.quotient.verdict.outcome == "certified-no"
    assert report.quotient.e_value <= report.parent.e_value
    assert report.quotient.E_value <= report.parent.E_value


def test_reduce_two_vertex_module(alg_c):
    n = direct_sum([simple(alg_c, 1), simple(alg_c, 2)])
    ideal = Ideal.from_generators(alg_c, [alg_c.arrow_element("a")])
    report = reduce_and_compare(n, ideal=ideal, trials=8, seed=42)
    assert report.quotient_dim == 4
    assert report.quotient.verdict.outcome == "certified-yes"
    assert report.parent.verdict.outcome == "certified-no"
    assert report.parent.pd.kind == "infinite"
    assert report.quotient.pd.value == 1


def test_reduce_tau_rigid_gets_pd_le_1(alg_b):
    # a tau-rigid module reduced along its annihilator has pd <= 1
    m = direct_sum([simple(alg_b, 2), projective(alg_b, 2)])
    assert e_invariant(m) == 0
    report = reduce_and_compare(m, trials=4, seed=3)
    assert report.quotient.tau_rigid
    assert report.quotient.pd.le(1)


def test_reduce_rejects_non_annihilating_ideal(alg_b):
    ideal = Ideal.from_generators(alg_b, [alg_b.arrow_element("a")])
    m = direct_sum([projective(alg_b, 2)])
    with pytest.raises(ValueError, match="annihilate"):
        reduce_and_compare(m, ideal=ideal)


def test_e_le_E_on_fixture_modules(alg_b, alg_b0, alg_c):
    mods = [
        direct_sum([simple(alg_b, 2), simple(alg_b, 3)]),
        direct_sum([projective(alg_b0, 2), injective(alg_b0, 2), simple(alg_b0, 3)]),
        direct_sum([simple(alg_c, 1), simple(alg_c, 2)]),
    ]
    for m in mods:
        assert ext1_dim(m, m) <= e_invariant(m)


def test_low_pd_makes_ext_equal_hom_to_tau(alg_b, alg_b0):
    # when pd(M) <= 1 nothing factors through injectives on the right side
    from taurank.reps import proj_dim

    cases = [
        (alg_b0, simple(alg_b0, 2), simple(alg_b0, 1)),
        (alg_b0, simple(alg_b0, 3), simple(alg_b0, 2)),
        (alg_b, simple(alg_b, 2), simple(alg_b, 1)),
    ]
    for alg, m, n in cases:
        assert proj_dim(m).le(1)
        assert ext1_dim(m, n) == e_invariant(m, n)


def test_reduction_keeps_tau_rigidity(alg_b0):
    # tau_A-rigid with IM = 0 stays tau_B-rigid over B = A/I
    m = direct_sum([projective(alg_b0, 2), simple(alg_b0, 1)])
    assert e_invariant(m) == 0
    report = reduce_and_compare(m, trials=4, seed=5)
    assert report.quotient.tau_rigid


def test_tau_over_prime_field(alg_b):
    from taurank.fields import PrimeField

    f = PrimeField(10007)
    s2 = simple(alg_b, 2, f)
    t = tau(s2)
    assert t.dims == (1, 0, 0)


def test_verdict_json_keys(alg_b):
    v = is_tau_regular(simple(alg_b, 2), trials=2, seed=1)
    data = v.to_json()
    for key in ("outcome", "witness_rank", "generic_rank", "certified"):
        assert key in data


# -- the analysis record -----------------------------------------------------


def cover_spy(monkeypatch):
    """Patch projective_cover where the scoped callers look it up; returns
    the (module, cover) pairs of every call."""
    calls = []
    original = reps.projective_cover

    def spy(m):
        cover = original(m)
        calls.append((m, cover))
        return cover

    monkeypatch.setattr(reps, "projective_cover", spy)
    monkeypatch.setattr(presentations, "projective_cover", spy)
    return calls


def members():
    """The modules of this thread's analysis record, its root first."""
    record = reps._record.get()
    return [] if record is None else list(record[0].values())


def test_consecutive_analyses_build_no_second_cover(monkeypatch, alg_b0):
    m = direct_sum([projective(alg_b0, 2), injective(alg_b0, 2), simple(alg_b0, 3)])
    hierarchy_report(m, trials=2, seed=1)
    calls = cover_spy(monkeypatch)
    got = tau(m), ext1_dim(m, m), is_tau_regular(m, trials=2, seed=1).to_json()
    assert calls == []
    # the same values from a fresh record, which covers m and its syzygy
    reps._record.set(None)
    want = tau(m), ext1_dim(m, m), is_tau_regular(m, trials=2, seed=1).to_json()
    assert got == want and len(calls) == 2
    calls.clear()
    ar_formula_check(m, simple(alg_b0, 1))
    reduce_and_compare(m, trials=2, seed=1)
    assert calls and not [arg for arg, _ in calls if arg is m]


def test_record_keeps_only_the_last_module(alg_b0):
    kept = [simple(alg_b0, 1), simple(alg_b0, 2), simple(alg_b0, 3),
            projective(alg_b0, 3), injective(alg_b0, 1)]
    for m in kept:
        hierarchy_report(m, trials=2, seed=1)
    held = members()
    assert held[0] is kept[-1]
    assert not [m for m in kept[:-1] if any(x is m for x in held)]


def test_repeated_reduction_reuses_its_quotient_and_analyses(monkeypatch, alg_b0):
    m = direct_sum([projective(alg_b0, 2), injective(alg_b0, 2), simple(alg_b0, 3)])
    calls = cover_spy(monkeypatch)
    first = reduce_and_compare(m, trials=2, seed=1)
    assert calls
    calls.clear()
    second = reduce_and_compare(m, trials=2, seed=1)
    assert calls == []
    assert second.to_json() == first.to_json()
    # an explicit ideal builds its own quotient
    ideal = reps.annihilator(m)
    assert reduce_and_compare(m, ideal=ideal, trials=2, seed=1).to_json() \
        == first.to_json()
    assert calls


def test_an_explicit_ideal_reduction_joins_the_module_record(monkeypatch, alg_c):
    m = direct_sum([simple(alg_c, 1), simple(alg_c, 2)])
    ideal = Ideal.from_generators(alg_c, [alg_c.arrow_element("a")])
    calls = cover_spy(monkeypatch)
    first = reduce_and_compare(m, ideal=ideal, trials=2, seed=1)
    # M and its syzygy over A, then M over B and its syzygy
    assert [arg.algebra is alg_c for arg, _ in calls] == [True, True, False, False]
    held = members()
    assert calls[0][0] is m and held[0] is m and any(x is calls[2][0] for x in held)
    calls.clear()
    again = reduce_and_compare(m, ideal=ideal, trials=2, seed=1)
    assert calls == [] and again.to_json() == first.to_json()


def test_each_call_covers_its_module_once_and_afresh(monkeypatch, alg_a):
    m = cok_f(alg_a, (1, 0, 0))
    calls = cover_spy(monkeypatch)
    hierarchy_report(m, trials=2, seed=1)
    first = [cover for arg, cover in calls if arg is m]
    # the next analysis of the same module starts from its record, and
    # D M for tau^- joins it ...
    calls.clear()
    tau_minus(m)
    hierarchy_report(m, trials=2, seed=1)
    ar_formula_check(m, m)
    assert not [arg for arg, _ in calls if arg is m]
    # ... and an analysis of another module in between drops it
    hierarchy_report(cok_f(alg_a, (0, 1, 0)), trials=2, seed=1)
    calls.clear()
    hierarchy_report(m, trials=2, seed=1)
    second = [cover for arg, cover in calls if arg is m]
    assert len(first) == len(second) == 1
    assert first[0] is not second[0]
    assert first[0].epi.maps == second[0].epi.maps


def reached_from(root, record):
    """Whether `root` is the record's first member and every other member is
    a module inside the value of an entry whose module is a member."""
    members, values = record
    found = {id(root)}
    for (_, key), value in values.items():
        assert key in members
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, reps.Representation):
                found.add(id(x))
    return next(iter(members.values())) is root and set(members) == found


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(FIXTURE_NAMES),
    st.sampled_from([QQ, PrimeField(7), PrimeField(2**31 - 1)]),
    st.integers(0, 10**6),
)
def test_kept_record_changes_no_result(fixture, field, seed):
    alg = load_fixture(fixture)
    m, n, other = (
        random_module(alg, SeedStream(seed).split(i), max_total_dim=6, field=field)
        for i in range(3)
    )

    def analyse(between):
        rep = hierarchy_report(m, trials=2, seed=seed)
        between()
        return rep.to_json(), ar_formula_check(m, n)

    # ar_formula_check starts from hierarchy_report's record ...
    kept = analyse(lambda: None)
    assert reached_from(m, reps._record.get())
    assert not any(x is n for x in members())
    # ... or, with another module analysed in between, afresh
    fresh = analyse(lambda: hierarchy_report(other, trials=2, seed=seed))
    assert kept == fresh
    assert type(kept[1]) is bool
    assert members()[0] is m
    hierarchy_report(other, trials=2, seed=seed)
    assert reached_from(other, reps._record.get())
    assert not any(x is m for x in members())


def test_a_call_that_raises_leaves_a_correct_record(monkeypatch, alg_b):
    s2, s3 = simple(alg_b, 2), simple(alg_b, 3)
    want = hierarchy_report(s2, trials=2).to_json(), ar_formula_check(s2, s3)
    reps._record.set(None)

    def boom(*args):
        raise RuntimeError("boom")

    with monkeypatch.context() as patch:
        patch.setattr(artheory, "ext1_dim", boom)
        with pytest.raises(RuntimeError, match="boom"):
            hierarchy_report(s2, trials=2)
    # the presentation made before the raise is kept and reused
    calls = cover_spy(monkeypatch)
    assert (hierarchy_report(s2, trials=2).to_json(), ar_formula_check(s2, s3)) == want
    assert not [arg for arg, _ in calls if arg is s2]


def test_kept_record_is_per_thread(alg_b):
    s2, s3 = simple(alg_b, 2), simple(alg_b, 3)
    hierarchy_report(s2, trials=2)
    seen = []

    def other_thread():
        seen.append(reps._record.get())
        hierarchy_report(s3, trials=2)
        seen.append(members()[0])

    worker = threading.Thread(target=other_thread)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert seen[0] is None and seen[1] is s3
    assert members()[0] is s2


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIXTURE_NAMES), st.integers(0, 10**6))
def test_hierarchy_report_matches_unscoped_calls(fixture, seed):
    m = random_module(load_fixture(fixture), SeedStream(seed), max_total_dim=7)
    rep = hierarchy_report(m, trials=2, seed=seed)

    def fresh(fn, *args, **kwargs):
        """fn on a record of its own, none of hierarchy_report's values."""
        reps._record.set(None)
        return fn(*args, **kwargs)

    t = fresh(tau, m)
    assert rep.E_value == fresh(e_invariant, m) == (0 if t.is_zero() else hom_dim(m, t))
    assert rep.e_value == fresh(ext1_dim, m, m)
    assert rep.pd == fresh(proj_dim, m)
    assert rep.verdict.to_json() == fresh(is_tau_regular, m, trials=2, seed=seed).to_json()
    assert rep.projective == t.is_zero()
