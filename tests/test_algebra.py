import hashlib
from fractions import Fraction

import pytest

from taurank.algebra import Algebra, Ideal, NotFiniteDimensional, build_algebra
from taurank.quiver import Quiver, Arrow, RelationPoly, parse_quiver_file
from taurank import algebra, fixtures

from helpers import commutative_square


def brute_force_paths(quiver, max_len=10):
    """Independent oracle: enumerate all paths of the quiver by length."""
    paths = {0: [((), i) for i in quiver.vertices]}
    for length in range(1, max_len + 1):
        level = []
        for word, src in paths[length - 1]:
            tgt = quiver.word_target(word) if word else src
            for a in quiver.arrows:
                if a.source == tgt:
                    level.append(((a.name,) + word, src))
        paths[length] = level
        if not level:
            break
    return paths


def test_alg_a_dimension(alg_a):
    assert alg_a.dim == 12
    assert alg_a.dims_of_projective(1) == (1, 0, 0)
    assert alg_a.dims_of_projective(2) == (3, 1, 0)
    assert alg_a.dims_of_projective(3) == (3, 3, 1)


def test_alg_b_dimension_against_path_oracle(alg_b):
    # oracle: enumerate paths of 1<-2<-3 and subtract the single relation ab
    quiver, _ = parse_quiver_file(fixtures.ALG_B_QA)
    paths = brute_force_paths(quiver)
    n_paths = sum(len(v) for v in paths.values())
    assert n_paths == 6  # e1 e2 e3 a b ab
    assert alg_b.dim == n_paths - 1 == 5


def test_no_arrow_quiver_is_semisimple():
    quiver = Quiver(4, [])
    alg = build_algebra(quiver, [])
    assert alg.dim == 4
    assert all(alg.dims_of_projective(i)[i - 1] == 1 for i in quiver.vertices)


def test_infinite_dimensional_detected(monkeypatch):
    monkeypatch.setattr(algebra, "MAX_LEN", 8)
    quiver = Quiver(1, [Arrow("x", 1, 1)])
    with pytest.raises(NotFiniteDimensional, match="still survive at length 8"):
        build_algebra(quiver, [])


def test_build_stops_past_the_residue_cap(monkeypatch):
    # ALG-B has 5 residues: a cap of 5 keeps it, a cap of 4 stops it
    source = fixtures.FIXTURE_SOURCES["ALG-B"]
    monkeypatch.setattr(algebra, "MAX_RESIDUES", 5)
    assert build_algebra(*parse_quiver_file(source)).dim == 5
    monkeypatch.setattr(algebra, "MAX_RESIDUES", 4)
    with pytest.raises(NotFiniteDimensional, match="more than 4 path residues"):
        build_algebra(*parse_quiver_file(source))


def test_build_stops_past_the_tip_insert_cap(monkeypatch):
    # closing ALG-A's ideal takes 6 inserts: a cap of 6 keeps it, 5 stops it
    source = fixtures.FIXTURE_SOURCES["ALG-A"]
    monkeypatch.setattr(algebra, "MAX_TIP_INSERTS", 6)
    assert build_algebra(*parse_quiver_file(source)).dim == 12
    monkeypatch.setattr(algebra, "MAX_TIP_INSERTS", 5)
    with pytest.raises(NotFiniteDimensional, match="more than 5 tip-table inserts"):
        build_algebra(*parse_quiver_file(source))


def test_small_commutative_square_builds():
    alg = build_algebra(*parse_quiver_file(commutative_square(4)))
    assert alg.dim == 16


def test_loop_with_nilpotency_relation():
    quiver = Quiver(1, [Arrow("x", 1, 1)])
    rel = RelationPoly.make(quiver, [(1, ("x", "x", "x"))])
    alg = build_algebra(quiver, [rel])
    assert alg.dim == 3  # e, x, x^2


def test_idempotents(alg_a):
    for i in alg_a.vertices:
        e = alg_a.idempotent(i)
        assert alg_a.multiply(e, e) == e
        for j in alg_a.vertices:
            if j != i:
                assert alg_a.multiply(e, alg_a.idempotent(j)) == {}


def test_identity_decomposition(alg_a):
    one = {k: 1 for k in alg_a.idempotent_index.values()}  # sum of the idempotents
    x = alg_a.arrow_element("a1")
    assert alg_a.multiply(one, x) == x
    assert alg_a.multiply(x, one) == x


def test_alg_a_relation_residues(alg_a):
    # a1*b2 and a2*b1 agree as residues; a1*b1 is zero
    a1b2 = alg_a.multiply(alg_a.arrow_element("a1"), alg_a.arrow_element("b2"))
    a2b1 = alg_a.multiply(alg_a.arrow_element("a2"), alg_a.arrow_element("b1"))
    assert a1b2 == a2b1 != {}
    assert alg_a.multiply(alg_a.arrow_element("a1"), alg_a.arrow_element("b1")) == {}
    # the sign relation: a1*b3 = -a3*b1
    a1b3 = alg_a.multiply(alg_a.arrow_element("a1"), alg_a.arrow_element("b3"))
    a3b1 = alg_a.multiply(alg_a.arrow_element("a3"), alg_a.arrow_element("b1"))
    assert a1b3 == {k: -c for k, c in a3b1.items()} != {}


def test_alg_b_product_vanishes(alg_b):
    assert alg_b.multiply(alg_b.arrow_element("a"), alg_b.arrow_element("b")) == {}


def test_peirce_dimension_identity(all_fixture_algebras):
    # sum_i dim(A e_i) = dim A and dim(e_i A e_j) = #paths j -> i
    for alg in all_fixture_algebras.values():
        assert sum(sum(alg.dims_of_projective(i)) for i in alg.vertices) == alg.dim
        for i in alg.vertices:
            for j in alg.vertices:
                block = [
                    b for b in alg.basis if b.source == j and b.target == i
                ]
                assert len(block) == alg.dims_of_projective(j)[i - 1]


def test_radical_dimensions(alg_a, alg_b):
    assert alg_a.radical().dim == 9  # 12 - 3 idempotents
    assert alg_b.radical().dim == 2  # a, b


def test_radical_is_nilpotent(all_fixture_algebras):
    for alg in all_fixture_algebras.values():
        rad = alg.radical()
        elems = [
            {i: c for i, c in enumerate(row) if c} for row in rad.rows
        ]
        power = elems
        for _ in range(alg.dim + 1):
            if not power:
                break
            power = [
                prod
                for x in power
                for y in elems
                if (prod := alg.multiply(x, y))
            ]
        assert not power


def test_opposite_involution(alg_b):
    op = alg_b.opposite()
    assert op.dim == alg_b.dim
    assert op.opposite() is alg_b
    # arrows reversed: in ALG-B^op, paths run 1 -> 2 -> 3
    assert op.quiver.by_name["a"].source == 1
    assert op.quiver.by_name["a"].target == 2
    # the length-2 relation survives: b *op a = (a b)^op = 0
    prod = op.multiply(op.arrow_element("b"), op.arrow_element("a"))
    assert prod == {}


def test_opposite_of_semisimple_is_itself():
    alg = build_algebra(Quiver(2, []), [])
    op = alg.opposite()
    assert op.dim == alg.dim
    assert sorted(op.idempotent_index) == sorted(alg.idempotent_index)


def test_ideal_from_generators_and_quotient(alg_b0, alg_b):
    ab = alg_b0.element_from_terms([(1, ("a", "b"))])
    ideal = Ideal.from_generators(alg_b0, [ab])
    assert ideal.dim == 1
    quot = alg_b0.quotient(ideal)
    assert quot.dim == 5
    assert list(quot.vertices) == [1, 2, 3]
    # same structure as ALG-B: a*b dies
    assert quot.multiply(quot.arrow_element("a"), quot.arrow_element("b")) == {}


def test_quotient_by_zero_is_identity(alg_a):
    quot = alg_a.quotient(Ideal(alg_a, []))
    assert quot.dim == alg_a.dim
    assert list(quot.vertices) == sorted(alg_a.vertices)


def test_quotient_by_whole_algebra_rejected(alg_b):
    one = {k: 1 for k in alg_b.idempotent_index.values()}
    full = Ideal.from_generators(alg_b, [one])
    with pytest.raises(ValueError):
        alg_b.quotient(full)


def test_alg_c_mod_a_is_kronecker_shaped(alg_c):
    a = alg_c.arrow_element("a")
    ideal = Ideal.from_generators(alg_c, [a])
    assert ideal.dim == 1
    quot = alg_c.quotient(ideal)
    assert quot.dim == 4
    assert list(quot.vertices) == [1, 2]
    assert quot.dims_of_projective(1) == (1, 0)
    assert quot.dims_of_projective(2) == (2, 1)
    assert quot.arrow_element("a") == {}


def test_ideal_closure_is_two_sided(alg_b0):
    # generated by b alone: must contain a*b as well
    ideal = Ideal.from_generators(alg_b0, [alg_b0.arrow_element("b")])
    ab = alg_b0.element_from_terms([(1, ("a", "b"))])
    assert ideal.contains(ab)
    assert ideal.dim == 2


def _tables_digest(alg):
    """sha256 of the basis, the structure constants and the arrow elements,
    in a canonical order and with the type of every coefficient."""
    text = repr((
        [(b.source, b.target, b.word) for b in alg.basis],
        sorted((k, sorted(v.items())) for k, v in alg.products.items()),
        sorted((n, sorted(v.items())) for n, v in alg.arrow_element_cache.items()),
    ))
    return hashlib.sha256(text.encode()).hexdigest()


# Every downstream output reads these tables, so they are pinned exactly.
# ALG-B0/(a*b) has the tables of ALG-B.
PINNED_TABLES = {
    "ALG-A": "f0a49d2d2e9eaa1409edf0347e884ed6c3dfd996571f53e82059bfc8ff0b1a10",
    "ALG-A^op": "f4eb2145b267b3eeb369fd5e3e70b612bf06544dd7242c5726e33aafba2b8a26",
    "ALG-B": "dae1242442eb142c41c952ad925adbb924c4b076dda652d7c979333fad871428",
    "ALG-B^op": "58e8615ae55f0708238a8299325229ce840f941be06a39073b34fe5c9a06efb9",
    "ALG-B0": "7ed44b71a931ac0e806bd596124fa88ab9efbd6a2758966ae556dc94aa4e9887",
    "ALG-B0^op": "bb1c461616a7d82547cd220ff58b8d28f0930520fc846ae31514248f2456eabf",
    "ALG-C": "d96875359a4e6c81715428925547706dd94dd5d7a3623002b2df75a8771b6847",
    "ALG-C^op": "a1a19a306a801cad3137000322b94883243c21c37acab884590211d0c6b0ec98",
    "ALG-K": "1ce506810ad9f486403a2ac640061121094ec221ff360ef221ec826cf4240a30",
    "ALG-K^op": "dc04ff321bc2941553281259ced732bb1a32b4c97a653cef6b863c55481d3482",
    "ALG-B0/(a*b)": "dae1242442eb142c41c952ad925adbb924c4b076dda652d7c979333fad871428",
    "ALG-C/(a)": "43b8b11056f89a71299f6b02bc39aeae53bf2acae57ad678e1725c0de598ba0e",
}


def test_structure_constants_are_pinned(all_fixture_algebras):
    got = {}
    for name, alg in all_fixture_algebras.items():
        got[name] = _tables_digest(alg)
        got[name + "^op"] = _tables_digest(alg.opposite())
    for name, word in (("ALG-B0", ("a", "b")), ("ALG-C", ("a",))):
        alg = all_fixture_algebras[name]
        ideal = Ideal.from_generators(alg, [alg.element_from_terms([(1, word)])])
        got[f"{name}/({'*'.join(word)})"] = _tables_digest(alg.quotient(ideal))
    assert got == PINNED_TABLES


def test_idempotent_terms_are_ints(alg_b0):
    assert alg_b0.element_from_terms([(2, 1)]) == {
        k: 2 * c for k, c in alg_b0.idempotent(1).items()
    }
    with pytest.raises(ValueError, match="no idempotent e9"):
        alg_b0.element_from_terms([(1, 9)])


def test_validate_rejects_a_non_associative_table(alg_b0):
    e1 = alg_b0.idempotent_index[1]
    a = alg_b0.index[(2, ("a",))]
    products = dict(alg_b0.products)
    del products[(e1, a)]  # e1 * a = 0, so (e1 * a) * b != e1 * (a * b)
    tampered = Algebra(alg_b0.quiver, alg_b0.basis, products, alg_b0.arrow_element_cache)
    with pytest.raises(AssertionError, match="associativity fails on basis triple"):
        tampered._validate()
    alg_b0._validate()
