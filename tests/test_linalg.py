import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from taurank import linalg
from taurank.fields import QQ, PrimeField, SeedStream, is_prime
from taurank.linalg import (
    _P,
    Matrix,
    _dict_rows,
    _echelon,
    _rank_certified_mod_p,
    _term_rank,
)

from helpers import echelon_rank


def qmat(rows):
    return Matrix(QQ, rows)


def times(m, vec):
    """m times the column vector vec, as a list."""
    return [x for (x,) in (m * Matrix.from_columns(m.field, [vec], len(vec))).rows]


def test_rank_identity():
    assert Matrix.identity(QQ, 4).rank() == 4


def test_rank_zero():
    assert Matrix.zeros(QQ, 3, 5).rank() == 0


def test_rank_proportional_rows():
    assert qmat([[1, 2], [2, 4]]).rank() == 1


def test_kernel_zero_matrix():
    assert len(Matrix.zeros(QQ, 2, 3).kernel_basis()) == 3


def test_kernel_identity():
    assert Matrix.identity(QQ, 3).kernel_basis() == []


def test_kernel_one_row():
    (v,) = qmat([[1, 1]]).kernel_basis()
    assert v[0] == -v[1] != 0


def test_solve_identity():
    b = [Fraction(3), Fraction(-1)]
    assert Matrix.identity(QQ, 2).solve(b) == b


def test_solve_inconsistent():
    assert Matrix.zeros(QQ, 2, 2).solve([QQ.one, QQ.zero]) is None


def test_solve_scalar():
    assert qmat([[2]]).solve([Fraction(1)]) == [Fraction(1, 2)]


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        qmat([[1, 0]]).solve([Fraction(1), Fraction(2)])
    with pytest.raises(ValueError):
        qmat([[1, 0]]).solve_matrix(Matrix.zeros(QQ, 2, 1))


def test_mul_and_rref():
    a = qmat([[1, 2], [3, 4]])
    ainv = a.inverse()
    assert ainv * a == Matrix.identity(QQ, 2)


def test_column_space_basis():
    m = qmat([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    cs = m.column_space_basis()
    assert cs.ncols == 2
    assert cs.rank() == 2


def test_prime_field_arithmetic():
    f = PrimeField(7)
    m = Matrix(f, [[2, 4], [1, 2]])
    assert m.rank() == 1
    assert len(m.kernel_basis()) == 1


def test_integral_rational_scalars_are_ints():
    assert [type(x) for x in (QQ.zero, QQ.one, QQ.from_int(-3))] == [int] * 3
    cases = ((Fraction(6, 3), int), (Fraction(-4), int), (5, int), (Fraction(1, 2), Fraction))
    for q, kind in cases:
        got = QQ.from_fraction(q)
        assert got == q and type(got) is kind
    assert [type(x) for row in Matrix.identity(QQ, 2).rows for x in row] == [int] * 4


def test_reduced_echelon_cells_are_ints_where_integral():
    reduced, pivots = Matrix(QQ, [[2, 4, 1], [0, 0, 3], [4, 8, 5]]).rref()
    rows = reduced.rows
    assert rows == [[1, 2, 0], [0, 0, 1], [0, 0, 0]] and pivots == [0, 2]
    assert {type(x) for row in rows for x in row} == {int}
    (row,) = Matrix(QQ, [[2, 1, 4]]).row_space_rows()
    assert row == [1, Fraction(1, 2), 2] and [type(x) for x in row] == [int, Fraction, int]


def test_prime_field_cells_that_are_fractions_are_their_residues():
    f7 = PrimeField(7)
    m = Matrix(f7, [[Fraction(1, 2), 1]])
    assert m.rows == [[4, 1]] and m.rank() == 1  # 1/2 = 4 in F_7
    assert [type(x) for x in m.rows[0]] == [int, int]
    m = Matrix(f7, [[Fraction(1, 2), 3], [1, Fraction(-8, 1)]])
    assert m.rows == [[4, 3], [1, 6]] and m.rank() == 1 == echelon_rank(m)
    big = Matrix(PrimeField(_P), [[Fraction(1, 3), 0], [0, Fraction(-5, 2)]])
    assert big.rows == [[pow(3, -1, _P), 0], [0, -5 * pow(2, -1, _P) % _P]]
    assert big.rank() == 2 == echelon_rank(big)
    with pytest.raises(ZeroDivisionError):
        Matrix(f7, [[1, Fraction(1, 7)]])


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(10)


def test_prime_field_rejects_square_and_carmichael():
    for n in (4, 561):
        with pytest.raises(ValueError):
            PrimeField(n)


def test_prime_field_61_bit_prime_is_fast():
    t0 = time.perf_counter()
    PrimeField((1 << 61) - 1)
    assert time.perf_counter() - t0 < 1.0


def test_prime_field_rejects_modulus_beyond_the_exact_range():
    with pytest.raises(ValueError):
        PrimeField((1 << 89) - 1)


def test_is_prime_matches_trial_division():
    for n in range(3000):
        assert is_prime(n) == (n > 1 and all(n % q for q in range(2, int(n**0.5) + 1)))


def test_seed_stream_determinism():
    a = SeedStream(42)
    b = SeedStream(42)
    assert [a.randint(-1000, 1000) for _ in range(5)] == [
        b.randint(-1000, 1000) for _ in range(5)
    ]


def test_seed_stream_splits_disjoint():
    master = SeedStream(42)
    s0 = master.split(0)
    s1 = master.split(1)
    draws0 = [s0.randint(0, 10**9) for _ in range(4)]
    draws1 = [s1.randint(0, 10**9) for _ in range(4)]
    assert draws0 != draws1
    assert SeedStream(42).split(0).randint(0, 10**9) == draws0[0]


def test_seed_stream_draws_are_pinned():
    # first draws of a few seeds and splits, recorded from an eagerly
    # seeded stream; a lazy one must give the same
    pinned = {
        0: ([3, 4, -8, -1, 7], [1043521778, 869589436],
            4596746460052610148, [2, 1, 2, -1, 1],
            7768173107791898048, [0, 1, 1, 0, 0, 1]),
        42: ([-6, -9, -1, -2, -2], [299655412, 1581559892],
             11677227171148299057, [-3, -1, -2, -2, -3],
             183996487033309577, [1, 1, 1, 0, 1, 0]),
        2**40 + 3: ([-2, -8, 8, -6, 9], [2107543738, 653136402],
                    14333881533448196419, [1, -2, 2, -2, 2],
                    16193683682474953815, [0, 1, 0, 0, 0, 0]),
    }
    for seed, (small, big, seed3, draws3, seed17, draws17) in pinned.items():
        r = SeedStream(seed)
        assert [r.randint(-9, 9) for _ in range(5)] == small
        assert [r.randint(0, _P - 1) for _ in range(2)] == big
        c = SeedStream(seed).split(3)
        assert c.seed == seed3 and [c.randint(-3, 3) for _ in range(5)] == draws3
        g = SeedStream(seed).split(1).split(7)
        assert g.seed == seed17 and [g.randint(0, 1) for _ in range(6)] == draws17
    # a stream split before and after drawing gives the same children
    r = SeedStream(42)
    before = r.split(5).seed
    r.randint(0, 9)
    assert r.split(5).seed == before


def test_sample_scalar_contracts():
    assert QQ.sample(SeedStream(1), 0, 3) == [0, 0, 0]
    x = QQ.sample(SeedStream(42), 1000, 5)
    assert x == QQ.sample(SeedStream(42), 1000, 5)
    assert all(type(c) is int and -1000 <= c <= 1000 for c in x)
    f = PrimeField(101)
    y = f.sample(SeedStream(3), 1000, 5)
    assert all(0 <= c < 101 for c in y)
    assert QQ.sample(SeedStream(3), 1000, 0) == f.sample(SeedStream(3), 1000, 0) == []


@pytest.mark.parametrize("field, bound, lo, hi", [
    (QQ, 0, 0, 0),
    (QQ, 9, -9, 9),
    (QQ, 1000, -1000, 1000),
    (PrimeField(7), 1000, 0, 6),
    (PrimeField(_P), 1000, 0, _P - 1),
])
def test_batched_sample_matches_the_per_coefficient_loop(field, bound, lo, hi):
    """One `sample` call of count draws gives what count calls of
    `SeedStream.randint` gave one coefficient at a time (none at bound 0),
    and leaves the stream where they left it."""
    for seed in range(25):
        for count in (0, 1, 2, 7, 40):
            batched, loop = SeedStream(seed).split(count), SeedStream(seed).split(count)
            want = [loop.randint(lo, hi) if bound else 0 for _ in range(count)]
            assert field.sample(batched, bound, count) == want
            assert batched.randint(0, 10**6) == loop.randint(0, 10**6)


small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def int_matrices(draw, max_dim=5):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    m = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(
        st.lists(
            st.lists(small_ints, min_size=m, max_size=m), min_size=n, max_size=n
        )
    )
    return qmat(rows)


@settings(max_examples=60, deadline=None)
@given(int_matrices())
def test_rank_equals_transpose_rank(m):
    assert m.rank() == m.transpose().rank()


@settings(max_examples=60, deadline=None)
@given(int_matrices())
def test_rank_nullity(m):
    kernel = m.kernel_basis()
    assert m.ncols == m.rank() + len(kernel)
    for v in kernel:
        assert all(x == 0 for x in times(m, v))


@settings(max_examples=60, deadline=None)
@given(int_matrices(), st.sampled_from([QQ, PrimeField(7), PrimeField(_P)]))
def test_kernel_basis_vectors_have_their_own_free_column(m, field):
    # each vector's last nonzero is a 1, at a column where every other
    # vector is 0
    kernel = Matrix(field, m.rows, m.ncols).kernel_basis()
    for k, vec in enumerate(kernel):
        j = max(c for c, x in enumerate(vec) if x)
        assert vec[j] == 1
        assert all(other[j] == 0 for i, other in enumerate(kernel) if i != k)


@settings(max_examples=40, deadline=None)
@given(int_matrices(), st.integers(min_value=0, max_value=997))
def test_solve_consistency(m, seed):
    rng = SeedStream(seed)
    x = [Fraction(rng.randint(-5, 5)) for _ in range(m.ncols)]
    b = times(m, x)
    sol = m.solve(b)
    assert sol is not None
    assert times(m, sol) == b


FP = PrimeField(_P)

# reduced cells at the top of the field, and unreduced or negative ones
fp_cells = st.one_of(st.sampled_from([_P - 1, _P - 2, 0]), st.integers(-2 * _P, 2 * _P))


def reference_rref(field, rows, ncols):
    """Plain Gauss-Jordan elimination, each cell taken into the field after
    every operation: (nonzero rows, pivots)."""
    into = field.from_fraction
    rows = [[into(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if not field.is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = into(Fraction(1, rows[r][c]))
        rows[r] = [into(inv * x) for x in rows[r]]
        for i in range(len(rows)):
            k = rows[i][c]
            if i != r and not field.is_zero(k):
                rows[i] = [into(x - k * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
# mixed into the reference properties so that cell growth in the
# elimination shows
big_ints = st.integers(-10**6, 10**6)


@st.composite
def shaped_rows(draw, entries, max_dim=10):
    n = draw(st.integers(min_value=0, max_value=max_dim))
    m = draw(st.integers(min_value=0, max_value=max_dim))
    return draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n)), m


@settings(max_examples=80, deadline=None)
@given(shaped_rows(st.one_of(fractions, fractions, big_ints)))
def test_rational_elimination_matches_reference(shaped):
    rows, ncols = shaped
    m = Matrix(QQ, rows, ncols)
    want_rows, want_pivots = reference_rref(QQ, rows, ncols)
    assert m.rank() == len(want_pivots)
    assert m.rref()[1] == want_pivots
    assert m.row_space_rows() == want_rows


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_prime_elimination_matches_reference(data):
    for f, cells in ((PrimeField(7), st.one_of(st.integers(0, 6), big_ints)), (FP, fp_cells)):
        rows, ncols = data.draw(shaped_rows(cells))
        m = Matrix(f, rows, ncols)
        want_rows, want_pivots = reference_rref(f, rows, ncols)
        assert m.rank() == len(want_pivots)
        assert m.rref()[1] == want_pivots
        assert m.row_space_rows() == want_rows


def reference_dot(field, row, col):
    acc = field.zero
    for a, b in zip(row, col):
        acc = field.from_fraction(acc + a * b)
    return acc


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matrix_arithmetic_matches_field_methods(data):
    """*, a product with one column and is_zero on unreduced inputs against
    a dot product reduced after each step, with empty factors among the
    shapes."""
    for f, cells in ((QQ, st.one_of(st.integers(-6, 6), fractions)),
                     (PrimeField(7), st.integers(-20, 20)), (FP, fp_cells)):
        n, k, m = (data.draw(st.integers(0, 4)) for _ in range(3))

        def grid(nr, nc):
            return data.draw(st.lists(st.lists(cells, min_size=nc, max_size=nc),
                                      min_size=nr, max_size=nr))

        a, b = grid(n, k), grid(k, m)
        vec = data.draw(st.lists(cells, min_size=k, max_size=k))
        ma, mb = Matrix(f, a, k), Matrix(f, b, m)
        cols = [[r[j] for r in b] for j in range(m)]
        got = ma * mb
        assert got.shape() == (n, m)
        assert got.rows == [[reference_dot(f, r, col) for col in cols] for r in a]
        applied = times(ma, vec)
        assert applied == [reference_dot(f, r, vec) for r in a]
        assert ma.is_zero() == all(f.is_zero(x) for r in a for x in r)
        if f.characteristic:
            out = [x for r in got.rows for x in r] + applied
            assert all(0 <= x < f.p for x in out)


def reference_solve(field, rows, ncols, b):
    """One column at a time: x with A x = b and free unknowns zero, or None."""
    aug, pivots = reference_rref(field, [r + [y] for r, y in zip(rows, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for row, p in zip(aug, pivots):
        x[p] = row[ncols]
    return x


@st.composite
def solve_systems(draw, field, entries, max_dim=5):
    """(A rows, ncols of A, B columns); a column of B is A times a drawn x
    or drawn outright, so that both consistent and inconsistent ones occur."""
    n = draw(st.integers(min_value=0, max_value=max_dim))
    m = draw(st.integers(min_value=0, max_value=max_dim))
    rows = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n))
    a = Matrix(field, rows, m)
    cols = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if draw(st.booleans()):
            cols.append(times(a, draw(st.lists(entries, min_size=m, max_size=m))))
        else:
            cols.append(draw(st.lists(entries, min_size=n, max_size=n)))
    return rows, m, cols


def check_solve_matrix(field, system):
    rows, ncols, cols = system
    a = Matrix(field, rows, ncols)
    got = a.solve_matrix(Matrix.from_columns(field, cols, len(rows)))
    want = [reference_solve(field, rows, ncols, b) for b in cols]
    if any(x is None for x in want):
        assert got is None
    else:
        assert got == Matrix.from_columns(field, want, ncols)
        assert a * got == Matrix.from_columns(field, cols, len(rows))


@settings(max_examples=80, deadline=None)
@given(solve_systems(QQ, fractions))
def test_rational_solve_matrix_matches_reference(system):
    check_solve_matrix(QQ, system)


@settings(max_examples=80, deadline=None)
@given(solve_systems(PrimeField(7), st.integers(0, 6)))
def test_prime_solve_matrix_matches_reference(system):
    check_solve_matrix(PrimeField(7), system)


def test_solve_matrix_several_columns():
    a = qmat([[1, 2], [0, 1], [1, 3]])
    b = Matrix.from_columns(QQ, [[1, 0, 1], [2, 1, 3], [0, 0, 0]], 3)
    x = a.solve_matrix(b)
    assert x == Matrix.from_columns(QQ, [[1, 0], [0, 1], [0, 0]], 2)
    assert a * x == b


def test_solve_matrix_one_inconsistent_column():
    a = qmat([[1, 0], [0, 1], [0, 0]])
    b = Matrix.from_columns(QQ, [[1, 2, 0], [1, 1, 1]], 3)
    assert a.solve_matrix(b) is None


def test_solve_matrix_zero_column_rhs():
    x = qmat([[1, 2, 3], [4, 5, 6]]).solve_matrix(Matrix.zeros(QQ, 2, 0))
    assert x.shape() == (3, 0)


def test_solve_matrix_zero_column_lhs():
    a = Matrix.zeros(QQ, 2, 0)
    assert a.solve_matrix(Matrix.zeros(QQ, 2, 2)) == Matrix.zeros(QQ, 0, 2)
    assert a.solve_matrix(Matrix.from_columns(QQ, [[0, 1]], 2)) is None


def test_from_columns():
    assert Matrix.from_columns(QQ, [], 3) == Matrix.zeros(QQ, 3, 0)
    cols = [[1, 2], [3, 4], [5, 6]]
    assert Matrix.from_columns(QQ, cols, 2) == qmat([[1, 3, 5], [2, 4, 6]])


def scalars(x):
    """Every scalar in nested lists, tuples and matrices."""
    if isinstance(x, Matrix):
        x = x.rows
    if isinstance(x, (list, tuple)):
        for y in x:
            yield from scalars(y)
    elif x is not None:
        yield x


@settings(max_examples=100, deadline=None)
@given(solve_systems(QQ, st.one_of(st.integers(-6, 6), fractions)))
def test_mixed_int_fraction_entries_match_all_fraction_copy(system):
    rows, ncols, cols = system
    a = Matrix(QQ, rows, ncols)
    fa = Matrix(QQ, [[Fraction(x) for x in r] for r in rows], ncols)
    b = Matrix.from_columns(QQ, cols, len(rows))
    fb = Matrix.from_columns(QQ, [[Fraction(x) for x in c] for c in cols], len(rows))
    got = [a.rank(), a.rref(), a.kernel_basis(), a.solve_matrix(b)]
    want = [fa.rank(), fa.rref(), fa.kernel_basis(), fa.solve_matrix(fb)]
    if a.nrows == a.ncols:
        got.append(a.inverse())
        want.append(fa.inverse())
    assert got == want
    assert not any(isinstance(x, float) for x in scalars(got))


def exact_rank(rows, ncols):
    return len(reference_rref(QQ, [[Fraction(x) for x in r] for r in rows], ncols)[1])


# zero-heavy int cells, with multiples of the modular prime _P and cells
# wider than 64 bits
rank_cells = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-3, 3),
    st.sampled_from([_P, -_P, 2 * _P, -2 * _P, 10**6, -10**6, 2**70, -2**70]),
)


@st.composite
def int_rank_inputs(draw, max_dim=12):
    ncols = draw(st.integers(min_value=0, max_value=max_dim))
    cells = st.lists(rank_cells, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(cells, max_size=max_dim))
    if rows:
        copies = draw(st.lists(st.integers(0, len(rows) - 1), max_size=max_dim - len(rows)))
        rows = draw(st.permutations(rows + [list(rows[i]) for i in copies]))
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(int_rank_inputs())
def test_rational_rank_of_int_matrices_is_exact(shaped):
    rows, ncols = shaped
    m = Matrix(QQ, rows, ncols)
    want = exact_rank(rows, ncols)
    assert m.rank() == want
    # the modular shortcut answers exactly or not at all, never below
    assert _rank_certified_mod_p(m) in (None, want)


def test_rank_of_cells_divisible_by_the_modular_prime():
    assert Matrix(QQ, [[_P]]).rank() == 1
    assert Matrix(QQ, [[_P, 0], [0, 1]]).rank() == 2
    assert Matrix(QQ, [[2 * _P, 0], [0, -_P]]).rank() == 2
    assert _rank_certified_mod_p(Matrix(QQ, [[_P, 0], [0, 1]])) is None


def test_rank_below_the_bound_mod_p_falls_back_to_exact():
    m = Matrix(QQ, [[1, 1], [1, _P + 1]])  # singular mod _P only
    assert _rank_certified_mod_p(m) is None
    assert m.rank() == 2


def brute_term_rank(rows, ncols):
    """The most nonzero cells with no two in a line, by trying every set of
    rows against every ordered choice of columns."""
    for k in range(min(len(rows), ncols), 0, -1):
        for rs in itertools.combinations(range(len(rows)), k):
            for cs in itertools.permutations(range(ncols), k):
                if all(rows[r][c] for r, c in zip(rs, cs)):
                    return k
    return 0


@settings(max_examples=300, deadline=None)
@given(shaped_rows(st.sampled_from([0, 0, 1, -2]), max_dim=5))
def test_term_rank_is_the_largest_matching(shaped):
    rows, ncols = shaped
    assert _term_rank(rows) == brute_term_rank(rows, ncols)


def test_term_rank_follows_augmenting_paths_longer_than_the_recursion_limit():
    # row r < n - 1 meets columns r and r + 1 and first takes column r;
    # the last row meets column 0 only, so its augmenting path runs through
    # every row
    n = 1500
    rows = [[0] * n for _ in range(n)]
    for r in range(n - 1):
        rows[r][r] = rows[r][r + 1] = 1
    rows[n - 1][0] = 1
    assert _term_rank(rows) == n
    rows[n - 1][0] = 0
    assert _term_rank(rows) == n - 1


def test_rank_short_of_the_term_rank_falls_back_to_exact():
    ones = Matrix(QQ, [[1, 1], [1, 1]])  # rank 1, term rank 2
    assert _rank_certified_mod_p(ones) is None
    assert ones.rank() == 1
    # rank 1 mod _P, but a cell divisible by _P is nonzero over Q: term rank 2
    for rows in ([[1, 2 * _P], [1, 0]], [[_P, _P], [0, _P]]):
        m = Matrix(QQ, rows)
        assert _rank_certified_mod_p(m) is None
        assert m.rank() == exact_rank(rows, 2)


def test_term_rank_certifies_a_rank_below_the_line_bound():
    # 3 nonzero rows and columns, but the last two rows meet column 0 only:
    # term rank 2, which the rank mod _P reaches
    m = Matrix(QQ, [[1, 1, 1], [1, 0, 0], [2, 0, 0]])
    assert _rank_certified_mod_p(m) == 2 == exact_rank(m.rows, 3)


@st.composite
def structured_int_rows(draw):
    """Int matrices with the shapes Hom systems have: a product of two
    small int matrices (rank at most the inner size) and a second block
    on the diagonal, zero lines spliced in, rows and columns permuted."""
    def block(nrows, ncols, cells):
        return draw(st.lists(st.lists(cells, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))

    small = st.integers(-2, 2)
    a, k, b = draw(st.integers(0, 6)), draw(st.integers(0, 3)), draw(st.integers(0, 6))
    left, right = block(a, k, small), block(k, b, small)
    product = [[sum(x * y for x, y in zip(r, c)) for c in zip(*right)] if right else [0] * b
               for r in left]
    c, d = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    other = block(c, d, st.one_of(st.just(0), small, st.sampled_from([_P, -_P, 2 * _P])))
    ncols = b + d + draw(st.integers(0, 2))
    rows = [r + [0] * (ncols - b) for r in product]
    rows += [[0] * b + r + [0] * (ncols - b - d) for r in other]
    rows += [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
    rows = draw(st.permutations(rows))
    order = draw(st.permutations(range(ncols)))
    return [[r[j] for j in order] for r in rows], ncols


@settings(max_examples=300, deadline=None)
@given(structured_int_rows())
def test_rational_rank_of_structured_int_matrices_is_exact(shaped):
    rows, ncols = shaped
    m = Matrix(QQ, rows, ncols)
    want = echelon_rank(Matrix(QQ, rows, ncols))
    assert want == exact_rank(rows, ncols)
    assert m.rank() == want
    assert _rank_certified_mod_p(m) in (None, want)


def placed_cell_by_cell(field, blocks):
    """The grouped block sum, one cell at a time: the lines of row group g
    of each block in turn, then of group g + 1, and so for the columns."""
    def places(k, sizes_of):
        out, at = [], 0
        for g in range(len(sizes_of[0])):
            for b, sizes in enumerate(sizes_of):
                if b == k:
                    out += range(at, at + sizes[g])
                at += sizes[g]
        return out

    rows_of, cols_of = [rs for _, rs, _ in blocks], [cs for _, _, cs in blocks]
    nrows, ncols = sum(map(sum, rows_of)), sum(map(sum, cols_of))
    cells = [[0] * ncols for _ in range(nrows)]
    for k, (blk, _, _) in enumerate(blocks):
        for i, row in zip(places(k, rows_of), blk.rows):
            for j, x in zip(places(k, cols_of), row):
                cells[i][j] = x
    return Matrix(field, cells, ncols)


def test_block_sum_needs_every_line_once():
    """Every line of every block is placed once: group sizes that do not
    add up to a block's shape, or that differ in number between blocks,
    raise."""
    one = Matrix(QQ, [[1]])
    two = Matrix(QQ, [[2, 0], [0, 3]])
    blocks = [(one, [1, 0], [0, 1]), (two, [1, 1], [1, 1])]
    m = Matrix.block_sum(QQ, blocks)
    assert m.rows == [[0, 1, 0], [2, 0, 0], [0, 0, 3]]
    assert m == placed_cell_by_cell(QQ, blocks)
    assert m._rank is None  # the blocks have no memo
    for blk, _, _ in blocks:
        blk.rank()
    assert Matrix.block_sum(QQ, blocks)._rank == 3 == echelon_rank(m)
    assert Matrix.block_sum(QQ, [(two, [2], [2]), (one, [1], [1])]).rows == [
        [2, 0, 0], [0, 3, 0], [0, 0, 1]]
    for bad in (
        [(one, [1], [1]), (two, [1], [2])],  # a row of two left out
        [(one, [1], [1]), (two, [3], [2])],  # a row too many
        [(one, [1], [0, 1]), (two, [2], [2])],  # column groups differ in number
        [(one, [2, -1], [1]), (two, [1, 1], [2])],  # a negative size
    ):
        with pytest.raises(ValueError, match="group sizes"):
            Matrix.block_sum(QQ, bad)
    assert Matrix.block_sum(QQ, []).shape() == (0, 0)


@st.composite
def grouped_blocks(draw):
    """(field, blocks) for Matrix.block_sum: one to three blocks with the
    same numbers of row and column groups, sizes 0 to 2, cells of every
    rank."""
    field = draw(st.sampled_from([QQ, PrimeField(7), PrimeField(_P)]))
    ngroups = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    sizes = st.integers(0, 2)
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        rs, cs = (draw(st.lists(sizes, min_size=n, max_size=n)) for n in ngroups)
        cells = [[draw(st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 3)])) for _ in range(sum(cs))]
                 for _ in range(sum(rs))]
        blocks.append((Matrix(field, cells, sum(cs)), rs, cs))
    return field, blocks


@settings(max_examples=200, deadline=None)
@given(grouped_blocks(), st.booleans())
def test_grouped_block_sum_places_groups_in_turn(drawn, ranked):
    field, blocks = drawn
    if ranked:
        for blk, _, _ in blocks:
            blk.rank()
    m = Matrix.block_sum(field, blocks)
    assert m == placed_cell_by_cell(field, blocks)
    if ranked:
        assert m._rank == echelon_rank(m) == sum(blk.rank() for blk, _, _ in blocks)
    else:
        assert m._rank is None
    # a line too many, or a column group fewer than the other blocks have
    blk, rs, cs = blocks[0]
    wrong = [(blk, [*rs[:-1], rs[-1] + 1], cs)]
    if len(blocks) > 1:
        wrong.append((blk, rs, cs[:-1]))
    for bad in wrong:
        with pytest.raises(ValueError, match="group sizes"):
            Matrix.block_sum(field, [bad, *blocks[1:]])


def eliminated(*args, **kwargs):
    raise AssertionError("an elimination ran")


def test_block_sum_of_blocks_without_memo_eliminates_nothing(monkeypatch):
    rng = random.Random(11)
    for field in (QQ, PrimeField(7), PrimeField(_P)):
        blocks = []
        for _ in range(3):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            cells = [[rng.choice([0, 1, -1, 2]) for _ in range(c)] for _ in range(r)]
            blocks.append((Matrix(field, cells, c), [r], [c]))
        with monkeypatch.context() as patch:
            for engine in ("_echelon", "_packed_rank"):
                patch.setattr(linalg, engine, eliminated)
            m = Matrix.block_sum(field, blocks)
        assert m._rank is None and all(blk._rank is None for blk, _, _ in blocks)
        assert m.rank() == echelon_rank(Matrix(field, m.rows, m.ncols))


def test_rank_of_dense_int_matrices_with_cells_near_the_prime():
    # slots grow by up to p**2 per step and would overflow without the
    # folds; the dependent rows then gain spurious pivots
    for seed in range(24):
        rng = SeedStream(seed)
        n, r = 6 + seed % 5, 3 + seed % 4
        base = [[rng.randint(1 - _P, _P - 1) for _ in range(n)] for _ in range(r)]
        rows = list(base)
        for _ in range(n - r):
            co = [rng.randint(-2, 2) for _ in base]
            row = [sum(c * b[j] for c, b in zip(co, base)) for j in range(n)]
            rows.insert(rng.randint(0, len(rows)), row)
        m = Matrix(QQ, rows)
        want = exact_rank(rows, n)
        assert m.rank() == want
        assert _rank_certified_mod_p(m) in (None, want)


def test_rank_of_fraction_matrices():
    int_valued = Matrix(QQ, [[Fraction(x) for x in r] for r in ([1, 2], [3, 4])])
    assert _rank_certified_mod_p(int_valued) is None
    assert int_valued.rank() == 2
    assert Matrix(QQ, [[Fraction(1, 2), 1], [1, 2]]).rank() == 1
    mixed = Matrix(QQ, [[1, Fraction(1, 3)], [3, 1]])  # int first cell
    assert _rank_certified_mod_p(mixed) is None
    assert mixed.rank() == 1
    assert Matrix(QQ, [[1, Fraction(1, 3)], [3, 2]]).rank() == 2


def test_rank_of_long_and_wide_int_matrices():
    full = Matrix(QQ, [[i, i * i % 7, 1] for i in range(100)])
    deficient = Matrix(QQ, [[i, 2 * i, 0] for i in range(100)])
    for m in (full, full.transpose()):
        assert _rank_certified_mod_p(m) == 3
        assert m.rank() == 3
    for m in (deficient, deficient.transpose()):
        assert _rank_certified_mod_p(m) is None  # rank 1 is below the bound 2
        assert m.rank() == 1


def test_rank_of_empty_int_matrices():
    for m in (Matrix(QQ, [], 4), Matrix(QQ, [[]] * 4, 0), Matrix(QQ, [])):
        assert _rank_certified_mod_p(m) == 0
        assert m.rank() == 0


def test_prime_field_matrices_store_reduced_cells():
    for f in (PrimeField(7), PrimeField(_P)):
        m = Matrix(f, [[f.p, -1]])
        assert m.rows == [[0, f.p - 1]]
        assert m == Matrix(f, [[0, f.p - 1]])


def test_matrix_equality_compares_the_field():
    assert Matrix(QQ, [[1]]) != Matrix(PrimeField(7), [[1]])
    assert Matrix(PrimeField(7), [[1]]) != Matrix(PrimeField(11), [[1]])
    assert Matrix(PrimeField(7), [[8]]) == Matrix(PrimeField(7), [[1]])
    assert Matrix(QQ, [[2]]) == Matrix(QQ, [[Fraction(4, 2)]])


def test_prime_field_rank_skips_the_modular_shortcut(monkeypatch):
    import taurank.linalg

    monkeypatch.setattr(taurank.linalg, "_rank_certified_mod_p", None)
    assert Matrix(PrimeField(7), [[1, 2], [2, 4], [0, 3]]).rank() == 2


@st.composite
def fp_rank_inputs(draw, max_dim=12):
    """0-12 rows and columns; copies and combinations of drawn rows make
    rank-deficient tall, wide and square shapes."""
    ncols = draw(st.integers(min_value=0, max_value=max_dim))
    rows = draw(st.lists(st.lists(fp_cells, min_size=ncols, max_size=ncols), max_size=max_dim))
    if rows:
        for _ in range(draw(st.integers(0, max_dim - len(rows)))):
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            c = draw(st.sampled_from([0, 1, _P - 1, _P - 2]) | st.integers(0, _P - 1))
            rows.append([(x + c * y) % _P for x, y in zip(rows[i], rows[j])])
        rows = draw(st.permutations(rows))
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(fp_rank_inputs())
def test_mersenne_prime_rank_matches_reference(shaped):
    rows, ncols = shaped
    assert Matrix(FP, rows, ncols).rank() == len(reference_rref(FP, rows, ncols)[1])


def dependent_rows(rng, base, extra):
    """base plus `extra` random combinations of it mod _P, shuffled."""
    rows = [list(r) for r in base]
    for _ in range(extra):
        co = [rng.randint(0, _P - 1) for _ in base]
        rows.append([sum(c * r[j] for c, r in zip(co, base)) % _P for j in range(len(base[0]))])
    rng.shuffle(rows)
    return rows


def test_mersenne_prime_rank_of_dense_matrices_at_the_slot_limit():
    # unfolded slots grow by up to p * (p + 8) per pivot; seven or more
    # pivots with cells at p - 1 reach the slot bound, and an overflow
    # would give the dependent rows spurious pivots
    rng = random.Random(7)
    top = [[_P - 1] * 12 for _ in range(12)]
    for i in range(12):
        top[i][i] = _P - 2  # -(J + I): full rank
    cases = [top, [[_P - 1] * 9 for _ in range(9)], [r[:8] + [_P - 1] for r in top]]
    for n in range(5, 13):  # p - 1 everywhere but one cell per row
        rows = [[_P - 1] * n for _ in range(n + 2)]
        for row in rows:
            row[rng.randrange(n)] = rng.choice([_P - 2, 2, 0])
        cases.append(rows)
    for k in range(7, 12):
        cases.append(dependent_rows(rng, top[:k], 12 - k))
        base = [[rng.choice([_P - 1, _P - 2, rng.randint(0, _P - 1)]) for _ in range(12)]
                for _ in range(k)]
        cases.append(dependent_rows(rng, base, 14 - k))
        cases.append([list(c) for c in zip(*cases[-1])])  # wide
    for rows in cases:
        want = len(reference_rref(FP, rows, len(rows[0]))[1])
        assert Matrix(FP, rows).rank() == want
    assert [Matrix(FP, c).rank() for c in cases[:3]] == [12, 1, 9]


def test_seed_stream_randint_matches_random_randint():
    ranges = [(-1000, 1000), (-10000, 10000), (0, _P - 1), (0, 2), (5, 5), (-7, -7)]
    for seed in [*range(40), SeedStream(42).split(3).seed]:
        ours, ref = SeedStream(seed), random.Random(seed)
        for lo, hi in ranges * 4:
            assert ours.randint(lo, hi) == ref.randint(lo, hi)
    with pytest.raises(ValueError):
        SeedStream(1).randint(3, 2)


def test_echelon_of_no_rows_is_empty():
    assert _echelon(QQ, []) == ([], [])
    assert _echelon(PrimeField(7), [{}, {}], reduced=True) == ([], [])


def test_echelon_of_a_rank_deficient_rational_system():
    rows = [{0: Fraction(1, 2), 2: 3}, {1: Fraction(2, 3), 2: -1},
            {0: 1, 1: Fraction(4, 3), 2: 4}, {}]
    # the third row is twice the first plus twice the second
    dense = [[r.get(j, 0) for j in range(6)] for r in rows]
    assert len(_echelon(QQ, [dict(r) for r in rows])[1]) == 2
    assert qmat(dense).rank() == 2
    reduced, pivots = _echelon(QQ, rows, reduced=True)
    assert pivots == [0, 1]
    assert reduced == [{0: 1, 2: 6}, {1: 1, 2: Fraction(-3, 2)}]


def test_echelon_over_f7():
    f7 = PrimeField(7)
    # mod 7 the rows of [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    rows = [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {1: 1, 2: 1}]
    assert _echelon(f7, [dict(r) for r in rows])[1] == [0, 1]
    assert _echelon(QQ, [dict(r) for r in rows])[1] == [0, 1]
    assert _echelon(f7, [dict(r) for r in rows] + [{0: 3}])[1] == [0, 1, 2]
    # over Q the second row is twice the first, but [2, 4, 13] is not
    assert _echelon(QQ, [dict(r) for r in rows[:2]] + [{0: 2, 1: 4, 2: 13}])[1] == [0, 2]
    assert _echelon(f7, rows, reduced=True) == ([{0: 1, 2: 1}, {1: 1, 2: 1}], [0, 1])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 7, _P]), st.integers(0, 10**6))
def test_echelon_rank_matches_the_dense_rank(p, seed):
    field = PrimeField(p) if p else QQ
    rng = random.Random(seed)
    nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
    cells = [0, 0, 0, 1, 2, p - 1] if p else [0, 0, 0, 1, -1, 2, Fraction(1, 3)]
    dense = [[rng.choice(cells) for _ in range(ncols)] for _ in range(nrows)]
    assert echelon_rank(Matrix(field, dense, ncols)) == Matrix(field, dense, ncols).rank()


@st.composite
def engine_inputs(draw):
    """(field, rows, ncols): over Q ints, `Fraction`s and integral
    `Fraction`s such as Fraction(3, 1); over F_7 and F_(2^31-1) reduced
    cells, with rows repeated so that rows vanish."""
    field = draw(st.sampled_from([QQ, PrimeField(7), FP]))
    p = field.characteristic
    if p:
        cells = st.one_of(st.just(0), st.sampled_from([1, 2, p - 1]), st.integers(0, p - 1))
    else:
        cells = st.one_of(st.just(0), st.integers(-3, 3), fractions,
                          st.builds(Fraction, st.integers(-4, 4)), big_ints)
    rows, ncols = draw(shaped_rows(cells, max_dim=7))
    if rows:
        copies = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
        rows = draw(st.permutations(rows + [list(rows[i]) for i in copies]))
    return field, rows, ncols


def cell_kind(x):
    return int if x.denominator == 1 else Fraction


@settings(max_examples=200, deadline=None)
@given(engine_inputs())
def test_engine_gives_the_reduced_echelon_form(shaped):
    field, rows, ncols = shaped
    want_rows, want_pivots = reference_rref(field, rows, ncols)
    got_rows, got_pivots = _echelon(field, _dict_rows(rows), reduced=True)
    assert got_pivots == want_pivots
    dense = [[r.get(j, 0) for j in range(ncols)] for r in got_rows]
    assert dense == want_rows
    assert all(x for r in got_rows for x in r.values())  # no zero cell is kept
    reduced, pivots = Matrix(field, rows, ncols).rref()
    assert pivots == want_pivots
    assert reduced.rows[: len(pivots)] == want_rows
    assert not any(map(any, reduced.rows[len(pivots):]))
    for out in (dense, reduced.rows):
        assert [[type(x) for x in r] for r in out] == [[cell_kind(x) for x in r] for r in out]
    assert _echelon(field, _dict_rows(rows))[1] == want_pivots
