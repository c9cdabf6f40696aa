import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from taurank.fields import QQ, PrimeField, SeedStream, is_prime
from taurank.linalg import _P, Matrix, _rank_certified_mod_p, intersect_row_spaces


def qmat(rows):
    return Matrix.from_int_rows(QQ, rows)


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


def test_intersect_row_spaces():
    u = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    v = [[Fraction(1), Fraction(1)]]
    rows = intersect_row_spaces(QQ, u, v, 2)
    assert len(rows) == 1
    assert rows[0][0] == rows[0][1] != 0


def test_prime_field_arithmetic():
    f = PrimeField(7)
    assert f.div(f.from_int(3), f.from_int(5)) == (3 * pow(5, -1, 7)) % 7
    m = Matrix.from_int_rows(f, [[2, 4], [1, 2]])
    assert m.rank() == 1
    assert len(m.kernel_basis()) == 1


def test_rational_div_returns_a_fraction():
    cases = [
        (1, 2, Fraction(1, 2)),
        (4, 2, Fraction(2)),
        (1, Fraction(2, 3), Fraction(3, 2)),
        (Fraction(1, 2), 3, Fraction(1, 6)),
    ]
    for a, b, want in cases:
        got = QQ.div(a, b)
        assert type(got) is Fraction and got == want
    for a, b in ((1, 0), (Fraction(1, 2), 0), (1, Fraction(0))):
        with pytest.raises(ZeroDivisionError):
            QQ.div(a, b)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(10)


def test_prime_field_rejects_square_and_carmichael():
    for n in (4, 561):
        with pytest.raises(ValueError):
            PrimeField(n)


def test_prime_field_61_bit_prime_is_fast():
    t0 = time.perf_counter()
    f = PrimeField((1 << 61) - 1)
    assert time.perf_counter() - t0 < 1.0
    assert f.mul(f.from_int(2), f.from_int(1 << 60)) == 1


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


def test_sample_scalar_contracts():
    assert QQ.sample(SeedStream(1), 0) == 0
    x = QQ.sample(SeedStream(42), 1000)
    assert x == QQ.sample(SeedStream(42), 1000)
    assert -1000 <= x <= 1000
    f = PrimeField(101)
    y = f.sample(SeedStream(3), 1000)
    assert 0 <= y < 101


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
        assert all(x == 0 for x in m.apply(v))


@settings(max_examples=40, deadline=None)
@given(int_matrices(), st.integers(min_value=0, max_value=997))
def test_solve_consistency(m, seed):
    rng = SeedStream(seed)
    x = [Fraction(rng.randint(-5, 5)) for _ in range(m.ncols)]
    b = m.apply(x)
    sol = m.solve(b)
    assert sol is not None
    assert m.apply(sol) == b


FP = PrimeField(_P)

# reduced cells at the top of the field, and unreduced or negative ones
fp_cells = st.one_of(st.sampled_from([_P - 1, _P - 2, 0]), st.integers(-2 * _P, 2 * _P))


def reference_rref(field, rows, ncols):
    """Plain Gauss-Jordan elimination in field arithmetic: (nonzero rows, pivots)."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if not field.is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.div(field.one, rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            k = rows[i][c]
            if i != r and not field.is_zero(k):
                rows[i] = [field.sub(x, field.mul(k, y)) for x, y in zip(rows[i], rows[r])]
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
        acc = field.add(acc, field.mul(a, b))
    return acc


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matrix_arithmetic_matches_field_methods(data):
    """+, -, unary -, scale, *, apply and is_zero on unreduced inputs
    against per-cell field arithmetic, with empty factors among the shapes."""
    for f, cells in ((QQ, st.one_of(st.integers(-6, 6), fractions)),
                     (PrimeField(7), st.integers(-20, 20)), (FP, fp_cells)):
        n, k, m = (data.draw(st.integers(0, 4)) for _ in range(3))

        def grid(nr, nc):
            return data.draw(st.lists(st.lists(cells, min_size=nc, max_size=nc),
                                      min_size=nr, max_size=nr))

        a, a2, b = grid(n, k), grid(n, k), grid(k, m)
        c = data.draw(cells)
        vec = data.draw(st.lists(cells, min_size=k, max_size=k))
        ma, ma2, mb = Matrix(f, a, k), Matrix(f, a2, k), Matrix(f, b, m)
        cols = [[r[j] for r in b] for j in range(m)]
        cases = [
            (ma + ma2, (n, k), [[f.add(x, y) for x, y in zip(r, s)] for r, s in zip(a, a2)]),
            (ma - ma2, (n, k), [[f.sub(x, y) for x, y in zip(r, s)] for r, s in zip(a, a2)]),
            (-ma, (n, k), [[f.neg(x) for x in r] for r in a]),
            (ma.scale(c), (n, k), [[f.mul(c, x) for x in r] for r in a]),
            (ma * mb, (n, m), [[reference_dot(f, r, col) for col in cols] for r in a]),
        ]
        for got, shape, want in cases:
            assert got.shape() == shape
            assert got.rows == want
        applied = ma.apply(vec)
        assert applied == [reference_dot(f, r, vec) for r in a]
        assert ma.is_zero() == all(f.is_zero(x) for r in a for x in r)
        if f.characteristic:
            out = [x for got, _, _ in cases for r in got.rows for x in r] + applied
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
            cols.append(a.apply(draw(st.lists(entries, min_size=m, max_size=m))))
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
    int_valued = qmat([[1, 2], [3, 4]])
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
