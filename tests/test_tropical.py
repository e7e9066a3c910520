import random
import re
from fractions import Fraction

import numpy as np
import pytest

import maxplus.tropical as tropical
from maxplus import (
    DimensionMismatchError,
    PositiveCircuitError,
    TropicalMatrix,
    TropicalScalar,
    as_value,
    kleene_star,
    matrix_mul,
    matrix_power,
)
from maxplus.digraph import build_graph, karp_max_cycle_mean
from maxplus.oracle import (
    diag_conjugate,
    naive_kleene_star,
    naive_matrix_mul,
    naive_matrix_power,
    submatrix,
)
from maxplus.tropical import common_scale, scaled_int, unscaled
from fixtures import DEMO_A3_ROWS, DEMO_D3, E, demo_matrix, tm


class TestScalar:
    def test_integral_fraction_normalizes(self):
        assert TropicalScalar(Fraction(4, 2)) == TropicalScalar(2)
        assert isinstance(TropicalScalar(Fraction(4, 2)).value, int)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            TropicalScalar(1.5)


class TestMatrixMul:
    def test_identity(self):
        a = demo_matrix()
        assert matrix_mul(TropicalMatrix.identity(10), a) == a
        assert matrix_mul(a, TropicalMatrix.identity(10)) == a

    def test_two_cycle_square(self):
        a = tm([[E, 7], [9, E]])
        assert matrix_mul(a, a) == tm([[16, E], [E, 16]])

    def test_epsilon_absorbs(self):
        a = demo_matrix()
        assert matrix_mul(TropicalMatrix.epsilon(10), a) == TropicalMatrix.epsilon(10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            matrix_mul(tm([[1, 2]]), tm([[1, 2]]))


class TestMatrixPower:
    def test_first_power(self):
        a = demo_matrix()
        assert matrix_power(a, 1) == a

    def test_cube_of_two_cycle(self):
        a = tm([[E, 7], [9, E]])
        assert matrix_power(a, 3) == tm([[E, 23], [25, E]])

    def test_zeroth_power_is_identity(self):
        assert matrix_power(demo_matrix(), 0) == TropicalMatrix.identity(10)

    def test_power_matches_path_enumeration(self):
        # Independent check: best path weights of length t by direct DP.
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(2, 5)
            entries = {
                (i, j): rng.randint(-4, 4)
                for i in range(n)
                for j in range(n)
                if rng.random() < 0.7
            }
            a = TropicalMatrix(n, n, entries)
            t = rng.randint(0, 6)
            best = {(i, i): 0 for i in range(n)}
            for _ in range(t):
                nxt = {}
                for (i, k), w in best.items():
                    for (k2, j), w2 in entries.items():
                        if k2 != k:
                            continue
                        cand = w + w2
                        if nxt.get((i, j)) is None or cand > nxt[(i, j)]:
                            nxt[(i, j)] = cand
                best = nxt
            assert matrix_power(a, t) == TropicalMatrix(n, n, best)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            matrix_power(tm([[1, 2]]), 2)

    def test_rejects_negative(self):
        # A bool is not an exponent either, though it is an int.
        for t in (-1, True):
            with pytest.raises(ValueError):
                matrix_power(tm([[1]]), t)


class TestKleeneStar:
    def test_epsilon_matrix(self):
        assert kleene_star(TropicalMatrix.epsilon(3)) == TropicalMatrix.identity(3)

    def test_small_negative_cycle(self):
        a = tm([[E, -1], [-2, E]])
        assert kleene_star(a) == tm([[0, -1], [-2, 0]])

    def test_positive_self_loop_rejected(self):
        with pytest.raises(PositiveCircuitError):
            kleene_star(tm([[1]]))

    def test_star_equals_truncated_sum(self):
        # The first half has int entries, the second p/q ones; the star
        # leaves the scaled-integer domain with normalized values (an int
        # whenever the value is integral).
        rng = random.Random(11)
        fractions = 0
        for trial in range(30):
            n = rng.randint(2, 5)
            entries = {
                (i, j): rng.randint(-6, 0)
                for i in range(n)
                for j in range(n)
                if rng.random() < 0.6
            }
            if trial >= 15:
                entries = {key: Fraction(v, rng.choice((1, 2, 3, 6))) for key, v in entries.items()}
            a = TropicalMatrix(n, n, entries)
            best = dict(TropicalMatrix.identity(n).entries)
            for k in range(1, n):
                for key, v in matrix_power(a, k).entries.items():
                    best[key] = max(v, best.get(key, v))
            total = TropicalMatrix(n, n, best)
            star = kleene_star(a)
            assert star == total
            assert all(type(v) is type(as_value(v)) for v in star.entries.values())
            fractions += sum(isinstance(v, Fraction) for v in star.entries.values())
        assert fractions > 0


class TestDiagConjugate:
    def test_zero_scaling_is_identity(self):
        a = demo_matrix()
        assert diag_conjugate(a, (0,) * 10, 0) == a

    def test_demo_group3_submatrix(self):
        # Conjugating the group-3 submatrix with the golden scaling and a
        # -3 shift reproduces the golden visualized matrix exactly.
        sub = submatrix(demo_matrix(), range(5, 10))
        got = diag_conjugate(sub, DEMO_D3, -3)
        assert got == tm(DEMO_A3_ROWS)

    def test_diagonal_entries_only_shift(self):
        a = tm([[4, E], [E, Fraction(1, 2)]])
        d = (7, -9)
        got = diag_conjugate(a, d, Fraction(1, 2))
        assert got.get(0, 0) == Fraction(9, 2)
        assert got.get(1, 1) == 1

    def test_inverse_round_trip(self):
        a = demo_matrix()
        d = tuple(range(10))
        there = diag_conjugate(a, d, 3)
        back = diag_conjugate(there, tuple(-v for v in d), -3)
        assert back == a

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            diag_conjugate(tm([[1]]), (0, 0), 0)


def _random_matrix(rng, rows, cols, density=0.7, lo=-5, hi=5):
    entries = {
        (i, j): rng.randint(lo, hi)
        for i in range(rows)
        for j in range(cols)
        if rng.random() < density
    }
    return TropicalMatrix(rows, cols, entries)


def test_multiplication_is_associative():
    rng = random.Random(23)
    for _ in range(20):
        a = _random_matrix(rng, 3, 4)
        b = _random_matrix(rng, 4, 2)
        c = _random_matrix(rng, 2, 5)
        assert matrix_mul(matrix_mul(a, b), c) == matrix_mul(a, matrix_mul(b, c))


def test_power_addition_law():
    rng = random.Random(29)
    for _ in range(15):
        n = rng.randint(2, 6)
        a = _random_matrix(rng, n, n, density=0.6)
        s, t = rng.randint(0, 8), rng.randint(0, 8)
        assert matrix_power(a, s + t) == matrix_mul(matrix_power(a, s), matrix_power(a, t))


def test_conjugation_commutes_with_powers():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(2, 5)
        a = _random_matrix(rng, n, n, density=0.6)
        d = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
        shift = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        t = rng.randint(0, 6)
        left = diag_conjugate(matrix_power(a, t), d, t * shift)
        right = matrix_power(diag_conjugate(a, d, shift), t)
        assert left == right


def test_entries_stay_epsilon_free():
    a = demo_matrix()
    assert all(v is not None for v in a.entries.values())
    assert a.finite_count == 18


def test_unscaled_inverts_scaled_int():
    # The way out of the scaled-integer domain gives back the value with the
    # type as_value gives it: int when integral, Fraction otherwise.
    rng = random.Random(2024)
    values = [0, 7, -7, 10**30, Fraction(-7, 2), Fraction(-1, 6), Fraction(6, 3), Fraction(-9, 3)]
    values += [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 12)) for _ in range(200)]
    for v in values:
        for scale in (common_scale([v]), 6 * common_scale([v]), 7 * 10**12):
            if scale % common_scale([v]):
                continue
            back = unscaled(scaled_int(v, scale), scale)
            assert back == v
            assert type(back) is type(as_value(v))


@pytest.mark.parametrize(
    "values, scale, t, dtype",
    [
        ((-5, 5), 1, 1, np.int64),
        ((-5, 5), 12, 7, np.int64),
        ((Fraction(-7, 2), Fraction(1, 3), 4), 6, 3, np.int64),
        ((-(10**17), 10**17), 1, 6, object),
        ((-(10**30), 1), 1, 1, object),
        ((-3, Fraction(5, 4)), 4 << 59, 1, object),
        ((-(1 << 58) - 1, Fraction(1, 64)), 64, 1, object),
    ],
    ids=["ints", "ints-scaled", "fractions", "past-int64", "past-int64-entries", "huge-scale", "scaled-past-int64"],
)
def test_kernel_arrays_enter_every_value_as_scaled_int(values, scale, t, dtype):
    # Whether the values go in as they are (scale 1, int entries) or
    # through ``scaled_int``, every cell holds the scaled entry as an exact
    # int, or the bottom; the dtype and the bottom follow the bound t * M.
    rng = random.Random(f"{values}/{scale}")
    a = TropicalMatrix(9, 7, {(i, j): rng.choice(values) for i in range(9) for j in range(7) if rng.random() < 0.6})
    b = TropicalMatrix(3, 3, {})
    bottom, x, y = tropical._kernel_arrays(scale, t, a, b)
    bound = t * max(abs(scaled_int(v, scale)) for v in a.entries.values())
    assert x.dtype == y.dtype == np.dtype(dtype)
    assert bottom == (-(1 << 61) if dtype is np.int64 else -4 * bound)
    want = [[bottom] * 7 for _ in range(9)]
    for (i, j), v in a.entries.items():
        want[i][j] = scaled_int(v, scale)
    assert x.tolist() == want and {type(v) for row in x.tolist() for v in row} == {int}
    assert y.tolist() == [[bottom] * 3] * 3
    with pytest.raises(ValueError, match="does not clear"):
        tropical._kernel_arrays(1, 1, TropicalMatrix(1, 2, {(0, 0): 3, (0, 1): Fraction(1, 2)}))


@pytest.mark.parametrize(
    "values, scale, dtype",
    [
        ((3, Fraction(1, 2)), 1, np.int64),
        ((3, Fraction(1, 3)), 1 << 70, object),
        ((10**30, Fraction(1, 7)), 2, object),
    ],
    ids=["int64", "huge-scale", "huge-numerator"],
)
def test_kernel_arrays_check_every_denominator_on_either_dtype(values, scale, dtype):
    # A scale that leaves a denominator raises scaled_int's ValueError,
    # whether the arrays would be int64 or hold Python ints; a scale that
    # clears every denominator gives scaled_int's values, in that dtype.
    a = TropicalMatrix(1, len(values), {(0, j): v for j, v in enumerate(values)})
    with pytest.raises(ValueError, match="does not clear"):
        tropical._kernel_arrays(scale, 1, a)
    good = scale * common_scale(values)
    _, x = tropical._kernel_arrays(good, 1, a)
    assert x.dtype == np.dtype(dtype)
    assert x.tolist() == [[scaled_int(v, good) for v in values]]


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("scale", [1, 12, 3 << 59])
@pytest.mark.parametrize("shifts", [None, (0, 5, -7, 12 * 10**6), (10**30 + 7, -(10**30), 1, 0)])
def test_kernel_result_matches_unscaled(dtype, scale, shifts):
    # The array exit gives, cell by cell, what ``unscaled`` gives: the same
    # value with the same type, in row-major order.  Cells hold negative
    # and positive values, multiples of the scale and not, and the bottom;
    # a shift, when given, is added to a cell before it leaves the domain.
    rng = random.Random(f"{dtype}/{scale}/{shifts}")
    top = (1 << 70) if dtype is object else (1 << 58)
    bottom = -4 * (top if dtype is object else tropical._INT64_BOUND)
    picks = (
        lambda: bottom,
        lambda: rng.randint(-30, 30),
        lambda: 12 * rng.randint(-30, 30),
        lambda: rng.randint(-top, top),
        lambda: -top,
    )
    cells = [[rng.choice(picks)() for _ in range(7)] for _ in range(6)]
    out = np.array(cells, dtype=dtype)
    which = None
    if shifts is not None:
        which = np.array([[rng.randrange(len(shifts)) for _ in range(7)] for _ in range(6)])
    got = tropical._kernel_result(out, bottom, scale, shifts, which)
    want = {
        (i, j): unscaled(v + (0 if shifts is None else shifts[which[i, j]]), scale)
        for i, row in enumerate(cells)
        for j, v in enumerate(row)
        if v != bottom
    }
    assert (got.rows, got.cols) == (6, 7)
    assert [(key, type(v), v) for key, v in got.entries.items()] == [
        (key, type(v), v) for key, v in want.items()
    ]
    if scale == 12:
        assert 0 < sum(type(v) is int for v in want.values()) < len(want)


def _assert_same_matrix(got, want):
    # Same shape, keys and values, and the type as_value gives each value.
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got.entries == want.entries
    assert all(type(got.entries[key]) is type(v) for key, v in want.entries.items())


def _family_matrix(rng, family, rows, cols, density):
    if family == "small":
        draw = lambda: rng.randint(-5, 5)
    elif family == "wide":
        draw = lambda: rng.randint(-10**6, 10**6)
    elif family == "rational":
        draw = lambda: Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 6)))
    else:  # {0, -1} ties many paths
        draw = lambda: rng.randint(-1, 0)
    return TropicalMatrix(
        rows,
        cols,
        {(i, j): draw() for i in range(rows) for j in range(cols) if rng.random() < density},
    )


def _kernel_parity_instances():
    """(a, b, c, t): a square, b n x m (m = 1 often), c m x p, in four families.

    Every 17th instance is all-bottom, every 11th is 1 x 1; t runs from 0
    to past the expansion threshold 2 n^2.
    """
    rng = random.Random(59)
    families = ("small", "wide", "rational", "ties")
    for k in range(520):
        family = families[k % 4]
        n = 1 if k % 11 == 0 else rng.randint(1, 9)
        m = 1 if k % 3 == 0 else rng.randint(1, 9)
        p = rng.randint(1, 9)
        if k % 17 == 0:
            density = 0
        elif family == "wide":
            density = rng.choice((0.1, 0.2, 0.4))
        else:
            density = rng.choice((0.3, 0.6, 1.0))
        a = _family_matrix(rng, family, n, n, density)
        b = _family_matrix(rng, family, n, m, density)
        c = _family_matrix(rng, family, m, p, density)
        t = rng.choice((0, 1, rng.randint(2, 40), 2 * n * n + rng.randint(0, 20)))
        yield a, b, c, t


def test_kernel_matches_naive_twin():
    # The array kernel behind matrix_mul and matrix_power against the dict
    # loop of the oracle, on the raw rationals.
    count = 0
    for a, b, c, t in _kernel_parity_instances():
        _assert_same_matrix(matrix_mul(a, b), naive_matrix_mul(a, b))
        _assert_same_matrix(matrix_mul(b, c), naive_matrix_mul(b, c))
        _assert_same_matrix(matrix_power(a, t), naive_matrix_power(a, t))
        count += 1
    assert count >= 500


@pytest.fixture
def kernel_dtypes(monkeypatch):
    """The dtype of every array product the kernel runs while the test lasts."""
    seen = []
    real = tropical._max_plus_product

    def spied(x, y, bottom):
        seen.append(x.dtype)
        return real(x, y, bottom)

    monkeypatch.setattr(tropical, "_max_plus_product", spied)
    return seen


# (1 << 59) - 1 == 179951 * 3203431780337 is the largest bound t * M (max |scaled
# entry| M) that the kernel keeps in int64.
_EDGE_T, _EDGE_M = 179951, 3203431780337


def _edge_matrix(top, extra=()):
    # A loop of weight top and one of -top that no other circuit passes, so
    # the power reaches +-t * top; the other entries are small, with bottoms
    # between them.
    entries = {(0, 0): top, (1, 1): -top, (0, 2): -3, (1, 2): 5, (2, 0): 1}
    entries.update(extra)
    return TropicalMatrix(3, 3, entries)


@pytest.mark.parametrize(
    "t, a, dtype",
    [
        (_EDGE_T, _edge_matrix(_EDGE_M), np.int64),
        (_EDGE_T, _edge_matrix(_EDGE_M + 1), object),
        (1 << 19, _edge_matrix((1 << 40) - 1), np.int64),
        (1 << 19, _edge_matrix(1 << 40), object),
        # Rationals: the scale 7 keeps t * M at the edge; an entry -1/2 makes
        # the scale 14, and the lcm alone pushes the bound over it.
        (_EDGE_T, _edge_matrix(Fraction(_EDGE_M, 7), {(1, 2): Fraction(5, 7)}), np.int64),
        (_EDGE_T, _edge_matrix(Fraction(_EDGE_M, 7), {(2, 2): Fraction(-1, 2)}), object),
        (3, _edge_matrix(10**40, {(2, 1): Fraction(-10**45, 11)}), object),
    ],
    ids=["at-edge", "above", "pow2-below", "pow2-above", "sevenths-at-edge", "lcm-above", "huge"],
)
def test_power_guard_edge(kernel_dtypes, t, a, dtype):
    got = matrix_power(a, t)
    assert set(kernel_dtypes) == {np.dtype(dtype)}
    _assert_same_matrix(got, naive_matrix_power(a, t))
    assert (got.get(0, 0), got.get(1, 1)) == (t * a.get(0, 0), t * a.get(1, 1))


_HALF = 1 << 58


@pytest.mark.parametrize(
    "a, b, dtype",
    [
        (tm([[_HALF, -_HALF], [E, 2]]), tm([[E, -_HALF + 1], [_HALF - 1, 7]]), np.int64),
        (tm([[_HALF, -_HALF], [E, 2]]), tm([[E, -_HALF], [_HALF, 7]]), object),
        # M_a + M_b at the edge in fifths; a half in b makes the scale 10.
        (tm([[Fraction(_HALF, 5), E]]), tm([[Fraction(_HALF - 1, 5)], [3]]), np.int64),
        (tm([[Fraction(_HALF, 5), E]]), tm([[Fraction(_HALF - 1, 5)], [Fraction(1, 2)]]), object),
    ],
    ids=["at-edge", "above", "fifths-at-edge", "lcm-above"],
)
def test_product_guard_edge(kernel_dtypes, a, b, dtype):
    got = matrix_mul(a, b)
    assert kernel_dtypes == [np.dtype(dtype)]
    _assert_same_matrix(got, naive_matrix_mul(a, b))


@pytest.fixture
def closure_dtypes(monkeypatch):
    """The dtype of every array the closure kernel runs on while the test lasts."""
    seen = []
    real = tropical._max_plus_closure

    def spied(x, bottom):
        seen.append(x.dtype)
        return real(x, bottom)

    monkeypatch.setattr(tropical, "_max_plus_closure", spied)
    return seen


def _star_parity_instances():
    """Square matrices in five families, a third of them with positive circuits.

    One third keeps its draw (a positive circuit is likely), one third is
    shifted by its maximum cycle mean (critical circuits of weight 0, many
    ties) and one third by one more (every circuit negative).  Every 13th
    instance is all-bottom; four are dense at n = 64-70, two of them with
    positive circuits (checked after every pivot); the "huge" family
    (entries up to 10^17, n >= 6) puts the bound n * M above 2^59.
    """
    rng = random.Random(67)
    families = ("small", "wide", "rational", "ties", "huge")
    for k in range(520):
        family = families[k % 5]
        n = rng.randint(1, 12)
        density = 0 if k % 13 == 0 else rng.choice((0.2, 0.5, 1.0))
        if family == "huge":
            n = rng.randint(6, 12)
            a = _family_matrix(rng, "small", n, n, density)
            huge = {key: v * 10**17 + rng.randint(0, 9) for key, v in a.entries.items()}
            a = TropicalMatrix(n, n, huge)
        else:
            a = _family_matrix(rng, family, n, n, density)
        yield _shifted(a, k % 3)
    for k, family in enumerate(("small", "wide", "ties", "small")):
        n = rng.randint(64, 70)
        yield _shifted(_family_matrix(rng, family, n, n, 1.0), k % 3)


def _shifted(a, how):
    # how = 0: as drawn; 1: by the maximum cycle mean; 2: by one more.
    lam = karp_max_cycle_mean(build_graph(a))
    if how == 0 or lam.is_epsilon:
        return a
    shift = lam.value + (how == 2)
    return TropicalMatrix(a.rows, a.cols, {key: v - shift for key, v in a.entries.items()})


def test_kleene_star_matches_naive_twin(closure_dtypes):
    # The array closure against the Floyd-Warshall dict loop of the oracle,
    # on the raw rationals: the same values with their types, or the same
    # error for a positive circuit.
    count = rejected = large = 0
    for a in _star_parity_instances():
        try:
            want = naive_kleene_star(a)
        except PositiveCircuitError as err:
            with pytest.raises(PositiveCircuitError, match=re.escape(str(err))):
                kleene_star(a)
            rejected += 1
        else:
            _assert_same_matrix(kleene_star(a), want)
        count += 1
        large += a.rows >= 64
    assert count >= 500 and large == 4
    assert 100 < rejected < count - 300
    assert set(closure_dtypes) == {np.dtype(np.int64), np.dtype(object)}


@pytest.mark.parametrize(
    "top, dtype", [((1 << 57) - 1, np.int64), (1 << 57, object)], ids=["at-edge", "above"]
)
def test_closure_guard_edge(closure_dtypes, top, dtype):
    # A 4-cycle of arcs -top: its star reaches -3 * top off the diagonal and
    # the bound n * M = 4 * top is 2^59 - 4, then 2^59.
    a = TropicalMatrix(4, 4, {(k, (k + 1) % 4): -top for k in range(4)})
    got = kleene_star(a)
    assert closure_dtypes == [np.dtype(dtype)]
    _assert_same_matrix(got, naive_kleene_star(a))
    assert got.get(0, 3) == -3 * top and got.get(0, 0) == 0


def test_package_exports_the_api_only():
    # ``__all__`` lists the public names of ``maxplus`` itself, each once,
    # and none of its submodules.
    import types

    import maxplus

    public = {
        name
        for name in dir(maxplus)
        if not name.startswith("_") and not isinstance(getattr(maxplus, name), types.ModuleType)
    }
    assert len(maxplus.__all__) == len(set(maxplus.__all__)) == 34
    assert set(maxplus.__all__) == public
