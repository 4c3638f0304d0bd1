"""The matrix routines of quotient against frozen dense copies.

det_expansion walks only the nonzero entries; det_bareiss interpolates
the determinant from integer Bareiss runs at points; mat_pow squares.
frozen_mat_pow and frozen_det_bareiss are the dense routines they
replaced, kept verbatim as oracles (frozen_mat_pow still returns A
untruncated at e = 1, which mat_pow fixes, so the comparisons truncate
the oracle).  The inputs are the multiplication matrices of h1 and
h1+h2 on qh_fl n=3..6, the matrices mirror.direct_nzd_check certifies,
those of qh_milnor(5, 4), random sparse matrices over (q1, q2) that take
the swap path, the zero-determinant exit and zero multipliers, and small
matrices over zero, one and three q variables.  The point counts pin
which route each determinant takes: a graded matrix takes D+1 points,
any other one the whole grid.
"""

import random
from fractions import Fraction

import pytest

from qchar import quotient
from qchar.catalog import ring
from qchar.core import Polynomial, VariableSet
from qchar.groebner import divide
from qchar.quotient import det_bareiss, det_expansion, mat_pow

QV = VariableSet(["q1", "q2"])


def frozen_det_bareiss(entries):
    n = len(entries)
    if n == 0:
        raise ValueError("empty matrix")
    vars = entries[0][0].vars
    M = [[p for p in row] for row in entries]
    sign = 1
    prev = Polynomial.const(vars, 1)
    for k in range(n - 1):
        if M[k][k].is_zero():
            swap = next((r for r in range(k + 1, n) if not M[r][k].is_zero()), None)
            if swap is None:
                return Polynomial.zero(vars)
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                quot, rem = divide(M[i][j] * M[k][k] - M[i][k] * M[k][j], prev)
                assert rem.is_zero()
                M[i][j] = quot
            M[i][k] = Polynomial.zero(vars)
        prev = M[k][k]
    return M[n - 1][n - 1].scale(sign)


def frozen_mat_pow(A, e, trunc):
    if e < 1:
        raise ValueError("matrix power wants a positive exponent")
    n = len(A)
    zero = Polynomial.zero(A[0][0].vars)
    out = A
    for _ in range(e - 1):
        out = [[sum((out[i][k] * A[k][j] for k in range(n)), zero).truncate(trunc)
                for j in range(n)] for i in range(n)]
    return out


def _truncated(M, trunc):
    return [[p.truncate(trunc) for p in row] for row in M]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_qh_fl_matrices_match_the_dense_routines(n):
    R = ring("qh_fl", n, trunc=6)
    h1 = R.generator("h1")
    for M in (R.mult_matrix(h1), R.mult_matrix(h1 + R.generator("h2"))):
        assert mat_pow(M, n, 6) == frozen_mat_pow(M, n, 6)
        det = det_bareiss(M)
        assert det == frozen_det_bareiss(M)
        assert det_expansion(M, 6) == det.truncate(6)


def _random_sparse(rng, n):
    """An n x n matrix, about half zeros; maybe a zero column or pivot."""
    M = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {}
            if rng.random() < 0.5:
                for _ in range(rng.randrange(1, 3)):
                    qm = (rng.randrange(0, 3), rng.randrange(0, 2))
                    terms[qm] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
            row.append(Polynomial(QV, terms))
        M.append(row)
    shape = rng.randrange(4)
    if shape == 0:  # a zero column: the zero-determinant exit or a zero det
        c = rng.randrange(n)
        for row in M:
            row[c] = Polynomial.zero(QV)
    elif shape == 1:  # a zero first pivot: the swap path
        M[0][0] = Polynomial.zero(QV)
    return M


def _count_points(monkeypatch):
    """The list each integer Bareiss run of det_bareiss appends its size to."""
    points, exact = [], quotient._int_det

    def counting(M):
        points.append(len(M))
        return exact(M)

    monkeypatch.setattr(quotient, "_int_det", counting)
    return points


def _grid(M):
    """Points of the ungraded grid: per variable, one more than the smaller
    of the row sums and the column sums of the entries' degrees in it."""
    n, size = len(M), 1
    for v in range(len(M[0][0].vars)):
        def deg(p):
            return max((m[v] for m in p.terms), default=0)
        size *= 1 + min(sum(max(map(deg, row)) for row in M),
                        sum(max(deg(M[i][j]) for i in range(n)) for j in range(n)))
    return size


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_graded_qh_fl_matrices_take_n_plus_one_points(n, monkeypatch):
    points = _count_points(monkeypatch)
    R = ring("qh_fl", n, trunc=6)
    h1 = R.generator("h1")
    for M in (R.mult_matrix(h1), R.mult_matrix(h1 + R.generator("h2"))):
        points.clear()
        det_bareiss(M)  # test_qh_fl_matrices_match_the_dense_routines checks the value
        assert points == [len(M)] * (n + 1) and _grid(M) > n + 1


def test_random_sparse_matrices_match_the_dense_routines(monkeypatch):
    points = _count_points(monkeypatch)
    rng = random.Random(16)
    zero_dets = swaps = zero_multipliers = grids = 0
    for _ in range(120):
        n = rng.randrange(1, 7)
        M = _random_sparse(rng, n)
        points.clear()
        det = det_bareiss(M)
        assert det == frozen_det_bareiss(M)
        for trunc in (0, 2, 4):
            assert det_expansion(_truncated(M, trunc), trunc) == det.truncate(trunc)
            assert det_expansion(M, trunc) == det.truncate(trunc)
        e, trunc = rng.randrange(1, 5), rng.randrange(0, 5)
        assert mat_pow(M, e, trunc) == _truncated(frozen_mat_pow(M, e, trunc), trunc)
        zero_dets += det.is_zero()
        swaps += M[0][0].is_zero() and not det.is_zero()
        zero_multipliers += any(M[i][0].is_zero() for i in range(1, n)) and not M[0][0].is_zero()
        # a zero row or column needs no point; an entry that is not
        # homogeneous leaves the matrix ungraded, so it takes the whole grid
        if any(not any(p.terms for p in row) for row in M) or \
                any(not any(row[j].terms for row in M) for j in range(n)):
            assert points == []
        elif any(len({sum(m) for m in p.terms}) > 1 for row in M for p in row):
            assert points == [n] * _grid(M)
            grids += 1
        else:
            assert len(points) <= _grid(M)
    assert zero_dets and swaps and zero_multipliers and grids


def test_zero_multiplier_keeps_the_scaled_entry():
    q1, q2 = Polynomial.var(QV, "q1"), Polynomial.var(QV, "q2")
    zero, one = Polynomial.zero(QV), Polynomial.const(QV, 1)
    M = [[q1, one, q2], [zero, q2, one], [zero, one, q1]]
    assert det_bareiss(M) == q1 * (q2 * q1 - one) == frozen_det_bareiss(M)


Q3 = VariableSet(["q1", "q2", "q3"])


def _matrix(vars, rows):
    """rows of {exponent tuple: coefficient} maps as polynomials over vars."""
    return [[Polynomial(vars, terms) for terms in row] for row in rows]


SMALL = {
    # (matrix, points): the grid, or, when graded, the first variable at 1
    # and each other side also at most D+1
    "1x1": (_matrix(QV, [[{(2, 0): 1, (0, 1): -3}]]), 3 * 2),
    "1x1 graded": (_matrix(QV, [[{(2, 0): 1, (1, 1): Fraction(-3, 2)}]]), 2),
    "constant": (_matrix(QV, [[{(0, 0): 2}, {(0, 0): -1}, {}],
                              [{(0, 0): 1}, {(0, 0): 3}, {(0, 0): 5}],
                              [{}, {(0, 0): Fraction(1, 2)}, {(0, 0): 4}]]), 1),
    "no variables": (_matrix(VariableSet([]), [[{(): 2}, {(): 3}], [{(): Fraction(1, 2)}, {(): 4}]]), 1),
    "zero row": (_matrix(QV, [[{(1, 0): 1}, {(0, 1): 2}], [{}, {}]]), 0),
    "zero column": (_matrix(QV, [[{(1, 0): 1}, {}], [{(0, 1): 2}, {}]]), 0),
    "one variable": (_matrix(VariableSet(["q"]), [[{(1,): 1}, {(0,): 1}, {}],
                                                  [{(0,): -2}, {(2,): 1, (0,): 1}, {(1,): 3}],
                                                  [{}, {(1,): 1}, {(3,): Fraction(1, 3)}]]),
                     1 + 6),
    "one variable graded": (_matrix(VariableSet(["q"]), [[{(1,): 1}, {(0,): 1}],
                                                         [{(2,): -4}, {(1,): 1}]]), 1),
    "three variables": (_matrix(Q3, [[{(1, 0, 0): 1, (0, 0, 1): 2}, {(0, 1, 0): 1}],
                                     [{(0, 0, 0): -1}, {(1, 1, 0): 1, (0, 0, 1): 1}]]),
                        2 * 3 * 3),
    "three variables graded": (_matrix(Q3, [[{(1, 0, 0): 1, (0, 0, 1): 2}, {(0, 2, 0): 1}],
                                            [{(0, 0, 0): -1}, {(1, 0, 0): 1, (0, 1, 0): 1}]]),
                               3 * 2),
}


@pytest.mark.parametrize("case", list(SMALL))
def test_small_matrices_match_the_dense_routine(case, monkeypatch):
    M, expected_points = SMALL[case]
    points = _count_points(monkeypatch)
    det = det_bareiss(M)
    assert det == frozen_det_bareiss(M)
    assert len(points) == expected_points
    assert det_expansion(M, 8) == det.truncate(8)


def test_qh_milnor_matrices_match_the_dense_routine(monkeypatch):
    # the weights n-1 = 4 and m-1 = 3 differ, so M(h1+h2) has entries that
    # are not homogeneous in total q-degree and takes the grid; M(h1) and
    # M(h2) happen to be graded, with D = 4 and 5
    points = _count_points(monkeypatch)
    R = ring("qh_milnor", 5, 4, trunc=6)
    h1, h2 = R.generator("h1"), R.generator("h2")
    for a, expected in ((h1, 5), (h2, 6), (h1 + h2, 45)):
        M = R.mult_matrix(a)
        points.clear()
        assert det_bareiss(M) == frozen_det_bareiss(M)
        assert points == [len(M)] * expected
    assert _grid(M) == 45


@pytest.mark.parametrize("size", [1, 2])
def test_det_bareiss_refuses_laurent_entries(size):
    q = Polynomial.var(VariableSet(["q"], laurent=[True]), "q")
    M = [[q ** -1, q], [q, q]][:size]
    with pytest.raises(ValueError, match="clear denominators"):
        det_bareiss([row[:size] for row in M])


@pytest.mark.parametrize("e", range(1, 9))
def test_mat_pow_squares(e, monkeypatch):
    products, exact = [], quotient._mat_mul

    def counting(A, B, trunc):
        products.append(e)
        return exact(A, B, trunc)

    monkeypatch.setattr(quotient, "_mat_mul", counting)
    R = ring("qh_fl", 4, trunc=6)
    M = R.mult_matrix(R.generator("h1") + R.generator("h2"))
    assert mat_pow(M, e, 6) == _truncated(frozen_mat_pow(M, e, 6), 6)
    assert len(products) == e.bit_length() + bin(e).count("1") - 2


def test_mat_pow_at_exponent_one_truncates():
    q = Polynomial.var(VariableSet(["q"]), "q")
    zero = Polynomial.zero(q.vars)
    assert mat_pow([[q ** 3, q], [q, q ** 2]], 1, 1) == [[zero, q], [q, zero]]


@pytest.mark.parametrize("routine", [lambda M: mat_pow(M, 2, 3), det_bareiss,
                                     lambda M: det_expansion(M, 3)],
                         ids=["mat_pow", "det_bareiss", "det_expansion"])
def test_empty_matrix_raises(routine):
    with pytest.raises(ValueError, match="empty matrix"):
        routine([])
