"""The sparse matrix routines of quotient against frozen dense copies.

mat_pow, det_bareiss and det_expansion walk only the nonzero entries.
frozen_mat_pow and frozen_det_bareiss are the dense routines they
replaced, kept verbatim as oracles (frozen_mat_pow still returns A
untruncated at e = 1, which mat_pow fixes, so the comparisons truncate
the oracle).  The inputs are the multiplication matrices of h1 and
h1+h2 on qh_fl n=3..6, the matrices mirror.direct_nzd_check certifies,
and random sparse matrices over (q1, q2) that take the swap path, the
zero-determinant exit, zero multipliers and zero numerators.
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


def test_random_sparse_matrices_match_the_dense_routines(monkeypatch):
    divisions, dense_divisions = [], []
    exact, dense_divide = quotient.divider, divide

    def counting(den):
        by_den = exact(den)

        def count(num):
            divisions.append(num)
            return by_den(num)
        return count

    def dense_counting(num, den):
        dense_divisions.append(num)
        return dense_divide(num, den)

    monkeypatch.setattr(quotient, "divider", counting)
    monkeypatch.setitem(globals(), "divide", dense_counting)
    rng = random.Random(16)
    zero_dets = swaps = zero_multipliers = 0
    for _ in range(120):
        n = rng.randrange(1, 7)
        M = _random_sparse(rng, n)
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
    assert zero_dets and swaps and zero_multipliers
    # the sparse route divided exactly the dense route's nonzero numerators
    assert all(num.terms for num in divisions)
    assert divisions == [num for num in dense_divisions if num.terms]
    assert len(divisions) < len(dense_divisions)


def test_zero_multiplier_keeps_the_scaled_entry():
    q1, q2 = Polynomial.var(QV, "q1"), Polynomial.var(QV, "q2")
    zero, one = Polynomial.zero(QV), Polynomial.const(QV, 1)
    M = [[q1, one, q2], [zero, q2, one], [zero, one, q1]]
    assert det_bareiss(M) == q1 * (q2 * q1 - one) == frozen_det_bareiss(M)


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
