"""Series coefficients, fraction arithmetic, and difference operators."""

import random
from fractions import Fraction

import pytest

from qchar.catalog import ring
from qchar.core import Polynomial, binomial
from qchar.jfun import (
    THETA_VARS,
    DifferenceExpression,
    HbarFraction,
    HbarPoly,
    apply_difference,
    atom_unit,
    binomial_identity_check,
    hbar_infinity_check,
    hypersurface_operator,
    j_milnor,
    j_product,
    lemma52_construct_and_check,
    verify_theorem56,
)

F = Fraction


def _kring():
    return ring("k_milnor", 3, 3)


def _random_fraction(R, rng):
    deg = rng.randrange(0, 3)
    coeffs = [R.reduce(R.random_series(rng)) for _ in range(deg + 1)]
    denom = {}
    for _ in range(rng.randrange(0, 3)):
        kind = rng.choice(["L1", "L2", "L1L2"])
        level = rng.randrange(1, 3)
        denom[(kind, level)] = denom.get((kind, level), 0) + 1
    return HbarFraction(HbarPoly(R, coeffs), denom)


# ----------------------------------------------------------- fraction algebra


def test_hbar_poly_power():
    R = _kring()
    p = HbarPoly.atom(R, "L1", 1)
    assert p ** 0 == HbarPoly.one(R)
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1


def test_atom_at_level_zero_is_one_minus_unit():
    R = _kring()
    for kind in ("L1", "L2", "L1L2"):
        u = atom_unit(R, kind)
        assert HbarPoly.atom(R, kind, 0) == HbarPoly(R, [R.one() - u])
        assert HbarPoly.atom(R, kind, 2) == HbarPoly(R, [R.one(), R.zero(), -u])


def test_fraction_add_sub_roundtrip():
    R = _kring()
    rng = random.Random(11)
    for _ in range(8):
        a = _random_fraction(R, rng)
        b = _random_fraction(R, rng)
        assert ((a + b) - b) == a
        assert (a * b) == (b * a)


def test_adding_to_zero_expands_no_atoms(monkeypatch):
    # a zero operand keeps the sum's denominator but multiplies out nothing
    import qchar.jfun
    R = _kring()
    f = HbarFraction(HbarPoly.atom(R, "L1", 1), {("L2", 1): 2, ("L1L2", 2): 1})
    expanded = []
    original = qchar.jfun._atoms_product

    def recording(ring_, atoms):
        expanded.append(dict(atoms))
        return original(ring_, atoms)

    monkeypatch.setattr(qchar.jfun, "_atoms_product", recording)
    for total in (HbarFraction.zero(R) + f, f + HbarFraction.zero(R)):
        assert not any(expanded)
        assert total.denom == f.denom and total.numer == f.numer


def test_fraction_zero_test_matches_series_expansion():
    R = _kring()
    rng = random.Random(5)
    order = 20
    for _ in range(6):
        a = _random_fraction(R, rng)
        b = _random_fraction(R, rng)
        s = (a + b).series(order)
        sa, sb = a.series(order), b.series(order)
        assert all(s[k] == sa[k] + sb[k] for k in range(order + 1))
        assert (a - a).is_zero()
        assert all(c.is_zero() for c in (a - a).series(order))


def test_geometric_series_expansion():
    R = _kring()
    x = R.generator("x")
    f = HbarFraction(HbarPoly.one(R), {("L1", 1): 1})
    s = f.series(4)
    for k in range(5):
        assert s[k] == x ** k


def test_atoms_are_non_zero_divisors():
    R = _kring()
    rng = random.Random(3)
    for _ in range(10):
        coeffs = [R.reduce(R.random_series(rng)) for _ in range(rng.randrange(1, 4))]
        p = HbarPoly(R, coeffs)
        if p.is_zero():
            continue
        kind = rng.choice(["L1", "L2", "L1L2"])
        atom = HbarPoly.atom(R, kind, rng.randrange(1, 4))
        assert not (atom * p).is_zero()


def test_units_are_invertible():
    # the non-zero-divisor argument needs each atom's u to be a unit
    for fam, n, m in (("k_milnor", 3, 3), ("k_pnxpm", 3, 3)):
        R = ring(fam, n, m)
        for kind in ("L1", "L2", "L1L2"):
            u = atom_unit(R, kind)
            # build the inverse from nilpotency of 1 - u
            nil = R.one() - u
            inv = R.zero()
            power = R.one()
            for _ in range(R.classical_dim() + 1):
                inv = inv + power
                power = power * nil
            assert u * inv == R.one()


# ------------------------------------------------------------- the J-series


def test_coefficient_at_origin_is_one():
    for J in (j_milnor(3, 3, 1), j_product(3, 3, 1)):
        f = J.coeff(0, 0)
        assert f.numer == HbarPoly.one(J.context)
        assert not f.denom


def test_milnor_first_coefficients_frozen():
    J = j_milnor(3, 3, 2)
    R = J.context
    xy = R.generator("x") * R.generator("y")
    f10 = J.coeff(1, 0)
    assert f10.numer.coeffs == [R.one(), -xy]
    assert f10.denom == {("L1", 1): 3}
    f01 = J.coeff(0, 1)
    assert f01.numer.coeffs == [R.one(), -xy]
    assert f01.denom == {("L2", 1): 3}
    f11 = J.coeff(1, 1)
    assert f11.denom == {("L1", 1): 3, ("L2", 1): 3}
    assert f11.numer.degree() == 3


@pytest.mark.parametrize("d1, d2", [(2, 0), (1, 1), (0, 2), (-1, 0), (0, -1)])
def test_coefficient_outside_computed_degrees_raises(d1, d2):
    # degree 2 was never computed at max_deg 1; it is not zero there
    J = j_milnor(3, 3, 1)
    with pytest.raises(ValueError):
        J.coeff(d1, d2)
    if d1 >= 0 and d2 >= 0:
        assert not j_milnor(3, 3, 2).coeff(d1, d2).is_zero()


def test_product_coefficients_frozen():
    J = j_product(4, 3, 2)
    assert J.coeff(1, 0).numer == HbarPoly.one(J.context)
    assert J.coeff(1, 0).denom == {("L1", 1): 4}
    assert J.coeff(1, 1).denom == {("L1", 1): 4, ("L2", 1): 3}


def test_parameter_bounds():
    with pytest.raises(ValueError):
        j_milnor(3, 2, 1)
    with pytest.raises(ValueError):
        j_product(2, 3, 1)
    with pytest.raises(ValueError):
        hypersurface_operator(3, 3, 3)


# ------------------------------------------------------ operator application


def test_theta_on_constant_coefficient():
    J = j_milnor(3, 3, 1)
    R = J.context
    t2 = Polynomial.var(THETA_VARS, "t2")
    expr = DifferenceExpression().add_term(1, 0, (0, 0), t2)
    res = apply_difference(expr, J)
    # zero-degree shift: hbar^0, so the action is 1 - y
    expected = HbarPoly(R, [R.one() - R.generator("y")])
    assert res.coeff(0, 0) == HbarFraction(expected)


def test_novikov_shift():
    J = j_milnor(3, 3, 1)
    one_poly = Polynomial.const(THETA_VARS, 1)
    expr = DifferenceExpression().add_term(1, 0, (0, 1), one_poly)
    res = apply_difference(expr, J)
    assert res.coeff(0, 1) == J.coeff(0, 0)
    assert res.coeff(0, 0).is_zero()


def test_first_operator_hand_expansion_at_01():
    # (1-y*hbar)^m * c_{(0,1)} - 1 + hbar*x*y == 0
    n = m = 3
    J = j_milnor(n, m, 1)
    R = J.context
    xy = R.generator("x") * R.generator("y")
    theta_m = HbarPoly.atom(R, "L2", 1) ** m
    lhs = J.coeff(0, 1).mul_poly(theta_m)
    lhs = lhs - HbarFraction.one(R)
    lhs = lhs + HbarFraction(HbarPoly(R, [R.zero(), xy]))
    assert lhs.is_zero()


@pytest.mark.parametrize("n,m", [(3, 3), (4, 3)])
def test_theorem_operators_annihilate(n, m):
    checks = verify_theorem56(n, m, 2)
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]


def test_perturbed_operator_fails():
    n = m = 3
    t1 = Polynomial.var(THETA_VARS, "t1")
    t2 = Polynomial.var(THETA_VARS, "t2")
    one = Polynomial.const(THETA_VARS, 1)
    bad = DifferenceExpression()
    bad.add_term(1, 0, (0, 0), t2 ** (m - 1))  # exponent off by one
    bad.add_term(-1, 0, (0, 1), one)
    bad.add_term(1, 1, (0, 1), (1 - t1) * (1 - t2))
    checks = verify_theorem56(n, m, 1, operators=[bad])
    assert any(not c.passed for c in checks)


def test_product_series_needs_the_correction():
    # the uncorrected relation annihilates the ambient product series...
    n = m = 3
    J = j_product(n, m, 1)
    R = J.context
    t2 = Polynomial.var(THETA_VARS, "t2")
    one = Polynomial.const(THETA_VARS, 1)
    plain = DifferenceExpression()
    plain.add_term(1, 0, (0, 0), t2 ** m)
    plain.add_term(-1, 0, (0, 1), one)
    assert apply_difference(plain, J).is_zero()
    # ...but the full hypersurface operators do not
    checks = verify_theorem56(n, m, 1, J=J)
    assert any(not c.passed for c in checks)
    res = apply_difference(hypersurface_operator(1, n, m), J)
    xy = R.generator("x") * R.generator("y")
    assert res.coeff(0, 1) == HbarFraction(HbarPoly(R, [R.zero(), xy]))


# ------------------------------------------------------------ degree counts


def test_hbar_infinity_all_pass():
    checks = hbar_infinity_check(3, 3, 2)
    assert checks and all(c.passed for c in checks)


def test_hbar_infinity_sample_degrees():
    checks = {c.name: c for c in hbar_infinity_check(3, 3, 2)}
    c = checks["i=1 at Q^(1,0)"]
    assert c.passed and "degree 2 < denominator degree 3" in c.detail
    c = checks["i=2 at Q^(1,1)"]
    assert c.passed and "degree 4 < denominator degree 6" in c.detail


# ------------------------------------------------------------ combinatorics


def test_binomial_identity_examples():
    # n=5, t=1, b=2
    lhs = sum(binomial(5, 3 + c) * binomial(1 + c, c) * (-1) ** c for c in range(3))
    assert lhs == binomial(3, 2) == 3
    # n=8, t=0, b=5
    lhs = sum(binomial(8, 3 + c) * binomial(c, c) * (-1) ** c for c in range(6))
    assert lhs == binomial(7, 5) == 21


def test_binomial_identity_sweep():
    checks = binomial_identity_check(12)
    assert len(checks) == 1 and checks[0].passed


def test_lemma52_cofactor_frozen():
    vars_xy = None
    a, checks = lemma52_construct_and_check(3, 3)
    vars_xy = a.vars
    x = Polynomial.var(vars_xy, "x")
    assert a == x ** 2
    assert all(c.passed for c in checks)
    a43, checks43 = lemma52_construct_and_check(4, 3)
    y = Polynomial.var(vars_xy, "y")
    assert a43 == x ** 3 * (1 - y) - x ** 2
    assert all(c.passed for c in checks43)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(3, 7)
                                 for m in range(3, n + 1)])
def test_lemma52_identity_holds(n, m):
    _, checks = lemma52_construct_and_check(n, m)
    assert all(c.passed for c in checks), [c.detail for c in checks if not c.passed]


def test_lemma52_bounds():
    with pytest.raises(ValueError):
        lemma52_construct_and_check(3, 2)
