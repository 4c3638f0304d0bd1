"""Series coefficients, fraction arithmetic, and difference operators."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchar.catalog import THETA_VARS, DifferenceExpression, hypersurface_operator, ring
from qchar.core import NovikovSeries, Polynomial, VariableSet, binomial, evaluate
from qchar.jfun import (
    _atoms_product,
    _Substitution,
    HbarFraction,
    HbarPoly,
    JSeries,
    apply_difference,
    atom_unit,
    binomial_identity_check,
    hbar_infinity_check,
    j_milnor,
    j_product,
    lemma52_construct_and_check,
    verify_theorem56,
)

from qchar.quotient import Presentation, PresentedAlgebra

F = Fraction


def _kring():
    return ring("k_milnor", 3, 3)


def _hbar_poly(R, coeffs):
    """sum_k coeffs[k]*hbar^k for a list of ring elements."""
    return sum((HbarPoly.lift(c, k) for k, c in enumerate(coeffs)), HbarPoly(R, {}))


def _random_fraction(R, rng):
    deg = rng.randrange(0, 3)
    coeffs = [R.reduce(R.random_series(rng)) for _ in range(deg + 1)]
    denom = {}
    for _ in range(rng.randrange(0, 3)):
        kind = rng.choice(["L1", "L2", "L1L2"])
        level = rng.randrange(1, 3)
        denom[(kind, level)] = denom.get((kind, level), 0) + 1
    return HbarFraction(_hbar_poly(R, coeffs), denom)


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
        assert HbarPoly.atom(R, kind, 0) == _hbar_poly(R, [R.one() - u])
        assert HbarPoly.atom(R, kind, 2) == _hbar_poly(R, [R.one(), R.zero(), -u])


def test_shift_below_hbar_zero_raises():
    R = _kring()
    with pytest.raises(ValueError):
        HbarPoly.one(R).shift(-1)
    assert _hbar_poly(R, [R.zero(), R.one()]).shift(-1) == HbarPoly.one(R)
    # a difference term with a negative hbar power is refused when added
    with pytest.raises(ValueError, match="hbar power"):
        DifferenceExpression().add_term(1, -1, (0, 0),
                                        Polynomial.const(THETA_VARS, 1))


def _uv_ring():
    uv, none = VariableSet(["u", "v"]), VariableSet([])
    u, v = (NovikovSeries.gen(uv, none, 0, g) for g in ("u", "v"))
    return PresentedAlgebra(Presentation("test-uv", uv, none,
                                         [("ru", u ** 2), ("rv", v ** 2)]), 0)


def test_difference_needs_the_xy_generators():
    # x and y are read as generators named x and y, as atom_unit reads them,
    # so a q-free ring over other generators is refused, not misread
    R = _uv_ring()
    J = JSeries(R, 0, {(0, 0): HbarFraction.one(R)})
    with pytest.raises(ValueError, match="polynomial over wrong variable set"):
        apply_difference(hypersurface_operator(1, 3, 3), J)


def test_difference_refuses_other_generators_with_nothing_to_reduce():
    # the generators are checked before any normal form is taken, so a
    # series whose sums would all vanish is refused too
    R = _uv_ring()
    J = JSeries(R, 1, {(0, 0): HbarFraction.zero(R), (1, 0): HbarFraction.zero(R)})
    with pytest.raises(ValueError, match="polynomial over wrong variable set"):
        apply_difference(hypersurface_operator(1, 3, 3), J)


@pytest.mark.parametrize("level", [-1, -2])
def test_atom_at_negative_level_raises(level):
    with pytest.raises(ValueError):
        HbarPoly.atom(_kring(), "L1", level)


def test_hbar_poly_generic_constructors_and_repr():
    # const and var take the ring where Polynomial's take a variable set
    R = _kring()
    x = R.generator("x")
    assert HbarPoly.const(R, 3) == _hbar_poly(R, [R.constant(3)])
    zero = HbarPoly.zero(R)
    assert type(zero) is HbarPoly and zero.ring is R and zero.is_zero()
    assert zero == _hbar_poly(R, [])
    assert HbarPoly.var(R, "x") == _hbar_poly(R, [x])
    assert HbarPoly.var(R, "x", 2) == _hbar_poly(R, [x * x])
    assert HbarPoly.var(R, "hbar", 2) == _hbar_poly(R, [R.zero(), R.zero(), R.one()])
    assert repr(HbarPoly.atom(R, "L1", 1)) == "HbarPoly((1) + (-x)*hbar)"


def test_scalars_multiply_on_either_side():
    R = _kring()
    p = HbarPoly.atom(R, "L1", 1)
    f = HbarFraction(p, {("L2", 1): 1})
    for c in (2, F(1, 2)):
        assert p * c == c * p == p.scale(c)
        assert (f * c).render() == (c * f).render() == f.scale(c).render()
        assert (f * c).denom == f.denom
    for x in (p, f):
        with pytest.raises(TypeError):
            x * "a"
        with pytest.raises(TypeError):
            x * 1.5


def test_scalars_add_and_compare_on_either_side():
    R = _kring()
    p = HbarPoly.atom(R, "L1", 1)  # 1 - x*hbar
    f, g = HbarFraction(p), HbarFraction(p, {("L2", 1): 1})
    x_hbar = HbarPoly.lift(R.generator("x"), 1)
    assert p + 1 == 1 + p == HbarPoly.const(R, 2) - x_hbar
    assert p - 1 == -x_hbar and 1 - p == x_hbar
    assert p + F(1, 2) == HbarPoly.const(R, F(3, 2)) - x_hbar
    assert (f + 1).render() == (1 + f).render() == HbarFraction(p + 1).render()
    assert f - 1 == HbarFraction(-x_hbar) and 1 - f == HbarFraction(x_hbar)
    assert g + 1 == 1 + g == HbarFraction(p + HbarPoly.atom(R, "L2", 1), g.denom)
    assert R.one() == 1 and HbarPoly.one(R) == 1 and HbarFraction(HbarPoly.one(R)) == 1
    assert HbarPoly.one(R) != 2 and g != 1 and HbarFraction(x_hbar) != 0
    for x in (p, f):
        for other in ("a", 1.5):
            with pytest.raises(TypeError):
                x + other
            with pytest.raises(TypeError):
                other - x
        assert x != "a"


def test_hbar_poly_constructor_keeps_its_checks():
    # sums and products skip the term checks; the constructor and shift do not
    R = _kring()  # keys: the exponents of x and y, then of hbar
    with pytest.raises(ValueError, match="wrong length"):
        HbarPoly(R, {(0, 0): 1})
    with pytest.raises(ValueError, match="hbar"):
        HbarPoly(R, {(0, 0, -1): 1})
    with pytest.raises(ValueError, match="hbar"):
        (HbarPoly.atom(R, "L1", 1) * HbarPoly.atom(R, "L2", 2)).shift(-1)


def test_ring_with_novikov_variables_rejected():
    # the product caps no q-degree, so a quantum ring is refused up front
    with pytest.raises(ValueError, match="Novikov"):
        HbarPoly.one(ring("qk_milnor", 3, 3, trunc=1))


# A frozen copy of the dense coefficient-list HbarPoly: coefficient k is
# a ring element, the list carries no trailing zeros, and the product
# makes one ring product per pair of coefficients.

def _dense_strip(coeffs):
    while coeffs and coeffs[-1].is_zero():
        coeffs = coeffs[:-1]
    return coeffs


def _dense_add(R, a, b):
    n = max(len(a), len(b))
    return _dense_strip([(a[k] if k < len(a) else R.zero())
                         + (b[k] if k < len(b) else R.zero()) for k in range(n)])


def _dense_mul(R, a, b):
    if not a or not b:
        return []
    out = [R.zero() for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return _dense_strip(out)


def _dense_render(coeffs):
    if not coeffs:
        return "0"
    parts = []
    for k, c in enumerate(coeffs):
        if c.is_zero():
            continue
        if k == 0:
            parts.append("(%s)" % c.render())
        elif k == 1:
            parts.append("(%s)*hbar" % c.render())
        else:
            parts.append("(%s)*hbar^%d" % (c.render(), k))
    return " + ".join(parts)


def _as_dense(p):
    top = p.degree()
    return [] if top is None else [p.coeff(k) for k in range(top + 1)]


# coefficient k of a drawn operand: sum of c * x^i * y^j over its {(i, j): c}
_DENSE_SPEC = st.lists(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                       st.integers(-3, 3), max_size=3), max_size=4)


def _dense_operand(R, spec):
    x, y = R.generator("x"), R.generator("y")
    return _dense_strip([sum(((x ** i * y ** j).scale(c) for (i, j), c in d.items()),
                             R.zero()) for d in spec])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(which=st.sampled_from([("k_milnor", 3, 3), ("k_pnxpm", 3, 3)]),
       left=_DENSE_SPEC, right=_DENSE_SPEC)
def test_product_sum_and_render_match_dense_lists(which, left, right):
    R = ring(*which)
    a, b = _dense_operand(R, left), _dense_operand(R, right)
    pa, pb = _hbar_poly(R, a), _hbar_poly(R, b)
    assert _as_dense(pa) == a and pa.render() == _dense_render(a)
    for got, want in ((pa * pb, _dense_mul(R, a, b)), (pa + pb, _dense_add(R, a, b))):
        assert _as_dense(got) == want
        assert got.render() == _dense_render(want)


def test_fraction_add_sub_roundtrip():
    R = _kring()
    rng = random.Random(11)
    for _ in range(8):
        a = _random_fraction(R, rng)
        b = _random_fraction(R, rng)
        assert ((a + b) - b) == a
        assert (a * b) == (b * a)


def test_adding_to_zero_expands_no_atoms(monkeypatch):
    # a zero operand keeps the sum's denominator but multiplies out nothing,
    # and neither does an operand already over the common denominator
    import qchar.jfun
    R = _kring()
    f = HbarFraction(HbarPoly.atom(R, "L1", 1), {("L2", 1): 2, ("L1L2", 2): 1})
    expanded = []
    original = qchar.jfun._atoms_product

    def recording(ring_, atoms):
        expanded.append(dict(atoms))
        return original(ring_, atoms)

    monkeypatch.setattr(qchar.jfun, "_atoms_product", recording)
    for total, numer in ((HbarFraction.zero(R) + f, f.numer),
                         (f + HbarFraction.zero(R), f.numer),
                         (f + f, 2 * f.numer)):
        assert not expanded
        assert total.denom == f.denom and total.numer == numer


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


def test_series_refuses_a_negative_order():
    # an empty expansion would make an equality check through it vacuous
    R = _kring()
    f = HbarFraction(HbarPoly.one(R), {("L1", 1): 1})
    with pytest.raises(ValueError, match="order must be nonnegative"):
        f.series(-1)
    assert f.series(0) == [R.one()]


def test_atoms_are_non_zero_divisors():
    R = _kring()
    rng = random.Random(3)
    for _ in range(10):
        coeffs = [R.reduce(R.random_series(rng)) for _ in range(rng.randrange(1, 4))]
        p = _hbar_poly(R, coeffs)
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
    assert f10.numer == _hbar_poly(R, [R.one(), -xy])
    assert f10.denom == {("L1", 1): 3}
    f01 = J.coeff(0, 1)
    assert f01.numer == _hbar_poly(R, [R.one(), -xy])
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
    expected = _hbar_poly(R, [R.one() - R.generator("y")])
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
    lhs = J.coeff(0, 1) * HbarFraction(theta_m)
    lhs = lhs - HbarFraction.one(R)
    lhs = lhs + HbarFraction(_hbar_poly(R, [R.zero(), xy]))
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
    assert res.coeff(0, 1) == HbarFraction(_hbar_poly(R, [R.zero(), xy]))


# ------------------------------------- the substituted route against the old


def _frozen_apply_difference(expr, J):
    # the route before the s-substitution: each theta multiplier evaluated
    # by HbarPoly products, each piece added by a chained HbarFraction sum
    R = J.context
    out = {}
    for t in range(J.max_deg + 1):
        for d1 in range(t + 1):
            d2 = t - d1
            acc = HbarFraction.zero(R)
            for term in expr.terms:
                p1, p2 = d1 - term.q_shift[0], d2 - term.q_shift[1]
                if p1 < 0 or p2 < 0:
                    continue
                src = J.coeffs.get((p1, p2))
                if src is None or src.is_zero():
                    continue
                values = {"t1": HbarPoly.atom(R, "L1", p1),
                          "t2": HbarPoly.atom(R, "L2", p2)}
                mult = evaluate(term.theta_poly.terms, THETA_VARS.names, values,
                                HbarPoly.one(R))
                acc = acc + (src * HbarFraction(mult.shift(term.hbar_power))).scale(term.coeff)
            out[(d1, d2)] = acc
    return out


def _perturbed_operators(m):
    t1 = Polynomial.var(THETA_VARS, "t1")
    t2 = Polynomial.var(THETA_VARS, "t2")
    one = Polynomial.const(THETA_VARS, 1)
    off = DifferenceExpression()
    off.add_term(1, 0, (0, 0), t2 ** (m - 1))  # exponent off by one
    off.add_term(-1, 0, (0, 1), one)
    off.add_term(1, 1, (0, 1), (1 - t1) * (1 - t2))
    # a diagonal shift needs atoms of both kinds; a zero coefficient still
    # widens the denominator, as it does in a chain of sums
    mixed = DifferenceExpression()
    mixed.add_term(F(2, 3), 2, (1, 1), t1 * t2 - 3 * t1 ** 2)
    mixed.add_term(-1, 0, (0, 2), t2 ** 2)
    mixed.add_term(1, 1, (1, 0), 1 - t2)
    mixed.add_term(0, 0, (2, 0), one)
    return [off, mixed]


def _assert_same_series(got, want):
    assert got.degrees() == sorted(want)
    for d, f in want.items():
        g = got.coeffs[d]
        assert g.numer == f.numer, d
        assert g.denom == f.denom, d
        assert g.render() == f.render(), d


@pytest.mark.parametrize("n,m,max_deg", [(3, 3, 2), (4, 3, 2), (4, 4, 3), (5, 5, 2)])
def test_operators_match_the_chained_sum_route(n, m, max_deg):
    J = j_milnor(n, m, max_deg)
    for op in (hypersurface_operator(1, n, m), hypersurface_operator(2, n, m)):
        _assert_same_series(apply_difference(op, J), _frozen_apply_difference(op, J))


@pytest.mark.parametrize("n,m,max_deg", [(3, 3, 2), (4, 3, 3), (4, 4, 3), (5, 5, 2)])
def test_perturbed_and_product_residuals_match_the_chained_sum_route(n, m, max_deg):
    ops = [hypersurface_operator(1, n, m), hypersurface_operator(2, n, m)]
    for J, exprs in ((j_milnor(n, m, max_deg), _perturbed_operators(m)),
                     (j_product(n, m, max_deg), ops + _perturbed_operators(m))):
        for op in exprs:
            got = apply_difference(op, J)
            _assert_same_series(got, _frozen_apply_difference(op, J))
            assert not got.is_zero()


@pytest.mark.parametrize("n,m", [(3, 3), (4, 4), (5, 3)])
def test_milnor_numerators_match_the_per_degree_product(n, m):
    J = j_milnor(n, m, 4)
    R = J.context
    for (d1, d2), f in J.coeffs.items():
        want = _atoms_product(R, {("L1L2", l): 1 for l in range(1, d1 + d2 + 1)})
        assert f.numer == want


def test_theorem56_product_count(monkeypatch):
    # one product per j_milnor numerator; apply_difference sums over x, y
    # and hbar and reduces once per (operator, output degree)
    calls, reductions = [], []
    real_mul = HbarPoly.__mul__
    real_sub = _Substitution.__call__

    def spy(self, other):
        calls.append(1)
        return real_mul(self, other)

    def sub_spy(self, p):
        reductions.append(1)
        return real_sub(self, p)

    monkeypatch.setattr(HbarPoly, "__mul__", spy)
    monkeypatch.setattr(_Substitution, "__call__", sub_spy)
    checks = verify_theorem56(4, 4, 4)
    assert all(c.passed for c in checks)
    assert len(calls) == 4
    assert len(reductions) == 30


def test_difference_refuses_a_coefficient_over_another_ring():
    # the sum over x, y and hbar would read a numerator over k_pnxpm as one
    # over k_milnor, so such a coefficient is refused, not reduced
    J = j_milnor(3, 3, 2)
    coeffs = dict(J.coeffs)
    coeffs[(0, 1)] = j_product(3, 3, 2).coeffs[(0, 1)]
    mixed = JSeries(J.context, J.max_deg, coeffs)
    for idx in (1, 2):
        with pytest.raises(ValueError, match=r"Q\^\(0,1\) is over 'k_pnxpm"):
            apply_difference(hypersurface_operator(idx, 3, 3), mixed)


def test_difference_reads_normal_forms_from_the_ring_table(monkeypatch):
    # each x^a*y^b is reduced into the ring's product table on first use,
    # so applying an operator again reduces nothing
    import qchar.quotient
    J = j_milnor(4, 4, 3)
    op = hypersurface_operator(2, 4, 4)
    first = apply_difference(op, J)
    calls = []
    real_reduce = qchar.quotient._reduce

    def spy(*args, **kwargs):
        calls.append(1)
        return real_reduce(*args, **kwargs)

    monkeypatch.setattr(qchar.quotient, "_reduce", spy)
    _assert_same_series(apply_difference(op, J), first.coeffs)
    assert calls == []


# ------------------------------------------------------ malformed operators


@pytest.mark.parametrize("names", [["t2", "t1"], ["a"], ["t1", "t2", "t3"]])
def test_theta_polynomial_over_other_variables_raises(names):
    # slot k is read as t_k, so t1 over ["t2", "t1"] would act as the L2 atom
    theta = Polynomial.var(VariableSet(names), names[0])
    with pytest.raises(ValueError) as err:
        DifferenceExpression().add_term(1, 0, (0, 0), theta)
    assert str(err.value) == "theta polynomial must be over %r, got %r" % (THETA_VARS, theta.vars)


@pytest.mark.parametrize("shift", [(-1, 0), (0, -2), (F(1, 2), 0), (1.0, 0), (1,), (0, 0, 0)])
def test_bad_novikov_shift_raises(shift):
    # a negative shift would read coefficients above max_deg as zero
    with pytest.raises(ValueError) as err:
        DifferenceExpression().add_term(1, 0, shift, Polynomial.const(THETA_VARS, 1))
    assert str(err.value) == "Novikov shift must be two ints >= 0, got %r" % (shift,)


@pytest.mark.parametrize("power", [-1, F(1, 2), 1.0])
def test_bad_hbar_power_raises(power):
    with pytest.raises(ValueError) as err:
        DifferenceExpression().add_term(1, power, (0, 0), Polynomial.const(THETA_VARS, 1))
    assert str(err.value) == "hbar power must be an int >= 0, got %r" % (power,)


def test_each_difference_expression_has_its_own_terms():
    a, b = DifferenceExpression(), DifferenceExpression()
    a.add_term(1, 0, (0, 0), Polynomial.const(THETA_VARS, 1))
    assert len(a.terms) == 1
    assert b.terms == [] and DifferenceExpression().terms == []
    assert a.terms is not b.terms


def test_negative_atom_multiplicity_raises():
    R = _kring()
    p = HbarPoly.atom(R, "L1", 1)
    with pytest.raises(ValueError, match="negative atom multiplicity"):
        HbarFraction(p, {("L1", 1): -2})
    with pytest.raises(ValueError, match="negative atom multiplicity"):
        HbarFraction(p, {("L2", 1): 1, ("L1", 2): -1})
    # a zero multiplicity still drops out
    f = HbarFraction(p, {("L1", 1): 0, ("L2", 2): 1})
    assert f.denom == {("L2", 2): 1}


def test_denominator_atom_below_level_one_raises():
    # 1 - x*hbar^-1 is no polynomial, and its series came out all zero
    R = _kring()
    with pytest.raises(ValueError, match=r"atom \('L1', -1\) .* at least 1"):
        HbarFraction(HbarPoly.one(R), {("L1", -1): 1})


def test_denominator_atom_at_level_zero_raises():
    # 1 - x is a zero divisor in k_milnor(3,3), where (1 - x)^3 = 0: a zero
    # numerator would not make the fraction zero, and its series divided by zero
    R = _kring()
    one_minus_x = R.one() - atom_unit(R, "L1")
    assert not one_minus_x.is_zero() and (one_minus_x ** 3).is_zero()
    with pytest.raises(ValueError, match=r"atom \('L1', 0\) .* at least 1"):
        HbarFraction(HbarPoly.one(R), {("L1", 0): 1})


def test_denominator_atom_of_unknown_kind_raises():
    R = _kring()
    with pytest.raises(ValueError, match=r"atom \('L3', 1\) .* unknown kind"):
        HbarFraction(HbarPoly.one(R), {("L3", 1): 1})
    with pytest.raises(ValueError, match="unknown atom kind 'L3'"):
        atom_unit(R, "L3")
    with pytest.raises(ValueError, match="unknown atom kind 'L3'"):
        HbarPoly.atom(R, "L3", 1)


def test_denominator_atom_at_a_fractional_level_raises():
    # it rendered as hbar^1
    R = _kring()
    with pytest.raises(ValueError, match=r"atom \('L1', 1.5\) .* an int"):
        HbarFraction(HbarPoly.one(R), {("L1", 1.5): 1})


def test_denominator_atom_with_a_fractional_multiplicity_raises():
    R = _kring()
    with pytest.raises(ValueError, match=r"atom \('L2', 1\) .* multiplicity 1/2 is not an int"):
        HbarFraction(HbarPoly.one(R), {("L2", 1): F(1, 2)})


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


def frozen_shifted_degree(f, R, i, di):
    """The degree as hbar_infinity_check once read it: from the product
    of the numerator with u_i*hbar^{d_i}."""
    return (f.numer * HbarPoly.lift(atom_unit(R, "L%d" % i), di)).degree()


@pytest.mark.parametrize("n,m,max_deg", [(3, 3, 4), (4, 3, 4), (5, 5, 4),
                                         (6, 4, 3), (5, 3, 5)])
def test_hbar_infinity_degree_matches_the_product(n, m, max_deg):
    J = j_milnor(n, m, max_deg)
    checks = {c.name: c for c in hbar_infinity_check(n, m, max_deg)}
    assert len(checks) == 2 * (len(J.coeffs) - 1)  # all but degree (0, 0)
    for (d1, d2), f in J.coeffs.items():
        if (d1, d2) == (0, 0):
            continue
        for i, di in ((1, d1), (2, d2)):
            degree = frozen_shifted_degree(f, J.context, i, di)
            detail = checks["i=%d at Q^(%d,%d)" % (i, d1, d2)].detail
            assert detail.startswith("numerator degree %s" % degree)


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


def test_lemma52_y_degree_details(monkeypatch):
    import qchar.jfun
    *_, bound = lemma52_construct_and_check(8, 3)[1]
    assert (bound.name, bound.passed, bound.detail) == ("y-degree bound", True, "deg_y = 8 <= n")
    monkeypatch.setattr(qchar.jfun, "_y_degree", lambda p: 9)
    *_, bound = lemma52_construct_and_check(8, 3)[1]
    assert (bound.name, bound.passed, bound.detail) == ("y-degree bound", False,
                                                        "deg_y = 9 > n = 8")


def test_lemma52_bounds():
    with pytest.raises(ValueError):
        lemma52_construct_and_check(3, 2)
