"""Every term value is an int or a Fraction, and an int on integral data.

core.exact_coeff is the one form of a coefficient: an int where the value
is integral, a Fraction where it is not, never a float.  For each term-map
type (Polynomial, NovikovSeries, AlgebraElement, HbarPoly) and each
operation on it, two things must hold:
  (a) on inputs that mix ints and Fractions, every value of every result
      is an int or a Fraction;
  (b) on integral inputs (ints, and Fractions with denominator 1) over
      catalog rings, whose rules are integral, every value is an int.
exact_coeff converts any other number exactly, so a float that reached it
would pass unseen; here it raises instead.  A divisor led by 2 or 3
reaches a Fraction through a division, which must never go through a
float (1 / lc with an int lc is one).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchar import catalog, core, groebner, jfun, quotient
from qchar.catalog import THETA_VARS, DifferenceExpression
from qchar.catalog import ring as catalog_ring
from qchar.core import NovikovSeries, Polynomial, VariableSet
from qchar.groebner import divide, divider
from qchar.jfun import (
    HbarFraction,
    HbarPoly,
    apply_difference,
    j_milnor,
    j_product,
)

XY = VariableSet(["x", "y"])
LX = VariableSet(["x"], laurent=[True])
Q12 = VariableSet(["Q1", "Q2"])

SERIES_RINGS = {
    "qh_fl(3)": lambda: catalog_ring("qh_fl", 3, trunc=2),
    "qk_milnor(3,3)": lambda: catalog_ring("qk_milnor", 3, 3, trunc=2),
    "qk_pn(2)": lambda: catalog_ring("qk_pn", 2, trunc=2),
    "k_milnor(3,3)": lambda: catalog_ring("k_milnor", 3, 3),
}
HBAR_RINGS = {
    "k_milnor(3,3)": lambda: catalog_ring("k_milnor", 3, 3),
    "k_pnxpm(3,3)": lambda: catalog_ring("k_pnxpm", 3, 3),
}

@pytest.fixture(autouse=True, scope="module")
def no_float_reaches_exact_coeff():
    exact_coeff = core.exact_coeff

    def strict(c):
        if type(c) is float:
            raise AssertionError("a float reached exact_coeff: %r" % c)
        return exact_coeff(c)

    with pytest.MonkeyPatch.context() as mp:
        for module in (core, groebner, quotient, catalog):
            mp.setattr(module, "exact_coeff", strict)
        yield


cases = settings(max_examples=30, deadline=None, derandomize=True)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def assert_values(results, integral):
    """(b) every value an int when `integral`, else (a) an int or a Fraction."""
    for x in results:
        if isinstance(x, HbarFraction):
            x = x.numer
        values = x.terms.values() if isinstance(x, Polynomial) else [x]
        for c in values:
            assert type(c) is int if integral else type(c) in (int, Fraction), (type(c), c)


def coeff(rng, integral):
    """A nonzero coefficient: an int or an integral Fraction when
    `integral`, else possibly a Fraction with denominator up to 3."""
    c = rng.choice([-3, -2, -1, 1, 2, 3])
    if integral:
        return rng.choice([c, Fraction(c)])
    return rng.choice([c, Fraction(c, rng.randrange(1, 4))])


def terms(rng, integral, width, top=3):
    return {tuple(rng.randrange(top + 1) for _ in range(width)): coeff(rng, integral)
            for _ in range(rng.randrange(1, 6))}


def arithmetic(a, b, k):
    """The operations every term-map type shares."""
    return [a + b, a - b, -a, a * b, b * a, a.scale(k), k * a, a * k, a + k, k - a,
            a ** 0, a ** 3, a.scale(0)]


@cases
@given(integral=st.booleans(), seed=seeds)
def test_polynomial_values(integral, seed):
    rng = random.Random(seed)
    a, b = (Polynomial(XY, terms(rng, integral, 2)) for _ in range(2))
    k = coeff(rng, integral)
    x, y = Polynomial.var(XY, "x"), Polynomial.var(XY, "y")
    results = arithmetic(a, b, k) + [a.truncate(2), a.mul_mono((1, 2)),
                                     a.substitute({"x": b, "y": 1 - x * y}),
                                     a.substitute({"x": x, "y": k})]
    # a divisor led by +-1 keeps integral data integral; by 2 or 3 it does not
    lead = rng.choice([1, -1] if integral else [2, 3])
    d = lead * x ** 4 + Polynomial(XY, terms(rng, integral, 2, top=1))
    by_d = divider(d)
    for p in (a, b, a * b):
        quotient, remainder = by_d(p)
        assert quotient * d + remainder == p
        results += [quotient, remainder, *divide(p, d)]
    lx = Polynomial.var(LX, "x")
    results += [(lx.scale(lead) * lx) ** -2, lx ** -3 * lx.scale(k)]
    assert_values(results, integral)


@cases
@given(integral=st.booleans(), trunc=st.integers(0, 3), seed=seeds)
def test_series_values(integral, trunc, seed):
    rng = random.Random(seed)
    a, b = (NovikovSeries(XY, Q12, trunc, terms(rng, integral, 4)) for _ in range(2))
    k = coeff(rng, integral)
    p = Polynomial(XY, terms(rng, integral, 2))
    results = arithmetic(a, b, k) + [a * p, p * a, a + p, a.truncate(max(trunc - 1, 0)),
                                     a.classical_part()]
    assert_values(results, integral)


@cases
@given(name=st.sampled_from(sorted(SERIES_RINGS)), integral=st.booleans(), seed=seeds)
def test_element_values(name, integral, seed):
    R = SERIES_RINGS[name]()
    rng = random.Random(seed)
    width = len(R.gens) + len(R.q_vars)
    s, t = (NovikovSeries(R.gens, R.q_vars, R.trunc, terms(rng, integral, width))
            for _ in range(2))
    a, b = R.reduce(s), R.reduce(t, strategy="alternate")
    assert R.reduce(s, strategy="alternate") == a
    k = coeff(rng, integral)
    results = arithmetic(a, b, k) + [a * s, s * a, a.truncate(max(R.trunc - 1, 0)),
                                     R.one(), R.constant(k), R.generator(R.gens.names[0]),
                                     *(R.basis_element(i) for i in range(R.classical_dim()))]
    results += [p for row in R.mult_matrix(a) for p in row]
    results += [c for coords in R.structure_constants().values()
                for qp in coords.values() for c in qp.values()]
    results += [c for qp in (a * b).coords.values() for c in qp.values()]
    assert_values(results, integral)


def hbar_poly(R, rng, integral):
    width = len(R.gens)
    return HbarPoly(R, {m + (h,): c for h in range(rng.randrange(1, 3))
                        for m, c in R.reduce(Polynomial(R.gens, terms(rng, integral, width)))
                        .terms.items()})


@cases
@given(name=st.sampled_from(sorted(HBAR_RINGS)), integral=st.booleans(), seed=seeds)
def test_hbar_values(name, integral, seed):
    R = HBAR_RINGS[name]()
    rng = random.Random(seed)
    p, r = hbar_poly(R, rng, integral), hbar_poly(R, rng, integral)
    k = coeff(rng, integral)
    results = arithmetic(p, r, k) + [p.shift(2), p.coeff(1), p.truncate(2),
                                     HbarPoly.atom(R, "L1", 2), HbarPoly.const(R, k)]
    # the HbarFraction sum brings both numerators over the union of the atoms
    f = HbarFraction(p, {("L1", 1): 1, ("L2", 2): 1})
    g = HbarFraction(r, {("L2", 1): 2, ("L2", 2): 1})
    results += [f + g, f - g, f * g, f.scale(k), f + k, *(f + g).series(3)]
    assert_values(results, integral)


def test_hbar_product_caps_its_pairs_with_an_int(monkeypatch):
    # the largest hbar degrees of the factors add up to a cap that cuts no pair
    caps, sums = [], quotient._monomial_sums
    monkeypatch.setattr(jfun, "_monomial_sums",
                        lambda left, right, cap: caps.append(cap) or sums(left, right, cap))
    R = HBAR_RINGS["k_milnor(3,3)"]()
    p, r = hbar_poly(R, random.Random(3), True), HbarPoly.atom(R, "L1", 2)
    assert (p * r).terms and (p * HbarPoly(R, {})).is_zero()
    assert caps == [max(m[-1] for m in p.terms) + 2, max(m[-1] for m in p.terms)]
    assert all(type(cap) is int for cap in caps)


@cases
@given(integral=st.booleans(), milnor=st.booleans(), seed=seeds)
def test_apply_difference_values(integral, milnor, seed):
    # a random operator: the paper's two annihilate J, which would leave no terms
    rng = random.Random(seed)
    J = j_milnor(3, 3, 2) if milnor else j_product(3, 3, 2)
    expr = DifferenceExpression()
    for _ in range(rng.randrange(1, 4)):
        expr.add_term(coeff(rng, integral), rng.randrange(2),
                      (rng.randrange(2), rng.randrange(2)),
                      Polynomial(THETA_VARS, terms(rng, integral, 2, top=2)))
    assert_values([t.coeff for t in expr.terms], integral)
    out = apply_difference(expr, J)
    assert not out.is_zero()
    assert_values(out.coeffs.values(), integral)
