"""Basis construction, cofactor identity, zero-dimensionality, step caps."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qchar.core import Polynomial, VariableSet
from qchar.mirror import jacobi_context, jacobi_relations, laurent_vars
from qchar.groebner import (
    StepCapExceeded,
    divide,
    groebner,
    is_zero_dimensional,
    normal_form,
    standard_monomials,
)

H = VariableSet(["h1", "h2"])
XY = VariableSet(["x", "y"])


def gens2(vars):
    return Polynomial.var(vars, vars.names[0]), Polynomial.var(vars, vars.names[1])


def test_divide_leaves_the_normal_form_as_remainder():
    x, y = gens2(XY)
    p = x ** 3 + 2 * x * y + 5
    d = 3 * x - y
    quot, rem = divide(p, d)
    assert quot * d + rem == p
    # the leading monomial x divides no term of the remainder
    assert rem == Polynomial.const(XY, 5) + Fraction(1, 27) * y ** 3 + Fraction(2, 3) * y ** 2
    with pytest.raises(ZeroDivisionError):
        divide(x, Polynomial.zero(XY))


def test_divide_an_exact_multiple_leaves_no_remainder():
    x, y = gens2(XY)
    assert divide(x ** 2 - y ** 2, x - y) == (x + y, Polynomial.zero(XY))
    assert not divide(x ** 2 + 1, x - y)[1].is_zero()


def test_single_relation_is_its_own_basis():
    x, _ = gens2(XY)
    g = groebner([(1 - x) ** 3])
    # monic rescale of 1 - 3x + 3x^2 - x^3
    assert g.basis == [x ** 3 - 3 * x ** 2 + 3 * x - 1]
    assert g.cofactors[0][0] == Polynomial.const(XY, -1)


def test_flag_variety_classical_parts_already_reduced():
    h1, h2 = gens2(H)
    f1 = h2 ** 3
    f2 = h1 ** 2 - h1 * h2 + h2 ** 2
    g = groebner([f1, f2])
    # coprime leading monomials h2^3 and h1^2: the pair reduces to zero,
    # so the two inputs form the reduced basis (ascending order)
    assert g.basis == [f2, f1]
    assert is_zero_dimensional(g)
    monos = standard_monomials(g)
    assert monos == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (1, 2)]
    assert len(monos) == 6


def test_cofactor_identity_recomputed_independently():
    x, y = gens2(XY)
    rels = [x ** 2 + y ** 2 - 1, x * y - 1]
    g = groebner(rels)
    for gi, row in zip(g.basis, g.cofactors):
        acc = Polynomial.zero(XY)
        for u, r in zip(row, rels):
            acc = acc + u * r
        assert acc == gi


def test_unit_ideal():
    x, _ = gens2(XY)
    g = groebner([x, x - 1])
    assert g.basis == [Polynomial.const(XY, 1)]
    assert is_zero_dimensional(g)
    assert standard_monomials(g) == []


def test_pure_power_ideal_box_basis():
    x, y = gens2(XY)
    g = groebner([x ** 2, y ** 3])
    assert is_zero_dimensional(g)
    assert len(standard_monomials(g)) == 6


def test_positive_dimensional_ideal_detected():
    x, y = gens2(XY)
    g = groebner([x * y])
    assert not is_zero_dimensional(g)
    with pytest.raises(ValueError):
        standard_monomials(g)


def test_normal_form_of_generators_vanishes():
    x, y = gens2(XY)
    rels = [x ** 2 + y ** 2 - 1, x * y - 1]
    g = groebner(rels)
    for r in rels:
        assert normal_form(r, g).is_zero()
    assert normal_form((x + y) * rels[0] - 3 * rels[1], g).is_zero()


def test_normal_form_idempotent():
    x, y = gens2(XY)
    g = groebner([x ** 2 - y, y ** 2 - 1])
    p = x ** 5 + x * y + 1
    nf = normal_form(p, g)
    assert normal_form(nf, g) == nf


def test_lead_rows_built_once_per_basis():
    x, y = gens2(XY)
    g = groebner([x ** 2 - y, y ** 2 - 1])
    rows = g.lead_rows
    assert normal_form(x ** 5 + x * y, g) == x * y + x
    assert g.lead_rows is rows
    assert [(lm, dict(terms)) for lm, terms, *_ in rows] == \
        [(b.leading()[0], b.terms) for b in g.basis]


def test_step_cap_raises():
    x, y = gens2(XY)
    with pytest.raises(StepCapExceeded):
        groebner([x ** 4 - y, y ** 4 - x, x * y - 1], step_cap=2)


def test_basis_elements_are_monic_and_tail_reduced():
    x, y = gens2(XY)
    g = groebner([2 * x ** 2 - 2 * y, 3 * y ** 2 - 3])
    for gi in g.basis:
        assert gi.leading()[1] == 1
        lm_set = g.leading_monomials()
        for mono in gi.terms:
            if mono == gi.leading()[0]:
                continue
            assert not any(
                all(a <= b for a, b in zip(lm, mono)) for lm in lm_set
            )


small_fractions = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3)


@st.composite
def small_polys(draw):
    n = draw(st.integers(1, 3))
    terms = {}
    for _ in range(n):
        mono = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        terms[mono] = draw(small_fractions)
    return Polynomial(XY, terms)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(small_polys(), min_size=1, max_size=2), small_polys(), small_polys())
def test_random_ideal_combinations_reduce_to_zero(rels, p1, p2):
    rels = [r for r in rels if not r.is_zero()]
    if not rels:
        return
    g = groebner(rels, step_cap=200_000)
    combo = p1 * rels[0] + p2 * rels[-1]
    assert normal_form(combo, g).is_zero()
    nf = normal_form(p1, g)
    assert normal_form(nf, g) == nf


LXY = VariableSet(["x", "y"], laurent=[True, True])


def test_groebner_refuses_laurent_input():
    x, y = Polynomial.var(LXY, "x"), Polynomial.var(LXY, "y")
    # in the Laurent ring this ideal is (x - 1, y - 1); read as a
    # polynomial ideal it used to give the basis ['1 - x^-1*y']
    with pytest.raises(ValueError, match="negative exponent"):
        groebner([x ** -1 * y - 1, y ** 2 - x])


def test_divide_and_normal_form_refuse_laurent_input():
    x, y = Polynomial.var(LXY, "x"), Polynomial.var(LXY, "y")
    g = groebner([x * y - 1, y ** 2 - x])  # nonnegative exponents are accepted
    assert normal_form(x * y, g) == Polynomial.const(LXY, 1)
    with pytest.raises(ValueError, match="negative exponent"):
        normal_form(x ** -1, g)
    with pytest.raises(ValueError, match="negative exponent"):
        divide(x ** -1 * y, y)
    with pytest.raises(ValueError, match="negative exponent"):
        divide(x, x * y ** -2 + 1)


def test_membership_context_clears_denominators_first():
    # mirror's Laurent elements reach normal_form only through the
    # denominator-clearing embedding, over a non-Laurent variable set
    ctx = jacobi_context(3)
    assert not any(ctx.vars.laurent)
    q1 = Polynomial.var(laurent_vars(3), "q1")
    rel = jacobi_relations(3)[0]  # x1 - x1^-1*x2 - x1^-1*q2
    assert min(min(m) for m in rel.terms) < 0
    assert ctx.contains(rel * q1 ** -1)[0]
    assert not ctx.contains(q1 ** -1)[0]


def test_ideal_routines_refuse_operands_over_other_variables():
    x, y = gens2(XY)
    yx = VariableSet(["y", "x"])
    y_, x_ = gens2(yx)
    # these used to read exponent vectors by position: x^2 / y gave
    # quotient x and remainder 0, and x^2 modulo (y^2 - 1) gave 1
    with pytest.raises(ValueError, match="different variable sets"):
        divide(x ** 2, y_)
    with pytest.raises(ValueError, match="different variable sets"):
        normal_form(x ** 2, groebner([y_ ** 2 - 1]))
    with pytest.raises(ValueError, match="different variable sets"):
        groebner([x ** 2, y_ - x_])
    with pytest.raises(ValueError, match="different variable sets"):
        normal_form(Polynomial.var(VariableSet(["x", "y", "z"]), "z"), groebner([x - y]))
