"""Core arithmetic: exact polynomials, Laurent support, truncated series.

Expected values below are frozen from hand expansion, never from the
code under test.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qchar.catalog import ring
from qchar.core import (
    NovikovSeries,
    Polynomial,
    VariableSet,
    _render_terms,
    binomial,
    evaluate,
    grevlex_key,
)

XY = VariableSet(["x", "y"])
LX = VariableSet(["x"], laurent=[True])


def P(vars, name):
    return Polynomial.var(vars, name)


def test_binomial_small_table():
    # C(5, 2) = 10, C(4, 0) = 1, C(0, 0) = 1
    assert binomial(5, 2) == 10
    assert binomial(4, 0) == 1
    assert binomial(0, 0) == 1
    assert all(type(binomial(4, k)) is int for k in range(-1, 6))


def test_binomial_out_of_range_is_zero():
    assert binomial(3, -1) == 0
    assert binomial(3, 4) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_pascal_rule():
    for n in range(1, 31):
        for k in range(0, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_grevlex_order_three_variables():
    # Degree-2 monomials in x > y > z, ascending:
    # z^2 < yz < xz < y^2 < xy < x^2
    monos = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    ordered = sorted(monos, key=grevlex_key)
    assert ordered == [(0, 0, 2), (0, 1, 1), (1, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0)]


def test_grevlex_grades_by_total_degree_first():
    assert grevlex_key((0, 3)) > grevlex_key((2, 0))


def test_square_of_one_plus_x():
    x = P(XY, "x")
    p = (1 + x) ** 2
    assert p == 1 + 2 * x + x * x


def test_laurent_inverse_cancels():
    x = P(LX, "x")
    xinv = Polynomial(LX, {(-1,): Fraction(1)})
    assert xinv * x == Polynomial.const(LX, 1)
    assert x ** -1 == xinv


def test_negative_exponent_rejected_without_laurent_flag():
    with pytest.raises(ValueError):
        Polynomial(XY, {(-1, 0): Fraction(1)})


def test_cube_of_one_minus_y():
    y = P(XY, "y")
    p = (1 - y) ** 3
    # 1 - 3y + 3y^2 - y^3, expanded by hand
    assert p == 1 - 3 * y + 3 * y * y - y ** 3


def test_powers_by_squaring_match_repeated_products():
    x, y = P(XY, "x"), P(XY, "y")
    p = 1 + x - 2 * y
    assert p ** 0 == 1
    assert p ** 5 == p * p * p * p * p
    s, q = series_gens(2)
    assert (s + q) ** 3 == (s + q) * (s + q) * (s + q)
    with pytest.raises(ValueError):
        (s + q) ** -1


def test_substitute_square():
    x, y = P(XY, "x"), P(XY, "y")
    p = x ** 2
    q = p.substitute({"x": 1 - y})
    assert q == 1 - 2 * y + y ** 2


def test_substitute_identity():
    x = P(XY, "x")
    assert x.substitute({"x": x}) == x


def test_substitute_unbound_variable_raises():
    x, y = P(XY, "x"), P(XY, "y")
    with pytest.raises(ValueError):
        (x * y).substitute({"x": x})


def test_substitute_laurent_needs_unit_value():
    x = P(LX, "x")
    p = x ** -1
    # x -> x^2 sends x^-1 to x^-2
    assert p.substitute({"x": x ** 2}) == x ** -2
    with pytest.raises(ValueError):
        p.substitute({"x": x + 1})


def test_poly_sum_over_different_variable_sets_raises():
    with pytest.raises(ValueError):
        P(XY, "x") + P(VariableSet(["x", "z"]), "x")
    with pytest.raises(ValueError):
        P(XY, "x") + P(VariableSet(["x", "y"], laurent=[True, False]), "x")


def test_hand_derived_plane_curve_relation_at_x_zero():
    # F(x, y) = (1-x)^2 - (1-x)(1-y) + x(1-y)^2 specializes to y at x = 0.
    x, y = P(XY, "x"), P(XY, "y")
    f = (1 - x) ** 2 - (1 - x) * (1 - y) + x * (1 - y) ** 2
    assert f.substitute({"x": Polynomial.zero(XY), "y": y}) == y


def test_leading_term_grevlex():
    x, y = P(XY, "x"), P(XY, "y")
    f = x ** 2 - x * y + y ** 2
    mono, coeff = f.leading()
    assert mono == (2, 0) and coeff == 1


def test_polynomial_render_descending():
    x, y = P(XY, "x"), P(XY, "y")
    f = y ** 2 - 2 * x + Polynomial.const(XY, Fraction(1, 3))
    assert f.render() == "y^2 - 2*x + 1/3"


def test_render_zero():
    assert Polynomial.zero(XY).render() == "0"
    assert Polynomial.const(XY, 0).render() == "0"


def test_render_laurent_exponent():
    x = P(LX, "x")
    assert (x ** -1).render() == "x^-1"


# ---------------------------------------------------------------- series

MAIN_X = VariableSet(["x"])
QQ = VariableSet(["Q"])


def series_gens(trunc):
    x = NovikovSeries.gen(MAIN_X, QQ, trunc, "x")
    q = NovikovSeries.q_gen(MAIN_X, QQ, trunc, "Q")
    return x, q


def test_series_render_canonical():
    x, q = series_gens(2)
    s = 2 * x - 1 + q
    assert s.render() == "2*x - 1 + Q"


def test_series_render_orders_q_ascending():
    x, q = series_gens(3)
    s = x * q + x - q ** 2 + 1
    assert s.render() == "x + x*Q + 1 - Q^2"


def test_series_truncation_discards_high_q():
    x, q = series_gens(2)
    s = (1 + q) ** 5
    # only q-degrees 0..2 survive
    assert s == 1 + 5 * q + 10 * q ** 2


def test_series_truncate_lowers_order():
    x, q = series_gens(3)
    s = 1 + q + q ** 2 + q ** 3
    t = s.truncate(1)
    assert t.trunc == 1
    assert t == NovikovSeries.const(MAIN_X, QQ, 1, 1) + NovikovSeries.q_gen(MAIN_X, QQ, 1, "Q")


def test_series_truncate_cannot_raise():
    x, q = series_gens(1)
    with pytest.raises(ValueError):
        x.truncate(2)


def test_series_classical_part_and_tail():
    x, q = series_gens(2)
    s = x ** 2 + 3 * q * x - q ** 2
    assert s.classical_part() == Polynomial.var(MAIN_X, "x", 2)
    tail = s - s.classical_part()
    assert tail == 3 * q * x - q ** 2
    assert all(qe >= 1 for _, qe in tail.terms)


def test_series_zero_at_truncation_means_empty():
    x, q = series_gens(1)
    s = q * q  # q-degree 2 dies at truncation 1
    assert s.is_zero()


def test_series_mixed_ring_operations_raise():
    x1, _ = series_gens(1)
    x2, _ = series_gens(2)
    with pytest.raises(ValueError):
        x1 + x2


# ------------------------------------------------- property-based checks

fractions_st = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4
)


@st.composite
def polys(draw, vars=XY, max_terms=4, max_exp=3):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in vars.names)
        terms[mono] = draw(fractions_st)
    return Polynomial(vars, terms)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(polys(), polys(), polys())
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


@st.composite
def novikov_series(draw, trunc=3):
    n = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n):
        mm = (draw(st.integers(0, 3)),)
        qm = (draw(st.integers(0, trunc)),)
        terms[mm + qm] = draw(fractions_st)
    return NovikovSeries(MAIN_X, QQ, trunc, terms)


MAIN_XY = VariableSet(["x", "y"])
Q12 = VariableSet(["Q1", "Q2"])


def _pair_order_key(key):
    """Frozen display order of the (main, q) pair keys series once had."""
    mm, qm = key
    return (-sum(mm), tuple(reversed(mm)), sum(qm), tuple(-e for e in reversed(qm)))


def _pair_render_key(key):
    """Frozen rendering of a (main, q) pair key."""
    main_str, q_str = MAIN_XY.render_mono(key[0]), Q12.render_mono(key[1])
    if main_str and q_str:
        return main_str + "*" + q_str
    return main_str or q_str


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 2, *[st.integers(0, 2)] * 2),
                       fractions_st, max_size=8))
def test_flat_series_keys_keep_the_pair_key_order_and_rendering(terms):
    s = NovikovSeries(MAIN_XY, Q12, 3, terms)
    pairs = {(m[:2], m[2:]): c for m, c in s.terms.items()}
    order = sorted(pairs, key=_pair_order_key)
    assert [m for m, _ in s.sorted_terms()] == [mm + qm for mm, qm in order]
    assert s.render() == _render_terms([(pairs[k], _pair_render_key(k)) for k in order])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(novikov_series(), novikov_series(), novikov_series())
def test_series_ring_axioms_at_fixed_truncation(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(novikov_series(), novikov_series(), st.integers(0, 3))
def test_truncation_is_a_ring_map(a, b, d):
    # dropping terms before or after multiplying agrees
    assert (a * b).truncate(d) == a.truncate(d) * b.truncate(d)
    assert (a + b).truncate(d) == a.truncate(d) + b.truncate(d)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(polys(), st.integers(0, 3))
def test_poly_to_series_round_trip_classical_part(p, trunc):
    s = NovikovSeries.from_polynomial(p, QQ, trunc)
    assert s.classical_part() == p
    assert p.substitute({"x": Polynomial.var(XY, "x"), "y": Polynomial.var(XY, "y")}) == p


def _frozen_substitute(p, bindings):
    """Polynomial.substitute as it stood before evaluate, frozen as the oracle."""
    target = None
    poly_bindings = {}
    for name, value in bindings.items():
        if isinstance(value, Polynomial):
            poly_bindings[name] = value
            if target is None:
                target = value.vars
            elif target != value.vars:
                raise ValueError("bindings over different variable sets")
        else:
            poly_bindings[name] = value
    if target is None:
        raise ValueError("substitution needs at least one polynomial value")
    for name, value in list(poly_bindings.items()):
        if not isinstance(value, Polynomial):
            poly_bindings[name] = Polynomial.const(target, value)
    result = Polynomial.zero(target)
    power_cache = {}
    for mono, coeff in p.terms.items():
        part = Polynomial.const(target, coeff)
        for name, e in zip(p.vars.names, mono):
            if e == 0:
                continue
            if name not in poly_bindings:
                raise ValueError("unbound variable %r in substitution" % name)
            key = (name, e)
            if key not in power_cache:
                power_cache[key] = poly_bindings[name] ** e
            part = part * power_cache[key]
        result = result + part
    return result


LXY = VariableSet(["x", "y"], laurent=[True, True])


@st.composite
def unit_monomials(draw, vars=LXY):
    mono = tuple(draw(st.integers(-2, 2)) for _ in vars.names)
    return Polynomial(vars, {mono: draw(fractions_st.filter(bool))})


@settings(max_examples=80, deadline=None, derandomize=True)
@given(polys(vars=LXY, max_exp=2).map(lambda p: Polynomial(LXY, {
           tuple(e - 1 for e in m): c for m, c in p.terms.items()})),
       st.one_of(unit_monomials(), fractions_st.filter(bool)),
       st.one_of(unit_monomials(), polys(vars=LXY, max_terms=2, max_exp=2)))
def test_evaluate_matches_frozen_substitute(p, xval, yval):
    # Laurent p, x bound to a unit (monomial or nonzero scalar), y to a
    # unit or to an arbitrary polynomial, which must fail on y^-1
    bindings = {"x": xval, "y": yval}
    try:
        expected = _frozen_substitute(p, bindings)
    except ValueError:
        with pytest.raises(ValueError):
            p.substitute(bindings)
        return
    assert p.substitute(bindings) == expected
    values = {k: v if isinstance(v, Polynomial) else Polynomial.const(LXY, v)
              for k, v in bindings.items()}
    assert evaluate(p.terms, LXY.names, values, Polynomial.const(LXY, 1)) == expected


def frozen_evaluate(terms, names, values, one):
    """Marked oracle: core.evaluate before it summed by Horner's rule, one
    product chain per (variable, sign) and the products of each term."""
    powers = {}
    out = one.scale(0)
    for mono, c in terms.items():
        part = None
        for name, e in zip(names, mono):
            if not e:
                continue
            chain = powers.get((name, e > 0))
            if chain is None:
                if name not in values:
                    raise ValueError("unbound variable %r in substitution" % name)
                base = values[name] if e > 0 else values[name] ** -1
                chain = powers[(name, e > 0)] = [base]
            while len(chain) < abs(e):
                chain.append(chain[-1] * chain[0])
            part = chain[abs(e) - 1] if part is None else part * chain[abs(e) - 1]
        out = out + (one if part is None else part).scale(c)
    return out


ABC = ("a", "b", "c")


@st.composite
def laurent_terms(draw, low):
    """A term map in three variables, exponents from low to 3 in each."""
    return {tuple(draw(st.integers(low, 3)) for _ in ABC): draw(fractions_st.filter(bool))
            for _ in range(draw(st.integers(0, 5)))}


def _outcome(fn):
    """fn()'s value, or ValueError if it raised one."""
    try:
        return fn()
    except ValueError:
        return ValueError


def _check_evaluate_against_frozen(terms, bound, drop, one):
    # the variable drop left unbound or a negative power of a non-unit must
    # raise ValueError on both sides; a chain dict shared with another call
    # changes nothing
    values = {name: v for name, v in zip(ABC, bound) if name != drop}
    expected = _outcome(lambda: frozen_evaluate(terms, ABC, values, one))
    assert _outcome(lambda: evaluate(terms, ABC, values, one)) == expected
    chains = {}
    _outcome(lambda: evaluate({(1, 1, 1): 1}, ABC, values, one, chains))
    assert _outcome(lambda: evaluate(terms, ABC, values, one, chains)) == expected


# the variable to leave unbound, if any: none in five cases of eight
DROP = st.sampled_from((None,) * 5 + ABC)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(laurent_terms(-2),
       st.tuples(*[st.one_of(unit_monomials(), polys(vars=LXY, max_terms=2, max_exp=2))
                   for _ in ABC]), DROP)
def test_horner_evaluate_matches_frozen_on_polynomials(terms, bound, drop):
    _check_evaluate_against_frozen(terms, bound, drop, Polynomial.const(LXY, 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(laurent_terms(0), laurent_terms(-1)),
       st.tuples(*[novikov_series() for _ in ABC]), DROP)
def test_horner_evaluate_matches_frozen_on_series(terms, bound, drop):
    _check_evaluate_against_frozen(terms, bound, drop, NovikovSeries.const(MAIN_X, QQ, 3, 1))


@st.composite
def flag_elements(draw):
    """c0 + c1*h1 + c2*h2 + c3*q1 in the catalog ring qh_fl(3) at trunc 2."""
    R = ring("qh_fl", 3, trunc=2)
    c = [draw(fractions_st) for _ in range(4)]
    return (R.constant(c[0]) + R.generator("h1").scale(c[1])
            + R.generator("h2").scale(c[2]) + R.q_element("q1").scale(c[3]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(laurent_terms(0), laurent_terms(-1)),
       st.tuples(*[flag_elements() for _ in ABC]), DROP)
def test_horner_evaluate_matches_frozen_on_ring_elements(terms, bound, drop):
    _check_evaluate_against_frozen(terms, bound, drop, ring("qh_fl", 3, trunc=2).one())


def test_evaluate_non_unit_with_negative_exponent_raises():
    # and an unbound variable; one fault per case, in the Horner variable x
    # and in a later one, with the frozen loop's message
    x, y = P(LXY, "x"), P(LXY, "y")
    one = Polynomial.const(LXY, 1)
    for p, values, message in ((x ** -2 * y, {"x": x + y, "y": y}, "single-term"),
                               (x * y ** -2, {"x": x, "y": x + y}, "single-term"),
                               (x * y, {"y": y}, "unbound variable 'x'"),
                               (x * y, {"x": x}, "unbound variable 'y'")):
        for fn in (evaluate, frozen_evaluate):
            with pytest.raises(ValueError, match=message):
                fn(p.terms, LXY.names, values, one)


# ------------------------------------- frozen term loops of the two types
#
# Polynomial and NovikovSeries once had a cleaning loop and a product loop
# each; they now share one of each, parametrised by the q-degree cap.  The
# four loops below are frozen copies of the separate ones, as oracles.


def _frozen_poly_clean(vars, terms):
    clean = {}
    for mono, coeff in terms.items():
        if coeff == 0:
            continue
        vars.check_mono(mono)
        clean[mono] = Fraction(coeff)
    return clean


def _frozen_poly_mul(left, right):
    terms = {}
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            terms[m] = terms.get(m, Fraction(0)) + c1 * c2
    return terms


def _frozen_series_clean(vars, k, trunc, terms):
    clean = {}
    for mono, coeff in terms.items():
        if coeff == 0:
            continue
        vars.check_mono(mono)
        if sum(mono[k:]) > trunc:
            continue
        clean[mono] = coeff if type(coeff) is Fraction else Fraction(coeff)
    return clean


def _frozen_series_mul(left, right, k, trunc):
    right = [(m, sum(m[k:]), c) for m, c in right.items()]
    terms = {}
    for m1, c1 in left.items():
        room = trunc - sum(m1[k:])
        for m2, d2, c2 in right:
            if d2 > room:
                continue
            m = tuple(x + y for x, y in zip(m1, m2))
            terms[m] = terms.get(m, Fraction(0)) + c1 * c2
    return terms


# int and Fraction coefficients, zero among them
coeffs_st = st.one_of(st.integers(-3, 3), fractions_st)


def exact_form(c):
    """The form a constructor gives a coefficient: an int when it is
    integral, else a Fraction.  The frozen loops above build Fractions
    throughout; the values are compared with theirs by equality."""
    return type(c) is (int if Fraction(c).denominator == 1 else Fraction)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(*[st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), coeffs_st,
                         max_size=5)] * 2)
def test_laurent_polynomial_terms_match_the_frozen_loops(ta, tb):
    a, b = Polynomial(LXY, ta), Polynomial(LXY, tb)
    for p, t in ((a, ta), (b, tb)):
        assert list(p.terms.items()) == list(_frozen_poly_clean(LXY, t).items())
        assert all(map(exact_form, p.terms.values()))
    expected = _frozen_poly_clean(LXY, _frozen_poly_mul(a.terms, b.terms))
    assert list((a * b).terms.items()) == list(expected.items())
    assert all(type(c) in (int, Fraction) for c in (a * b).terms.values())


@settings(max_examples=120, deadline=None, derandomize=True)
@given(*[st.dictionaries(st.tuples(*[st.integers(0, 2)] * 2, *[st.integers(0, 3)] * 2),
                         coeffs_st, max_size=6)] * 2,
       st.integers(0, 3))
def test_series_terms_match_the_frozen_loops(ta, tb, trunc):
    # q exponents up to 3 + 3 put terms below, at and above every cap 0..3
    a, b = (NovikovSeries(MAIN_XY, Q12, trunc, t) for t in (ta, tb))
    vars = a.vars
    for s, t in ((a, ta), (b, tb)):
        assert list(s.terms.items()) == list(_frozen_series_clean(vars, 2, trunc, t).items())
        assert all(exact_form(c) and sum(m[2:]) <= trunc for m, c in s.terms.items())
    expected = _frozen_series_clean(vars, 2, trunc,
                                    _frozen_series_mul(a.terms, b.terms, 2, trunc))
    assert list((a * b).terms.items()) == list(expected.items())
    assert all(type(c) in (int, Fraction) for c in (a * b).terms.values())
    for d in range(trunc + 1):
        assert a.truncate(d).terms == {m: c for m, c in a.terms.items() if sum(m[2:]) <= d}


def test_series_var_is_gen():
    # a series variable needs the truncation, so var takes gen's arguments
    with pytest.raises(TypeError, match="gen"):
        NovikovSeries.var(VariableSet(["x"]), "x")
    assert NovikovSeries.var(MAIN_X, QQ, 2, "x") == NovikovSeries.gen(MAIN_X, QQ, 2, "x")


def test_public_constructors_keep_their_checks():
    # sums and products skip the term checks; these entry points do not
    # (a negative non-Laurent exponent: test_negative_exponent_rejected_without_laurent_flag)
    with pytest.raises(ValueError, match="wrong length"):
        Polynomial(XY, {(1,): 1})
    with pytest.raises(ValueError, match="wrong length"):
        NovikovSeries(LX, QQ, 2, {(1,): 1})
    with pytest.raises(ValueError, match="non-Laurent variable 'x'"):
        NovikovSeries(MAIN_X, QQ, 2, {(-1, 0): 1})
    with pytest.raises(ValueError, match="non-Laurent variable 'Q'"):
        NovikovSeries(LX, QQ, 2, {(-1, -1): 1})
    x = P(XY, "x")
    with pytest.raises(ValueError, match="wrong length"):
        x.mul_mono((1,))
    with pytest.raises(ValueError, match="non-Laurent variable 'x'"):
        x.mul_mono((-2, 0))
    with pytest.raises(ValueError, match="non-Laurent variable 'Q'"):
        NovikovSeries.gen(LX, QQ, 2, "x").mul_mono((0, -1))


def test_sums_and_products_skip_the_term_checks(monkeypatch):
    from qchar.catalog import ring
    from qchar.jfun import HbarPoly

    x, y = P(XY, "x"), P(XY, "y")
    polys = (x + 2 * y, x * x - Fraction(1, 3))
    s = NovikovSeries.gen(MAIN_XY, Q12, 2, "x") + NovikovSeries.q_gen(MAIN_XY, Q12, 2, "Q1")
    series = (s, s * s - 1)
    R = ring("k_milnor", 3, 3)
    elements = (R.generator("x") + 2, R.generator("y") - R.generator("x"))
    hbar_polys = (HbarPoly.atom(R, "L1", 1), HbarPoly.atom(R, "L1L2", 2))
    calls = []
    check = VariableSet.check_mono
    monkeypatch.setattr(VariableSet, "check_mono",
                        lambda self, mono: calls.append(mono) or check(self, mono))
    for a, b in (polys, series, elements, hbar_polys):
        for c in (a + b, a - b, -a, a * b, a.scale(Fraction(2, 3)), 3 * a, a * 3):
            assert type(c) is type(a)
            assert c._space() == a._space()
            assert getattr(c, "ring", None) is getattr(a, "ring", None)
            assert all(type(v) in (int, Fraction) and v for v in c.terms.values())
    assert calls == []
