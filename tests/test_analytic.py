"""Series coefficients and quantum evaluation of characteristic classes."""

from fractions import Fraction

import pytest

from qchar.analytic import (
    EXP_NEG,
    OMEOX,
    TAGS,
    XOME,
    UnivariateSeries,
    eval_deg2,
    eval_deg2_static,
    quantum_todd_factor,
    quantum_todd_pn,
    series_coeffs,
)
from qchar.catalog import ring

F = Fraction


# -------------------------------------------------------------- coefficients


def test_exp_neg_coeffs():
    assert series_coeffs("exp_neg", 2) == [1, -1, F(1, 2)]
    assert series_coeffs("exp_neg", 5)[5] == F(-1, 120)


def test_one_minus_exp_over_x_coeffs():
    assert series_coeffs("one_minus_exp_over_x", 3) == [1, F(-1, 2), F(1, 6), F(-1, 24)]


def test_x_over_one_minus_exp_coeffs():
    assert series_coeffs("x_over_one_minus_exp", 4) == [1, F(1, 2), F(1, 12), 0, F(-1, 720)]


def test_inverse_pair_product_is_one():
    N = 12
    a = series_coeffs("one_minus_exp_over_x", N)
    b = series_coeffs("x_over_one_minus_exp", N)
    for k in range(N + 1):
        conv = sum(a[i] * b[k - i] for i in range(k + 1))
        assert conv == (1 if k == 0 else 0)


def test_no_adjacent_zero_coeffs_in_named_tags():
    # zero coefficients of the named series are isolated, so dropping the
    # old stop after a run of zero coefficients changed no sum
    for tag in ("exp_neg", "one_minus_exp_over_x", "x_over_one_minus_exp"):
        c = series_coeffs(tag, 20)
        for k in range(20):
            assert not (c[k] == 0 and c[k + 1] == 0)


def test_series_argument_validation():
    with pytest.raises(ValueError):
        UnivariateSeries("custom")
    with pytest.raises(ValueError):
        UnivariateSeries("cosh")
    with pytest.raises(ValueError):
        series_coeffs("exp_neg", -1)


# ------------------------------------------------------------ series powers


def _naive_power(c, e, upto):
    # e-fold truncated convolution, starting from the series 1
    out = [F(1)] + [F(0)] * upto
    for _ in range(e):
        out = [sum((out[i] * c[k - i] for i in range(k + 1)), F(0))
               for k in range(upto + 1)]
    return out


@pytest.mark.parametrize("tag", TAGS)
def test_series_power_matches_truncated_convolution(tag):
    N = 12
    base = UnivariateSeries(tag)
    c = base.coeffs(N)
    for e in range(7):
        assert base.power(e).coeffs(N) == _naive_power(c, e, N), (tag, e)


def test_series_power_is_cached_and_extends_on_demand():
    base = UnivariateSeries("one_minus_exp_over_x")
    p = base.power(3)
    assert base.power(3) is p
    head = p.coeffs(4)
    assert p.coeffs(9)[:5] == head
    assert p.coeff(9) == _naive_power(base.coeffs(9), 3, 9)[9]


def test_series_power_rejects_negative_exponent():
    for e in (-1, -3):
        with pytest.raises(ValueError):
            OMEOX.power(e)
    with pytest.raises(ValueError):
        OMEOX.power(1.5)
    R = ring("qh_fl", 3, trunc=1)
    with pytest.raises(ValueError):
        quantum_todd_factor(1, R, -1)


@pytest.mark.parametrize("family,n,m,D,gen", [
    ("qh_pn", 2, None, 2, "h"),
    ("qh_pn", 4, None, 1, "h"),
    ("qh_fl", 3, None, 2, "h1"),
    ("qh_fl", 4, None, 1, "h2"),
    ("qh_fl", 5, None, 3, "h1"),
    ("qh_milnor", 4, 3, 2, "h1"),
    ("qh_milnor", 5, 4, 2, "h2"),
])
def test_eval_of_series_power_equals_power_of_eval(family, n, m, D, gen):
    # the oracle: the k-th power of the evaluated series, by squaring
    R = ring(family, n, m, D)
    h = R.generator(gen)
    for f in (EXP_NEG, OMEOX, XOME):
        for e in range(5):
            assert eval_deg2(f.power(e), h, R) == eval_deg2(f, h, R) ** e


# ---------------------------------------------------------------- evaluation


def test_exp_neg_on_line_frozen():
    R = ring("qh_pn", 1, trunc=1)
    e = eval_deg2(EXP_NEG, R.generator("h"), R)
    assert e.render() == "-h - 1/6*h*q + 1 + 1/2*q"


def test_classical_chern_character_of_plane():
    # trunc 0 turns quantum powers into nilpotent cup products
    R = ring("qh_pn", 2, trunc=0)
    h = R.generator("h")
    e = eval_deg2(EXP_NEG, h, R)
    assert e == R.one() - h + (h * h).scale(F(1, 2))


def test_eval_rejects_non_linear_class():
    R = ring("qh_pn", 2, trunc=1)
    h = R.generator("h")
    with pytest.raises(ValueError):
        eval_deg2(EXP_NEG, h * h, R)
    with pytest.raises(ValueError):
        eval_deg2(EXP_NEG, h + R.one(), R)
    with pytest.raises(ValueError):
        eval_deg2(EXP_NEG, R.q_element("q"), R)


def test_eval_rejects_truncation_mismatch():
    # the truncation is the ring's; a class from another truncation is refused
    R = ring("qh_pn", 1, trunc=1)
    other = ring("qh_pn", 1, trunc=2)
    with pytest.raises(ValueError):
        eval_deg2(EXP_NEG, other.generator("h"), R)
    with pytest.raises(ValueError):
        eval_deg2(EXP_NEG, other.generator("h").as_series(), R)


def test_eval_rejects_class_not_nilpotent_mod_novikov():
    # x^2 = 2x - 1 + Q: x is a unit, so e^{-x} never terminates
    R = ring("qk_pn", 1, trunc=1)
    with pytest.raises(ValueError, match="not nilpotent"):
        eval_deg2(EXP_NEG, R.generator("x"), R)


def test_dynamic_stop_matches_static_bound():
    for n, D in ((1, 2), (2, 2), (3, 1)):
        R = ring("qh_pn", n, trunc=D)
        h = R.generator("h")
        for f in (EXP_NEG, XOME):
            dyn = eval_deg2(f, h, R)
            stat = eval_deg2_static(f, h, R, (D + 1) * (n + 1))
            assert dyn == stat


# ------------------------------------------------------------- Todd classes


def test_todd_line_classical_limit():
    R = ring("qh_pn", 1, trunc=0)
    t = quantum_todd_pn(1, 0)
    assert t == R.one() + R.generator("h")


def test_todd_line_first_quantum_correction():
    t = quantum_todd_pn(1, 1)
    assert t.render() == "h + 1/12*h*q + 1 + 5/12*q"


def test_todd_reciprocal():
    for n, D in ((1, 2), (2, 1)):
        R = ring("qh_pn", n, trunc=D)
        t = quantum_todd_pn(n, D)
        inv = eval_deg2(OMEOX, R.generator("h"), R) ** (n + 1)
        assert t * inv == R.one()


def test_todd_factor_inverse_pair():
    R = ring("qh_fl", 3, trunc=1)
    hsum = R.generator("h1") + R.generator("h2")
    prod = eval_deg2(OMEOX, hsum, R) * eval_deg2(XOME, hsum, R)
    assert prod == R.one()


def test_todd_factor_zero_exponent_is_sum_factor():
    R = ring("qh_fl", 3, trunc=1)
    hsum = R.generator("h1") + R.generator("h2")
    assert quantum_todd_factor(1, R, 0) == eval_deg2(XOME, hsum, R)


def test_todd_factor_validation():
    R = ring("qh_fl", 3, trunc=1)
    with pytest.raises(ValueError):
        quantum_todd_factor(3, R, 3)
    P = ring("qh_pn", 2, trunc=1)
    with pytest.raises(ValueError):
        quantum_todd_factor(1, P, 3)


def test_todd_factor_classical_limit_is_cup_expansion():
    # at trunc 0 every quantum product is the cup product, so the factor
    # must equal the alternating-sum expansion computed by hand below
    R = ring("qh_fl", 3, trunc=0)
    got = quantum_todd_factor(1, R, 3)
    h1 = R.generator("h1")
    hsum = h1 + R.generator("h2")
    left = eval_deg2(OMEOX, h1, R) ** 3
    right = eval_deg2(XOME, hsum, R)
    assert got == left * right
    # and the h1-factor itself matches a direct truncated expansion;
    # h1 is nilpotent at trunc 0, so six powers are plenty
    terms = R.zero()
    power = R.one()
    for k in range(7):
        terms = terms + power.scale(OMEOX.coeff(k))
        power = power * h1
    assert eval_deg2(OMEOX, h1, R) == terms
    assert (h1 ** 3).is_zero()


# ----------------------------------------------------------------- identity


def test_telescoping():
    cases = [("qh_pn", 2, None, 2, ("h",)), ("qh_fl", 3, None, 1, ("h1", "h2"))]
    for family, n, m, D, gens in cases:
        R = ring(family, n, m, D)
        alpha = R.zero()
        for g in gens:
            alpha = alpha + R.generator(g)
        lhs = eval_deg2(OMEOX, alpha, R) * alpha
        rhs = R.one() - eval_deg2(EXP_NEG, alpha, R)
        assert lhs == rhs


def test_exponential_additivity_flag():
    for D in (1, 2):
        R = ring("qh_fl", 3, trunc=D)
        h1, h2 = R.generator("h1"), R.generator("h2")
        lhs = eval_deg2(EXP_NEG, h1, R) * eval_deg2(EXP_NEG, h2, R)
        assert lhs == eval_deg2(EXP_NEG, h1 + h2, R)
