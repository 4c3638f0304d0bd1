"""Grammar, error positions, and the render/parse round trip."""

import random
from fractions import Fraction

import pytest

from qchar.catalog import ring
from qchar.parse import ParseError, parse_element


def test_number_and_fraction():
    R = ring("qh_pn", 2, trunc=1)
    assert parse_element("5", R) == R.constant(5)
    assert parse_element("5/12", R) == R.constant(Fraction(5, 12))


def test_binary_structure():
    R = ring("qh_pn", 2, trunc=1)
    # "^" binds tighter than "*"
    assert parse_element("2*3^2", R) == R.constant(18)
    h = R.generator("h")
    assert parse_element("2*h^2", R) == 2 * h ** 2
    # "-" and "+" associate left
    assert parse_element("2 - 1 - 1", R).is_zero()
    assert parse_element("1 - 2 + 3", R) == R.constant(2)
    # a leading sign binds the first term only
    assert parse_element("-2^2", R) == R.constant(-4)
    assert parse_element("-2*3 + 1", R) == R.constant(-5)


def test_parenthesized_power():
    R = ring("qh_pn", 2, trunc=1)
    # parentheses group
    assert parse_element("(1 + 1)^3", R) == R.constant(8)
    assert parse_element("2*(3 + 1)", R) == R.constant(8)
    assert parse_element("-(2 - 3)", R) == R.one()
    h = R.generator("h")
    assert parse_element("(1 - h)^3", R) == (1 - h) * (1 - h) * (1 - h)


def test_leading_sign():
    R = ring("qh_pn", 2, trunc=1)
    assert parse_element("-h + h", R).is_zero()
    assert parse_element("+h", R) == R.generator("h")
    # the sign binds the first term only
    assert parse_element("-h + q", R) == R.q_element("q") - R.generator("h")


def test_whitespace_insensitive():
    R = ring("qk_pn", 1, trunc=2)
    assert parse_element("2*x-1+Q", R) == parse_element(" 2 * x - 1 + Q ", R)


@pytest.mark.parametrize("src,pos", [
    ("x +", 4),
    ("2h", 2),        # no implicit multiplication
    ("h^-1", 3),      # exponents are nonnegative
    ("(x", 3),
    ("", 1),
    ("x $", 3),
    ("x / y", 3),     # "/" only inside rational literals
])
def test_error_positions(src, pos):
    # a ring that knows the identifier, so the error is the one pinned
    R = ring("qh_pn", 1, trunc=1) if "h" in src else ring("qk_pn", 1, trunc=1)
    with pytest.raises(ParseError) as err:
        parse_element(src, R)
    assert err.value.position == pos


def test_zero_denominator():
    with pytest.raises(ParseError) as err:
        parse_element("1/0", ring("qh_pn", 1, trunc=1))
    assert "zero denominator" in str(err.value)
    assert err.value.position == 3


def test_errors_are_reported_left_to_right():
    R = ring("qh_fl", 3, trunc=1)
    cases = [
        ("h3 + (", "unknown identifier 'h3'", 1),  # before the syntax error
        ("h1 + (", "expected a number", 7),
        ("h3 $", "unknown identifier 'h3'", 1),    # before the lexical error
        ("h1 + $ + h3", "unexpected character", 6),
        ("1/0 $", "zero denominator", 3),
        ("h1 h3", "unexpected 'h3'", 4),           # h3 is never looked up
    ]
    for src, message, pos in cases:
        with pytest.raises(ParseError) as err:
            parse_element(src, R)
        assert message in str(err.value) and err.value.position == pos, src


def test_unknown_identifier():
    R = ring("qh_fl", 3, trunc=1)
    with pytest.raises(ParseError) as err:
        parse_element("h3", R)
    assert "h3" in str(err.value)
    assert err.value.position == 1


def test_evaluate_in_flag_ring():
    R = ring("qh_fl", 3, trunc=2)
    expr = parse_element("h1^2*h2 - q2", R)
    direct = R.generator("h1") ** 2 * R.generator("h2") - R.q_element("q2")
    assert expr == direct


def test_dual_hyperplane_relation_evaluates_to_zero():
    # (1 - y)^3 is a defining relation of the (3,3) classical K-ring
    R = ring("k_milnor", 3, 3, trunc=0)
    assert parse_element("(1 - y)^3", R).is_zero()


def test_reduction_example():
    R = ring("qk_pn", 1, trunc=2)
    assert (parse_element("x", R) * parse_element("x", R)).render() \
        == "2*x - 1 + Q"


def test_constant_round_trip():
    R = ring("qh_pn", 1, trunc=1)
    assert parse_element("0", R).is_zero()
    assert parse_element("1", R) == R.one()


def test_render_parse_round_trip():
    rng = random.Random(17)
    rings = [ring("qh_pn", 2, trunc=2), ring("qk_pn", 1, trunc=2),
             ring("qh_fl", 3, trunc=1), ring("qk_milnor", 3, 3, trunc=1),
             # the other four catalog families
             ring("qk_fl", 3, trunc=1), ring("qh_milnor", 4, 3, trunc=1),
             ring("k_milnor", 3, 3), ring("k_pnxpm", 2, 2)]
    for R in rings:
        for _ in range(6):
            e = R.reduce(R.random_series(rng))
            assert parse_element(e.render(), R) == e
