"""Packed monomial keys: core.MonomialOrder and the packed reduction loop.

groebner._reduce and the quotient rings' product kernel compute on one
int per monomial.  The packed ints must sort exactly as the tuple keys
they replace, unpack to the monomial they packed, add as the monomials
multiply, and refuse a degree their fields cannot hold.  The frozen
tuple-keyed loop of test_masks (frozen_reduce) is the oracle: on every
reduction Buchberger makes for the Jacobi ideal n=3, on every catalog
ring under both strategies at the cap boundary and on random rows, the
packed loop must give the same normal form in the same insertion order,
the same usage in the same order and the same step count.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchar import groebner as groebner_module
from qchar.catalog import ring
from qchar.core import (
    InternalError,
    MonomialOrder,
    NovikovSeries,
    VariableSet,
    grevlex_desc_key,
    grevlex_desc_order,
    mono_mul,
)
from qchar.groebner import _Budget, _lead_row, _reduce, groebner
from qchar.mirror import jacobi_context
from test_masks import (
    CATALOG,
    frozen_alternate_key,
    frozen_measure_key,
    frozen_reduce,
    frozen_strategy_key,
    small_polys,
)

LIMIT = MonomialOrder.OFF - 1  # the largest total degree a packed field holds


def _names(prefix, count):
    return VariableSet(["%s%d" % (prefix, i) for i in range(count)])


def _monos(n, rng):
    """Every exponent vector over 0..9 for n <= 3, else 3000 drawn ones."""
    if n <= 3:
        return list(product(range(10), repeat=n))
    return list({tuple(rng.randrange(10) for _ in range(n)) for _ in range(3000)})


def _measure_order(k, l):
    """The alternate strategy's order: q-degree ascending, then descending
    grevlex on each block."""
    return MonomialOrder(([[0] * k + [1] * l] if l else [])
                         + list(MonomialOrder.grevlex((k, True), (l, True)).rows))


def _ascending_order(k, l):
    """The alternate strategy's former order, which rewrites can run against."""
    return MonomialOrder.grevlex((k, False), (l, True))


def _orders(k, l):
    """The orders in use, and the alternate's former one, packed and as the
    tuple keys they replace."""
    novikov = NovikovSeries.zero(_names("x", k), _names("q", l), 0)
    return [(grevlex_desc_order(k + l), grevlex_desc_key),
            (MonomialOrder.grevlex((k, True), (l, False)), novikov._order_key),
            (_measure_order(k, l), frozen_measure_key(k)),
            (_ascending_order(k, l), frozen_alternate_key(k))]


@pytest.mark.parametrize("k,l", [(k, l) for k in range(1, 5) for l in range(1, 5)])
def test_packing_sorts_as_the_tuple_keys_and_round_trips(k, l):
    monos = _monos(k + l, random.Random(10 * k + l))
    for order, key in _orders(k, l):
        assert sorted(monos, key=order.pack) == sorted(monos, key=key)
        assert [order.unpack(order.pack(m)) for m in monos] == monos
        for a, b in zip(monos, reversed(monos)):
            assert order.pack(mono_mul(a, b)) == order.pack(a) + order.pack(b) - order.C


def test_rings_pack_their_strategies_under_the_block_orders():
    R = ring("qk_milnor", 4, 3, 3)
    k, l = len(R.gens), len(R.q_vars)
    (rows, default), (alt_rows, alternate) = R._default, R._alternate
    assert default.rows == MonomialOrder.grevlex((k, True), (l, False)).rows
    assert alternate.rows == _measure_order(k, l).rows
    assert [row[4] for row in rows] == [(default, k)] * len(rows)
    assert [row[4] for row in alt_rows] == [(alternate, k)] * len(rows)
    assert [row[2] for row in alt_rows] == [row[2] for row in rows][::-1]


def test_an_order_needs_a_unit_row_per_variable():
    with pytest.raises(ValueError, match="unit vector on exponent 1"):
        MonomialOrder([[1, 1], [1, 0]])


# ------------------------------------------------------------- exactness


def test_check_refuses_a_degree_the_fields_cannot_hold():
    order = grevlex_desc_order(3)
    order.check(LIMIT)
    with pytest.raises(ValueError, match="do not fit"):
        order.check(LIMIT + 1)


def test_reduce_refuses_an_input_degree_beyond_the_fields():
    # x^2 -> 1 walks x^LIMIT down to x, and the packed keys never wrap
    row = _lead_row((2,), [((2,), 1), ((0,), -1)], 0)
    assert _reduce({(LIMIT,): 1}, [row]) == {(1,): 1}
    with pytest.raises(ValueError, match="do not fit"):
        _reduce({(LIMIT + 1,): 1}, [row])
    with pytest.raises(ValueError, match="negative exponent"):
        _reduce({(-1,): 1}, [row])


def test_reduce_bounds_what_capped_rewrites_can_reach():
    # x^2 -> q*x^5 raises the total degree by 4 per rewrite, at most trunc
    # = 3 times: x^a reaches q^3*x^(a+9), of total degree a + 12
    order = MonomialOrder.grevlex((1, True), (1, False))
    row = _lead_row((2, 0), [((2, 0), 1), ((5, 1), -1)], 0, order, 1)
    assert row[7] == 4
    top = LIMIT - 3 * 4
    usage, budget = {}, _Budget(None)
    assert _reduce({(top, 0): 1}, [row], budget, usage, order, (1, 3)) == {}
    assert budget.steps == 4
    assert list(usage[0]) == [(top - 2, 0), (top + 1, 1), (top + 4, 2), (top + 7, 3)]
    with pytest.raises(ValueError, match="do not fit"):
        _reduce({(top + 1, 0): 1}, [row], order=order, cap=(1, 3))


def test_rows_must_lead_with_their_largest_q_free_term():
    order = MonomialOrder.grevlex((1, True), (1, False))
    with pytest.raises(ValueError, match="outranks"):  # more degree, no more q
        _lead_row((1, 0), [((1, 0), 1), ((2, 0), 1)], 0, order, 1)
    with pytest.raises(ValueError, match="outranks"):  # less q-degree
        _lead_row((0, 1), [((0, 1), 1), ((1, 0), 1)], 0, order, 1)


def test_reduce_refuses_rows_packed_for_another_order_or_cap():
    R = ring("qh_fl", 3, None, 2)
    terms = {(3, 0, 0, 0): 1}
    rows, order = R._default
    with pytest.raises(InternalError, match="another order or cap"):
        _reduce(terms, rows, order=R._alternate[1], cap=(2, 2))
    with pytest.raises(InternalError, match="another order or cap"):
        _reduce(terms, rows, order=order)


# ---------------------------------------------------- against the oracle


def _ordered_usage(usage):
    return None if usage is None else [(gid, list(slot.items())) for gid, slot in usage.items()]


def _assert_matches_frozen(terms, rows, order=None, cap=None, key=grevlex_desc_key,
                           with_usage=True):
    b_new, b_old = _Budget(None), _Budget(None)
    us_new, us_old = ({}, {}) if with_usage else (None, None)
    new = _reduce(terms, rows, b_new, us_new, order, cap)
    old = frozen_reduce(terms, [row[:3] for row in rows], b_old, us_old, key, cap)
    assert list(new.items()) == list(old.items())
    assert _ordered_usage(us_new) == _ordered_usage(us_old)
    assert b_new.steps == b_old.steps


def test_every_jacobi_3_reduction_matches_the_frozen_loop(monkeypatch):
    rels = jacobi_context(3).gdata.relations
    live, seen = groebner_module._reduce, []

    def checked(terms, rows, budget=None, usage=None, order=None, cap=None, degree=None):
        assert cap is None and usage == {}
        if degree is None:
            assert order is None
            _assert_matches_frozen(terms, rows)
        else:  # an S-polynomial, packed under descending grevlex
            assert order is grevlex_desc_order(len(rows[0][0]))
            unpacked = {order.unpack(P): c for P, c in terms.items()}
            assert max(map(sum, unpacked)) <= degree
            _assert_matches_frozen(unpacked, rows)
            assert list(live(terms, rows, None, {}, order, None, degree).items()) == \
                list(_reduce(unpacked, rows).items())
        seen.append(degree)
        return live(terms, rows, budget, usage, order, cap, degree)

    monkeypatch.setattr(groebner_module, "_reduce", checked)
    gdata = groebner(rels)  # with cofactors
    assert gdata.steps == 155 and len(seen) > 50 and seen.count(None) == len(gdata.basis)


def _boundary_series(R, rng):
    """Random terms, half of them at the top q-degree the cap keeps."""
    top = max(sum(m) for m in R.basis_monos) + 2
    terms = dict(R.random_series(rng).terms)
    for _ in range(4):
        q = [0] * len(R.q_vars)
        for _ in range(R.trunc - rng.randrange(2) if q else 0):
            q[rng.randrange(len(q))] += 1
        mono = tuple(rng.randrange(top + 1) for _ in R.gens.names) + tuple(q)
        terms[mono] = terms.get(mono, 0) + rng.choice([-3, -1, 1, 2])
    return terms


@pytest.mark.parametrize("family,n,m", CATALOG)
@pytest.mark.parametrize("strategy", ["default", "alternate"])
def test_catalog_rewriting_matches_the_frozen_loop(family, n, m, strategy):
    R = ring(family, n, m, 0 if family in ("k_milnor", "k_pnxpm") else 2)
    rows, order = R._default if strategy == "default" else R._alternate
    key, cap = frozen_strategy_key(R, strategy), (len(R.gens), R.trunc)
    rng = random.Random("%s %s %s %s" % (family, n, m, strategy))
    for _ in range(5):
        terms = {mono: Fraction(c) for mono, c in _boundary_series(R, rng).items() if c}
        _assert_matches_frozen(terms, rows, order, cap, key)
        if strategy == "alternate":  # the order it used to pop by reaches the same form
            assert frozen_reduce(terms, [row[:3] for row in rows],
                                 key=frozen_alternate_key(cap[0]), cap=cap) == \
                _reduce(terms, rows, order=order, cap=cap)


@pytest.mark.parametrize("family,n,m", CATALOG)
def test_rewriting_against_the_measure_matches_the_frozen_loop(family, n, m):
    # the alternate rows packed under its former order, where a rewrite can
    # land on a monomial already popped, even on one found irreducible
    R = ring(family, n, m, 0 if family in ("k_milnor", "k_pnxpm") else 2)
    k = len(R.gens)
    order, cap = _ascending_order(k, len(R.q_vars)), (k, R.trunc)
    rows = [_lead_row(row[0], row[1], row[2], order, k) for row in R._alternate[0]]
    rng = random.Random("%s %s %s ascending" % (family, n, m))
    for _ in range(5):
        terms = {mono: Fraction(c) for mono, c in _boundary_series(R, rng).items() if c}
        _assert_matches_frozen(terms, rows, order, cap, frozen_alternate_key(k))
        assert _reduce(terms, rows, order=order, cap=cap) == \
            _reduce(terms, R._alternate[0], order=R._alternate[1], cap=cap)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(small_polys(), min_size=1, max_size=4), small_polys(), small_polys(),
       st.booleans())
def test_random_rows_match_the_frozen_loop(rels, p, u, with_usage):
    rels = [r for r in rels if not r.is_zero()]
    if not rels:
        return
    monic = [r.scale(1 / r.leading()[1]) for r in rels]
    rows = [_lead_row(g.leading()[0], g.terms.items(), i) for i, g in enumerate(monic)]
    _assert_matches_frozen((p + u * rels[0]).terms, rows, with_usage=with_usage)
