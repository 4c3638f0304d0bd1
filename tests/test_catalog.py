"""Catalog tests: frozen relation renders, dimensions, power laws."""

import copy
import pickle

import pytest

from qchar.catalog import (
    FAMILIES,
    _RING_CACHE,
    THETA_VARS,
    DifferenceExpression,
    RingId,
    make_presentation,
    make_ring,
    milnor_f2_poly,
    ring,
    symbol,
)
from qchar.core import NovikovSeries, Polynomial, VariableSet
from qchar.quotient import Presentation, mat_pow
from qchar.report import Check


# ---------------------------------------------------------------- parameters


def test_ring_id_validation():
    RingId("qh_pn", 1)
    RingId("qh_fl", 3, trunc=4)
    RingId("qk_milnor", 4, 3, trunc=2)
    RingId("k_pnxpm", 1, 1)


@pytest.mark.parametrize("args, kwargs, message", [
    (("qh_pn", 0), {}, "projective space needs n >= 1"),
    (("qh_fl", 2), {}, "flag family needs n >= 3"),
    (("qk_milnor", 3, 2), {}, "hypersurface families need n >= m >= 3 (m = 2 is excluded)"),
    (("qk_milnor", 3, 4), {}, "hypersurface families need n >= m >= 3 (m = 2 is excluded)"),
    (("k_milnor", 4, 3), {"trunc": 1}, "k_milnor is classical; truncation must be 0"),
    (("qh_pn", 2, 2), {}, "qh_pn takes no m parameter"),
    (("k_milnor", 4), {}, "k_milnor needs both n and m"),
    (("k_pnxpm", 0, 1), {}, "product family needs n, m >= 1"),
    (("no_such_family", 1), {}, "unknown ring family 'no_such_family'"),
    (("qh_pn", 1), {"trunc": -1}, "truncation order must be nonnegative"),
])
def test_ring_id_rejects_bad_parameters(args, kwargs, message):
    with pytest.raises(ValueError) as err:
        RingId(*args, **kwargs)
    assert str(err.value) == message


def test_ring_id_is_an_immutable_value():
    rid = RingId("qh_fl", 3)
    assert repr(rid) == "RingId(family='qh_fl', n=3, m=None, trunc=0)"
    assert repr(RingId("qk_milnor", 4, 3, trunc=2)) == \
        "RingId(family='qk_milnor', n=4, m=3, trunc=2)"
    assert rid == RingId("qh_fl", 3, None, 0) and hash(rid) == hash(RingId("qh_fl", 3))
    assert rid != RingId("qh_fl", 3, trunc=1)
    assert rid != ("qh_fl", 3, None, 0)  # a record, not a tuple
    assert len({rid, RingId("qh_fl", 3), RingId("qh_fl", 4)}) == 2
    for attempt in (lambda: setattr(rid, "trunc", 5), lambda: delattr(rid, "n"),
                    lambda: setattr(rid, "other", 1)):
        with pytest.raises(AttributeError):
            attempt()
    assert (rid.family, rid.n, rid.m, rid.trunc) == ("qh_fl", 3, None, 0)
    assert copy.deepcopy(rid) == pickle.loads(pickle.dumps(rid)) == rid


def test_labels():
    assert RingId("qh_pn", 3, trunc=2).label() == "qh_pn(n=3)"
    assert RingId("qk_milnor", 4, 3).label() == "qk_milnor(n=4,m=3)"


def test_ring_cache():
    a = make_ring(RingId("qh_pn", 2, trunc=1))
    b = make_ring(RingId("qh_pn", 2, trunc=1))
    assert a is b
    c = make_ring(RingId("qh_pn", 2, trunc=2))
    assert c is not a
    # an equal RingId built apart is the same cache key
    assert _RING_CACHE[RingId("qh_pn", 2, None, 1)] is a
    assert ring("qh_pn", 2, trunc=1) is a


# ---------------------------------------------------------- frozen relations


def test_qh_pn_relation_render():
    pres = make_presentation("qh_pn", 1)
    assert pres.relation_at(0, 1).render() == "h^2 - q"
    pres3 = make_presentation("qh_pn", 3)
    assert pres3.relation_at(0, 1).render() == "h^4 - q"


def test_qk_pn_relation_render():
    pres = make_presentation("qk_pn", 1)
    assert pres.relation_at(0, 1).render() == "x^2 - 2*x + 1 - Q"


def test_qk_milnor_33_relation_renders():
    pres = make_presentation("qk_milnor", 3, 3)
    assert pres.relation_names == ["F1_Q", "F2_Q"]
    f1, f2 = pres.relations_at(1)
    assert f1.render() == "-y^3 + x*y*Q2 + 3*y^2 - 3*y + 1 - Q2"
    assert f2.render() == "x*y^2 + x^2 - x^2*Q2 - 3*x*y + y - y*Q1"


def test_qh_milnor_43_relation_renders():
    pres = make_presentation("qh_milnor", 4, 3)
    f1, f2 = pres.relations_at(1)
    assert f1.render() == "h2^3 - h1*q2 - h2*q2"
    assert f2.render() == "h1^3 - h1^2*h2 + h1*h2^2 - h1*q2 - q1"


def test_milnor_f2_independent_route():
    # n = 4, m = 3 by direct assembly of the three products
    vars = VariableSet(["x", "y"])
    x = Polynomial.var(vars, "x")
    y = Polynomial.var(vars, "y")
    expected = (-(1 - x) ** 3
                + (1 - x) ** 2 * (1 - y)
                - x * (1 - x) * (1 - y) ** 2)
    assert milnor_f2_poly(vars, 4, 3) == expected
    # and the classical presentation stores exactly this polynomial
    pres = make_presentation("k_milnor", 4, 3)
    assert pres.relation_at(1, 0).classical_part() == expected


def test_milnor_f2_x_zero_slice():
    # at x = 0 only the t = m-1 summand with (1-x)^{n-m} survives alongside
    # the boundary term; for n = m = 3 the whole thing collapses to y
    vars = VariableSet(["x", "y"])
    f = milnor_f2_poly(vars, 3, 3)
    y = Polynomial.var(vars, "y")
    zero = Polynomial.const(vars, 0)
    assert f.substitute({"x": zero, "y": y}) == y


# --------------------------------------------------------------- dimensions


@pytest.mark.parametrize("n", range(1, 7))
def test_dim_projective(n):
    assert ring("qh_pn", n, trunc=1).classical_dim() == n + 1
    assert ring("qk_pn", n, trunc=1).classical_dim() == n + 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dim_flag(n):
    assert ring("qh_fl", n, trunc=1).classical_dim() == n * (n - 1)
    assert ring("qk_fl", n, trunc=1).classical_dim() == n * (n - 1)


@pytest.mark.parametrize("n,m", [(3, 3), (4, 3), (5, 3), (4, 4)])
def test_dim_hypersurface(n, m):
    expected = m * (n - 1)
    assert ring("k_milnor", n, m).classical_dim() == expected
    assert ring("qk_milnor", n, m, trunc=1).classical_dim() == expected
    assert ring("qh_milnor", n, m, trunc=1).classical_dim() == expected


@pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 3), (4, 2)])
def test_dim_product(n, m):
    assert ring("k_pnxpm", n, m).classical_dim() == n * m


def test_flag_basis_frozen():
    R = ring("qh_fl", 3, trunc=2)
    assert R.render_basis() == ["1", "h2", "h1", "h2^2", "h1*h2", "h1*h2^2"]


def test_projective_basis_frozen():
    R = ring("qh_pn", 2, trunc=1)
    assert R.render_basis() == ["1", "h", "h^2"]


# ------------------------------------------------------- quotient arithmetic


ALL_INSTANCES = [
    ("qh_pn", 2, None, 2),
    ("qk_pn", 2, None, 2),
    ("qh_fl", 3, None, 2),
    ("qk_fl", 3, None, 2),
    ("qh_milnor", 4, 3, 2),
    ("qk_milnor", 4, 3, 2),
    ("k_milnor", 4, 3, 0),
    ("k_pnxpm", 2, 3, 0),
]


@pytest.mark.parametrize("family,n,m,trunc", ALL_INSTANCES)
def test_relations_reduce_to_zero(family, n, m, trunc):
    R = ring(family, n, m, trunc)
    for rel in R.relations:
        assert R.reduce(rel).is_zero()


# every catalog rule is monic with integer coefficients, so the rule rows
# and the product table are integral and a product sums its int
# numerators in one bucket; a family with a rational rule shows up here
INTEGRAL_INSTANCES = [
    (family, n, m, trunc)
    for family, sizes in [("qh_pn", [(1, None), (3, None)]), ("qk_pn", [(1, None), (3, None)]),
                          ("qh_fl", [(3, None), (4, None)]), ("qk_fl", [(3, None), (4, None)]),
                          ("qh_milnor", [(3, 3), (4, 3)]), ("qk_milnor", [(3, 3), (4, 3)]),
                          ("k_milnor", [(3, 3), (4, 3)]), ("k_pnxpm", [(1, 1), (2, 3)])]
    for n, m in sizes
    for trunc in ([0] if family in ("k_milnor", "k_pnxpm") else [1, 3])]


def test_integral_instances_cover_every_family():
    assert {family for family, _, _, _ in INTEGRAL_INSTANCES} == set(FAMILIES)


@pytest.mark.parametrize("family,n,m,trunc", INTEGRAL_INSTANCES)
def test_rule_rows_and_structure_constants_are_integral(family, n, m, trunc):
    R = ring(family, n, m, trunc)
    assert all(type(c) is int for _, row, *_ in R._rows for _, c in row)
    table = R.structure_constants()
    assert all(type(c) is int for entry in R._products.values() for _, _, _, c, _ in entry)
    assert all(c.denominator == 1 for coords in table.values()
               for qp in coords.values() for c in qp.values())


@pytest.mark.parametrize("family,n,m", [("qk_milnor", 4, 3), ("qk_milnor", 3, 3),
                                        ("qh_milnor", 4, 4), ("qh_milnor", 5, 3)])
def test_quantum_classical_parts_match(family, n, m):
    pres_q = make_presentation(family, n, m)
    if family == "qk_milnor":
        pres_c = make_presentation("k_milnor", n, m)
        expected = [pres_c.relation_at(j, 0).classical_part() for j in range(2)]
    else:
        # qh_milnor has no classical family in the catalog: the cohomology
        # relations of the hypersurface, written out, and its dimension
        h1, h2 = (Polynomial.var(pres_q.gens, name) for name in ("h1", "h2"))
        expected = [h2 ** m, sum(((-1) ** k * h1 ** (n - 1 - k) * h2 ** k for k in range(m)),
                                 Polynomial.zero(pres_q.gens))]
        assert ring(family, n, m, trunc=1).classical_dim() == m * (n - 1)
    assert [pres_q.relation_at(j, 2).classical_part() for j in range(2)] == expected


def test_projective_power_is_novikov():
    R = ring("qh_pn", 2, trunc=2)
    h = R.generator("h")
    q = R.q_element("q")
    assert (h ** 3 - q).is_zero()
    assert (h ** 6 - q ** 2).is_zero()
    assert not (h ** 3 + q).is_zero()


def test_qk_line_product_frozen():
    R = ring("qk_pn", 1, trunc=2)
    x = R.generator("x")
    assert (x * x).render() == "2*x - 1 + Q"


# ------------------------------------------------------------ the power law


def frozen_verify_corollary_power(n, a, trunc):
    """Marked oracle: the former qchar.catalog.verify_corollary_power, which
    no command reached.  reduce(h_a^n - q_a*(h1+h2)) in the flag ring is
    zero iff the power law holds."""
    if a not in (1, 2):
        raise ValueError("a must be 1 or 2")
    R = ring("qh_fl", n, trunc=trunc)
    ha = R.generator("h%d" % a)
    qa = R.q_element("q%d" % a)
    h1, h2 = R.generator("h1"), R.generator("h2")
    residual = ha ** n - qa * (h1 + h2)
    return Check.verdict("power law h%d" % a, residual.is_zero(),
                         "h%d^%d - q%d*(h1 + h2) reduces to %s" % (a, n, a, residual.render()))


@pytest.mark.parametrize("n,a", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_corollary_power(n, a):
    check = frozen_verify_corollary_power(n, a, trunc=2)
    assert check.passed, check.detail
    assert check.detail.endswith("reduces to 0")


def test_corollary_power_bad_index():
    with pytest.raises(ValueError):
        frozen_verify_corollary_power(3, 3, trunc=1)


def test_power_law_fails_without_novikov_factor():
    # h1^n alone is not zero in the quotient; the q1*(h1+h2) term is needed
    R = ring("qh_fl", 3, trunc=2)
    h1 = R.generator("h1")
    assert not (h1 ** 3).is_zero()


def test_operator_identity_flag():
    # multiplication operators inherit the power law entrywise
    n, D = 3, 2
    R = ring("qh_fl", n, trunc=D)
    M1 = R.mult_matrix(R.generator("h1"))
    Msum = R.mult_matrix(R.generator("h1") + R.generator("h2"))
    M2 = R.mult_matrix(R.generator("h2"))
    for M, q in ((M1, "q1"), (M2, "q2")):
        qa = Polynomial.var(R.q_vars, q)
        assert mat_pow(M, n, D) == [[(qa * e).truncate(D) for e in row] for row in Msum]


# ------------------------------------------------ the relations' one source


def frozen_hand_presentation(family, n, m=None):
    """Marked oracle: the hand-typed relations that make_presentation held
    for qh_fl, qk_fl, qk_milnor and k_milnor before it read the K relations
    off the Theorem 5.6 operators and built the flag families as m = n."""
    label = RingId(family, n, m).label()

    def f2_classical(x, y, n, m):
        f = (-1) ** (n - 1) * (1 - x) ** (n - 1)
        for t in range(1, m):
            f = f + (-1) ** (n - 1 - t) * x ** (t - 1) * (1 - x) ** (n - t - 1) * (1 - y) ** t
        return f

    if family == "qh_fl":
        gv, qv = VariableSet(["h1", "h2"]), VariableSet(["q1", "q2"])
        h1, h2, q1, q2 = (NovikovSeries.gen(gv, qv, 2, v) for v in ("h1", "h2", "q1", "q2"))
        f1 = h2 ** n - q2 * (h1 + h2)
        f2 = -q1 - ((-1) ** (n - 1)) * q2
        for l in range(n):
            f2 = f2 + ((-1) ** (n - 1 - l)) * h1 ** l * h2 ** (n - 1 - l)
        return Presentation(label, gv, qv, [("f1_q", f1), ("f2_q", f2)])
    gv = VariableSet(["x", "y"])
    if family == "k_milnor":
        qv = VariableSet([])
        x, y = NovikovSeries.gen(gv, qv, 0, "x"), NovikovSeries.gen(gv, qv, 0, "y")
        return Presentation(label, gv, qv, [("F1", (1 - y) ** m), ("F2", f2_classical(x, y, n, m))])
    qv = VariableSet(["Q1", "Q2"])
    x, y, q1, q2 = (NovikovSeries.gen(gv, qv, 2, v) for v in ("x", "y", "Q1", "Q2"))
    if family == "qk_fl":
        F1 = (1 - y) ** n - q2 + q2 * x * y
        F2 = f2_classical(x, y, n, n) - q2 * x ** (n - 1) - ((-1) ** (n - 1)) * q1 * y
    else:  # qk_milnor
        F1 = (1 - y) ** m - q2 + q2 * x * y
        F2 = (f2_classical(x, y, n, m)
              - ((-1) ** (n - m)) * q2 * x ** (m - 1) * (1 - x) ** (n - m)
              - ((-1) ** (n - 1)) * q1 * y)
    return Presentation(label, gv, qv, [("F1_Q", F1), ("F2_Q", F2)])


HAND_CASES = ([(family, n, None) for family in ("qh_fl", "qk_fl") for n in range(3, 9)]
              + [(family, n, m) for family in ("qk_milnor", "k_milnor")
                 for n in range(3, 9) for m in range(3, n + 1)])


@pytest.mark.parametrize("family,n,m", HAND_CASES)
def test_hand_presentation_matches(family, n, m):
    hand, built = frozen_hand_presentation(family, n, m), make_presentation(family, n, m)
    assert built.label == hand.label == RingId(family, n, m).label()
    assert (built.gens, built.q_vars) == (hand.gens, hand.q_vars)
    assert built.relation_names == hand.relation_names
    assert built.relation_terms == hand.relation_terms


def test_symbol_reads_the_operator():
    # t_k -> 1 - x_k, hbar -> 1, (s1, s2) -> Q1^s1*Q2^s2
    t1, t2 = Polynomial.var(THETA_VARS, "t1"), Polynomial.var(THETA_VARS, "t2")
    expr = DifferenceExpression()
    expr.add_term(2, 0, (0, 0), t1 * t2)
    expr.add_term(-3, 4, (1, 2), 1 - t2)
    q12 = VariableSet(["Q1", "Q2"])
    assert symbol(expr, q12, 3).render() == "2*x*y - 2*x - 2*y - 3*y*Q1*Q2^2 + 2"
    # without Novikov variables the shifted term drops
    assert symbol(expr, VariableSet([]), 0).render() == "2*x*y - 2*x - 2*y + 2"
    # and the cap drops a shift above it
    assert symbol(expr, q12, 2).render() == "2*x*y - 2*x - 2*y + 2"


def test_clear_caches_drops_rings_and_jacobi_contexts(monkeypatch):
    import qchar
    from qchar import catalog, mirror
    # private caches, so the shared ones stay warm for the other tests
    monkeypatch.setattr(catalog, "_RING_CACHE", {})
    monkeypatch.setattr(mirror, "_CONTEXT_CACHE", {})
    R = ring("qh_pn", 2, trunc=2)
    h = R.generator("h")
    ctx = mirror.jacobi_context(3)
    assert ring("qh_pn", 2, trunc=2) is R and mirror.jacobi_context(3) is ctx
    qchar.clear_caches()
    assert not catalog._RING_CACHE and not mirror._CONTEXT_CACHE
    assert ring("qh_pn", 2, trunc=2) is not R
    assert mirror.jacobi_context(3) is not ctx
    # an element of a dropped ring still multiplies in it
    assert (h ** 3).render() == "q"
