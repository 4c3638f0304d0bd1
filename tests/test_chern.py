"""Tests for the exponential ring maps and their certificates."""

import random
from fractions import Fraction

import pytest

from qchar import chern
from qchar.analytic import EXP_NEG, OMEOX, eval_deg2
from qchar.catalog import make_presentation, milnor_f2_poly, ring
from qchar.chern import (
    QuantumChernMap,
    build_qch,
    classical_limit_images,
    qch_apply,
    solve_unique_novikov_image,
    verify_classical_limit,
    verify_lemma_todd_simplify,
    verify_relations,
)
from qchar.core import Polynomial
from qchar.quotient import AlgebraElement

F = Fraction


# ------------------------------------------------------------- construction


def test_line_novikov_image_frozen():
    qmap = build_qch("pn", 1, trunc=1)
    assert qmap.novikov_images["Q"].render() == "-h*q + q"


def test_generator_image_is_exponential():
    qmap = build_qch("fl", 3, trunc=2)
    R = qmap.target
    assert qmap.gen_images["x"] == eval_deg2(EXP_NEG, R.generator("h1"), R)
    assert qmap.gen_images["y"] == eval_deg2(EXP_NEG, R.generator("h2"), R)


def test_source_presentation_built_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return make_presentation(*args)

    monkeypatch.setattr(chern, "make_presentation", counting)
    qmap = build_qch("fl", 3, trunc=1)
    verify_relations(qmap)
    verify_relations(qmap)
    assert len(calls) == 1
    assert qmap.source_presentation is qmap.source_presentation


def test_build_validation():
    with pytest.raises(ValueError):
        build_qch("pn", 2, m=3, trunc=1)
    with pytest.raises(ValueError):
        build_qch("grassmannian", 2, trunc=1)
    with pytest.raises(ValueError):
        build_qch("milnor", 3, 2, trunc=1)


def test_identity_class_maps_to_one():
    for space, n, m in (("pn", 2, None), ("milnor", 4, 3)):
        qmap = build_qch(space, n, m, trunc=1)
        pres = qmap.source_presentation
        one = Polynomial.const(pres.gens, 1)
        assert qch_apply(qmap, one) == qmap.target.one()


# ------------------------------------------------------------- verification


@pytest.mark.parametrize("n", [1, 2, 3])
def test_projective_relations_vanish(n):
    checks = verify_relations(build_qch("pn", n, trunc=2))
    assert all(c.passed for c in checks)


def test_flag_relations_vanish():
    checks = verify_relations(build_qch("fl", 3, trunc=2))
    assert [c.name for c in checks] == ["relation F1_Q", "relation F2_Q"]
    assert all(c.passed for c in checks)


def test_hypersurface_relations_vanish():
    checks = verify_relations(build_qch("milnor", 4, 3, trunc=2))
    assert all(c.passed for c in checks)


def test_corrupted_map_fails():
    qmap = build_qch("pn", 2, trunc=1)
    bad = QuantumChernMap(qmap.space, qmap.source, qmap.target, qmap.gen_images,
                          {"Q": qmap.target.q_element("q")}, qmap.trunc)
    checks = verify_relations(bad)
    assert not checks[0].passed
    assert checks[0].detail != "0"


def test_power_identity_on_line():
    # (1 - x)^2 and Q map to the same element: the defining identity
    qmap = build_qch("pn", 1, trunc=2)
    pres = qmap.source_presentation
    x = Polynomial.var(pres.gens, "x")
    lhs = qch_apply(qmap, (1 - x) ** 2)
    assert lhs == qmap.novikov_images["Q"]


# ---------------------------------------------------------- classical limit


@pytest.mark.parametrize("space,n,m", [("pn", 2, None), ("fl", 3, None),
                                       ("milnor", 4, 3)])
def test_classical_limit(space, n, m):
    check = verify_classical_limit(build_qch(space, n, m, trunc=1))
    assert check.name == "classical limit"
    assert check.passed, check.detail


def _frozen_full_truncation_limits(qmap):
    # the route before the q-free ring: multiply the images at the map's
    # truncation, then keep the classical part of each
    source0 = qmap.source_ring(0)
    src_gens = source0.gens.names
    images = {source0.gens.zero_mono(): qmap.target.one()}

    def image(mono):
        if mono not in images:
            i = next(i for i, e in enumerate(mono) if e)
            smaller = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
            images[mono] = image(smaller) * qmap.gen_images[src_gens[i]]
        return images[mono]

    return {mono: image(mono).classical_part() for mono in source0.basis_monos}


_LIMIT_CASES = ([("pn", n, None) for n in range(1, 5)]
                + [("fl", n, None) for n in range(3, 6)]
                + [("milnor", 4, 3), ("milnor", 5, 4)])


@pytest.mark.parametrize("space,n,m", _LIMIT_CASES)
def test_q_free_limit_matches_full_truncation_route(space, n, m):
    for D in range(1, 5):
        qmap = build_qch(space, n, m, trunc=D)
        frozen = _frozen_full_truncation_limits(qmap)
        got = classical_limit_images(qmap)
        assert list(got) == list(frozen)
        for mono, img in got.items():
            assert img.ring.trunc == 0
            assert img.classical_part() == frozen[mono], (space, n, m, D, mono)


def test_classical_limit_multiplies_nothing_at_the_map_truncation(monkeypatch):
    qmap = build_qch("milnor", 5, 4, trunc=3)
    rings = []
    real_mul = AlgebraElement.__mul__

    def spy(self, other):
        rings.append(self.ring)
        return real_mul(self, other)

    monkeypatch.setattr(AlgebraElement, "__mul__", spy)
    check = verify_classical_limit(qmap)
    assert check.passed, check.detail
    assert rings, "the spy saw no product"
    assert all(R.trunc == 0 for R in rings)
    assert not any(R is qmap.target for R in rings)


@pytest.mark.parametrize("space,n,m", _LIMIT_CASES)
def test_source_basis_is_the_trunc0_ring_basis(space, n, m):
    qmap = build_qch(space, n, m, trunc=1)
    assert qmap.source_basis == qmap.source_ring(0).basis_monos


def test_classical_limit_builds_no_source_ring(monkeypatch):
    # the basis and generator names come from the presentation alone
    qmap = build_qch("milnor", 5, 4, trunc=3)
    families = []
    real_ring = chern.ring

    def spy(family, *args, **kwargs):
        families.append(family)
        return real_ring(family, *args, **kwargs)

    def refuse(self, trunc=None):
        raise AssertionError("source ring built at trunc %r" % (trunc,))

    monkeypatch.setattr(chern, "ring", spy)
    monkeypatch.setattr(QuantumChernMap, "source_ring", refuse)
    assert verify_classical_limit(qmap).passed
    assert families and set(families) == {"qh_milnor"}


def test_corrupted_generator_image_fails_classical_limit():
    # x -> e^{-2 h1} on the flag n=3: the relations are not consulted here,
    # the classical limit alone must catch it
    qmap = build_qch("fl", 3, trunc=2)
    R = qmap.target
    bad_x = eval_deg2(EXP_NEG, R.generator("h1").scale(2), R)
    bad = QuantumChernMap(qmap.space, qmap.source, R, dict(qmap.gen_images, x=bad_x),
                          qmap.novikov_images, qmap.trunc)
    check = verify_classical_limit(bad)
    assert check.name == "classical limit"
    assert not check.passed
    assert "x: map limit " in check.detail and ", character " in check.detail
    # monomials free of x keep their images and still agree
    assert "1: limits agree" in check.detail
    assert "y: limits agree" in check.detail
    assert verify_classical_limit(qmap).passed


def test_classical_square_of_generator():
    qmap = build_qch("pn", 2, trunc=1)
    pres = qmap.source_presentation
    x = Polynomial.var(pres.gens, "x")
    img = qch_apply(qmap, x * x).classical_part()
    R0 = ring("qh_pn", 2, trunc=0)
    h = R0.generator("h")
    expected = (R0.one() - h.scale(2) + (h * h).scale(2)).as_series().classical_part()
    assert img == expected


# ---------------------------------------------------------------- uniqueness


@pytest.mark.parametrize("n,D", [(1, 2), (2, 2)])
def test_unique_solution_matches_built_image(n, D):
    sol, unique = solve_unique_novikov_image(n, D)
    assert unique
    assert sol == build_qch("pn", n, trunc=D).novikov_images["Q"]


def test_unique_solution_zero_rhs():
    R1 = ring("qh_pn", 1, trunc=3)
    sol, unique = solve_unique_novikov_image(1, 2, rhs=R1.zero())
    assert unique and sol.is_zero()


def test_unique_solution_rejects_novikov_free_rhs():
    R1 = ring("qh_pn", 1, trunc=3)
    with pytest.raises(ValueError):
        solve_unique_novikov_image(1, 2, rhs=R1.one())


# -------------------------------------------------------------- lemma checks


@pytest.mark.parametrize("n,D", [(3, 2), (4, 2)])
def test_todd_simplification_lemma(n, D):
    checks = verify_lemma_todd_simplify(n, D)
    assert [c.name for c in checks] == ["a=1", "a=2"]
    assert all(c.passed for c in checks)


def test_second_relation_proof_identity():
    # (1 - e^{-(h1+h2)}) * F2(e^{-h1}, e^{-h2})
    #   = (1-e^{-h2})^n * (e^{-h1})^{n-1} + (-1)^{n-1} (1-e^{-h1})^n * e^{-h2}
    n, D = 3, 2
    qmap = build_qch("fl", n, trunc=D)
    R = qmap.target
    e1, e2 = qmap.gen_images["x"], qmap.gen_images["y"]
    hsum = R.generator("h1") + R.generator("h2")
    front = R.one() - eval_deg2(EXP_NEG, hsum, R)
    f2 = milnor_f2_poly(qmap.source_presentation.gens, n, n)
    lhs = front * qch_apply(qmap, f2)
    rhs = ((R.one() - e2) ** n * e1 ** (n - 1)
           + ((R.one() - e1) ** n * e2).scale((-1) ** (n - 1)))
    assert lhs == rhs


def test_telescoping_cancellation():
    qmap = build_qch("fl", 3, trunc=2)
    R = qmap.target
    e1, e2 = qmap.gen_images["x"], qmap.gen_images["y"]
    hsum = R.generator("h1") + R.generator("h2")
    esum = eval_deg2(EXP_NEG, hsum, R)
    assert (e1 - R.one()) - e1 * (R.one() - e2) == -(R.one() - esum)


# ------------------------------------------------------------- homomorphism


def test_substitution_is_multiplicative():
    rng = random.Random(7)
    for space, n, m, D in (("pn", 2, None, 2), ("fl", 3, None, 1)):
        qmap = build_qch(space, n, m, trunc=D)
        src = qmap.source_ring()
        for _ in range(4):
            s1 = src.random_series(rng)
            s2 = src.random_series(rng)
            assert (qch_apply(qmap, s1 * s2)
                    == qch_apply(qmap, s1) * qch_apply(qmap, s2))


def test_representative_independence():
    qmap = build_qch("pn", 2, trunc=2)
    pres = qmap.source_presentation
    x = Polynomial.var(pres.gens, "x")
    rel = pres.relation_at(0, 2)
    expr = x ** 2 + 3
    assert qch_apply(qmap, expr + rel) == qch_apply(qmap, expr)
