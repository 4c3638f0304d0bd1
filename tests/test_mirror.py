"""Superpotential, Jacobi ideal membership, and the determinant route."""

from fractions import Fraction

import pytest

from qchar import mirror
from qchar.core import Polynomial
from qchar.groebner import groebner
from qchar.mirror import (
    MembershipContext,
    build_superpotential,
    clear_denominators,
    direct_nzd_check,
    elimination_bindings,
    elimination_chain_checks,
    flag_relation_images,
    ideal_equality_attempt,
    jacobi_context,
    jacobi_relations,
    laurent_vars,
    log_derivative,
    phi_images,
    verify_phi,
    verify_phi_sum_invertible,
)
from qchar.report import Check


def mono(vars, **exps):
    m = [0] * len(vars.names)
    for name, e in exps.items():
        m[vars.index(name)] = e
    return Polynomial(vars, {tuple(m): Fraction(1)})


# ------------------------------------------------------------ superpotential


def test_superpotential_n3_terms():
    # x1 + x2/x1 + x3/x2 + q2/x1 + x3/q2 + q1*q2/x3, with x_0 = 1
    v = laurent_vars(3)
    expected = (mono(v, x1=1) + mono(v, x2=1, x1=-1) + mono(v, x3=1, x2=-1)
                + mono(v, q2=1, x1=-1) + mono(v, x3=1, q2=-1)
                + mono(v, q1=1, q2=1, x3=-1))
    assert build_superpotential(3).poly == expected


def test_superpotential_n4_boundary_terms():
    v = laurent_vars(4)
    f = build_superpotential(4).poly
    assert len(f.terms) == 8
    # the three non-chain terms sit at x2, x4 and x5
    for probe in (mono(v, q2=1, x2=-1), mono(v, x4=1, q2=-1),
                  mono(v, q1=1, q2=1, x5=-1)):
        (m, c), = probe.terms.items()
        assert f.terms.get(m) == c


def test_superpotential_rejects_small_n():
    with pytest.raises(ValueError):
        build_superpotential(2)


def test_log_derivative_scales_by_exponent():
    v = laurent_vars(3)
    p = mono(v, x1=2) + mono(v, x2=1, x1=-3) + mono(v, x2=5)
    assert log_derivative(p, "x1") == 2 * mono(v, x1=2) - 3 * mono(v, x2=1, x1=-3)


def test_jacobi_relations_n3():
    v = laurent_vars(3)
    r1, r2, r3 = jacobi_relations(3)
    assert r1 == mono(v, x1=1) - mono(v, x2=1, x1=-1) - mono(v, q2=1, x1=-1)
    assert r2 == mono(v, x2=1, x1=-1) - mono(v, x3=1, x2=-1)
    assert r3 == (mono(v, x3=1, x2=-1) + mono(v, x3=1, q2=-1)
                  - mono(v, q1=1, q2=1, x3=-1))


def test_jacobi_relations_n4_edges():
    v = laurent_vars(4)
    rels = jacobi_relations(4)
    x1 = mono(v, x1=1)
    assert rels[0] * x1 == mono(v, x1=2) - mono(v, x2=1)
    x4x5 = mono(v, x4=1, x5=1)
    assert rels[4] * x4x5 == mono(v, x5=2) - mono(v, q1=1, q2=1, x4=1)


def test_clear_denominators():
    v = laurent_vars(3)
    r1 = jacobi_relations(3)[0]
    assert clear_denominators(r1) == (mono(v, x1=2) - mono(v, x2=1)
                                      - mono(v, q2=1))
    p = mono(v, x1=1)
    assert clear_denominators(p) == p
    assert clear_denominators(Polynomial.zero(v)).is_zero()


# ------------------------------------------------------------------- images


def test_phi_images_n3():
    v = laurent_vars(3)
    img = phi_images(3)
    assert img["h1"] == mono(v, q1=1, q2=1, x3=-1)
    assert img["h2"] == mono(v, x1=1)


def test_flag_relation_images_n3_expanded():
    # hand expansion of h2^3 - q2(h1+h2) and h2^2 - h1 h2 + h1^2 - q1 - q2
    v = laurent_vars(3)
    images = flag_relation_images(3)
    f1 = mono(v, x1=3) - mono(v, q1=1, q2=2, x3=-1) - mono(v, q2=1, x1=1)
    f2 = (mono(v, x1=2) - mono(v, q1=1, q2=1, x3=-1, x1=1)
          + mono(v, q1=2, q2=2, x3=-2) - mono(v, q1=1) - mono(v, q2=1))
    assert images["f1_q"] == f1
    assert images["f2_q"] == f2


# --------------------------------------------------------------- membership


def test_verify_phi_n3():
    checks = verify_phi(3)
    assert [c.name for c in checks] == ["f1_q image membership",
                                       "f2_q image membership"]
    assert all(c.passed for c in checks)
    assert all(c.detail == "normal form 0" for c in checks)


def test_verify_phi_membership_order_independent():
    # same memberships through a basis built from the reversed generator list
    ctx = MembershipContext(laurent_vars(3),
                            list(reversed(jacobi_relations(3))))
    for p in flag_relation_images(3).values():
        member, _ = ctx.contains(p)
        assert member


def test_negative_control_not_a_member():
    # h2^3 - q2*h2 maps to x1^3 - q2*x1, congruent to x1*x2, not zero
    v = laurent_vars(3)
    wrong = mono(v, x1=3) - mono(v, q2=1, x1=1)
    member, nf = jacobi_context(3).contains(wrong)
    assert not member
    assert nf.render() != "0"


def test_verify_phi_sum_invertible_n3():
    checks = verify_phi_sum_invertible(3)
    assert checks[0].name == "h1 image is a unit monomial"
    assert checks[0].passed
    assert checks[1].passed


def test_capped_basis_is_built_once(monkeypatch):
    # a basis that hits its step cap is not rebuilt by the next verifier
    calls = []

    def counting_groebner(*args, **kwargs):
        calls.append(kwargs.get("step_cap"))
        return groebner(*args, **kwargs)

    monkeypatch.setattr(mirror, "groebner", counting_groebner)
    monkeypatch.setattr(mirror, "_CONTEXT_CACHE", {})
    first = verify_phi(3, 20)
    second = verify_phi_sum_invertible(3, 20)
    assert calls == [20]
    assert first == [Check("groebner basis", "fail", "step cap 20 exceeded")]
    assert second[1] == Check("power-law image membership", "fail",
                              "step cap 20 exceeded")


def test_membership_respects_unit_scaling():
    # multiplying a member by a unit monomial keeps it a member
    v = laurent_vars(3)
    ctx = jacobi_context(3)
    p = flag_relation_images(3)["f1_q"] * mono(v, x2=-2, q1=1)
    member, _ = ctx.contains(p)
    assert member


# ------------------------------------------------------- elimination chain


def test_elimination_bindings_n4():
    v = laurent_vars(4)
    b = elimination_bindings(4)
    assert b["x2"] == mono(v, x1=2)
    assert b["x3"] == mono(v, x3=1)
    assert b["x4"] == mono(v, x5=2, q1=-1, q2=-1)
    assert b["x5"] == mono(v, x5=1)


def test_elimination_chain_n4():
    checks = elimination_chain_checks(4)
    names = [c.name for c in checks]
    assert names == ["R_1 vanishes under substitution",
                     "R_5 vanishes under substitution",
                     "middle relation solves x_3"]
    assert all(c.passed for c in checks)


def test_elimination_chain_n3():
    # nothing to kill at n=3; the lone check solves x_2 = x1^2 - q2
    checks = elimination_chain_checks(3)
    assert len(checks) == 1
    assert checks[0].passed


def test_middle_relation_value_n4():
    v = laurent_vars(4)
    rels = jacobi_relations(4)
    sub = rels[1].substitute(elimination_bindings(4))
    assert sub * mono(v, x1=2) == mono(v, x1=3) - mono(v, x3=1) - mono(v, q2=1)


def test_ideal_equality_attempt_n4():
    # both inclusions resolve inside the default step cap: the three
    # surviving relations generate the same localized ideal as the
    # solved middle variable plus the two flag relation images
    checks = ideal_equality_attempt(4)
    assert len(checks) == 6
    for c in checks:
        assert c.passed, "%s: %s" % (c.name, c.detail)


# ------------------------------------------------------- determinant route


def test_direct_nzd_n3():
    checks = direct_nzd_check(3, 3)
    by_name = {c.name: c for c in checks}
    for name in ("matrix entries stabilized", "operator power law",
                 "determinant routes agree", "determinant identity",
                 "lowest-order term nonzero", "zero-element control"):
        assert by_name[name].passed, by_name[name].detail
    # both determinant algorithms produce -(q1+q2)^3 in lowest order
    assert by_name["lowest-order term nonzero"].detail == \
        "order 3 witness -q1^3 - 3*q1^2*q2 - 3*q1*q2^2 - q2^3"


def test_direct_nzd_unstable_truncation_reported():
    checks = direct_nzd_check(3, 0)
    assert not checks[0].passed
    names = [c.name for c in checks]
    assert "determinant routes agree" not in names
    # the control still runs
    assert checks[-1].name == "zero-element control"
