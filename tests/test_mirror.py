"""Superpotential, Jacobi ideal membership, and the determinant route."""

import random
from fractions import Fraction

import pytest

from qchar import mirror
from qchar.core import Polynomial, VariableSet, mono_div, mono_divides, mono_mul
from qchar.groebner import groebner, lcm_mono, normal_form
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
    assert build_superpotential(3) == expected


def test_superpotential_n4_boundary_terms():
    v = laurent_vars(4)
    f = build_superpotential(4)
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


class PerVariableInverseContext:
    """Oracle: one inverse variable per Laurent variable.

    Adjoins inv_v with v * inv_v - 1 for every Laurent variable v, which
    localizes at the same monomials as MembershipContext's single
    inverse by a different route.  Frozen here for cross-checking.
    """

    def __init__(self, lvars, generators):
        k = len(lvars.names)
        self.vars = VariableSet(list(lvars.names) + ["inv_%s" % nm for nm in lvars.names])
        self._k = k
        gens = [self._embed(clear_denominators(g)) for g in generators]
        for i in range(k):
            m = [0] * (2 * k)
            m[i] = 1
            m[k + i] = 1
            gens.append(Polynomial(self.vars, {tuple(m): Fraction(1),
                                               (0,) * (2 * k): Fraction(-1)}))
        self.gdata = groebner(gens, track_cofactors=False)

    def _embed(self, p):
        return Polynomial(self.vars, {tuple(m) + (0,) * self._k: c
                                      for m, c in p.terms.items()})

    def contains(self, p):
        return normal_form(self._embed(clear_denominators(p)), self.gdata).is_zero()


def random_laurent(rng, vars, nterms):
    terms = {}
    for _ in range(nterms):
        m = tuple(rng.randint(-2, 2) for _ in vars.names)
        terms[m] = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))
    return Polynomial(vars, terms)


def test_single_inverse_agrees_with_per_variable_oracle():
    n = 3
    v = laurent_vars(n)
    rels = jacobi_relations(n)
    img = phi_images(n)
    h1, h2 = img["h1"], img["h2"]
    probes = list(flag_relation_images(n).values())
    probes.append(h1 ** n - mono(v, q1=1) * (h1 + h2))
    probes.append(mono(v, x1=3) - mono(v, q2=1, x1=1))
    probes.append(mono(v, x1=1, x2=1, x3=1, q1=1, q2=1) - 1)
    rng = random.Random(2026)
    for i in range(10):
        # even i: a Laurent combination of the relations, odd i: arbitrary
        if i % 2 == 0:
            p = Polynomial.zero(v)
            for r in rels:
                p = p + random_laurent(rng, v, 2) * r
        else:
            p = random_laurent(rng, v, 3)
        probes.append(p)
    oracle = PerVariableInverseContext(v, rels)
    ctx = jacobi_context(n)
    verdicts = [ctx.contains(p)[0] for p in probes]
    assert verdicts == [oracle.contains(p) for p in probes]
    # images, power law and the combinations are members; the controls
    # and some arbitrary polynomial are not
    assert verdicts[:5] == [True, True, True, False, False]
    assert verdicts[5::2] == [True] * 5
    assert False in verdicts[6::2]


@pytest.mark.parametrize("n, size, steps", [(3, 17, 155), (4, 48, 1853)])
def test_jacobi_basis_size_and_steps_pinned(n, size, steps):
    # --step-cap counts these steps, so a change to the reduction loop
    # or the pair criteria must re-pin them on purpose
    gdata = jacobi_context(n).gdata
    assert (len(gdata.basis), gdata.steps) == (size, steps)


@pytest.mark.parametrize("n", [3, 4])
def test_jacobi_basis_satisfies_buchberger_criterion(n):
    # exact certificate of the basis: every input reduces to zero and so
    # does every S-pair whose leading monomials share a variable
    gdata = jacobi_context(n).gdata
    for r in gdata.relations:
        assert normal_form(r, gdata).is_zero()
    basis = gdata.basis
    lms = gdata.leading_monomials()
    checked = 0
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            lcm = lcm_mono(lms[i], lms[j])
            if lcm == mono_mul(lms[i], lms[j]):
                continue
            spoly = (basis[i].mul_mono(mono_div(lcm, lms[i]))
                     - basis[j].mul_mono(mono_div(lcm, lms[j])))
            assert normal_form(spoly, gdata).is_zero()
            checked += 1
    assert checked > 0
    # reduced: monic, and no term of one element divisible by another's lead
    for i, g in enumerate(basis):
        assert g.leading() == (lms[i], 1)
        for m in g.terms:
            assert not any(k != i and mono_divides(lms[k], m)
                           for k in range(len(basis)))


def test_jacobi_basis_matches_sympy():
    sympy = pytest.importorskip("sympy")
    gdata = jacobi_context(3).gdata
    symbols = sympy.symbols(gdata.vars.names)

    def to_sympy(p):
        return sympy.Poly({m: sympy.Rational(c.numerator, c.denominator)
                           for m, c in p.terms.items()}, *symbols, domain="QQ")

    def term_set(poly):
        return frozenset((m, Fraction(int(c.p), int(c.q))) for m, c in poly.terms())

    theirs = sympy.groebner([to_sympy(r) for r in gdata.relations], *symbols,
                            order="grevlex", domain="QQ")
    assert len(theirs.polys) == len(gdata.basis)
    assert {term_set(p) for p in theirs.polys} == \
        {frozenset(g.terms.items()) for g in gdata.basis}


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
