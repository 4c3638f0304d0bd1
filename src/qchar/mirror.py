"""Toric superpotential, its Jacobi ideal, and the flag-ring homomorphism.

The superpotential lives in a Laurent polynomial ring in x_1..x_{2n-3},
q1, q2.  Ideal membership in the localized ring is decided by adjoining
an inverse variable per generator (x_k t_k - 1, q_i u_i - 1) and running
Buchberger over the ordinary polynomial ring: a Laurent element belongs
to the localized ideal iff a denominator-cleared representative has
normal form zero there.  Clearing multiplies by a unit monomial, so it
does not change membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple, Union

from .core import Mono, Polynomial, VariableSet
from .catalog import ring
from .groebner import GroebnerData, StepCapExceeded, groebner, normal_form
from .quotient import det_bareiss, det_expansion, mat_pow
from .report import Check

DEFAULT_STEP_CAP = 10 ** 6


def laurent_vars(n: int) -> VariableSet:
    names = ["x%d" % k for k in range(1, 2 * n - 2)] + ["q1", "q2"]
    return VariableSet(names, laurent=[True] * len(names))


@dataclass
class Superpotential:
    n: int
    poly: Polynomial


def build_superpotential(n: int) -> Superpotential:
    """Sum of consecutive ratios plus the three boundary terms; x_0 = 1."""
    if n < 3:
        raise ValueError("superpotential needs n >= 3")
    vars = laurent_vars(n)

    def mono(**exps) -> Polynomial:
        m = [0] * len(vars.names)
        for name, e in exps.items():
            m[vars.index(name)] = e
        return Polynomial(vars, {tuple(m): Fraction(1)})

    f = mono(x1=1)
    for k in range(2, 2 * n - 2):
        f = f + mono(**{"x%d" % k: 1, "x%d" % (k - 1): -1})
    f = f + mono(q2=1, **{"x%d" % (n - 2): -1})
    f = f + mono(q2=-1, **{"x%d" % n: 1})
    f = f + mono(q1=1, q2=1, **{"x%d" % (2 * n - 3): -1})
    return Superpotential(n, f)


def log_derivative(p: Polynomial, name: str) -> Polynomial:
    """x * d/dx: scales each term by its exponent of the variable."""
    idx = p.vars.index(name)
    terms = {}
    for m, c in p.terms.items():
        if m[idx]:
            terms[m] = c * m[idx]
    return Polynomial(p.vars, terms)


def jacobi_relations(n: int) -> List[Polynomial]:
    f = build_superpotential(n).poly
    return [log_derivative(f, "x%d" % a) for a in range(1, 2 * n - 2)]


def clear_denominators(p: Polynomial) -> Polynomial:
    """Multiply by the smallest unit monomial making every exponent >= 0."""
    if p.is_zero():
        return p
    shifts = [0] * len(p.vars.names)
    for m in p.terms:
        for i, e in enumerate(m):
            if e < 0:
                shifts[i] = max(shifts[i], -e)
    return p.mul_mono(tuple(shifts))


def phi_images(n: int) -> Dict[str, Polynomial]:
    """h1 goes to the unit monomial q1*q2/x_{2n-3}; h2 goes to x1."""
    vars = laurent_vars(n)
    top = vars.index("x%d" % (2 * n - 3))
    m1 = [0] * len(vars.names)
    m1[top] = -1
    m1[vars.index("q1")] = 1
    m1[vars.index("q2")] = 1
    return {"h1": Polynomial(vars, {tuple(m1): Fraction(1)}),
            "h2": Polynomial.var(vars, "x1")}


# ------------------------------------------------------- membership engine


class MembershipContext:
    """Inverse-adjoined polynomial ring with a fixed Groebner basis.

    Built from denominator-cleared generators plus one inverse relation
    per Laurent variable; membership of a Laurent element is normal form
    zero of its cleared embedding.
    """

    def __init__(self, lvars: VariableSet, generators: List[Polynomial],
                 step_cap: int = DEFAULT_STEP_CAP):
        self.lvars = lvars
        k = len(lvars.names)
        names = list(lvars.names) + ["inv_%s" % nm for nm in lvars.names]
        self.vars = VariableSet(names)
        self._k = k
        gens = [self._embed(clear_denominators(g)) for g in generators]
        for i in range(k):
            m = [0] * (2 * k)
            m[i] = 1
            m[k + i] = 1
            gens.append(Polynomial(self.vars, {tuple(m): Fraction(1),
                                               (0,) * (2 * k): Fraction(-1)}))
        self.step_cap = step_cap
        # membership only needs the basis, not combination certificates
        self.gdata: GroebnerData = groebner(gens, step_cap=step_cap,
                                            track_cofactors=False)

    def _embed(self, p: Polynomial) -> Polynomial:
        terms = {}
        for m, c in p.terms.items():
            if any(e < 0 for e in m):
                raise ValueError("clear denominators before embedding")
            terms[tuple(m) + (0,) * self._k] = c
        return Polynomial(self.vars, terms)

    def contains(self, p: Polynomial) -> Tuple[bool, Polynomial]:
        nf = normal_form(self._embed(clear_denominators(p)), self.gdata,
                         step_cap=self.step_cap)
        return nf.is_zero(), nf


# a basis build that hit its step cap is cached as the exception it raised
_CONTEXT_CACHE: Dict[Tuple[int, int], Union[MembershipContext, StepCapExceeded]] = {}


def jacobi_context(n: int, step_cap: int = DEFAULT_STEP_CAP) -> MembershipContext:
    key = (n, step_cap)
    if key not in _CONTEXT_CACHE:
        try:
            _CONTEXT_CACHE[key] = MembershipContext(laurent_vars(n),
                                                    jacobi_relations(n), step_cap)
        except StepCapExceeded as e:
            _CONTEXT_CACHE[key] = e
    cached = _CONTEXT_CACHE[key]
    if isinstance(cached, StepCapExceeded):
        raise cached
    return cached


def flag_relation_images(n: int) -> Dict[str, Polynomial]:
    """The two quantum flag relations evaluated at the mirror images."""
    img = phi_images(n)
    h1, h2 = img["h1"], img["h2"]
    vars = laurent_vars(n)
    q1 = Polynomial.var(vars, "q1")
    q2 = Polynomial.var(vars, "q2")
    f1 = h2 ** n - q2 * (h1 + h2)
    f2 = -q1 - ((-1) ** (n - 1)) * q2
    for l in range(n):
        f2 = f2 + ((-1) ** (n - 1 - l)) * h1 ** l * h2 ** (n - 1 - l)
    return {"f1_q": f1, "f2_q": f2}


def _membership(name: str, p: Polynomial,
                context: Callable[[], MembershipContext]) -> Check:
    """Decide p against the ideal of context(); a step cap hit fails."""
    try:
        member, nf = context().contains(p)
    except StepCapExceeded as e:
        return Check(name, "fail", "step cap %d exceeded" % e.cap)
    return Check.verdict(name, member, "normal form 0" if member
                         else "normal form %s" % nf.render())


def verify_phi(n: int, step_cap: int = DEFAULT_STEP_CAP) -> List[Check]:
    """Well-definedness: both relation images lie in the Jacobi ideal.

    Injectivity is a module-theoretic statement and is not decided here;
    the certificate covers the membership half only.
    """
    try:
        ctx = jacobi_context(n, step_cap)
    except StepCapExceeded as e:
        return [Check("groebner basis", "fail", "step cap %d exceeded" % e.cap)]
    return [_membership("%s image membership" % name, p, lambda: ctx)
            for name, p in flag_relation_images(n).items()]


def verify_phi_sum_invertible(n: int,
                              step_cap: int = DEFAULT_STEP_CAP) -> List[Check]:
    """Image of the power law for h1, making h1+h2 invertible mod the ideal."""
    img = phi_images(n)
    h1, h2 = img["h1"], img["h2"]
    q1 = Polynomial.var(laurent_vars(n), "q1")
    target = h1 ** n - q1 * (h1 + h2)
    return [Check.verdict("h1 image is a unit monomial", len(h1.terms) == 1,
                          h1.render()),
            _membership("power-law image membership", target,
                        lambda: jacobi_context(n, step_cap))]


# -------------------------------------------------------- elimination chain


def elimination_bindings(n: int) -> Dict[str, Polynomial]:
    """x_j -> x1^j below the middle; x_k -> (x_top/(q1 q2))^{top-k} x_top above."""
    vars = laurent_vars(n)
    top = 2 * n - 3
    bindings: Dict[str, Polynomial] = {
        "q1": Polynomial.var(vars, "q1"),
        "q2": Polynomial.var(vars, "q2"),
    }
    x1 = Polynomial.var(vars, "x1")
    for j in range(1, n - 1):
        bindings["x%d" % j] = x1 ** j
    bindings["x%d" % (n - 1)] = Polynomial.var(vars, "x%d" % (n - 1))
    for k in range(n, top + 1):
        e = top - k
        m = [0] * len(vars.names)
        m[vars.index("x%d" % top)] = e + 1
        m[vars.index("q1")] = -e
        m[vars.index("q2")] = -e
        bindings["x%d" % k] = Polynomial(vars, {tuple(m): Fraction(1)})
    return bindings


def elimination_chain_checks(n: int) -> List[Check]:
    """The proof's substitutions kill the outer relations and solve x_{n-1}."""
    vars = laurent_vars(n)
    rels = jacobi_relations(n)
    bindings = elimination_bindings(n)
    out = []
    for k in list(range(1, n - 2)) + list(range(n + 1, 2 * n - 2)):
        r = rels[k - 1].substitute(bindings)
        out.append(Check.verdict("R_%d vanishes under substitution" % k,
                                 r.is_zero(), r.render()))
    mid = rels[n - 3].substitute(bindings) * Polynomial.var(vars, "x1") ** (n - 2)
    x1 = Polynomial.var(vars, "x1")
    expected = x1 ** (n - 1) - Polynomial.var(vars, "x%d" % (n - 1)) \
        - Polynomial.var(vars, "q2")
    ok = mid == expected
    out.append(Check.verdict("middle relation solves x_%d" % (n - 1), ok,
                             "x1^%d - x%d - q2" % (n - 1, n - 1) if ok
                             else (mid - expected).render()))
    return out


def ideal_equality_attempt(n: int,
                           step_cap: int = DEFAULT_STEP_CAP) -> List[Check]:
    """Two-sided membership for the three survivors of the elimination.

    Side A: the middle Jacobi relations after substitution; side B: the
    solved x_{n-1} relation plus both flag relation images.  Either
    direction may hit the step cap; that is reported, not hidden.
    """
    vars = laurent_vars(n)
    rels = jacobi_relations(n)
    bindings = elimination_bindings(n)
    side_a = [clear_denominators(rels[a - 1].substitute(bindings))
              for a in range(n - 2, n + 1)]
    x1 = Polynomial.var(vars, "x1")
    solved = Polynomial.var(vars, "x%d" % (n - 1)) - x1 ** (n - 1) \
        + Polynomial.var(vars, "q2")
    images = flag_relation_images(n)
    side_b = [solved, clear_denominators(images["f1_q"]),
              clear_denominators(images["f2_q"])]

    out = []
    for label, gens, probes in (("A in B", side_b, side_a),
                                ("B in A", side_a, side_b)):
        try:
            ctx = MembershipContext(vars, gens, step_cap)
        except StepCapExceeded as e:
            out.append(Check(label, "fail", "basis step cap %d exceeded" % e.cap))
            continue
        out.extend(_membership("%s generator %d" % (label, i + 1), p, lambda: ctx)
                   for i, p in enumerate(probes))
    return out


# ------------------------------------------------------ determinant route


def direct_nzd_check(n: int, trunc: int) -> List[Check]:
    """Multiplication by h1+h2 is injective on the truncated flag module.

    Certified by: stabilized multiplication matrices, the operator power
    law, agreement of two determinant algorithms, the exact determinant
    identity, and a nonzero lowest-order determinant term.
    """
    R = ring("qh_fl", n, trunc=trunc)
    R1 = ring("qh_fl", n, trunc=trunc + 1)
    out = []

    def matrices(ring_):
        h1 = ring_.generator("h1")
        hsum = h1 + ring_.generator("h2")
        return ring_.mult_matrix(h1), ring_.mult_matrix(hsum)

    M1_D, Msum_D = matrices(R)
    M1_G, Msum_G = matrices(R1)
    stable = M1_D == M1_G and Msum_D == Msum_G
    out.append(Check.verdict("matrix entries stabilized", stable,
                             "truncations %d and %d agree" % (trunc, trunc + 1)
                             if stable else "entries change with the truncation; "
                             "raise the truncation order"))

    q1 = Polynomial.var(R.q_vars, "q1")
    ident = mat_pow(M1_D, n, trunc) == [[(q1 * e).truncate(trunc) for e in row]
                                        for row in Msum_D]
    out.append(Check.verdict("operator power law", ident,
                             "M(h1)^%d = q1*M(h1+h2) at truncation %d" % (n, trunc)
                             if ident else "operator identity fails"))

    if stable:
        det_sum = det_bareiss(Msum_D)
        agree = det_sum.truncate(trunc) == det_expansion(Msum_D, trunc)
        out.append(Check.verdict("determinant routes agree", agree,
                                 "elimination and expansion match to order %d" % trunc
                                 if agree else "algorithms disagree"))

        det_h1 = det_bareiss(M1_D)
        N = n * (n - 1)
        det_ident = det_h1 ** n == q1 ** N * det_sum
        out.append(Check.verdict("determinant identity", det_ident,
                                 "det(M(h1))^%d = q1^%d * det(M(h1+h2))" % (n, N)
                                 if det_ident else "exact determinant identity fails"))

        if det_sum.is_zero():
            out.append(Check("lowest-order term nonzero", "fail",
                             "determinant is identically zero"))
        else:
            low = min(sum(m) for m in det_sum.terms)
            out.append(Check("lowest-order term nonzero", "pass",
                             "order %d witness %s" % (low, det_sum.truncate(low).render())))

    zero_det = det_expansion(R.mult_matrix(R.zero()), trunc)
    out.append(Check.verdict("zero-element control", zero_det.is_zero(),
                             "det(M(0)) = 0"))
    return out
