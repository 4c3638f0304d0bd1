"""Ring maps sending K-theory generators to exponentials of h-classes.

Each map carries the images of the inverse line classes (e^{-h_a}) and
of the Novikov variables (q_a times a ratio of Todd-type factors).  A
Todd-type factor f(h)^e is evaluated as the one series f**e at h
(analytic.UnivariateSeries.power): evaluation at a class that is
nilpotent in the truncated ring is a ring map, so the two are equal.

A map is certified by substituting it into the source relations and
checking that every residual reduces to the zero element, and by
comparing its Novikov-free limit with the classical Chern character.
The limit is computed in the q-free (trunc-0) target ring from the
classical parts of the generator images, so nothing at the map's
truncation is multiplied only to be thrown away; that is exact because
no rewrite lowers the q-degree (classical_limit_images).  The source's
classical basis comes from a Groebner basis of its presentation's
classical relations (QuantumChernMap.source_basis): the check reads
no other part of a source ring, so it builds none.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .analytic import EXP_NEG, OMEOX, XOME, eval_deg2
from .catalog import RingId, make_presentation, ring
from .core import Mono, NovikovSeries, Polynomial, evaluate
from .groebner import groebner, standard_monomials
from .quotient import AlgebraElement, Presentation, PresentedAlgebra
from .report import Check

SPACES = ("pn", "fl", "milnor")

_SOURCE_FAMILY = {"pn": "qk_pn", "fl": "qk_fl", "milnor": "qk_milnor"}
_TARGET_FAMILY = {"pn": "qh_pn", "fl": "qh_fl", "milnor": "qh_milnor"}


@dataclass
class QuantumChernMap:
    space: str
    source: RingId
    target: PresentedAlgebra
    gen_images: Dict[str, AlgebraElement]
    novikov_images: Dict[str, AlgebraElement]
    trunc: int

    @cached_property
    def source_presentation(self) -> Presentation:
        return make_presentation(self.source.family, self.source.n, self.source.m)

    @cached_property
    def source_basis(self) -> List[Mono]:
        """The classical basis of the source, source_ring(0).basis_monos,
        from the Groebner basis of the classical relations alone."""
        classical = [r.classical_part() for r in self.source_presentation.relations_at(0)]
        return standard_monomials(groebner(classical, track_cofactors=False))

    def source_ring(self, trunc: Optional[int] = None) -> PresentedAlgebra:
        t = self.trunc if trunc is None else trunc
        return ring(self.source.family, self.source.n, self.source.m, t)


def build_qch(space: str, n: int, m: Optional[int] = None,
              trunc: int = 4) -> QuantumChernMap:
    if space not in SPACES:
        raise ValueError("unknown space %r" % space)
    if space != "milnor" and m is not None:
        raise ValueError("%s takes no m parameter" % space)
    source = RingId(_SOURCE_FAMILY[space], n, m, trunc)
    target = ring(_TARGET_FAMILY[space], n, m, trunc)

    if space == "pn":
        h = target.generator("h")
        gen_images = {"x": eval_deg2(EXP_NEG, h, target)}
        inv_todd = eval_deg2(OMEOX.power(n + 1), h, target)
        novikov_images = {"Q": target.q_element("q") * inv_todd}
    else:
        h1, h2 = target.generator("h1"), target.generator("h2")
        hsum = h1 + h2
        gen_images = {"x": eval_deg2(EXP_NEG, h1, target),
                      "y": eval_deg2(EXP_NEG, h2, target)}
        sum_factor = eval_deg2(XOME, hsum, target)
        exps = {"Q1": n, "Q2": n if space == "fl" else m}
        novikov_images = {}
        for a, qname in ((1, "Q1"), (2, "Q2")):
            ha = target.generator("h%d" % a)
            inv_todd = eval_deg2(OMEOX.power(exps[qname]), ha, target)
            novikov_images[qname] = (target.q_element("q%d" % a)
                                     * inv_todd * sum_factor)
    return QuantumChernMap(space, source, target, gen_images, novikov_images, trunc)


def qch_apply(qmap: QuantumChernMap, expr) -> AlgebraElement:
    """Substitute the map's images into an expression over the source ring."""
    pres = qmap.source_presentation
    if isinstance(expr, AlgebraElement):
        expr = expr.as_series()
    # a series is a Polynomial too, so it is told apart first
    if isinstance(expr, NovikovSeries):
        if expr.main_vars != pres.gens or expr.q_vars != pres.q_vars:
            raise ValueError("expression over wrong variable sets")
    elif isinstance(expr, Polynomial):
        if expr.vars != pres.gens:
            raise ValueError("expression over wrong generators")
    else:
        raise TypeError("cannot substitute into %r" % (expr,))
    return evaluate(expr.terms, expr.vars.names,
                    {**qmap.gen_images, **qmap.novikov_images}, qmap.target.one())


def verify_relations(qmap: QuantumChernMap) -> List[Check]:
    """Substitute images into each source relation; the residuals must vanish.

    One check per relation, in presentation order; the detail is the residual.
    """
    pres = qmap.source_presentation
    out = []
    for j, name in enumerate(pres.relation_names):
        residual = qch_apply(qmap, pres.relation_at(j, qmap.trunc))
        out.append(Check.verdict("relation %s" % name, residual.is_zero(),
                                 residual.render()))
    return out


def classical_limit_images(qmap: QuantumChernMap) -> Dict[Mono, AlgebraElement]:
    """The q=0 image of every source classical basis monomial, in basis order.

    Each image lives in the trunc-0 target ring and is built from a
    smaller monomial's, image(m) = image(m / x_i) * image(x_i), so every
    image costs one product, starting from the classical parts of the
    generator images.  That is exact: no rewrite lowers the q-degree, so
    the q^0 part of a normal form depends only on the q^0 parts of the
    factors, and the classical part of an image at the map's truncation
    is the trunc-0 product of the classical parts.
    """
    gens = qmap.source_presentation.gens
    target0 = ring(_TARGET_FAMILY[qmap.space], qmap.source.n, qmap.source.m, 0)
    gen_images = [target0.reduce(qmap.gen_images[g].classical_part()) for g in gens.names]
    images = {gens.zero_mono(): target0.one()}

    def image(mono):
        if mono not in images:
            i = next(i for i, e in enumerate(mono) if e)
            smaller = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
            images[mono] = image(smaller) * gen_images[i]
        return images[mono]

    return {mono: image(mono) for mono in qmap.source_basis}


def verify_classical_limit(qmap: QuantumChernMap) -> Check:
    """Compare the q=0 limit against the nilpotent-exponential character.

    One check over every monomial in the source classical basis: route one
    pushes it through the map and drops Novikov terms
    (classical_limit_images, which multiplies only in the trunc-0 target
    ring); route two exponentiates the matching negative h-combination in
    that ring.  The routes stay independent: one multiplies generator
    images, the other exponentiates the combined class.
    """
    src_gens = qmap.source_presentation.gens
    target0 = ring(_TARGET_FAMILY[qmap.space], qmap.source.n, qmap.source.m, 0)
    tgt_gens = target0.gens.names
    ok = True
    details = []
    for mono, img in classical_limit_images(qmap).items():
        via_map = img.classical_part()
        alpha = target0.zero()
        for idx, e in enumerate(mono):
            if e:
                alpha = alpha + target0.generator(tgt_gens[idx]).scale(e)
        direct = eval_deg2(EXP_NEG, alpha, target0) if not alpha.is_zero() \
            else target0.one()
        name = src_gens.render_mono(mono) or "1"
        if via_map == direct.as_series().classical_part():
            details.append("%s: limits agree" % name)
        else:
            ok = False
            details.append("%s: map limit %s, character %s"
                           % (name, via_map.render(), direct.render()))
    return Check.verdict("classical limit", ok,
                         "; ".join(details) or "matches nilpotent exponential")


def solve_unique_novikov_image(n: int, trunc: int,
                               rhs: Optional[AlgebraElement] = None
                               ) -> Tuple[AlgebraElement, bool]:
    """Solve X * h^(n+1) = q*(1-e^{-h})^(n+1) in the projective-space ring.

    Works one Novikov order above the requested truncation: h^(n+1) acts
    as q times the identity there, so the equation divides by q exactly,
    and dividing loses only the guard order.  Returns the solution at the
    requested truncation plus a uniqueness flag.
    """
    guard = trunc + 1
    R1 = ring("qh_pn", n, trunc=guard)
    h = R1.generator("h")
    q_mono = R1.q_vars.unit_mono("q")

    # h^(n+1) must act as q times the identity for division to be sound
    unique = True
    hp = h ** (n + 1)
    for i in range(R1.classical_dim()):
        prod = hp * R1.basis_element(i)
        expected = {i: {q_mono: Fraction(1)}}
        if prod.coords != expected:
            unique = False

    if rhs is None:
        one_minus = R1.one() - eval_deg2(EXP_NEG, h, R1)
        rhs = R1.q_element("q") * one_minus ** (n + 1)
    elif rhs.ring is not R1:
        raise ValueError("right-hand side must live at the guard truncation")

    R0 = ring("qh_pn", n, trunc=trunc)
    shifted = {}
    for m, c in rhs.as_series().terms.items():
        if m[-1] < 1:  # the exponent of q, the one Novikov variable
            raise ValueError("system is inconsistent: residual term "
                             "without a Novikov factor")
        shifted[m[:-1] + (m[-1] - 1,)] = c
    # the series drops the terms above the requested truncation
    nf = NovikovSeries(R0.gens, R0.q_vars, trunc, shifted)
    return AlgebraElement(R0, nf), unique


def verify_lemma_todd_simplify(n: int, trunc: int) -> List[Check]:
    """(1 - e^{-(h1+h2)}) * image(Q_a) must equal (1 - e^{-h_a})^n, a = 1, 2."""
    qmap = build_qch("fl", n, trunc=trunc)
    R = qmap.target
    hsum = R.generator("h1") + R.generator("h2")
    front = R.one() - eval_deg2(EXP_NEG, hsum, R)
    out = []
    for a in (1, 2):
        ha = R.generator("h%d" % a)
        lhs = front * qmap.novikov_images["Q%d" % a]
        rhs = (R.one() - eval_deg2(EXP_NEG, ha, R)) ** n
        residual = lhs - rhs
        out.append(Check.verdict("a=%d" % a, residual.is_zero(), residual.render()))
    return out
