"""Command-line front end.

One process per command; exit code 0 when every check passes, 1 when
any check fails, 2 for usage problems (bad flags, malformed
expressions, invalid family parameters).  Human-readable lines go to
standard output; a JSON certificate goes to --out when requested.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from . import analytic, chern, jfun, mirror, report
from .catalog import FAMILIES, RingId, ring
from .parse import ParseError, parse_element
from .report import Check


def _write(path: Optional[str], text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit(checks: List[Check]):
    width = max((len(c.name) for c in checks), default=0)
    for c in checks:
        tag = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[c.status]
        print("%s  %-*s  %s" % (tag, width, c.name, c.detail))
    failed = sum(1 for c in checks if c.status == "fail")
    if failed:
        print("%d check(s) failed" % failed)
    elif not checks:
        print("no checks were run")
    else:
        print("all checks passed")


def _finish(args, command: str, params: Dict, truncation, checks: List[Check],
            t0: float, extra: Optional[Dict] = None) -> int:
    _emit(checks)
    if getattr(args, "out", None):
        wall = int((time.monotonic() - t0) * 1000)
        cert = report.make_certificate(command, params, truncation, checks,
                                       wall, extra)
        _write(args.out, report.certificate_json(cert))
    return 0 if report.all_checks_pass(checks) else 1


# ----------------------------------------------------------------- ring


def _cmd_ring_show(args) -> int:
    R = ring(args.family, args.n, args.m, args.trunc)
    print(R.label)
    print("basis size %d" % len(R.basis_monos))
    for name, rel in zip(R.presentation.relation_names, R.relations):
        print("%s: %s" % (name, rel.render()))
    return 0


def _cmd_ring_basis(args) -> int:
    R = ring(args.family, args.n, args.m, args.trunc)
    for s in R.render_basis():
        print(s)
    return 0


def _cmd_ring_mul(args) -> int:
    R = ring(args.family, args.n, args.m, args.trunc)
    product = parse_element(args.lhs, R) * parse_element(args.rhs, R)
    print(product.render())
    return 0


def _cmd_ring_table(args) -> int:
    if args.selfcheck_trials < 0:
        raise ValueError("selfcheck_trials must be at least 0, got %d"
                         % args.selfcheck_trials)
    R = ring(args.family, args.n, args.m, args.trunc)
    table = report.structure_table(R, R.label)
    import json
    _write(args.out, json.dumps(table, sort_keys=True, indent=2) + "\n")
    if args.selfcheck_trials:
        check = R.confluence_check(args.selfcheck_trials, args.seed)
        print("confluence selfcheck: %s (%d trials, seed %d)"
              % ("pass" if check.passed else "FAIL", args.selfcheck_trials, args.seed))
        if not check.passed:
            print("  " + check.detail)
            return 1
    return 0


# ------------------------------------------------------------------ qch


def _cmd_qch_build(args) -> int:
    qmap = chern.build_qch(args.space, args.n, args.m, args.trunc)
    for name, elt in qmap.gen_images.items():
        print("%s -> %s" % (name, elt.render()))
    for name, elt in qmap.novikov_images.items():
        print("%s -> %s" % (name, elt.render()))
    return 0


def _cmd_qch_apply(args) -> int:
    qmap = chern.build_qch(args.space, args.n, args.m, args.trunc)
    source = parse_element(args.expr, qmap.source_ring())
    print(chern.qch_apply(qmap, source).render())
    return 0


def _cmd_qch_verify(args) -> int:
    t0 = time.monotonic()
    qmap = chern.build_qch(args.space, args.n, args.m, args.trunc)
    relations = chern.verify_relations(qmap)
    limit = chern.verify_classical_limit(qmap)
    extra = {
        "space": args.space,
        "relations": [{"name": name, "residual_is_zero": c.passed,
                       "residual_rendering": c.detail}
                      for name, c in zip(qmap.source_presentation.relation_names,
                                         relations)],
        "classical_limit": limit.status,
    }
    params = {"space": args.space, "n": args.n, "m": args.m}
    return _finish(args, "qch verify", params, args.trunc, relations + [limit],
                   t0, extra)


def _cmd_qch_unique(args) -> int:
    t0 = time.monotonic()
    elt, unique = chern.solve_unique_novikov_image(args.n, args.trunc)
    qmap = chern.build_qch("pn", args.n, None, args.trunc)
    built = qmap.novikov_images["Q"]
    checks = [
        Check.verdict("solution unique on the guard ring", unique,
                      "power of the hyperplane class acts as q times "
                      "the identity" if unique else "guard failed"),
        Check.verdict("matches the constructed image", elt == built,
                      elt.render()),
    ]
    print("Q -> %s" % elt.render())
    return _finish(args, "qch unique", {"n": args.n}, args.trunc, checks, t0)


# ----------------------------------------------------------------- todd


def _cmd_todd_pn(args) -> int:
    print(analytic.quantum_todd_pn(args.n, args.trunc).render())
    return 0


def _cmd_todd_factor(args) -> int:
    R = ring(args.family, args.n, args.m, args.trunc)
    elt = analytic.quantum_todd_factor(args.a, R, args.exponent, args.trunc)
    print(elt.render())
    return 0


# ----------------------------------------------------------------- jfun


def _cmd_jfun_coeff(args) -> int:
    build = jfun.j_product if args.product else jfun.j_milnor
    J = build(args.n, args.m, args.d1 + args.d2)
    frac = J.coeff(args.d1, args.d2)
    print("numerator: %s" % frac.numer.render())
    print("denominator: %s" % jfun.render_atoms(frac.denom))
    return 0


def _cmd_jfun_verify(args) -> int:
    t0 = time.monotonic()
    checks = jfun.verify_theorem56(args.n, args.m, args.max_deg)
    params = {"n": args.n, "m": args.m, "max_deg": args.max_deg}
    return _finish(args, "jfun verify", params, args.max_deg, checks, t0)


def _cmd_jfun_infinity(args) -> int:
    t0 = time.monotonic()
    checks = jfun.hbar_infinity_check(args.n, args.m, args.max_deg)
    params = {"n": args.n, "m": args.m, "max_deg": args.max_deg}
    return _finish(args, "jfun infinity", params, args.max_deg, checks, t0)


# ------------------------------------------------------------- identity


def _cmd_identity_binomial(args) -> int:
    t0 = time.monotonic()
    checks = jfun.binomial_identity_check(args.max_n)
    return _finish(args, "identity binomial", {"max_n": args.max_n}, 0,
                   checks, t0)


def _cmd_identity_lemma52(args) -> int:
    t0 = time.monotonic()
    a, checks = jfun.lemma52_construct_and_check(args.n, args.m)
    print("a = %s" % a.render())
    params = {"n": args.n, "m": args.m}
    return _finish(args, "identity lemma52", params, 0, checks, t0)


# --------------------------------------------------------------- mirror


def _cmd_mirror_verify(args) -> int:
    if args.step_cap < 0:
        raise ValueError("step_cap must be at least 0, got %d" % args.step_cap)
    RingId("qh_fl", args.n, trunc=args.trunc)  # n and trunc, before any work
    t0 = time.monotonic()
    checks = (mirror.verify_phi(args.n, args.step_cap)
              + mirror.verify_phi_sum_invertible(args.n, args.step_cap)
              + mirror.elimination_chain_checks(args.n)
              + mirror.ideal_equality_attempt(args.n, args.step_cap)
              + mirror.direct_nzd_check(args.n, args.trunc)
              + [Check("homomorphism injectivity", "skipped",
                       "not decided mechanically; memberships certify "
                       "well-definedness and the invertibility consequence only")])
    params = {"n": args.n, "step_cap": args.step_cap}
    return _finish(args, "mirror verify", params, args.trunc, checks, t0)


def _cmd_mirror_nzd(args) -> int:
    t0 = time.monotonic()
    checks = mirror.direct_nzd_check(args.n, args.trunc)
    return _finish(args, "mirror nzd", {"n": args.n}, args.trunc, checks, t0)


# ------------------------------------------------------------ classical


def _cmd_classical_dim(args) -> int:
    R = ring(args.family, args.n, args.m, 0)
    print(R.classical_dim())
    return 0


def _cmd_classical_chern(args) -> int:
    qmap = chern.build_qch(args.space, args.n, args.m, 0)
    source = parse_element(args.expr, qmap.source_ring())
    print(chern.qch_apply(qmap, source).render())
    return 0


# ------------------------------------------------------------- argparse


def _ring_flags(p, trunc_default=2):
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--trunc", type=int, default=trunc_default)


def _space_flags(p, trunc_default=4):
    p.add_argument("--space", required=True, choices=chern.SPACES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--trunc", type=int, default=trunc_default)


def _out_flag(p):
    p.add_argument("--out", default=None,
                   help="write the JSON certificate to this file")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qchar",
        description="Exact verification for quantum cohomology and "
                    "quantum K-theory presentations.")
    sub = top.add_subparsers(dest="group", required=True)

    ring_p = sub.add_parser("ring", help="inspect a ring from the catalog")
    ring_sub = ring_p.add_subparsers(dest="verb", required=True)
    p = ring_sub.add_parser("show")
    _ring_flags(p)
    p.set_defaults(handler=_cmd_ring_show)
    p = ring_sub.add_parser("basis")
    _ring_flags(p)
    p.set_defaults(handler=_cmd_ring_basis)
    p = ring_sub.add_parser("mul")
    _ring_flags(p)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(handler=_cmd_ring_mul)
    p = ring_sub.add_parser("table")
    _ring_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--selfcheck-trials", type=int, default=0,
                   help="also reduce this many random elements under two "
                        "strategies and compare")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_ring_table)

    qch_p = sub.add_parser("qch", help="quantum Chern character maps")
    qch_sub = qch_p.add_subparsers(dest="verb", required=True)
    p = qch_sub.add_parser("build")
    _space_flags(p)
    p.set_defaults(handler=_cmd_qch_build)
    p = qch_sub.add_parser("apply")
    _space_flags(p)
    p.add_argument("--expr", required=True)
    p.set_defaults(handler=_cmd_qch_apply)
    p = qch_sub.add_parser("verify")
    _space_flags(p)
    _out_flag(p)
    p.set_defaults(handler=_cmd_qch_verify)
    p = qch_sub.add_parser("unique")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trunc", type=int, default=4)
    _out_flag(p)
    p.set_defaults(handler=_cmd_qch_unique)

    todd_p = sub.add_parser("todd", help="quantum Todd classes")
    todd_sub = todd_p.add_subparsers(dest="verb", required=True)
    p = todd_sub.add_parser("pn")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trunc", type=int, default=4)
    p.set_defaults(handler=_cmd_todd_pn)
    p = todd_sub.add_parser("factor")
    _ring_flags(p, trunc_default=4)
    p.add_argument("--a", type=int, required=True, choices=(1, 2))
    p.add_argument("--exponent", type=int, required=True)
    p.set_defaults(handler=_cmd_todd_factor)

    jfun_p = sub.add_parser("jfun", help="J-function coefficients and "
                                         "difference equations")
    jfun_sub = jfun_p.add_subparsers(dest="verb", required=True)
    p = jfun_sub.add_parser("coeff")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--product", action="store_true",
                   help="use the product-space series instead")
    p.set_defaults(handler=_cmd_jfun_coeff)
    p = jfun_sub.add_parser("verify")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-deg", type=int, default=3)
    _out_flag(p)
    p.set_defaults(handler=_cmd_jfun_verify)
    p = jfun_sub.add_parser("infinity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-deg", type=int, default=3)
    _out_flag(p)
    p.set_defaults(handler=_cmd_jfun_infinity)

    id_p = sub.add_parser("identity", help="combinatorial lemmas")
    id_sub = id_p.add_subparsers(dest="verb", required=True)
    p = id_sub.add_parser("binomial")
    p.add_argument("--max-n", type=int, default=12)
    _out_flag(p)
    p.set_defaults(handler=_cmd_identity_binomial)
    p = id_sub.add_parser("lemma52")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _out_flag(p)
    p.set_defaults(handler=_cmd_identity_lemma52)

    mir_p = sub.add_parser("mirror", help="superpotential and Jacobi ideal")
    mir_sub = mir_p.add_subparsers(dest="verb", required=True)
    p = mir_sub.add_parser("verify")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trunc", type=int, default=3)
    p.add_argument("--step-cap", type=int, default=mirror.DEFAULT_STEP_CAP)
    _out_flag(p)
    p.set_defaults(handler=_cmd_mirror_verify)
    p = mir_sub.add_parser("nzd")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trunc", type=int, default=3)
    _out_flag(p)
    p.set_defaults(handler=_cmd_mirror_nzd)

    cls_p = sub.add_parser("classical", help="classical rings and the "
                                             "classical Chern character")
    cls_sub = cls_p.add_subparsers(dest="verb", required=True)
    p = cls_sub.add_parser("dim")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(handler=_cmd_classical_dim)
    p = cls_sub.add_parser("chern")
    p.add_argument("--space", required=True, choices=chern.SPACES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--expr", required=True)
    p.set_defaults(handler=_cmd_classical_chern)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
