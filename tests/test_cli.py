"""Command-line behavior: output, exit codes, certificate stability."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qchar
from qchar import cli
from qchar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # every job imports qchar.cli first; dataclasses would pull in inspect,
    # ast, dis and tokenize, a fixed cost on every job.  A fresh
    # interpreter, so no test has imported them already.
    code = ("import sys; before = set(sys.modules); import qchar.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(Path(qchar.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert "qchar.cli" in out
    assert "dataclasses" not in out
    assert "inspect" not in out


def test_main_freezes_the_import_heap_once_per_process():
    # main, not the import, moves the import heap into the permanent
    # generation, and only at its first call: a reference cycle dropped
    # between two calls is still collected afterwards.
    code = """
import contextlib, gc, io, weakref
import qchar.cli
assert gc.get_freeze_count() == 0
argv = ["identity", "binomial", "--max-n", "2"]
with contextlib.redirect_stdout(io.StringIO()):
    assert qchar.cli.main(argv) == 0
assert gc.get_freeze_count() > 0
gc.disable()
class Node:
    pass
cycle = Node()
cycle.self = cycle
dropped = weakref.ref(cycle)
del cycle
with contextlib.redirect_stdout(io.StringIO()):
    assert qchar.cli.main(argv) == 0
assert dropped() is not None
gc.collect()
assert dropped() is None
"""
    env = dict(os.environ, PYTHONPATH=str(Path(qchar.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_ring_mul_projective_line(capsys):
    code, out, _ = run(capsys, "ring", "mul", "--family", "qk_pn", "--n", "1",
                       "--trunc", "2", "--lhs", "x", "--rhs", "x")
    assert code == 0
    assert out == "2*x - 1 + Q\n"


def test_ring_show_and_basis(capsys):
    code, out, _ = run(capsys, "ring", "show", "--family", "qh_pn", "--n", "3",
                       "--trunc", "2")
    assert code == 0
    assert "qh_pn(n=3)" in out
    assert "hyperplane_power: h^4 - q" in out
    code, out, _ = run(capsys, "ring", "basis", "--family", "qh_pn", "--n", "2",
                       "--trunc", "0")
    assert out.splitlines() == ["1", "h", "h^2"]


def test_ring_table_shape_and_selfcheck(capsys, tmp_path):
    path = tmp_path / "table.json"
    code, out, _ = run(capsys, "ring", "table", "--family", "qk_pn", "--n", "1",
                       "--trunc", "2", "--out", str(path),
                       "--selfcheck-trials", "10", "--seed", "3")
    assert code == 0
    assert "confluence selfcheck: pass" in out
    table = json.loads(path.read_text())
    assert sorted(table) == ["basis", "ring", "table", "truncation"]
    assert {"i": 1, "j": 1, "coords": {"1": "-1 + Q", "x": "2"}} in table["table"]


@pytest.mark.parametrize("family", ["k_milnor", "k_pnxpm"])
@pytest.mark.parametrize("verb, extra", [("show", []), ("basis", []), ("table", []),
                                         ("mul", ["--lhs", "x", "--rhs", "y"])])
def test_ring_verbs_default_to_trunc_0_on_classical_families(verb, extra, family, capsys):
    argv = ["ring", verb, "--family", family, "--n", "4", "--m", "3"] + extra
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out
    assert run(capsys, *argv, "--trunc", "0") == (0, out, "")
    # an explicit nonzero truncation is still refused
    code, _, err = run(capsys, *argv, "--trunc", "2")
    assert code == 2 and "%s is classical; truncation must be 0" % family in err


def test_ring_verbs_keep_their_default_trunc_on_quantum_families(capsys):
    argv = ["ring", "table", "--family", "qk_pn", "--n", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["truncation"] == 2
    assert run(capsys, *argv, "--trunc", "2") == (0, out, "")
    argv = ["todd", "factor", "--family", "qh_fl", "--n", "3", "--a", "1", "--exponent", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and run(capsys, *argv, "--trunc", "4") == (0, out, "")


def test_todd_render(capsys):
    code, out, _ = run(capsys, "todd", "pn", "--n", "1", "--trunc", "1")
    assert code == 0
    assert out == "h + 1/12*h*q + 1 + 5/12*q\n"


def test_qch_verify_certificate_stable(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run(capsys, "qch", "verify", "--space", "pn", "--n", "2",
                         "--trunc", "3", "--out", str(path))
        assert code == 0

    def stripped(path):
        return [line for line in path.read_text().splitlines()
                if "wall_time_ms" not in line]

    assert stripped(paths[0]) == stripped(paths[1])
    cert = json.loads(paths[0].read_text())
    assert cert["schema"] == "qchar-cert/1"
    assert cert["space"] == "pn"
    assert cert["classical_limit"] == "pass"
    assert cert["relations"][0]["residual_is_zero"] is True
    assert all(c["status"] == "pass" for c in cert["checks"])


def test_qch_apply_matches_build(capsys):
    code, out, _ = run(capsys, "qch", "apply", "--space", "pn", "--n", "1",
                       "--trunc", "1", "--expr", "Q")
    assert code == 0
    assert out == "-h*q + q\n"


def test_jfun_coeff_lines(capsys):
    code, out, _ = run(capsys, "jfun", "coeff", "--n", "3", "--m", "3",
                       "--d1", "1", "--d2", "0")
    assert code == 0
    assert out.splitlines() == ["numerator: (1) + (-x*y)*hbar",
                                "denominator: (1 - x*hbar)^3"]


@pytest.mark.parametrize("d1, d2", [("-1", "0"), ("2", "-1")])
def test_jfun_coeff_negative_degree_is_usage_error(capsys, d1, d2):
    code, out, err = run(capsys, "jfun", "coeff", "--n", "3", "--m", "3",
                         "--d1", d1, "--d2", d2)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "d1 and d2" in err


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "identity", "binomial", "--max-n", "3",
                         "--out", str(path))
    assert code == 2
    assert "all checks passed" in out
    assert err.startswith("error: cannot write %s" % path)
    assert len(err.splitlines()) == 1
    assert not path.exists()


def test_jfun_verify_exits_zero(capsys):
    code, out, _ = run(capsys, "jfun", "verify", "--n", "3", "--m", "3",
                       "--max-deg", "1")
    assert code == 0
    assert "all checks passed" in out


def test_identity_binomial(capsys):
    code, out, _ = run(capsys, "identity", "binomial", "--max-n", "12")
    assert code == 0
    assert "all checks passed" in out


def test_jfun_verify_negative_degree_is_usage_error(capsys):
    code, out, err = run(capsys, "jfun", "verify", "--n", "3", "--m", "3",
                         "--max-deg", "-1")
    assert code == 2
    assert "all checks passed" not in out
    assert "max_deg" in err


def test_jfun_infinity_degree_zero_is_usage_error(capsys):
    # degree (0, 0) is skipped, so --max-deg 0 would check nothing
    code, out, err = run(capsys, "jfun", "infinity", "--n", "3", "--m", "3",
                         "--max-deg", "0")
    assert code == 2
    assert "all checks passed" not in out
    assert "max_deg" in err


def test_identity_binomial_negative_bound_is_usage_error(capsys):
    code, out, err = run(capsys, "identity", "binomial", "--max-n", "-5")
    assert code == 2
    assert "all checks passed" not in out
    assert "max_n" in err


def test_ring_table_negative_selfcheck_trials_is_usage_error(capsys, tmp_path):
    # rejected before the table is built or written
    path = tmp_path / "table.json"
    code, out, err = run(capsys, "ring", "table", "--family", "qk_pn", "--n", "1",
                         "--trunc", "1", "--out", str(path),
                         "--selfcheck-trials", "-5")
    assert code == 2
    assert out == ""
    assert "selfcheck_trials" in err
    assert not path.exists()


def test_mirror_verify_negative_step_cap_is_usage_error(capsys):
    # a step cap below 0 used to be reported as four failed checks, exit 1
    code, out, err = run(capsys, "mirror", "verify", "--n", "3", "--step-cap", "-5")
    assert code == 2
    assert out == ""
    assert "step_cap" in err


def test_mirror_verify_cap_that_decides_nothing_fails_every_membership(capsys):
    # at cap 0 no run finds a generator and no probe takes a reduction
    # step, so each of the nine memberships fails on the cap, and only they
    code, out, err = run(capsys, "mirror", "verify", "--n", "3", "--trunc", "2",
                         "--step-cap", "0")
    assert code == 1
    lines = out.splitlines()
    capped = [line for line in lines if "step cap" in line]
    assert [line.split("  ")[1].strip() for line in capped] == (
        ["f1_q image membership", "f2_q image membership", "power-law image membership"]
        + ["%s generator %d" % (side, i) for side in ("A in B", "B in A") for i in (1, 2, 3)])
    assert all(line.startswith("FAIL") and line.endswith("  step cap 0 exceeded")
               for line in capped)
    assert lines[-1] == "9 check(s) failed"


def test_mirror_verify_bad_trunc_is_usage_error(capsys, monkeypatch):
    # rejected before the first Buchberger run, not after all of them
    import qchar.mirror

    def no_buchberger(*args, **kwargs):
        raise AssertionError("Buchberger ran before the input was validated")

    monkeypatch.setattr(qchar.mirror, "BuchbergerRun", no_buchberger)
    code, out, err = run(capsys, "mirror", "verify", "--n", "4", "--trunc", "-1")
    assert code == 2
    assert out == ""
    assert "truncation" in err


def _broken_cofactors(monkeypatch):
    import qchar.groebner
    monkeypatch.setattr(qchar.groebner, "_apply_usage",
                        lambda row, usage, rows: [c.scale(2) for c in row])


def _broken_corrections(monkeypatch):
    # doubled cofactors make each rule row sum_j u_ij r_j miss its g_i
    import qchar.quotient
    original = qchar.quotient.groebner

    def doubled(relations):
        data = original(relations)
        data.cofactors = [[u.scale(2) for u in row] for row in data.cofactors]
        return data

    monkeypatch.setattr(qchar.quotient, "groebner", doubled)


@pytest.mark.parametrize("breakage, message", [
    (_broken_cofactors, "cofactor identity failed"),
    (_broken_corrections, "quantum correction with classical terms"),
])
def test_internal_error_is_one_line_and_exit_one(capsys, monkeypatch, breakage, message):
    # a broken construction invariant is a defect, not a usage problem
    import qchar.catalog
    monkeypatch.setattr(qchar.catalog, "_RING_CACHE", {})
    breakage(monkeypatch)
    code, out, err = run(capsys, "ring", "basis", "--family", "qh_fl", "--n", "3",
                         "--trunc", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("internal error: ") and message in err
    assert err.count("\n") == 1


def test_identity_lemma52_prints_a(capsys):
    code, out, _ = run(capsys, "identity", "lemma52", "--n", "3", "--m", "3")
    assert code == 0
    assert out.splitlines()[0] == "a = x^2"


def test_mirror_nzd_pass_and_fail(capsys):
    code, out, _ = run(capsys, "mirror", "nzd", "--n", "3", "--trunc", "3")
    assert code == 0
    code, out, _ = run(capsys, "mirror", "nzd", "--n", "3", "--trunc", "0")
    assert code == 1
    assert "FAIL" in out


def test_classical_dim(capsys):
    code, out, _ = run(capsys, "classical", "dim", "--family", "k_milnor",
                       "--n", "4", "--m", "3")
    assert code == 0
    assert out == "9\n"


def test_classical_chern(capsys):
    code, out, _ = run(capsys, "classical", "chern", "--space", "pn", "--n", "2",
                       "--expr", "x")
    assert code == 0
    assert out == "1/2*h^2 - h + 1\n"


def test_parse_error_is_usage_error(capsys):
    code, _, err = run(capsys, "ring", "mul", "--family", "qk_pn", "--n", "1",
                       "--trunc", "2", "--lhs", "x +", "--rhs", "x")
    assert code == 2
    assert "position 4" in err


def test_unknown_identifier_is_usage_error(capsys):
    code, _, err = run(capsys, "ring", "mul", "--family", "qh_fl", "--n", "3",
                       "--trunc", "1", "--lhs", "h3", "--rhs", "h1")
    assert code == 2
    assert "h3" in err


def test_bad_family_parameter_is_usage_error(capsys):
    # the milnor catalog starts at m=3
    code, _, err = run(capsys, "ring", "show", "--family", "qh_milnor",
                       "--n", "4", "--m", "2")
    assert code == 2
    assert err


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["ring", "basis", "--family", "qh_pn", "--n", "1",
              "--trunc", "0", "--bogus"])
    assert exc.value.code == 2


# ------------------------------------------------- the per-group parser


# build_parser as it was when it built every group's verbs for every
# command; the parser that builds only the chosen group's must answer
# every help and usage error exactly as this one does
def _frozen_ring_flags(p):
    p.add_argument("--family", required=True, choices=cli.FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--trunc", type=int, default=None)  # the handler reads the family's


def _frozen_space_flags(p, trunc_default=4):
    p.add_argument("--space", required=True, choices=cli.chern.SPACES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--trunc", type=int, default=trunc_default)


def _frozen_out_flag(p):
    p.add_argument("--out", default=None,
                   help="write the JSON certificate to this file")


def _frozen_build_parser():
    top = argparse.ArgumentParser(
        prog="qchar",
        description="Exact verification for quantum cohomology and "
                    "quantum K-theory presentations.")
    sub = top.add_subparsers(dest="group", required=True)

    ring_p = sub.add_parser("ring", help="inspect a ring from the catalog")
    ring_sub = ring_p.add_subparsers(dest="verb", required=True)
    p = ring_sub.add_parser("show")
    _frozen_ring_flags(p)
    p.set_defaults(handler=cli._cmd_ring_show)
    p = ring_sub.add_parser("basis")
    _frozen_ring_flags(p)
    p.set_defaults(handler=cli._cmd_ring_basis)
    p = ring_sub.add_parser("mul")
    _frozen_ring_flags(p)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(handler=cli._cmd_ring_mul)
    p = ring_sub.add_parser("table")
    _frozen_ring_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--selfcheck-trials", type=int, default=0,
                   help="also reduce this many random elements under two "
                        "strategies and compare")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cli._cmd_ring_table)

    qch_p = sub.add_parser("qch", help="quantum Chern character maps")
    qch_sub = qch_p.add_subparsers(dest="verb", required=True)
    p = qch_sub.add_parser("build")
    _frozen_space_flags(p)
    p.set_defaults(handler=cli._cmd_qch_build)
    p = qch_sub.add_parser("apply")
    _frozen_space_flags(p)
    p.add_argument("--expr", required=True)
    p.set_defaults(handler=cli._cmd_qch_apply)
    p = qch_sub.add_parser("verify")
    _frozen_space_flags(p)
    _frozen_out_flag(p)
    p.set_defaults(handler=cli._cmd_qch_verify)
    p = qch_sub.add_parser("unique")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trunc", type=int, default=4)
    _frozen_out_flag(p)
    p.set_defaults(handler=cli._cmd_qch_unique)

    todd_p = sub.add_parser("todd", help="quantum Todd classes")
    todd_sub = todd_p.add_subparsers(dest="verb", required=True)
    p = todd_sub.add_parser("pn")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trunc", type=int, default=4)
    p.set_defaults(handler=cli._cmd_todd_pn)
    p = todd_sub.add_parser("factor")
    _frozen_ring_flags(p)
    p.add_argument("--a", type=int, required=True, choices=(1, 2))
    p.add_argument("--exponent", type=int, required=True)
    p.set_defaults(handler=cli._cmd_todd_factor)

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
    p.set_defaults(handler=cli._cmd_jfun_coeff)
    p = jfun_sub.add_parser("verify")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-deg", type=int, default=3)
    _frozen_out_flag(p)
    p.set_defaults(handler=cli._cmd_jfun_verify)
    p = jfun_sub.add_parser("infinity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-deg", type=int, default=3)
    _frozen_out_flag(p)
    p.set_defaults(handler=cli._cmd_jfun_infinity)

    id_p = sub.add_parser("identity", help="combinatorial lemmas")
    id_sub = id_p.add_subparsers(dest="verb", required=True)
    p = id_sub.add_parser("binomial")
    p.add_argument("--max-n", type=int, default=12)
    _frozen_out_flag(p)
    p.set_defaults(handler=cli._cmd_identity_binomial)
    p = id_sub.add_parser("lemma52")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _frozen_out_flag(p)
    p.set_defaults(handler=cli._cmd_identity_lemma52)

    mir_p = sub.add_parser("mirror", help="superpotential and Jacobi ideal")
    mir_sub = mir_p.add_subparsers(dest="verb", required=True)
    p = mir_sub.add_parser("verify")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trunc", type=int, default=3)
    p.add_argument("--step-cap", type=int, default=cli.mirror.DEFAULT_STEP_CAP)
    _frozen_out_flag(p)
    p.set_defaults(handler=cli._cmd_mirror_verify)
    p = mir_sub.add_parser("nzd")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trunc", type=int, default=3)
    _frozen_out_flag(p)
    p.set_defaults(handler=cli._cmd_mirror_nzd)

    cls_p = sub.add_parser("classical", help="classical rings and the "
                                             "classical Chern character")
    cls_sub = cls_p.add_subparsers(dest="verb", required=True)
    p = cls_sub.add_parser("dim")
    p.add_argument("--family", required=True, choices=cli.FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(handler=cli._cmd_classical_dim)
    p = cls_sub.add_parser("chern")
    p.add_argument("--space", required=True, choices=cli.chern.SPACES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--expr", required=True)
    p.set_defaults(handler=cli._cmd_classical_chern)

    return top


def _parser_outcome(parser, argv, capsys):
    """(exit code, stdout, stderr, parsed namespace without the handler)."""
    try:
        args = vars(parser.parse_args(argv))
        code = None
    except SystemExit as e:
        args, code = None, e.code
    captured = capsys.readouterr()
    if args is not None:
        args["handler"] = args["handler"].__name__
    return code, captured.out, captured.err, args


def _frozen_groups():
    """{group: [verb, ...]} read off the frozen parser."""
    def choices(parser):
        action, = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
        return action.choices
    return {g: list(choices(p)) for g, p in choices(_frozen_build_parser()).items()}


def _parser_cases():
    groups = _frozen_groups()
    cases = [["--help"], ["-h"], [], ["bogus"], ["rin"], ["bogus", "--help"]]
    for g, verbs in groups.items():
        cases += [[g, "--help"], [g], [g, "bogus"], ["--help", g]]
        cases += [[g, v, "--help"] for v in verbs]
        cases += [[g, v] for v in verbs]  # required flags missing
    cases += [
        ["jfun", "verify", "--n", "x", "--m", "4"],
        ["ring", "show", "--family", "nope", "--n", "2"],
        ["todd", "factor", "--family", "qh_pn", "--n", "2", "--a", "3",
         "--exponent", "1"],
        ["ring", "basis", "--family", "qh_pn", "--n", "1", "--bogus"],
        ["mirror", "verify", "--n", "3", "--step-cap", "1.5"],
        # parsed commands: the namespaces must match too
        ["jfun", "verify", "--n", "4", "--m", "4", "--max-deg", "4", "--out", "-"],
        ["ring", "table", "--family", "qk_pn", "--n", "1", "--selfcheck-trials", "3"],
        ["qch", "verify", "--space", "fl", "--n", "3", "--trunc", "2"],
        ["classical", "chern", "--space", "pn", "--n", "2", "--expr", "x"],
        ["mirror", "verify", "--n", "3"],
        ["identity", "binomial"],
        ["todd", "pn", "--n", "2"],
        ["--", "identity", "lemma52", "--n", "4", "--m", "3"],
    ]
    return cases


@pytest.mark.parametrize("argv", _parser_cases(), ids=" ".join)
def test_parser_matches_the_full_parser(argv, capsys):
    want = _parser_outcome(_frozen_build_parser(), argv, capsys)
    got = _parser_outcome(cli.build_parser(argv), argv, capsys)
    assert got == want


def test_parser_builds_only_the_chosen_group():
    def verbs(parser):
        action, = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
        return {g: [a for a in p._actions
                    if isinstance(a, argparse._SubParsersAction)]
                for g, p in action.choices.items()}
    built = verbs(cli.build_parser(["jfun", "verify", "--n", "4", "--m", "4"]))
    assert list(built) == list(_frozen_groups())
    assert [g for g, actions in built.items() if actions] == ["jfun"]
    assert not any(verbs(cli.build_parser(["--help"])).values())
