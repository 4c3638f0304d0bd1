"""Command-line behavior: output, exit codes, certificate stability."""

import json

import pytest

from qchar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_mirror_verify_bad_trunc_is_usage_error(capsys, monkeypatch):
    # rejected before the first Buchberger run, not after all of them
    import qchar.mirror

    def no_groebner(*args, **kwargs):
        raise AssertionError("groebner ran before the input was validated")

    monkeypatch.setattr(qchar.mirror, "groebner", no_groebner)
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
