"""Certificate envelope and table serialization."""

import json

import pytest

from qchar import report
from qchar.catalog import ring


def test_check_validates_status():
    with pytest.raises(ValueError):
        report.Check("x", "maybe", "")
    assert report.Check.verdict("a", True, "ok") == report.Check("a", "pass", "ok")
    assert report.Check.verdict("a", False, "").status == "fail"
    assert not report.Check("b", "skipped", "").passed


def test_skipped_does_not_fail():
    checks = [report.Check("a", "pass", ""), report.Check("b", "skipped", "")]
    assert report.all_checks_pass(checks)
    checks.append(report.Check("c", "fail", "residual x"))
    assert not report.all_checks_pass(checks)


def test_empty_check_list_does_not_pass():
    assert not report.all_checks_pass([])


def test_certificate_envelope():
    cert = report.make_certificate("qch verify", {"n": 1}, 2,
                                   [report.Check("r", "pass", "0")], 7,
                                   extra={"space": "pn"})
    assert cert["schema"] == "qchar-cert/1"
    assert cert["space"] == "pn"
    assert cert["checks"] == [{"name": "r", "status": "pass", "detail": "0"}]
    text = report.certificate_json(cert)
    parsed = json.loads(text)
    assert parsed == cert
    # keys are emitted sorted, so equal certificates give equal bytes
    assert text == report.certificate_json(json.loads(text))


def test_certificate_rejects_envelope_collision():
    with pytest.raises(ValueError):
        report.make_certificate("c", {}, 0, [], 0, extra={"schema": "x"})


def test_structure_table_projective_line():
    R = ring("qk_pn", 1, trunc=2)
    table = report.structure_table(R, R.label)
    assert table["ring"] == "qk_pn(n=1)"
    assert table["truncation"] == 2
    assert table["basis"] == ["1", "x"]
    rows = {(r["i"], r["j"]): r["coords"] for r in table["table"]}
    assert rows[(0, 0)] == {"1": "1"}
    assert rows[(0, 1)] == {"x": "1"}
    # x*x = 2x - 1 + Q
    assert rows[(1, 1)] == {"1": "-1 + Q", "x": "2"}
