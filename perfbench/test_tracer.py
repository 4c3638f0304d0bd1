"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os

import pytest

import run
import tracer

# Tiny jobs, and the layers each must reach.  Several of these layers
# are imported by value into the module that calls them, so a call is
# recorded only if the tracer rebound that module's reference too.
TINY = [
    (["ring", "mul", "--family", "qk_pn", "--n", "1", "--trunc", "2",
      "--lhs", "x", "--rhs", "x"],
     ["cli.main", "catalog.make_ring", "quotient.PresentedAlgebra.__init__",
      "groebner.groebner", "parse.parse_element", "quotient.AlgebraElement.__mul__",
      "quotient.PresentedAlgebra.reduce", "core.NovikovSeries.__mul__"]),
    (["mirror", "verify", "--n", "3"],
     ["groebner.groebner", "groebner.normal_form", "quotient.det_bareiss",
      "quotient.det_expansion", "mirror.MembershipContext.__init__",
      "mirror.MembershipContext.contains", "mirror.direct_nzd_check",
      "quotient.PresentedAlgebra.mult_matrix", "catalog.make_ring"]),
    (["jfun", "verify", "--n", "3", "--m", "3", "--max-deg", "1"],
     ["jfun.apply_difference", "jfun.HbarPoly.__mul__", "jfun.HbarFraction.__add__",
      "catalog.make_ring"]),
    (["qch", "verify", "--space", "pn", "--n", "2", "--trunc", "2"],
     ["analytic.eval_deg2", "chern.build_qch", "chern.verify_relations",
      "chern.verify_classical_limit", "catalog.make_ring"]),
]


def _stdout(job):
    with open(os.path.join(run.WORK, job.id + ".stdout"), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("args,layers", TINY, ids=[" ".join(a[:2]) for a, _ in TINY])
def test_wrappers_cover_layers_and_keep_output(tmp_path, monkeypatch, args, layers):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    job = run.Job("tiny", args)
    assert run.spawn(job)["code"] == 0
    plain = _stdout(job)
    trace_path = str(tmp_path / "tiny.json")
    assert run.spawn(job, trace_path)["code"] == 0
    assert _stdout(job) == plain
    with open(trace_path) as fh:
        metrics = tracer.aggregate([json.load(fh)])
    missing = [name for name in layers if metrics[name + ".calls"] < 1]
    assert not missing


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.units()


def test_apply_check_rejects_a_wrong_combination():
    with open(os.path.join(run.REFS, "apply_images.json")) as fh:
        images = json.load(fh)
    mono = "x^2*Q1"
    output = images[mono] + "\n"
    assert run.apply_check([(1, mono)])(output)
    assert not run.apply_check([(2, mono)])(output)
    assert not run.apply_check(run.apply_terms(run.random.Random(7)))(output)


def test_parse_rendered_round_trips_signs_and_fractions():
    assert run.parse_rendered("-3/2*h1^2*q1 + h2 - 1 + q1*q2") == {
        "h1^2*q1": run.Fraction(-3, 2), "h2": 1, "": -1, "q1*q2": 1}
    assert run.parse_rendered("0") == {}
