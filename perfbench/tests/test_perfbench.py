"""The benchmark's own tests.

Run from the repository root (about four minutes, most of it the
criterion-1 suite and the traced catalog pass):

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import expected
import micro
import run
import tracer
from calibrate import Speedometer
from qident import registry
from qident.series import LaurentSeries


def _jobs(name, seed=1):
    return run.build_jobs(registry, run.WORKLOADS[name], seed)


def _pass(name, jobs):
    return run.run_pass(registry, jobs, run.WORKLOADS[name].order,
                        Speedometer())[1]


def test_expected_table_covers_the_catalog():
    starts = expected.RIGHT_SIDE_START
    assert set(starts) == {r.id for r in registry.catalog()}
    assert {k for k, v in starts.items() if v} == {"rrs6-5"}
    assert {d.record for d in expected.KNOWN_DEFECTS} <= set(starts)


def test_catalog_jobs_are_the_criterion_1_jobs():
    reports = registry.verify_suite("*", order=40, seed=1, samples=3)
    jobs = _jobs("catalog-o20")
    verdicts = _pass("catalog-o20", jobs)
    assert len(jobs) == len(reports) == 97
    for job, (status, _), rep in zip(jobs, verdicts, reports):
        assert job.record.id == rep.id
        assert job.assignment.formatted() == rep.assignment.formatted()
        assert job.assignment.strategy == rep.strategy
        assert status == rep.status == "equal"


def test_fault_exponents_stay_inside_the_order():
    for seed in range(1, 6):
        for job in _jobs("classic-o120", seed):
            if job.fault_j is not None:
                want = expected.expect(job.record.id, "exact", {},
                                       job.fault_j)
                assert want[0] == "mismatch"
                assert 1 <= want[1] <= 120
        for job in _jobs("numeric-wide", seed):
            if job.fault_j is not None:
                assert 1 <= job.fault_j <= 10


def test_traced_runs_match_untraced_and_hit_every_layer():
    calls = dict.fromkeys(tracer.SPAN_NAMES, 0)
    for name in run.WORKLOADS:
        plain = _pass(name, _jobs(name))
        with tracer.Tracer() as tr:
            traced = _pass(name, _jobs(name))
        assert traced == plain, name
        for span, agg in tr.summary().items():
            calls[span] += agg["calls"]
    assert [s for s, n in calls.items() if n == 0] == []


def test_tracer_restores_the_program():
    before = (LaurentSeries.mul, registry.verify_one,
              [r.build for r in registry.catalog()])
    with tracer.Tracer():
        assert LaurentSeries.mul is not before[0]
    assert (LaurentSeries.mul, registry.verify_one,
            [r.build for r in registry.catalog()]) == before


def test_missing_layer_function_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracer, "LAYER_FUNCTIONS", tracer.LAYER_FUNCTIONS + (
        ("series.gone", "qident.series", "LaurentSeries.no_such_method"),))
    with pytest.raises(KeyError):
        tracer.Tracer().install()
    assert LaurentSeries.mul.__qualname__ == "LaurentSeries.mul"


def test_trace_counts_repeat_exactly():
    def counts(name, jobs):
        with tracer.Tracer() as tr:
            _pass(name, jobs)
        return tr.counts, {k: v["calls"] for k, v in tr.summary().items()}

    for name, jobs in (("numeric-wide", _jobs("numeric-wide")),
                       ("catalog-o20", _jobs("catalog-o20")[:4])):
        assert counts(name, jobs) == counts(name, jobs)


def test_micro_operands_are_fixed_data():
    raw = json.loads(micro.OPERANDS.read_text())
    tall = [micro.decode(s) for pair in raw["mul_w45_tall"] for s in pair[:2]]
    assert {len(s.coeffs) for s in tall} == {45}
    assert 300 <= max(tracer.coef_bits(s) for s in tall) <= 400
    wide = [micro.decode(s) for pair in raw["mul_w125_small"] for s in pair]
    assert {len(s.coeffs) for s in wide} == {125}
    assert max(tracer.coef_bits(s) for s in wide) <= 64
    timings = micro.run(micro.load(), Speedometer())
    assert sorted(timings) == sorted(micro.REPS)
    assert all(ms > 0 for ms in timings.values())


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wl = run.WORKLOADS["numeric-wide"]
    e2e, verdict, _, _, unsteady = run.measure(registry, wl, 1, 0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in
                                                       e2e.values()]
    layers, _, _, _, _ = run.measure_traced(registry, wl, 1)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in
                                                      layers.values()]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    # the two known cpte5 escapes at seed 1 are reported, not hidden
    assert unsteady == 0 and verdict["wrong"] == []
    assert sorted(j.assignment.formatted()["m"] for j in
                  verdict["escapes"]) == ["1", "5/3"]
    assert len(verdict["known"]) == 4   # the two draws, clean and twin


def test_known_phi65_skips_are_expected_and_others_are_wrong():
    jobs = _jobs("numeric-wide", 27)
    verdict = run.judge(jobs, _pass("numeric-wide", jobs))
    assert verdict["wrong"] == []
    assert verdict["tally"]["skipped"] == 2
    assert {j.record.id for j in verdict["known"]} == {"phi65", "cpte5"}
    # a clean job that skips without a known defect is a wrong verdict
    clean = next(j for j in jobs if j.record.id == "gs2")
    assert run.judge([clean], [("skipped", None)])["wrong"] == [clean]


def test_known_defect_rules_match_the_printed_conditions():
    q = Fraction(1, 9)
    assert expected.hits_inverse_power(Fraction(9), q, 1)
    assert expected.hits_inverse_power(Fraction(81), q, 1)
    assert not expected.hits_inverse_power(Fraction(1), q, 1)
    assert expected.hits_inverse_power(Fraction(1), q, 0)
    assert expected.expect("cpte5", "numeric", {"m": Fraction(1), "q": q},
                           4) == ("equal", None)
    assert expected.expect("cpte5", "exact", {"m": Fraction(1)},
                           4) == ("mismatch", 4)
    assert expected.expect("rrs6-5", "exact", {}, 9) == ("mismatch", 10)


def test_a_program_that_always_answers_equal_is_not_correct(monkeypatch,
                                                             capsys):
    monkeypatch.setattr(registry, "verify_one", lambda *a, **k:
                        SimpleNamespace(status="equal",
                                        mismatch_exponent=None))
    assert run.main(["--workload", "classic-o120", "--seed", "1",
                     "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 22     # every fault twin


def test_runner_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "numeric-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
