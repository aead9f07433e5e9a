"""The benchmark's own tests: generators, smoke rounds, and checks that go red.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import families as F
import layers
import runner
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "altchain" / "data"


def _failed_ratio(wl, rnd) -> float:
    return len(rnd.failures) / len(wl.jobs)


def _smoke_round(name, tmp_path, execute=None):
    wl = workloads.build(name, 7, tmp_path, DATA, smoke=True)
    rnd = runner.run_round(wl, execute or runner.ProcessExecutor(SRC, tmp_path))
    return wl, rnd


def test_families_match_their_reference_data():
    bases = {name: F.base(name, DATA) for name in F.BASE}
    built = [F.subdivision(bases[n]) for n in F.SURFACES]
    built += [F.boundary_of_simplex(d) for d in range(3, 7)]
    built += [F.cone(bases["rp2_6"]), F.suspension(bases["torus_7"]),
              F.suspension(F.boundary_of_simplex(4))]
    for K in built:
        assert F.check(K) is K
    assert F.suspension(bases["torus_7"]).homology == (
        (1, ()), (0, ()), (2, ()), (1, ()))
    assert F.cone(bases["rp2_6"]).homology == ((1, ()),)


def test_generator_self_check_goes_red():
    sd = F.subdivision(F.base("sphere_s2", DATA))
    broken = dataclasses.replace(sd, facets=sd.facets[1:])
    with pytest.raises(F.GeneratorCheckError):
        F.check(broken)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_round_passes(name, tmp_path):
    wl, rnd = _smoke_round(name, tmp_path)
    assert wl.jobs
    assert rnd.failures == []
    assert all(s.wall_s > 0 and s.cpu_s > 0 and s.rss_mib > 0 and s.cal_s > 0
               for s in rnd.samples)


def test_job_times_are_divided_by_their_own_calibration():
    rounds = [runner.Round([runner.Sample(2.0, 1.0, 20.0, 0.5),
                            runner.Sample(3.0, 3.0, 20.0, 1.0)], [], {}),
              runner.Round([runner.Sample(2.0, 1.0, 20.0, 0.25),
                            runner.Sample(3.0, 3.0, 20.0, 1.5)], [], {}),
              runner.Round([runner.Sample(9.0, 9.0, 20.0, 1.0),
                            runner.Sample(3.0, 3.0, 20.0, 3.0)], [], {})]
    assert runner.job_cal_medians(rounds) == [(8.0, 4.0), (2.0, 2.0)]


def test_wrong_expected_group_is_counted(tmp_path):
    b = workloads.JobSet(7, tmp_path, DATA)
    K, path = b.write_complex(b.base("rp2_6"))
    b.homology(K, path, "simplicial")
    wrong = dataclasses.replace(K, homology=((1, ()), (0, (3,)), (0, ())))
    b.homology(wrong, path, "alternative")
    wl = workloads.Workload("injected", b.jobs)
    rnd = runner.run_round(wl, runner.ProcessExecutor(SRC, tmp_path))
    assert [name for name, _ in rnd.failures] == [b.jobs[1].name]
    assert _failed_ratio(wl, rnd) == 0.5


@pytest.mark.parametrize("suite", ["projected-cup-associativity", "quotient-boundary"])
def test_flipped_suite_verdict_is_counted(suite, tmp_path):
    execute = runner.ProcessExecutor(SRC, tmp_path)

    def flip(job):
        res, sample = execute(job)
        path, = job.outputs
        report = json.loads(res.files[path])
        for r in report["results"]:
            if r["id"] == suite:
                r["passed"] = not r["passed"]
        files = {path: json.dumps(report).encode()}
        return dataclasses.replace(res, files=files), sample

    wl, rnd = _smoke_round("laws", tmp_path, flip)
    assert len(rnd.failures) == 1 and "failing suites" in rnd.failures[0][1]
    assert _failed_ratio(wl, rnd) == 1.0


def test_job_over_budget_is_counted(tmp_path):
    b = workloads.JobSet(7, tmp_path, DATA)
    K, path = b.write_complex(F.boundary_of_simplex(6))
    b.homology(K, path, "ordered", max_dim=7)
    wl = workloads.Workload("injected", b.jobs)
    rnd = runner.run_round(wl, runner.ProcessExecutor(SRC, tmp_path))
    assert rnd.failures == [(b.jobs[0].name, "exit code 3, expected 0")]
    assert _failed_ratio(wl, rnd) == 1.0


def test_round_must_reproduce_the_first(tmp_path):
    wl, first = _smoke_round("homology_ladder", tmp_path)
    execute = runner.ProcessExecutor(SRC, tmp_path)

    def drift(job):
        res, sample = execute(job)
        return dataclasses.replace(res, stdout=res.stdout + "\n"), sample

    again = runner.run_round(wl, drift, reference=first.results)
    assert len(again.failures) == len(wl.jobs)


def test_traced_replay_matches_and_restores(tmp_path):
    import altchain.cli
    from altchain import cochain_algebra, complex_model, verify

    originals = (complex_model.enumerate_generators, altchain.cli.enumerate_generators,
                 cochain_algebra.face, verify.REGISTRY)
    wl = workloads.build("cochain_ops", 7, tmp_path, DATA, smoke=True)
    base = runner.run_round(wl, runner.ProcessExecutor(SRC, tmp_path))
    tracer = Tracer()
    tracer.install()
    try:
        assert altchain.cli.enumerate_generators is not originals[1]
        replay = runner.run_round(wl, runner.InProcessExecutor(altchain.cli),
                                  reference=base.results)
    finally:
        tracer.uninstall()
    assert (complex_model.enumerate_generators, altchain.cli.enumerate_generators,
            cochain_algebra.face, verify.REGISTRY) == originals
    assert replay.failures == []
    metrics = layers.compute(tracer, replay.wall_s, base.wall_s, 1)
    assert [(n, m["unit"]) for n, m in metrics.items()] == list(layers.PER_LAYER)
    assert metrics["cochain_algebra.alternative_maker.calls"]["value"] > 0
    assert metrics["complex_model.generators"]["value"] > 0
    assert layers.zero_violations("cochain_ops", tracer) == []
    assert layers.zero_violations("homology_ladder", tracer) != []


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_cal", "cpu_cal", "slowest_job_cal", "peak_rss_mib"}


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "laws",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
