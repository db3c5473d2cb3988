"""Tests of the benchmark itself: oracle, tracer coverage, determinism.

    PYTHONPATH=src python3 -m pytest -q perfbench

Each workload runs once traced, one more time for the determinism check
(about a minute in all on a 2-core machine).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tracing
import workloads

sys.path.insert(0, str(run.SRC))

SEED = 7

#: Per-layer metrics that must be nonzero on the workload built to move them.
EXERCISED = {
    "lemmas": (
        "metacyclic.self_s", "metacyclic.find_inverting_automorphism.s",
        "metacyclic.enumerate_automorphisms.s", "metacyclic.hom_check.calls",
        "metacyclic.hom_check.accept_ratio",
        "snf.smith_normal_form_mod_prime_power.calls", "snf.smith_normal_form_mod_prime_power.s",
        "snf.kernel_mod.calls", "snf.int_det.calls", "linalg.self_s",
        "linalg.intertwiner_solve.calls", "linalg.intertwiner_solve.s",
        "linalg.intertwiner_solve.certified_ratio", "linalg.charpoly.calls",
        "linalg.mat_pow_zeta.calls", "linalg.rank_divisibility_check.calls",
        "linalg.random_unipotent_matrix.calls", "linalg.random_unipotent_matrix.accept_ratio",
        "padic.self_s", "padic.is_odd_prime.calls", "padic.binom.calls", "padic.pow_one_unit.calls",
        "iwasawa.parity_audit.calls", "iwasawa.t_multiplicity.calls",
        "iwasawa.validate_gamma_model.calls", "cli.main.calls", "cli.self_s",
    ),
    "invariants": (
        "snf.int_det.calls", "snf.int_det.s", "iwasawa.self_s",
        "iwasawa.layer_size_exponent.calls", "iwasawa.layer_size_exponent.s",
        "records.self_s", "records.parse_record.calls", "records.check_records.s",
        "iwasawa.fit_invariants.calls",
        "snf.smith_normal_form.calls", "snf.smith_normal_form.s", "snf.lattice_basis.calls",
        "snf.quotient_invariants.calls", "snf.self_s", "cohomology.self_s", "cohomology.tate_h0.s",
        "cohomology.tate_hm1.s", "cohomology.minus_part.s", "cohomology.fixed_points.calls",
        "cohomology.norm_image.calls", "iwasawa.coinvariants.s", "cli.main.calls", "cli.self_s",
    ),
}

KNOWN_DEFECT_JOBS = {"lemmas": ["orbit-control-precision"], "invariants": ["mixed-p-label"]}


def traced_run(workload, seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    ac = run.import_program()
    jobs = workloads.build(workload, seed, workdir, ac)
    t = tracing.Tracer()
    _, _, outcomes = run.run_jobs(jobs, ac, t)
    return jobs, outcomes, t.summarize()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return {w: traced_run(w, SEED, tmp_path_factory.mktemp(w)) for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_listed_functions_are_called_where_expected(traced, workload):
    _, _, summary = traced[workload]
    metrics = run.layer_metrics(summary, 1.0, 1.0, 0.0)
    missing = [name for name in EXERCISED[workload] if not metrics[name] > 0]
    assert not missing


def test_int_det_is_traced_through_every_binding(traced):
    # int_det runs via linalg's binding inside random_unipotent_matrix and
    # via iwasawa's inside layer_size_exponent; those spans exist only if
    # both namespaces were patched.
    assert traced["lemmas"][2]["child_calls"][("linalg.random_unipotent_matrix", "snf.int_det")] > 0
    assert traced["invariants"][2]["child_calls"][("iwasawa.layer_size_exponent", "snf.int_det")] > 0


def test_bypassed_layers_record_no_calls(traced):
    active = {
        "lemmas": {"cli", "metacyclic", "linalg", "snf", "padic", "iwasawa"},
        "invariants": {"cli", "snf", "padic", "iwasawa", "records", "cohomology"},
    }
    for workload, (_, _, summary) in traced.items():
        assert {name.split(".")[0] for name, n in summary["calls"].items() if n} == active[workload]
    assert not traced["lemmas"][2]["calls"]["iwasawa.layer_size_exponent"]


def test_only_the_known_defect_jobs_fail(traced):
    for workload, (jobs, outcomes, _) in traced.items():
        failures = run.check_outcomes(jobs, outcomes)
        assert [job.known_defect for job, _ in failures] == KNOWN_DEFECT_JOBS[workload]


def test_uninstall_restores_the_program(traced):
    ac = run.import_program()
    before = {(id(owner), attr): fn for _, owner, attr, fn in tracing.traced_functions()}
    t = tracing.Tracer()
    t.install()
    assert ac.snf.int_det is not before[(id(ac.snf), "int_det")]
    assert ac.linalg.int_det is ac.snf.int_det
    t.uninstall()
    after = {(id(owner), attr): fn for _, owner, attr, fn in tracing.traced_functions()}
    assert after == before
    assert ac.linalg.int_det is ac.snf.int_det is before[(id(ac.snf), "int_det")]


def _flip(outcome, old, new):
    assert old in outcome.output
    return workloads.Outcome(outcome.code, outcome.output.replace(old, new, 1), outcome.stderr, outcome.value)


def test_oracle_flags_planted_wrong_verdicts(traced):
    jobs, outcomes, _ = traced["lemmas"]
    job, outcome = next((j, o) for j, o in zip(jobs, outcomes) if j.name.startswith("verify-lemma1 p=3 "))
    assert job.check(outcome) == []
    assert job.check(_flip(outcome, '"automorphisms": 54', '"automorphisms": 55'))
    assert job.check(_flip(outcome, '"verdict": "skipped"', '"verdict": "ok"'))
    assert job.check(workloads.Outcome(1, outcome.output))

    jobs, outcomes, _ = traced["invariants"]
    job, outcome = next((j, o) for j, o in zip(jobs, outcomes) if j.name.startswith("growth p=5 T^2"))
    assert job.check(outcome) == []
    assert job.check(_flip(outcome, '"exponent": 17', '"exponent": 18'))

    job, outcome = next((j, o) for j, o in zip(jobs, outcomes) if j.name.startswith("tate "))
    assert job.check(outcome) == []
    wrong = dict(outcome.value, tate_h0=outcome.value["tate_h0"] + [outcome.value["fixed_points"][0]])
    assert job.check(workloads.Outcome(0, outcome.output, value=wrong))


def test_same_seed_same_calls_and_output(traced, tmp_path):
    jobs, outcomes, summary = traced["invariants"]
    again_jobs, again_outcomes, again = traced_run("invariants", SEED, tmp_path)
    assert [j.name for j in again_jobs] == [j.name for j in jobs]
    assert again["calls"] == summary["calls"]
    assert again["outcomes"] == summary["outcomes"]
    strip = [o.output.replace(str(tmp_path), "") for o in again_outcomes]
    assert strip == [o.output.replace(str(tmp_path), "") for o in outcomes]


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "invariants", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""


def test_end_to_end_run_prints_the_contract_line():
    result = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "invariants", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    # correct: the one failing job per pass is the known mixed-p defect
    assert last["correct"] and 1 <= last["failed"] < last["attempted"]
    assert set(last["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in last["metrics"].values())
