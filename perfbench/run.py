"""Run one workload of the anticyclo benchmark and print its metrics.

    python3 perfbench/run.py --workload lemmas --seed 1 --seconds 60 --trace 0

Run it from the root of a source checkout: the program is imported from
``src/`` next to this directory, and nothing is installed.  One process,
no threads, a closed loop: the job list of the workload runs job after
job, repeated until ``--seconds`` is used up.  The first pass is an
untimed warm-up.  Each job's outcome is checked against the workload's
oracle after the list has run, outside every timed interval.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records provenance.  Run records and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up (imports, input generation, input files) is repeated this many
#: times per run and reported as the median.
SETUP_REPEATS = 5

#: Reported times are in seconds at a reference host speed.  The host this
#: was tuned on switches between two speeds for seconds to minutes at a
#: time, so each timed interval is scaled by REFERENCE_S over the time
#: ``calibrate`` took around it.  REFERENCE_S is the calibration time on
#: that host in its fast phase.
REFERENCE_S = 0.007
#: Job time after which the host speed is sampled again.
CALIBRATION_INTERVAL_S = 0.5

#: (name, unit, better) of every per-layer metric, reported by --trace 1.
PER_LAYER = (
    ("metacyclic.self_s", "s", "lower"),
    ("metacyclic.find_inverting_automorphism.s", "s", "lower"),
    ("metacyclic.enumerate_automorphisms.s", "s", "lower"),
    ("metacyclic.hom_check.calls", "count", "lower"),
    ("metacyclic.hom_check.accept_ratio", "ratio", "higher"),
    ("linalg.self_s", "s", "lower"),
    ("linalg.intertwiner_solve.calls", "count", "lower"),
    ("linalg.intertwiner_solve.s", "s", "lower"),
    ("linalg.intertwiner_solve.certified_ratio", "ratio", "higher"),
    ("linalg.charpoly.calls", "count", "lower"),
    ("linalg.mat_pow_zeta.calls", "count", "lower"),
    ("linalg.rank_divisibility_check.calls", "count", "lower"),
    ("linalg.random_unipotent_matrix.calls", "count", "lower"),
    ("linalg.random_unipotent_matrix.accept_ratio", "ratio", "higher"),
    ("snf.self_s", "s", "lower"),
    ("snf.smith_normal_form_mod_prime_power.calls", "count", "lower"),
    ("snf.smith_normal_form_mod_prime_power.s", "s", "lower"),
    ("snf.kernel_mod.calls", "count", "lower"),
    ("snf.int_det.calls", "count", "lower"),
    ("snf.int_det.s", "s", "lower"),
    ("snf.smith_normal_form.calls", "count", "lower"),
    ("snf.smith_normal_form.s", "s", "lower"),
    ("snf.lattice_basis.calls", "count", "lower"),
    ("snf.quotient_invariants.calls", "count", "lower"),
    ("padic.self_s", "s", "lower"),
    ("padic.is_odd_prime.calls", "count", "lower"),
    ("padic.binom.calls", "count", "lower"),
    ("padic.pow_one_unit.calls", "count", "lower"),
    ("iwasawa.self_s", "s", "lower"),
    ("iwasawa.layer_size_exponent.calls", "count", "lower"),
    ("iwasawa.layer_size_exponent.s", "s", "lower"),
    ("iwasawa.fit_invariants.calls", "count", "lower"),
    ("iwasawa.parity_audit.calls", "count", "lower"),
    ("iwasawa.t_multiplicity.calls", "count", "lower"),
    ("iwasawa.validate_gamma_model.calls", "count", "lower"),
    ("iwasawa.coinvariants.s", "s", "lower"),
    ("records.self_s", "s", "lower"),
    ("records.parse_record.calls", "count", "lower"),
    ("records.check_records.s", "s", "lower"),
    ("cohomology.self_s", "s", "lower"),
    ("cohomology.tate_h0.s", "s", "lower"),
    ("cohomology.tate_hm1.s", "s", "lower"),
    ("cohomology.minus_part.s", "s", "lower"),
    ("cohomology.fixed_points.calls", "count", "lower"),
    ("cohomology.norm_image.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("fail_ratio", "ratio", "lower"),
)

#: (name, unit) of every end-to-end metric, reported by --trace 0.
END_TO_END = (("wall_s", "s"), ("slowest_job_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def import_program():
    """Import anticyclo afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "anticyclo" or n.startswith("anticyclo.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    ac = importlib.import_module("anticyclo")
    importlib.import_module("anticyclo.cli")
    if not Path(ac.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"anticyclo was imported from {ac.__file__}, not from {SRC}")
    return ac


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop that does not use the program."""
    start = perf_counter()
    xs, acc, seen = list(range(64)), 0, {}
    for i in range(1000):
        xs = [(x * 31 + i) % 1000003 for x in xs]
        acc += sum(xs) & 0xFF
        seen[i & 255] = acc
        acc += pow(i | 1, 65, 10**20 + 39) & 1
    return perf_counter() - start


def _scale(before: float, after: float) -> float:
    """Factor from wall time to reference seconds, given the host-speed
    samples taken before and after an interval."""
    return 2 * REFERENCE_S / (before + after)


def run_jobs(jobs, ac, tracer=None):
    """One pass over the job list: (per-job seconds, per-job scales, outcomes).

    The host speed is sampled before the first job, after the last, and
    between jobs once CALIBRATION_INTERVAL_S of job time has passed.  A
    job's scale is REFERENCE_S over the mean of the samples around it.
    """
    times, scales, outcomes = [], [], []
    previous = calibrate()
    pending = 0.0
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for job in jobs:
            if pending >= CALIBRATION_INTERVAL_S:
                sample = calibrate()
                scales += [_scale(previous, sample)] * (len(times) - len(scales))
                previous, pending = sample, 0.0
            t0 = perf_counter()
            try:
                outcome = job.execute(ac)
            except Exception:  # a job that raises is a failed job; the run goes on
                outcome = workloads.Outcome(-1, "", traceback.format_exc())
            times.append(perf_counter() - t0)
            outcomes.append(outcome)
            pending += times[-1]
    finally:
        if tracer is not None:
            tracer.uninstall()
    scales += [_scale(previous, calibrate())] * (len(times) - len(scales))
    return times, scales, outcomes


def check_outcomes(jobs, outcomes):
    """[(job, problems)] for every job whose outcome differs from the oracle."""
    failures = []
    for job, outcome in zip(jobs, outcomes):
        if outcome.code == -1:
            failures.append((job, ["raised: " + outcome.stderr.strip().splitlines()[-1]]))
            continue
        problems = job.check(outcome)
        if problems:
            failures.append((job, problems))
    return failures


def layer_metrics(summary, traced_wall, untraced_wall, fail_ratio) -> dict:
    calls, inclusive, self_s = summary["calls"], summary["inclusive_s"], summary["self_s"]
    outcomes = summary["outcomes"]
    rum = "linalg.random_unipotent_matrix"
    special = {
        "metacyclic.hom_check.accept_ratio":
            _ratio(outcomes["metacyclic.hom_check"], calls["metacyclic.hom_check"]),
        "linalg.intertwiner_solve.certified_ratio":
            _ratio(outcomes["linalg.intertwiner_solve"], calls["linalg.intertwiner_solve"]),
        "linalg.random_unipotent_matrix.accept_ratio":
            _ratio(calls[rum], summary["child_calls"][(rum, "snf.int_det")]),
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
        "fail_ratio": fail_ratio,
    }
    metrics = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.endswith(".self_s"):
            value = self_s[name[: -len(".self_s")]]
        elif name.endswith(".calls"):
            value = calls[name[: -len(".calls")]]
        else:
            value = inclusive[name[: -len(".s")]]
        metrics[name] = value
    return metrics


def provenance(args) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "anticyclo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def set_up(workload, seed, workdir):
    """Import the program and build the job list SETUP_REPEATS times; the
    last build is kept.  Returns (package, jobs, [(seconds, scale)])."""
    calibrate()  # the first call warms the loop up
    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        before = calibrate()
        start = perf_counter()
        ac = import_program()
        jobs = workloads.build(workload, seed, workdir, ac)
        elapsed = perf_counter() - start
        setups.append((elapsed, _scale(before, calibrate())))
    return ac, jobs, setups


def measure(jobs, ac, seconds, tracer=None) -> dict:
    """Pass over the job list until ``seconds`` are used up.

    The first pass is untimed warm-up (the interpreter specializes hot
    code, the allocator grows).  With a tracer, untraced and traced passes
    alternate after it.  Every pass is checked against the oracle.  Pass
    and job times are returned scaled to the reference host speed.
    """
    passes = {False: [], True: []}  # traced -> [(per-job seconds, per-job scales)]
    summaries, failures, digests = [], [], set()
    spans = None
    began = perf_counter()
    count = 0
    while True:
        traced = tracer is not None and len(passes[False]) > len(passes[True]) + 1
        times, scales, outcomes = run_jobs(jobs, ac, tracer if traced else None)
        passes[traced].append((times, scales))
        if traced:
            summaries.append(tracer.summarize())
            spans = spans or tracer.dump()
        failures.extend(check_outcomes(jobs, outcomes))
        digests.add(hashlib.sha256("".join(o.output for o in outcomes).encode()).hexdigest())
        count += 1
        elapsed = perf_counter() - began
        if count >= (3 if tracer else 2) and elapsed + elapsed / count > seconds:
            break
    timed = passes[False][1:]
    scaled = [[t * s for t, s in zip(times, scales)] for times, scales in timed]
    return {
        "walls": [sum(p) for p in scaled],
        "traced_walls": [sum(t * s for t, s in zip(*p)) for p in passes[True]],
        "raw_walls": {"warm_up": sum(passes[False][0][0]),
                      "untraced": [sum(times) for times, _ in timed],
                      "traced": [sum(times) for times, _ in passes[True]]},
        "scales": [statistics.fmean(scales) for _, scales in passes[False] + passes[True]],
        "job_means": [statistics.fmean(column) for column in zip(*scaled)],
        "summaries": summaries,
        "spans": spans,
        "failures": failures,
        "digests": digests,
        "attempted": count * len(jobs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if not (SRC / "anticyclo" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'anticyclo'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = OUT / f"inputs-{args.workload}-{args.seed}"
    ac, jobs, setups = set_up(args.workload, args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    m = measure(jobs, ac, args.seconds, tracer)
    shutil.rmtree(workdir, ignore_errors=True)

    failed = len(m["failures"])
    deterministic = True
    if tracer is not None:
        traced_wall = statistics.fmean(m["traced_walls"])
        per_pass = [layer_metrics(s, traced_wall, statistics.fmean(m["walls"]), failed / m["attempted"])
                    for s in m["summaries"]]
        counts = [{k: v for k, v in p.items() if k.endswith(".calls")} for p in per_pass]
        deterministic = all(c == counts[0] for c in counts)
        values = counts[0] | {name: statistics.median(p[name] for p in per_pass)
                              for name, _, _ in PER_LAYER if name not in counts[0]}
        units = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        values = {
            "wall_s": statistics.fmean(m["walls"]),
            "slowest_job_s": max(m["job_means"]),
            "setup_s": statistics.median(t * scale for t, scale in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    unexpected = [job for job, _ in m["failures"] if job.known_defect is None]
    correct = not unexpected and len(m["digests"]) == 1 and deterministic

    record = provenance(args) | {
        "jobs": len(jobs),
        "pass_wall_s": {"untraced": m["walls"], "traced": m["traced_walls"]},
        "raw_pass_wall_s": m["raw_walls"],
        "pass_mean_scale": m["scales"],
        "raw_setup_s": [t for t, _ in setups],
        "setup_scale": [scale for _, scale in setups],
        "job_mean_s": dict(zip((job.name for job in jobs), m["job_means"])),
        "output_sha256": sorted(m["digests"]),
        "deterministic_counts": deterministic,
        "failures": [{"job": job.name, "known_defect": job.known_defect, "problems": problems[:3]}
                     for job, problems in m["failures"][: 2 * len(jobs)]],
        "known_defects": workloads.KNOWN_DEFECTS,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record | {"metrics": metrics}, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(m["spans"]) + "\n")
    print(json.dumps({"provenance": {k: record[k] for k in (
        "workload", "seed", "commit", "source_sha256", "python", "nproc", "output_sha256")}}))
    print(json.dumps({"correct": correct, "attempted": m["attempted"], "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
