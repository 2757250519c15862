"""qident verdict benchmark.

Drives the program only through its public registry calls:
`registry.sample_params` builds a workload's job list (set-up) and
`registry.verify_one` produces each verdict, timed from outside. Every
verdict is checked against the hand-written table in expected.py.

    python3 perfbench/run.py --workload classic-o120 --seed 1 \\
        --seconds 30 --trace 0

With --trace 0 the workload is run in whole passes until the next pass
would overrun --seconds (at least one pass), and the end-to-end metrics
are printed. With --trace 1 one untraced and one traced pass are run
(plus the micro-benchmarks) and the per-layer metrics are printed;
--seconds does not apply to it. The last line of standard output is the
result object; the line before it holds the run's details (machine,
revision, parameters, escapes, and the measured times before rescaling).

Timings are reported at reference speed: each measured interval is
rescaled by the reference slices interleaved with it (calibrate.py), so
that drift in the machine's speed between runs does not read as a change
in the program.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import List, Optional

from calibrate import REF_SLICE_S, Speedometer
from expected import RIGHT_SIDE_START, expect, known_defect

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 11


@dataclass(frozen=True)
class Workload:
    order: int
    samples: int
    strategy: Optional[str]     # None: each record's primary strategy
    parameter_free_only: bool   # only records with an empty schema
    fault_j_max: int            # 0: no fault twins; else j in 1..fault_j_max


#: why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    # the 97 criterion-1 jobs (3 samples per record), at order 20
    "catalog-o20": Workload(20, 3, None, False, 0),
    # parameter-free records, wide windows, clean and with a fault
    "classic-o120": Workload(120, 1, "exact", True, 120),
    # the numeric strategy only, clean and with a fault
    "numeric-wide": Workload(40, 20, "numeric", False, 10),
}


@dataclass(frozen=True)
class Job:
    record: object                       # the catalog record or its twin
    assignment: object
    fault_j: Optional[int] = None


def build_jobs(registry, wl: Workload, seed: int) -> List[Job]:
    """The workload's job list; fault exponents are drawn from the seed so
    that j + v never exceeds the order."""
    jobs = []
    for rec in registry.catalog():
        if wl.parameter_free_only and rec.schema:
            continue
        strategy = wl.strategy or rec.strategies[0]
        rng = random.Random(f"{seed}:{rec.id}")
        top = min(wl.fault_j_max, wl.order - RIGHT_SIDE_START[rec.id])
        for a in registry.sample_params(rec.id, seed, wl.samples, strategy):
            jobs.append(Job(rec, a))
            if wl.fault_j_max:
                j = rng.randint(1, top)
                jobs.append(Job(registry.with_injected_fault(rec, j), a, j))
    return jobs


def run_pass(registry, jobs: List[Job], order: int, speed: Speedometer):
    """Verify every job once, with reference slices between jobs (never
    inside a timed call). Returns (per-job seconds at reference speed,
    per-job (status, mismatch exponent), measured seconds)."""
    spans, verdicts = [], []
    for job in jobs:
        speed.maybe_tick()
        s = perf_counter()
        try:
            rep = registry.verify_one(job.record, job.assignment, order)
            verdict = (rep.status, rep.mismatch_exponent)
        except Exception:  # reported as an error verdict, the run goes on
            traceback.print_exc(file=sys.stderr)
            verdict = ("error", None)
        spans.append((s, perf_counter()))
        verdicts.append(verdict)
    speed.tick()
    measured = sum(e - s for s, e in spans)
    return speed.rescale(spans), verdicts, measured


def qident_modules() -> dict:
    return {k: m for k, m in sys.modules.items()
            if k == "qident" or k.startswith("qident.")}


def import_afresh() -> None:
    """Run the whole `import qident` again: the loaded qident modules are
    set aside, the package is imported anew, and the originals are put
    back, so the run keeps using the modules it already holds."""
    loaded = qident_modules()
    for name in loaded:
        del sys.modules[name]
    try:
        importlib.import_module("qident.registry")
    finally:
        for name in qident_modules():
            del sys.modules[name]
        sys.modules.update(loaded)


def timed_setup(registry, wl: Workload, seed: int, speed: Speedometer,
                repeats: int = 1):
    """Set up `repeats` times, a reference slice before each: import
    qident afresh, then build the job list. Returns (jobs, per-set-up
    seconds at reference speed, measured)."""
    spans = []
    for _ in range(repeats):
        speed.tick()
        t0 = perf_counter()
        import_afresh()
        jobs = build_jobs(registry, wl, seed)
        spans.append((t0, perf_counter()))
    speed.tick()
    return jobs, speed.rescale(spans), [e - s for s, e in spans]


def judge(jobs: List[Job], verdicts) -> dict:
    """Compare verdicts with the expected-verdict table (expected.py).

    wrong: any verdict other than the expected one, an exact twin that
    reports its mismatch at another exponent, or an error. escapes: twins
    that did not report a mismatch; every one is a known defect or is
    also counted wrong. known: jobs on a known defect's draws.
    """
    tally = {"equal": 0, "mismatch": 0, "skipped": 0, "error": 0}
    wrong, escapes, known = [], [], []
    for job, (status, exponent) in zip(jobs, verdicts):
        tally[status] += 1
        want, want_exponent = expect(job.record.id, job.assignment.strategy,
                                     job.assignment.values, job.fault_j)
        if status != want or (want_exponent is not None
                              and exponent != want_exponent):
            wrong.append(job)
        if job.fault_j is not None and status != "mismatch":
            escapes.append(job)
        if known_defect(job.record.id, job.assignment.strategy,
                        job.assignment.values):
            known.append(job)
    return {"tally": tally, "wrong": wrong, "escapes": escapes,
            "known": known}


def tail_rank(n: int) -> int:
    """0-based rank of the highest percentile with at least ten verdicts
    beyond it (the maximum when there are fewer than eleven)."""
    return max(n - 11, 0) if n > 10 else n - 1


def describe(job: Job) -> dict:
    return {"id": job.record.id, "params": job.assignment.formatted(),
            "fault_j": job.fault_j}


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; a
    checkout that is not a repository reports 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(registry, wl: Workload, seed: int, seconds: float):
    """The untraced run: repeated set-up, then whole passes until the next
    one would overrun `seconds`. Timings are at reference speed."""
    speed = Speedometer()
    jobs, setups, setups_measured = timed_setup(registry, wl, seed, speed,
                                                SETUP_REPEATS)
    deadline = perf_counter() + seconds
    passes, elapsed = [], []
    while True:
        t0 = perf_counter()
        passes.append(run_pass(registry, jobs, wl.order, speed))
        elapsed.append(perf_counter() - t0)
        if perf_counter() + statistics.median(elapsed) > deadline:
            break
    walls = [sum(p[0]) for p in passes]
    per_job = sorted(statistics.median(p[0][i] for p in passes)
                     for i in range(len(jobs)))
    first = passes[0][1]
    verdict = judge(jobs, first)
    unsteady = sum(a != b for p in passes[1:] for a, b in zip(first, p[1]))
    tally = verdict["tally"]
    rank = tail_rank(len(per_job))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "verdict_ms.p50": (statistics.median(per_job) * 1000.0, "ms"),
        "verdict_ms.tail": (per_job[rank] * 1000.0, "ms"),
        "decided_frac": ((tally["equal"] + tally["mismatch"])
                         / len(jobs), "frac"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {
        "passes": len(passes),
        "pass_measured_s": [p[2] for p in passes],
        "pass_s": walls,
        "setups_measured_s": setups_measured,
        "setups_s": setups,
        "reference_slices": len(speed.slices),
        "reference_slice_measured_s": statistics.median(speed.slices),
        "tail": {"rank": rank + 1, "n": len(per_job),
                 "percentile": 100 * (rank + 1) // len(per_job)},
    }
    return metrics, verdict, len(jobs) * len(passes), details, unsteady


def measure_traced(registry, wl: Workload, seed: int):
    """The traced run: an untraced reference pass, a traced pass (set-up
    included in both), then the micro-benchmarks."""
    import micro
    from tracer import SPAN_NAMES, Tracer

    speed = Speedometer()
    jobs, setup, _ = timed_setup(registry, wl, seed, speed)
    times, plain, _ = run_pass(registry, jobs, wl.order, speed)
    untraced = setup[0] + sum(times)

    tracer = Tracer()
    with tracer:
        jobs, setup, setup_measured = timed_setup(registry, wl, seed, speed)
        times, traced, measured = run_pass(registry, jobs, wl.order, speed)
    wall = setup[0] + sum(times)
    measured += setup_measured[0]   # span times are measured, not rescaled
    factor = wall / measured

    summary = tracer.summary()
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (summary[name]["calls"], "count")
        metrics[f"{name}.self_frac"] = (summary[name]["self_s"] / measured,
                                        "frac")
    for key, unit in (("series.mul.dense_calls", "count"),
                      ("series.mul.coef_mults", "count"),
                      ("series.coef_bits.max", "bits"),
                      ("qfunc.sum_exact.terms", "count"),
                      ("qfunc.sum_numeric.terms", "count")):
        metrics[key] = (tracer.counts[key], unit)
    metrics["registry.sample_params.s"] = (
        summary["registry.sample_params"]["total_s"] * factor, "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace_overhead_frac"] = (wall / untraced - 1.0, "frac")
    for name, ms in micro.run(micro.load(), speed).items():
        metrics[name] = (ms, "ms")

    verdict = judge(jobs, plain)
    unsteady = sum(a != b for a, b in zip(plain, traced))
    details = {"untraced_s": untraced, "traced_s": wall,
               "traced_measured_s": measured, "spans": len(tracer.starts)}
    return metrics, verdict, 2 * len(jobs), details, unsteady


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qident" / "__init__.py").is_file():
        print(f"perfbench: no qident sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    from qident import registry

    wl = WORKLOADS[args.workload]
    if args.trace:
        metrics, verdict, attempted, details, unsteady = measure_traced(
            registry, wl, args.seed)
    else:
        metrics, verdict, attempted, details, unsteady = measure(
            registry, wl, args.seed, args.seconds)

    failed = len(verdict["wrong"]) + unsteady
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "params": asdict(wl), "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_revision": git_revision(),
        "run_measured_s": perf_counter() - t0,
        "reference_slice_s": REF_SLICE_S,
        "verdicts": verdict["tally"],
        "wrong_verdicts": len(verdict["wrong"]),
        "fault_escapes": len(verdict["escapes"]),
        "escapes": [describe(j) for j in verdict["escapes"][:20]],
        "known_defect_jobs": [describe(j) for j in verdict["known"][:20]],
        "wrong": [describe(j) for j in verdict["wrong"][:20]],
        "verdicts_differing_between_passes": unsteady,
        **details,
    }
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
