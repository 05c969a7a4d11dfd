"""The spanauto benchmark: seeded CLI workloads with exact-answer checks.

    python3 bench/run.py --workload words|powerset|check|all --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it reads the package from `src/`,
the bundled fixtures from `fixtures/` and their goldens from
`tests/golden/`, and writes only under `.bench_work/`, which it removes.

Set-up (not timed) generates the workload's job list from the seed,
writes the documents and computes every job's reference answer with the
independent code in `ref.py`.  Then one fresh worker process
(`worker.py`) drives `spanauto.cli.main(argv)` in-process as a closed
loop with one client: the next job starts when the previous one
returns.  Every job's exit code, stdout and stderr are checked against
its reference afterwards.

`--trace 0` reports the end-to-end metrics of a timed loop of S seconds.
`--trace 1` runs a fixed prefix of the job list twice, once plain and
once with every layer wrapped (`tracing.py`), and reports the per-layer
metrics; a fixed job set makes the counts repeat exactly.  The last
stdout line is the JSON result; the lines above it record the run, each
distinct job and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import ref  # noqa: E402
import tracing  # noqa: E402

# cycles: cycles of size classes generated per seed (the timed loop wraps
# around them if it runs out); trace_cycles: the fixed prefix a traced run
# executes; limit_s: a job slower than this counts as failed.
WORKLOADS = {
    "words": {"cycles": 14, "trace_cycles": 4, "limit_s": 5.0},
    "powerset": {"cycles": 8, "trace_cycles": 3, "limit_s": 10.0},
    "check": {"cycles": 12, "trace_cycles": 6, "limit_s": 5.0},
}
FIXTURES = ("two_state", "two_phase")
IMPORT_PROBES = 12  # extra fresh interpreters timing the import, besides the worker
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


def argv_of(job: dict, path: str) -> list[str]:
    kind = job["kind"]
    if kind == "lang":
        return ["lang", path, "--max-len", str(job["max_len"]), "--count"]
    if kind == "det":
        return ["det", path, "--prune"]
    if kind == "mdet-expand":
        return ["mdet", path, "--expand", "--max-len", str(job["max_len"]),
                "--max-states", str(job["max_states"])]
    if kind.startswith("sim-"):
        return ["sim-check", path, "--mode", "pseudo" if kind == "sim-pseudo" else "lax"]
    return ["factor", path, "--target", "mdet" if kind == "factor-mdet" else "det"]


def fixture_jobs(workload: str) -> list[dict]:
    """The bundled fixtures, checked byte for byte against the goldens."""
    jobs = []
    for name in FIXTURES:
        doc = ROOT / "fixtures" / f"{name}.json"
        if workload == "words":
            argv, golden = ["lang", str(doc), "--max-len", "4", "--count"], f"lang_count_{name}.txt"
        else:
            argv, golden = ["det", str(doc)], f"det_{name}.json"
        jobs.append({"kind": "golden", "argv": argv, "fixture": name,
                     "golden": (ROOT / "tests" / "golden" / golden).read_text(encoding="utf-8")})
    return jobs


def job_record(i: int, job: dict) -> dict:
    """What is recorded per job: kind, node count, fiber sizes, edges, tokens, bounds."""
    rec = {"job": i, "kind": job["kind"]}
    if job["kind"] == "golden":
        rec["fixture"] = job["fixture"]
        return rec
    rec.update(gen.doc_shape(job["doc"] if "doc" in job else job["sim"]["source"]))
    for key in ("max_len", "max_states", "words"):
        if key in job:
            rec[key] = job[key]
    return rec


def prepare(workload: str, seed: int, work: Path) -> tuple[list[dict], list, int]:
    """Generate the job list, write its documents, compute the references.

    The bundled fixtures open every cycle of `words` and `powerset`.
    """
    cycles = gen.generate(workload, seed, WORKLOADS[workload]["cycles"])
    fixtures = fixture_jobs(workload) if workload != "check" else []
    jobs = [job for cycle in cycles for job in fixtures + cycle]
    for i, job in enumerate(jobs):
        if job["kind"] != "golden":
            path = work / f"job{i}.json"
            path.write_text(json.dumps(job.get("doc") or job.get("sim")), encoding="utf-8")
            job["argv"] = argv_of(job, str(path))
    return jobs, [ref.expected(job) for job in jobs], len(jobs) // len(cycles)


def start_worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_jobs(jobs: list[dict], refs: list, cycle: int, work: Path, tag: str, seconds: float,
             n_jobs: int | None, limit_s: float, spans: Path | None = None) -> dict:
    """One worker over the job list; every result checked against its reference."""
    manifest = work / f"{tag}-manifest.json"
    results = work / f"{tag}-results.jsonl"
    listed = jobs if n_jobs is None else jobs[:n_jobs]
    manifest.write_text(json.dumps({"cycle": cycle, "jobs": [job["argv"] for job in listed]}), encoding="utf-8")
    args = [str(manifest), str(results), str(seconds if n_jobs is None else 0)]
    if spans is not None:
        args.append(str(spans))
    summary = start_worker(args, WORKER_TIMEOUT_S)
    ms, cal, failures, per_job = [], [], [], {}
    with results.open(encoding="utf-8") as f:
        for line in f:
            r = json.loads(line)
            k = r["i"] % len(listed)
            ms.append(r["ms"])
            cal.append(r["cal_ms"])
            per_job.setdefault(k, []).append(r["ms"])
            if r["exc"] is not None and r["exc"] != "SystemExit":
                problem = f"exception escaped main: {r['exc']}"
            else:
                problem = refs[k].problem(r["code"], r["out"], r["err"])
            if problem is None and r["ms"] > limit_s * 1000.0:
                problem = f"took {r['ms']:.0f} ms, over the {limit_s:.0f} s limit"
            if problem is not None:
                failures.append((r["i"], k, problem))
    results.unlink()
    summary.update(ms=ms, cal=cal, failures=failures, per_job=per_job)
    return summary


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def import_times(n: int) -> list[float]:
    return [start_worker(["--probe"], 60)["import_s"] for _ in range(n)]


def end_to_end(jobs, refs, cycle: int, work: Path, workload: str, seconds: float) -> tuple[dict, dict]:
    # half the import probes before the timed loop and half after, so a
    # slow spell of the machine does not fall on all of them
    imports = import_times(IMPORT_PROBES // 2)
    run = run_jobs(jobs, refs, cycle, work, "timed", seconds, None, WORKLOADS[workload]["limit_s"])
    imports += [run["import_s"]] + import_times(IMPORT_PROBES - IMPORT_PROBES // 2)
    ms = run["ms"]
    rel = relative_times(ms, run["cal"])
    metrics = {
        "job_cal_p50": (statistics.median(rel), "cal"),
        "job_cal_p90": (p90(rel), "cal"),
        "jobs_per_kcal": (1000.0 * len(rel) / sum(rel), "1/kcal"),
        "setup_s": (statistics.median(imports), "s"),
        "peak_rss_mb": (run["maxrss_kb"] / 1024.0, "MB"),
    }
    run["raw"] = {
        "job_ms_p50": statistics.median(ms), "job_ms_p90": p90(ms), "jobs_per_s": len(ms) / run["busy_s"],
        "cal_ms_median": statistics.median(run["cal"]), "import_samples_s": imports,
    }
    return metrics, run


CAL_WINDOW = 10  # jobs on each side whose calibrations set a job's time unit


def relative_times(ms: list[float], cal: list[float]) -> list[float]:
    """Each job's time in units of the calibration measured around it.

    The machine is shared, and its speed drifts by tens of percent over
    minutes; a job's time over the median calibration of its neighbours
    cancels that drift while still moving with the program's own speed.
    """
    return [m / statistics.median(cal[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1]) for i, m in enumerate(ms)]


def per_layer(jobs, refs, cycle: int, work: Path, workload: str) -> tuple[dict, dict]:
    config = WORKLOADS[workload]
    n = config["trace_cycles"] * cycle
    plain = run_jobs(jobs, refs, cycle, work, "plain", 0, n, config["limit_s"])
    spans = work / "spans.bin"
    traced = run_jobs(jobs, refs, cycle, work, "traced", 0, n, config["limit_s"], spans)
    metrics = tracing.layer_metrics(tracing.summarize(str(spans)))
    spans.unlink()
    metrics["trace.overhead_ratio"] = (
        statistics.median(relative_times(traced["ms"], traced["cal"]))
        / statistics.median(relative_times(plain["ms"], plain["cal"])), "ratio")
    traced["raw"] = {"plain_job_ms_p50": statistics.median(plain["ms"]),
                     "traced_job_ms_p50": statistics.median(traced["ms"])}
    traced["failures"] += plain["failures"]
    traced["ms"] += plain["ms"]
    return metrics, traced


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    for needed in (ROOT / "src" / "spanauto" / "cli.py", ROOT / "fixtures", ROOT / "tests" / "golden"):
        if not needed.exists():
            raise BenchError(f"{needed.relative_to(ROOT)} is missing: run from a spanauto checkout")
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=work_root))
    try:
        began = time.perf_counter()
        jobs, refs, cycle = prepare(workload, seed, work)
        prep_s = time.perf_counter() - began
        if trace:
            metrics, run = per_layer(jobs, refs, cycle, work, workload)
        else:
            metrics, run = end_to_end(jobs, refs, cycle, work, workload, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it
    attempted = len(run["ms"])
    failed = len(run["failures"])
    info = {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "platform": platform.platform(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "jobs_listed": len(jobs), "prep_s": round(prep_s, 3),
        "worker_jobs": run["jobs"], "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
    }
    info["cycle"] = cycle
    info.update(run.get("raw", {}))
    print("run " + json.dumps(info))
    for i, job in enumerate(jobs):
        times = run["per_job"].get(i, [])
        rec = job_record(i, job)
        rec.update(runs=len(times), ms_median=round(statistics.median(times), 3) if times else None)
        print("job " + json.dumps(rec))
    for i, k, problem in run["failures"][:20]:
        print(f"FAIL run {i} (job {k}, {jobs[k]['kind']}): {problem}")
    for name, (value, unit) in metrics.items():
        print(f"metric {workload} {name} = {value:.6g} {unit}")
    print(f"metric {workload} error_rate = {info['error_rate']:.6g} ratio")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
