"""One benchmark worker: a fresh interpreter running CLI jobs in a closed loop.

    python3 bench/worker.py --probe
    python3 bench/worker.py MANIFEST RESULTS SECONDS [SPANS]

The first form only times `import spanauto.cli` and prints the seconds.
The second form also runs the manifest's jobs through `spanauto.cli.main`
one at a time, in order and wrapping around, until SECONDS have passed,
at least MIN_JOBS have run and the current cycle of size classes is
complete (SECONDS = 0: exactly one pass), so that every run measures
whole cycles and enough jobs for its p90.  Each job's exit code, time,
captured output and the calibration time measured after it go to RESULTS
as one JSON line, written after the job's timer has stopped.  With SPANS
the worker traces every layer call and writes the spans there at the
end.  The last stdout line is a JSON summary.

The worker starts no threads or processes.  It imports nothing beyond
what interpreter start-up already loaded before timing the import, so
the import time includes every module spanauto pulls in.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

_t0 = time.perf_counter()
import spanauto.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402


MIN_JOBS = 100  # leaves at least ten jobs above the p90


def calibration() -> float:
    """Milliseconds for a fixed piece of interpreter work.

    An integer loop plus a block of tuple keys, dict updates and a sort,
    the kind of work the library's inner loops do.  Garbage collection is
    off meanwhile, so the time does not depend on what the jobs left on
    the heap, only on how fast the shared machine runs just then.  It
    runs after every job, outside the job's timer.
    """
    start = time.perf_counter()
    gc.disable()
    try:
        x = 0
        for i in range(40000):
            x = (x * 31 + i) & 0xFFFF
        counts: dict = {}
        for i in range(1500):
            key = (f"a{i % 37}", i % 11)
            counts[key] = counts.get(key, 0) + i
        sorted(counts.items())
    finally:
        gc.enable()
    return (time.perf_counter() - start) * 1000.0


def run(manifest_path: str, results_path: str, seconds: float, spans_path: str | None) -> dict:
    with open(manifest_path, encoding="utf-8") as f:
        manifest = json.load(f)
    jobs, cycle = manifest["jobs"], manifest["cycle"]
    recorder = None
    if spans_path:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    cli = spanauto.cli
    clock = time.perf_counter
    done = 0
    busy = 0.0
    began = clock()
    with open(results_path, "w", encoding="utf-8") as results:
        while (clock() - began < seconds or done < MIN_JOBS or done % cycle) if seconds > 0 else done < len(jobs):
            argv = jobs[done % len(jobs)]
            out, err = io.StringIO(), io.StringIO()
            code = exc = None
            if recorder is not None:
                recorder.job_id = done
            with redirect_stdout(out), redirect_stderr(err):
                start = clock()
                try:
                    code = cli.main(argv)
                except SystemExit as e:  # argparse rejecting the arguments
                    code, exc = e.code, "SystemExit"
                except Exception as e:  # an exception escaping main is a job failure
                    exc = f"{type(e).__name__}: {e}"
                finally:
                    elapsed = clock() - start
            busy += elapsed
            results.write(json.dumps({"i": done, "code": code, "exc": exc, "ms": elapsed * 1000.0,
                                      "cal_ms": calibration(), "out": out.getvalue(),
                                      "err": err.getvalue()}) + "\n")
            done += 1
    if recorder is not None:
        recorder.dump(spans_path)
    return {
        "import_s": IMPORT_S,
        "jobs": done,
        "busy_s": busy,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main(argv: list[str]) -> int:
    if argv == ["--probe"]:
        print(json.dumps({"import_s": IMPORT_S}))
        return 0
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    summary = run(argv[0], argv[1], float(argv[2]), argv[3] if len(argv) == 4 else None)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
