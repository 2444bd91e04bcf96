"""Benchmark of radarcam: one workload per run, a closed loop with one caller.

Run from the repository root:

    python3 bench/run.py --workload infer --seed 1 --seconds 30 --trace 0

Workloads (see ``bench/workloads.py``): ``infer``, ``train``, ``simulate``.
The run sets the workload up several times, runs items one after another for
``--seconds`` seconds (at least ``MIN_ITEMS`` items), checks every item's
outputs and then runs the once-per-run oracle checks. Between items it times
the workload's reference kernel (fixed code that is not radarcam's), and the
end-to-end step metrics are item times divided by the reference time around
each item, which cancels the speed of a shared host. The second-to-last
line of standard output records the run environment; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run, in which every other item runs with
the tracer installed and the others give the untraced reference for the
tracing overhead.

The package is imported from ``src/`` beside this directory; without it the
run exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = REPO_ROOT / ".bench_work"

# One BLAS thread: the loop has one caller, and a single thread keeps the
# figures steady on a shared machine. Pinned before NumPy is imported.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
# The tail is the highest percentile with at least this many samples beyond it.
TAIL_SAMPLES = 10
# More than twice the tail samples, so that the tail is at or above the median.
MIN_ITEMS = 2 * TAIL_SAMPLES + 1


class MissingPackage(RuntimeError):
    """The checkout has no ``src/radarcam`` to benchmark."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    threads = str(min(BLAS_THREADS, nproc()))
    for var in BLAS_ENV:
        os.environ[var] = threads


def import_package() -> float:
    """Import radarcam from the checkout's ``src``; returns the import time."""
    src = REPO_ROOT / "src"
    if not (src / "radarcam" / "__init__.py").is_file():
        raise MissingPackage(f"no radarcam package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    start = time.perf_counter()
    module = importlib.import_module("radarcam")
    elapsed = time.perf_counter() - start
    if Path(module.__file__).resolve().parent != (src / "radarcam").resolve():
        raise MissingPackage(f"radarcam was imported from {module.__file__}, not from {src}")
    return elapsed


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(np) -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # older NumPy has no dict form of the config
        pass
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "cpu": cpu_model(),
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """The value with ``TAIL_SAMPLES`` samples beyond it, and its percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n


def time_reference(wl) -> float:
    """Wall time of one call of the workload's reference kernel."""
    start = time.perf_counter()
    wl.reference()
    return time.perf_counter() - start


def relative_steps(steps: list[float], references: list[float]) -> list[float]:
    """Item times in units of the reference kernel timed around each item."""
    return [step / ref for step, ref in zip(steps, references)]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def attempt(wl, inputs, tracer=None) -> tuple[float, list[str]]:
    """Run one item, timed, and check its outputs untimed.

    Returns the item's wall time and its problems. An item that raises
    counts as failed, with the time until it raised; the caller keeps going.
    Under a tracer, the item runs with the wrappers installed and its
    computed counts are added to the tracer's.
    """
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        outputs = tracer.item(wl.run, inputs) if tracer is not None else wl.run(inputs)
        elapsed = time.perf_counter() - start
    except Exception:  # the loop is a boundary that keeps running
        return time.perf_counter() - start, [traceback.format_exc(limit=3)]
    finally:
        if tracer is not None:
            tracer.uninstall()
    item_problems = wl.check(inputs, outputs)
    if tracer is not None and not item_problems:
        wl.observe(inputs, outputs, tracer.counts)
    return elapsed, item_problems


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size=None, workdir: Path | None = None) -> dict:
    """Set up, run the closed loop, check, and return the result and record."""
    import_s = import_package()
    import numpy as np

    import tracing
    import workloads

    cls = workloads.WORKLOADS[workload]
    root = Path(workdir) if workdir else WORK_ROOT
    root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=root))
    try:
        setup_times, plain, traced, problems = [], [], [], []
        attempted = failed = 0
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl = cls(seed, scratch, size)
            _, warm_problems = attempt(wl, wl.prepare(workloads.WARMUP_INDEX))
            setup_times.append(time.perf_counter() - start)
            attempted += 1
            if warm_problems:
                failed += 1
                problems.extend(f"warm-up: {p}" for p in warm_problems)

        tracer = tracing.Tracer() if trace else None
        references, plain_refs = [time_reference(wl)], []
        deadline = time.perf_counter() + seconds
        index = 0
        while index < MIN_ITEMS or time.perf_counter() < deadline:
            inputs = wl.prepare(index)
            under_trace = tracer if tracer is not None and index % 2 == 1 else None
            elapsed, item_problems = attempt(wl, inputs, under_trace)
            attempted += 1
            if item_problems:
                failed += 1
                problems.extend(f"item {index}: {p}" for p in item_problems)
            references.append(time_reference(wl))
            (traced if under_trace else plain).append(elapsed)
            if not under_trace:
                plain_refs.append((references[-2] + references[-1]) / 2.0)
            index += 1

        checks = {}
        for name, check in wl.run_checks():
            attempted += 1
            try:
                ok, detail = check()
            except Exception:  # a crashing check is a failed check
                ok, detail = False, traceback.format_exc(limit=3)
            checks[name] = {"ok": ok, "detail": detail}
            if not ok:
                failed += 1
                problems.append(f"check {name}: {detail}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if trace:
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics = tracing.per_layer_metrics(tracer, len(traced), overhead)
        steps = traced
    else:
        relative = relative_steps(plain, plain_refs)
        tail_value, tail_pct = tail(relative)
        metrics = {
            "step_p50_rel": (statistics.median(relative), "x_ref"),
            "step_tail_rel": (tail_value, "x_ref"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
            "success_ratio": (1.0 - failed / attempted, "ratio"),
        }
        steps = plain
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "items": index,
        "timed_items": len(steps),
        "step_ms": [1e3 * t for t in steps],
        "reference_ms": [1e3 * t for t in references],
        "setup_runs_s": setup_times,
        "import_s": import_s,
        "checks": checks,
        "problems": problems,
        "environment": environment(np),
    }
    if trace:
        record["untraced_items"] = len(plain)
        record["skipped_wrappers"] = tracer.skipped
        record["computed_metrics"] = tracing.COMPUTED
    else:
        record["tail_percentile"] = tail_pct
        record["step_p50_ms"] = 1e3 * statistics.median(plain)
        record["step_tail_ms"] = 1e3 * tail(plain)[0]
        record["throughput_per_s"] = len(plain) / sum(plain)
        record["tail_samples_beyond"] = TAIL_SAMPLES
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return {"record": record, "result": result}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("infer", "train", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    try:
        out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in out["record"]["problems"]:
        print(problem, file=sys.stderr)
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
