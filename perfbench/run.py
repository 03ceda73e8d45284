"""povmlab benchmark: one workload, in this fresh process.

    python3 perfbench/run.py --workload default --seed 7 --seconds 30 --trace 0

Set-up is measured in fresh interpreters started from here. The workload
then runs closed-loop with one caller, one warm-up iteration first, until
``--seconds`` have passed; every iteration's output is gated against the
committed reference (see workloads.py). The BLAS pool is pinned to one
thread before numpy loads, and the run refuses to start if the pin did not
take effect.

Times are speed-normalised. A fixed calibration kernel runs before and after
every iteration and every set-up probe, and each time is reported in
reference seconds: wall seconds * CALIBRATION_REF_S / the mean of the two
calibration times beside it. The speed of the small shared VMs this runs on
drifts by up to half over minutes; the ratio cancels that drift. Raw wall
medians are printed in the line before the result.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` iterations alternate between untraced and traced
(wrappers installed for that iteration only), and the last line reports
the per-layer metrics. The line before it holds the provenance of the run.
"""

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# pinned before anything below loads numpy
PINNED_THREADS = 1
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
    str(PINNED_THREADS)))

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5      # fresh interpreters per run; setup_s is their median
TAIL_BEYOND = 10       # samples above the reported tail
MIN_SAMPLES = TAIL_BEYOND + 1
HARD_CAP_S = 120.0     # stop timing here even below MIN_SAMPLES
# Calibration kernel time that defines one reference second: its median on
# a 2-vCPU x86-64 VM (OpenBLAS 0.3.31, numpy 2.4) in the middle of its drift.
CALIBRATION_REF_S = 0.025

# Run in a fresh interpreter: import the package, make the first BLAS call,
# then print the two durations. The parent times the whole interval from
# spawning the interpreter to reading that line.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import povmlab
t1 = time.perf_counter()
import numpy as np
a = np.eye(8, dtype=complex)
povmlab.opnorm(a @ a)
t2 = time.perf_counter()
print(t1 - t0, t2 - t1, flush=True)
"""


def make_calibration():
    """A fixed mix of interpreter, LAPACK and BLAS work; returns a function
    timing one pass of it."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
    b = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))

    def calibration_s():
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        for _ in range(3):
            np.linalg.svd(a, compute_uv=False)
        for _ in range(4):
            b @ b
        return time.perf_counter() - start

    return calibration_s


def measure_setup(calibrate):
    """Median set-up, import and first-BLAS-call times over fresh
    interpreters, each normalised by the calibrations beside it."""
    totals, imports, warmups = [], [], []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter()
                proc.communicate(timeout=60)
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or not line.strip():
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        after = calibrate()
        scale = CALIBRATION_REF_S / ((before + after) / 2)
        before = after
        import_s, warmup_s = (float(v) for v in line.split())
        totals.append((ready - start) * scale)
        imports.append(import_s * scale)
        warmups.append(warmup_s * scale)
    return (statistics.median(totals), statistics.median(imports),
            statistics.median(warmups))


def blas_threads():
    """Thread count reported by each OpenBLAS library loaded here."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1]})
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = fn()
                break
    return counts


def git_commit():
    """HEAD of the checkout's git repository; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed, threads):
    import numpy
    import scipy
    blas = {lib.__name__: lib.show_config(mode="dicts")["Build Dependencies"]
            ["blas"] for lib in (numpy, scipy)}
    digest = hashlib.sha256()
    for path in sorted((SRC / "povmlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "blas": {name: f"{b.get('name')} {b.get('version')}"
                 for name, b in blas.items()},
        "blas_threads": threads,
        "pinned_threads": PINNED_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def tail(samples):
    """Highest order statistic with TAIL_BEYOND samples above it (the
    maximum when there are too few samples), and its 1-based rank."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND \
        else len(ordered)
    return ordered[rank - 1], rank


def run(workload, seed, seconds, trace):
    import layers
    import workloads
    from tracing import Tracer

    reference = workloads.load_reference(workload, seed)
    layer_units = layers.metric_units()
    tracer = Tracer()
    attempted = failed = 0
    failures = []

    def iteration(traced):
        nonlocal attempted, failed
        gc.collect()
        if traced:
            tracer.reset()
            layers.install(tracer)
        start = time.perf_counter()
        try:
            result = workloads.run_iteration(workload, seed)
        except Exception as exc:  # a raising iteration is a failed check
            result = exc
        finally:
            elapsed = time.perf_counter() - start
            tracer.remove()
        outcome = workloads.check(workload, result, reference)
        attempted += outcome.attempted
        failed += len(outcome.failures)
        failures.extend(outcome.failures[:5 - len(failures)])
        return elapsed, outcome.executed

    calibrate = make_calibration()
    setup_s, import_s, warmup_s = measure_setup(calibrate)
    iteration(False)                       # warm-up, untimed
    samples = {False: [], True: []}        # normalised seconds
    walls, calibrations, per_layer, executed = [], [], [], 0
    before = calibrate()
    begin = time.perf_counter()
    i = 0
    while True:
        traced = bool(trace) and i % 2 == 1
        elapsed, n = iteration(traced)
        after = calibrate()
        scale = CALIBRATION_REF_S / ((before + after) / 2)
        before = after
        calibrations.append(after)
        samples[traced].append(elapsed * scale)
        if traced:
            values = layers.iteration_values(tracer.spans, tracer.counts)
            per_layer.append({k: v * scale if layer_units[k] == "s" else v
                              for k, v in values.items()})
        else:
            walls.append(elapsed)
            executed += n
        i += 1
        spent = time.perf_counter() - begin
        if (spent + elapsed > HARD_CAP_S
                or (spent >= seconds and i >= MIN_SAMPLES)):
            break

    runs = samples[False]
    if trace:
        values = layers.median_values(per_layer)
        values["setup.import_s"] = import_s
        values["setup.blas_warmup_s"] = warmup_s
        values["trace.overhead_s"] = (statistics.median(samples[True])
                                      - statistics.median(runs))
        units = layer_units
        detail = {"traced_samples": len(samples[True])}
    else:
        tail_s, rank = tail(runs)
        values = {
            "setup_s": setup_s,
            "run_s.p50": statistics.median(runs),
            "run_s.tail": tail_s,
            "checks_per_s": executed / sum(runs),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "run_s.p50": "s", "run_s.tail": "s",
                 "checks_per_s": "1/s", "peak_rss_mb": "MB"}
        detail = {"tail_rank": rank,
                  "tail_percentile": round(100 * rank / len(runs), 1)}
    detail.update(samples=len(runs), wall_p50_s=statistics.median(walls),
                  calibration_p50_s=statistics.median(calibrations),
                  failed_share=failed / attempted, failures=failures)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return detail, {"correct": failed == 0, "attempted": attempted,
                    "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "povmlab" / "__init__.py").is_file():
        print(f"error: no povmlab sources under {SRC}", file=sys.stderr)
        return 2

    import workloads  # loads povmlab, hence numpy and scipy's BLAS
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    threads = blas_threads()
    if not threads or any(n != PINNED_THREADS for n in threads.values()):
        print(f"error: BLAS thread pin to {PINNED_THREADS} did not take "
              f"effect: {threads or 'no OpenBLAS found'}", file=sys.stderr)
        return 3

    detail, result = run(args.workload, args.seed, args.seconds, args.trace)
    detail = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance(args.seed, threads), **detail}
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
