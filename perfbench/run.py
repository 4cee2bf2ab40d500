"""kgdialog benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload {train,chat,ground,eval} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. Inputs are generated from ``--seed`` by ``gen.py`` in a child
process, under ``.perfbench_work/``, and removed at the end. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones, measured
untraced; with ``--trace 1`` they are the per-layer ones from a traced run of
the same work, plus the tracing overhead. See README.md for what each
metric means on each workload.

One process, one closed-loop client. BLAS is pinned to one thread and the
process to one CPU (the highest it may use), so it uses one core of the
machine's two and does not migrate between them. glibc's malloc gets fixed
mmap and trim thresholds: with its adaptive defaults, the decode loop's large
temporaries are returned to the kernel and faulted in again in some runs and
not in others, and chat latency moved by a quarter from run to run.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import ctypes.util  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_MIN_S, so that a burst of load on the host shorter than half that
# window cannot move the median, however short one set-up is.
SETUP_REPEATS = 11
SETUP_MIN_S = 1.0
WARMUP_REQUESTS = 2
GEN_TIMEOUT_S = 120
# glibc mallopt parameters and the fixed values set for the run
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20  # glibc's ceiling for the adaptive threshold on 64-bit
TRIM_THRESHOLD = 256 << 20

# End-to-end metrics, each reported on every workload; ops_attempted /
# ops_failed are the result's "attempted" / "failed", and on train
# requests_per_s is training samples x epochs per second.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "requests_per_s": "requests/s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "token_ms_p50": "ms",
    "tokens_per_s": "tokens/s",
    "ref_match_share": "share",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; refuses one with fewer than ten samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < 10:
        raise ValueError(f"p{q:g} of {len(ordered)} samples has {len(ordered) - rank} beyond it; need 10")
    return ordered[rank - 1]


def blockwise(values: list[float], block: int, stat) -> float:
    """``stat`` of each run of ``block`` consecutive values, then the median
    of those; ``stat`` of all values where there are fewer than two whole
    blocks. A slow phase of the host shorter than half the run then moves
    only the blocks it falls in, not the median of them; without this,
    ground's p90 picked up any slow phase that held a tenth of its requests."""
    if block <= 0 or len(values) < 2 * block:
        return stat(values)
    return statistics.median(stat(values[i:i + block]) for i in range(0, len(values) - block + 1, block))


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fix_allocator() -> bool:
    """Fix glibc's mmap and trim thresholds for this process; False where
    the C library has no ``mallopt`` or refuses the values."""
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))


def end_to_end(res, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics of one untraced run.

    On chat and ground every request is timed; on train and eval the package
    runs all units of work in one call, so latency is the call's wall time per
    unit (its mean) and the percentiles coincide. Where the workload sends its
    requests in blocks of the same mix (``res.block``), the latency statistics
    are taken per block and their median reported.
    """
    done = res.attempted - res.failed
    total_tokens = sum(res.tokens)
    if res.latencies_ms:
        lat = res.latencies_ms
        per_token = [ms / t for ms, t in zip(res.latencies_ms, res.tokens) if t > 0]
        p50 = blockwise(lat, res.block, statistics.median)
        p90 = blockwise(lat, res.block, lambda values: percentile(values, 90))
        token_ms = blockwise(per_token, res.block, statistics.median) if per_token else 0.0
    else:
        p50 = p90 = res.wall_s * 1e3 / max(res.attempted, 1)
        token_ms = res.wall_s * 1e3 / max(total_tokens, 1)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "requests_per_s": done / res.wall_s,
        "request_ms_p50": p50,
        "request_ms_p90": p90,
        "token_ms_p50": token_ms,
        "tokens_per_s": total_tokens / res.wall_s,
        "ref_match_share": res.matched / res.checked if res.checked else 0.0,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def _timed_setup(workload, work: Path):
    """One set-up, timed. Callers drop their previous context first: the
    collection here then frees it, so every repeat starts from the same heap
    instead of paying, at random points, for the garbage of the one before."""
    gc.collect()
    t0 = time.perf_counter()
    ctx = workload.setup(work)
    return ctx, time.perf_counter() - t0


def _warm_up(workload, ctx) -> None:
    """A few untimed requests, so lazy set-up in the libraries is done; train
    has no unit smaller than an epoch and goes cold."""
    if workload.name != "train":
        workload.run(ctx, WARMUP_REQUESTS)


def measure(workload, work: Path):
    """Untraced run: repeated set-up, warm-up, the timed region, then checks."""
    setups: list[float] = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        ctx = None
        ctx, dt = _timed_setup(workload, work)
        setups.append(dt)
    _warm_up(workload, ctx)
    res = workload.run(ctx)
    peak = _peak_rss_mb()
    workload.check(ctx, res)
    return res, end_to_end(res, statistics.median(setups), peak)


def measure_traced(workload, work: Path, trace_path: Path):
    """Half the work, untraced and then traced; the per-layer metrics come
    from the traced pass and the difference between the passes is the
    tracing overhead."""
    from tracer import Tracer, layer_metrics

    ctx, _ = _timed_setup(workload, work)
    _warm_up(workload, ctx)
    n = max(1, workload.size(ctx) // 2)
    ctx = None
    ctx, setup_u = _timed_setup(workload, work)
    untraced = setup_u + workload.run(ctx, n).wall_s
    ctx = None

    tracer = Tracer()
    before = resource.getrusage(resource.RUSAGE_SELF)
    with tracer:
        ctx, setup_t = _timed_setup(workload, work)
        res = workload.run(ctx, n, mark=tracer.begin_request)
    after = resource.getrusage(resource.RUSAGE_SELF)
    workload.check(ctx, res)
    tracer.write(trace_path)
    layers = layer_metrics(tracer, untraced, setup_t + res.wall_s, res.wall_s)
    # the kernel's share: page faults on large temporaries are part of it
    layers["process.system_s"] = (after.ru_stime - before.ru_stime, "s")
    layers["process.minor_faults"] = (after.ru_minflt - before.ru_minflt, "count")
    metrics = {name: value for name, (value, _) in layers.items()}
    units = {name: unit for name, (_, unit) in layers.items()}
    return res, metrics, units


def _print_summary(args, res, metrics: dict, units: dict, environment: str) -> None:
    """Human-readable lines before the JSON result, including the names that
    are printed but not in the JSON (see README.md)."""
    print(f"# kgdialog benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} {environment} latency_samples={len(res.latencies_ms)} "
          f"checked={res.checked}")
    print(f"  {'ops_attempted':<44} {res.attempted:>14d} count")
    print(f"  {'ops_failed':<44} {res.failed:>14d} count")
    if args.workload == "train" and not args.trace:
        print(f"  {'train_samples_per_s':<44} {metrics['requests_per_s']:>14.4f} samples/s")
        print(f"  {'valid_loss':<44} {res.extra['valid_loss']:>14.6f} nats "
              f"(initial {res.extra['initial_loss']:.6f}, epochs {res.extra['tcfg'].epochs})")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="kgdialog benchmark")
    ap.add_argument("--workload", required=True, choices=("train", "chat", "ground", "eval"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    if not (ROOT / "src" / "kgdialog" / "__init__.py").is_file():
        print(f"error: no kgdialog package under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    allocator = "fixed" if fix_allocator() else "default"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--out", str(work)],
            check=True, timeout=GEN_TIMEOUT_S,
        )
        if args.trace:
            trace_path = base / f"trace-{args.workload}-{args.seed}.jsonl"
            res, metrics, units = measure_traced(workload, work, trace_path)
        else:
            res, metrics = measure(workload, work)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    _print_summary(args, res, metrics, units, f"blas_threads={blas_threads()} cpu={cpu} malloc={allocator}")
    result = {
        "correct": res.failed == 0 and res.checked > 0 and res.matched == res.checked,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
