"""The sinklap benchmark: one workload per process, a closed loop of units.

    python3 bench/run.py --workload noisy_pointwise --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``, never from an installed copy.  One *unit* is one top-level
library call.  A single client runs units back to back (closed loop,
one client thread) until ``--seconds`` have passed and at least the
workload's scored units are done.  The seed fixes every input: unit i
passes ``seed * 10**6 + 10 * i`` to the library as its seed or base
seed; unit 0 is the warm-up call, the timed units are 1, 2, ...

Replica pools get 2 threads and BLAS is held at 1 thread, so the
process never runs more than 2 compute threads.  glibc's mmap threshold
is fixed at MMAP_THRESHOLD.  The scored-unit counts keep the
seed-to-seed spread of result_error, which is sampling variance of the
data, near 5-9 % of its median.

With ``--trace 0`` the run reports the end-to-end metrics: units_per_s
(1 / median unit time), peak_rss_mb (ru_maxrss of this process),
setup_s (imports plus the warm-up call, which runs the unit at
n = WARMUP_N; the median of this process and two fresh child
processes) and result_error (mean over the scored units, see
WORKLOADS).  With ``--trace 1`` the layer functions are
wrapped (see spans.py) and the run reports per-layer self time, calls
and wait time per unit, the counts of spans.COUNTS, and
trace.units_per_s, whose gap to the untraced units_per_s is the tracing
overhead.  The traced run finally repeats unit 1 untraced and requires
a bitwise-equal result.

A unit fails when it raises, when any Sinkhorn-Knopp scaling in it did
not converge, when an error or MSE is non-finite, or (noisy_embedding)
when the scaled pipeline's pair-1 MSE is not below the degree
pipeline's.  The last line of standard output is one JSON object with
keys correct, attempted, failed and metrics; the exit code is 0 only
when correct is true.  A result file with the run metadata, per-unit
digests and (traced) all spans goes to bench/results/.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPLICA_THREADS = 2
SETUP_SAMPLES = 3
# the warm-up call runs the unit's whole pipeline at this size: enough
# to finish lazy imports and BLAS and pool start-up, without timing a
# second full unit inside set-up
WARMUP_N = 300
# glibc raises its mmap threshold to the size of each freed mmapped
# block, so whether a freed 8-16 MB array goes back to the OS depends on
# how the replica threads interleave, and peak RSS drifted ~10 % between
# runs of noisy_embedding; a fixed threshold makes it repeat
MMAP_THRESHOLD = 1 << 20
M_MMAP_THRESHOLD = -3


@dataclass(frozen=True)
class Workload:
    """A unit, its scored-unit count, and how its outputs are judged.

    run(sl, seed, n) makes one unit's library call on n points (the
    timed units use n; the warm-up uses WARMUP_N); error(result) is the
    unit's contribution to result_error; problems(result) lists failed
    output checks.  scored is the number of timed units whose errors
    and counts are reported, fixed so both repeat exactly for a seed.
    """

    name: str
    n: int
    scored: int
    run: object
    error: object
    problems: object


def _finite(*values):
    return all(math.isfinite(float(v)) for v in values)


# The unit of the noisy_runs acceptance fixture.  Distances over 2000
# ambient columns take ~90 % of it and it has no eigensolve, so a
# kernel-layer change must show here and an eigensolve change must not.
def _noisy_pointwise(sl, seed, n):
    c_sk = 0.1 * math.sqrt(sl.normalized_prefactor(n, 5e-4, 1))
    return sl.pointwise_experiment(
        n,
        sl.DensitySpec.SINUSOIDAL_1D,
        5e-4,
        sl.LaplacianKind.BISTOCH_UN,
        sk_config=sl.SkConfig(c_sk=c_sk),
        noise_model=sl.NoiseModel(sl.NoiseKind.SIMPLE, m=2000, sigma_out=0.1, p_out=0.1),
        seed=seed,
    )


# Clean data in R^4: each distance pass is cheap, but the sweep redoes
# it at all 10 grid points and runs scaling, assembly and apply 20
# times per unit, so cross-grid reuse and cheaper assembly show here
# and a high-ambient-dimension distance trick must not.
def _clean_sweep(sl, seed, n):
    import numpy as np

    return sl.epsilon_sweep(
        n,
        sl.DensitySpec.SINUSOIDAL_1D,
        np.geomspace(1e-4, 1e-2, 10),
        2,
        sl.LaplacianKind.BISTOCH_UN,
        base_seed=seed,
        threads=REPLICA_THREADS,
    )


# The only workload with the random-walk form, the degree-normalized
# pipeline and the eigensolve; two replica threads share the
# interpreter.  A change that helps apply but hurts eigensolve shows here.
def _noisy_embedding(sl, seed, n):
    return sl.embedding_experiment(
        n,
        sl.NoiseModel(sl.NoiseKind.HETEROSKEDASTIC, m=2000),
        5e-4,
        replicas=2,
        base_seed=seed,
        threads=REPLICA_THREADS,
    )


def _pair1(result, method):
    return next(r.mse_mean for r in result.records if r.method == method and r.pair == 1)


def _embedding_problems(result):
    values = [v for arr in result.mse.values() for v in arr]
    if not _finite(*values):
        return ["non-finite MSE"]
    if not _pair1(result, "sk") < _pair1(result, "dm"):
        return ["scaled pair-1 MSE not below degree-normalized pair-1 MSE"]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "noisy_pointwise",
            3000,
            7,
            _noisy_pointwise,
            lambda r: r.relerr2,
            lambda r: [] if _finite(r.relerr2, r.relerrinf) else ["non-finite error"],
        ),
        Workload(
            "clean_sweep",
            3000,
            10,
            _clean_sweep,
            # the criterion-4a floor: the smallest mean RelErr2 on the grid
            lambda recs: min(r.relerr2_mean for r in recs),
            lambda recs: []
            if _finite(*(v for r in recs for v in (r.relerr2_mean, r.relerrinf_mean)))
            else ["non-finite error"],
        ),
        Workload(
            "noisy_embedding",
            1000,
            24,
            _noisy_embedding,
            lambda r: _pair1(r, "sk"),
            _embedding_problems,
        ),
    )
}


def pin_mmap_threshold():
    """Fix glibc's mmap threshold; False where there is no mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1


def unit_seed(seed, unit):
    return seed * 10**6 + 10 * unit


def import_library():
    """Import sinklap from this checkout's src/, or exit nonzero."""
    src = ROOT / "src"
    if not (src / "sinklap" / "__init__.py").is_file():
        sys.exit(f"benchmark: no library source at {src}/sinklap")
    sys.path.insert(0, str(src))
    import sinklap

    if Path(sinklap.__file__).resolve().parent != (src / "sinklap").resolve():
        sys.exit(f"benchmark: imported sinklap from {sinklap.__file__}, not {src}")
    return sinklap


def digest(obj):
    """SHA-256 over every field, array byte and float bit of a result."""
    import numpy as np

    h = hashlib.sha256()

    def feed(x):
        if is_dataclass(x):
            for f in fields(x):
                h.update(f.name.encode())
                feed(getattr(x, f.name))
        elif isinstance(x, dict):
            for key in sorted(x, key=repr):
                h.update(repr(key).encode())
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for item in x:
                feed(item)
            h.update(b"]")
        elif isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, float):
            h.update(float(x).hex().encode())
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def blas_threads():
    """Thread count of each bundled OpenBLAS, read from the library itself."""
    import numpy
    import scipy

    found = {}
    for mod in (numpy, scipy):
        libs = Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[mod.__name__] = fn()
                    break
    return found


def metadata(seed, workload, trace, seconds):
    import numpy
    import scipy

    def blas(mod):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    # a checkout without .git still names its code by this hash
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sinklap").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        rev = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "replica_threads": REPLICA_THREADS,
        "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": rev,
        "source_sha256": source.hexdigest(),
        "machine": platform.machine(),
    }


def setup_probe(workload, seed):
    """One set-up sample in a fresh process: imports plus the warm-up call."""
    t0 = time.perf_counter()
    sl = import_library()
    WORKLOADS[workload].run(sl, unit_seed(seed, 0), WARMUP_N)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def child_setup_samples(workload, seed, count):
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with status {proc.returncode}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_unit(recorder, sl, wl, seed, unit, trace):
    """Run and check one unit; returns (seconds, result or None, problems)."""
    t0 = time.perf_counter()
    try:
        result = recorder.call_unit(unit, lambda: wl.run(sl, unit_seed(seed, unit), wl.n), trace)
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - t0, None, ["raised"]
    seconds = time.perf_counter() - t0
    problems = list(wl.problems(result))
    if any(not s.converged for s in recorder.scalings if s.unit == unit):
        problems.append("scaling did not converge")
    return seconds, result, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    pinned = pin_mmap_threshold()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    t0 = time.perf_counter()
    sl = import_library()
    from spans import Recorder, layer_metrics

    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    recorder = Recorder(sl.experiments)
    wl.run(sl, unit_seed(args.seed, 0), WARMUP_N)
    setup_s = time.perf_counter() - t0
    setup = [setup_s] if trace else [setup_s, *child_setup_samples(wl.name, args.seed, SETUP_SAMPLES - 1)]

    recorder.install(trace)
    units = []
    begin = time.perf_counter()
    unit = 0
    while not units or time.perf_counter() - begin < args.seconds or len(units) < wl.scored:
        unit += 1
        seconds, result, problems = run_unit(recorder, sl, wl, args.seed, unit, trace)
        units.append(
            {
                "unit": unit,
                "seconds": seconds,
                "digest": None if result is None else digest(result),
                "error": None if result is None else float(wl.error(result)),
                "problems": problems,
            }
        )
    recorder.restore()
    failed = sum(1 for u in units if u["problems"])
    attempted = len(units)
    scored = units[: wl.scored]
    unit_s = statistics.median(u["seconds"] for u in units)
    correct = failed == 0

    if trace:
        metrics = layer_metrics(
            recorder.spans,
            recorder.scalings,
            recorder.counts,
            [u["unit"] for u in units],
            [u["unit"] for u in scored],
        )
        metrics["trace.units_per_s"] = (1.0 / unit_s, "units/s")
        recorder.install(trace=False)
        _, again, _ = run_unit(recorder, sl, wl, args.seed, 1, False)
        recorder.restore()
        if again is None or digest(again) != units[0]["digest"]:
            print("check: traced unit 1 differs from its untraced repeat", file=sys.stderr)
            correct = False
    else:
        errors = [u["error"] for u in scored if u["error"] is not None]
        metrics = {
            "units_per_s": (1.0 / unit_s, "units/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setup), "s"),
            "result_error": (statistics.fmean(errors) if errors else None, "1"),
        }

    samples = {
        "units_per_s": f"1 / median of {len(units)} unit times",
        "peak_rss_mb": "ru_maxrss of this process",
        "setup_s": f"median of {len(setup)} set-ups",
        "result_error": f"mean over {len(scored)} scored units",
        "trace.units_per_s": f"1 / median of {len(units)} unit times",
        "laplacian.dense_bytes": f"computed: nbytes of the returned n x n matrices, "
        f"per unit over {len(scored)} scored units",
    }
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  units {len(units)}")
    for name, (value, unit_name) in metrics.items():
        note = samples.get(name, f"per unit over {len(units)} timed / {len(scored)} scored units")
        shown = "none" if value is None else f"{value:.6g}"
        print(f"  {name} = {shown} {unit_name}  ({note})")
    print(f"  failed_frac = {failed / attempted:.6g}  ({failed} of {attempted} units)")
    for u in units:
        if u["problems"]:
            print(f"  unit {u['unit']} failed: {', '.join(u['problems'])}")

    meta = metadata(args.seed, wl.name, args.trace, args.seconds)
    meta["mmap_threshold"] = MMAP_THRESHOLD if pinned else None
    out = ROOT / "bench" / "results"
    out.mkdir(exist_ok=True)
    record = {
        "meta": meta,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_samples_s": setup,
        "units": units,
        "spans": [vars(s) for s in recorder.spans],
    }
    path = out / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
