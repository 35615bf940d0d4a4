"""Run every benchmark workload, untraced and traced, and summarise.

    python3 bench/run_all.py --seed 0 --seconds 20

Each workload runs in its own process, first with tracing off (the
end-to-end metrics) and then on (the per-layer metrics).  The summary
gives the tracing overhead, 1 - traced / untraced units_per_s, and
checks that every unit both runs timed has bitwise-equal results.  The
exit code is nonzero when any run fails a check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("noisy_pointwise", "clean_sweep", "noisy_embedding")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    path = HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    digests = {u["unit"]: u["digest"] for u in json.loads(path.read_text())["units"]} if ok else {}
    return ok, result, digests


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    all_ok = True
    summary = []
    for workload in WORKLOADS:
        ok0, plain, plain_digests = run(workload, args.seed, args.seconds, 0)
        ok1, traced, traced_digests = run(workload, args.seed, args.seconds, 1)
        common = plain_digests.keys() & traced_digests.keys()
        same = all(plain_digests[u] == traced_digests[u] for u in common)
        ok = ok0 and ok1 and same
        all_ok = all_ok and ok
        if ok:
            base = plain["metrics"]["units_per_s"]["value"]
            overhead = 1.0 - traced["metrics"]["trace.units_per_s"]["value"] / base
            note = f"tracing overhead {overhead:+.2%}, {len(common)} units bitwise equal"
        else:
            note = "FAILED" + ("" if same else ": traced and untraced results differ")
        summary.append(f"{workload}: {note}")
    print("\n".join(summary))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
