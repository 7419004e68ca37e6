"""Benchmark entry point: runs one simca workload in a fresh process.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; the workload imports simca from
``src/``. The workload runs in a child process (workloads.py) with BLAS
threads capped at the number of usable cores. This process adds the child's
peak resident memory, writes a run manifest to
``perfbench/runs/<workload>-seed<seed>-trace<trace>.json`` and prints the
result as the last line of standard output. It exits non-zero, printing no
result, when the sources are missing or the workload fails or overruns.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "simca"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a run takes well under a minute; the caller allows 180 s
CHILD_TIMEOUT_S = 170


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
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


def source_digest() -> str:
    """sha256 over the package sources, naming the code when there is no commit."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one simca benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no simca sources at {PACKAGE}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        env[var] = str(min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc)
    command = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        child = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} ran longer than {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(child.stdout)
        print(f"error: workload {args.workload} exited with code {child.returncode}",
              file=sys.stderr)
        return 3
    print("\n".join(lines[:-1]))
    outcome = json.loads(lines[-1])
    details = outcome.pop("details")
    if args.trace == 0:
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        outcome["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
        print(f"  {'peak_rss_mb':<20} {peak_mb:>12.6g} MB")

    manifest = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(),
        "python": details.pop("python"),
        "numpy": details.pop("numpy"),
        "scipy": details.pop("scipy"),
        "nproc": nproc,
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "seeds": details.pop("seeds"),
        "result": outcome,
        "details": details,
    }
    runs = BENCH_DIR / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(manifest, indent=1) + "\n")
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
