"""Benchmark of the nre pipeline: load_table -> nre_train -> score -> save/load.

    python3 perfbench/run.py --workload xor-fullbatch --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere; the code measured is ``src/nre`` of the checkout that holds
this file. Each workload runs in a fresh process (perfbench/workload.py), with
the BLAS thread count pinned before numpy is imported, so that ``peak_rss_mb``
belongs to that workload alone. The last line printed is one JSON object; with
``--workload all`` its metric names are prefixed by the workload's name.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
# One BLAS thread: the second CPU then only absorbs the machine's other work,
# and small matrix products never wait on a thread hand-off.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_workload(name: str, args) -> tuple[int, dict | None]:
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out-dir", str(OUT_DIR),
    ]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(
            cmd, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else e.stdout or "")
        print(f"error: workload {name} ran longer than {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(proc.stdout, end="")
        print(f"error: workload {name} exited {proc.returncode} without a result", file=sys.stderr)
        return proc.returncode or 1, None
    print("\n".join(lines[:-1]))
    return proc.returncode, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12.0, help="length of the timed scoring loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-check")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "nre" / "__init__.py").is_file():
        print(f"error: no nre package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results, code = {}, 0
    for name in names:
        rc, result = run_workload(name, args)
        if result is None:
            return rc
        results[name] = result
        code = code or rc
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return code
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
