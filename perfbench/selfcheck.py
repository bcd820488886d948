"""Self-check of the benchmark harness; exits 0 when every check passes.

    python3 perfbench/selfcheck.py

Runs every workload at tiny size, once measured and once traced, and checks
that each metric BENCHMARK.json names (and ``failed_frac``) is printed with its
unit for every workload and that ``failed_frac`` is 0. It also checks that the
tracer reports a name the program lacks as absent and restores what it wraps.
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

from tracing import SpanStats, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_tracer(errors: list[str]) -> None:
    original = json.dumps
    tracer = Tracer()
    tracer.patch("json.no_such_function", "missing")
    tracer.patch("json.dumps", "dumps")
    with tracer.span("phase"):
        json.dumps([1])
    tracer.unpatch()
    if tracer.absent != ["json.no_such_function"]:
        errors.append(f"tracer: absent names {tracer.absent}")
    if json.dumps is not original:
        errors.append("tracer: json.dumps was not restored")
    if SpanStats(tracer.spans).calls("phase", "dumps") != 1:
        errors.append("tracer: the wrapped call was not recorded once")


def check_runs(errors: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--tiny",
               "--seed", "3", "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            errors.append(f"trace={trace}: run.py exited {proc.returncode}")
            continue
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"] != 0:
            errors.append(f"trace={trace}: {result['failed']} checks failed")
        for workload in WORKLOADS:
            for m in listed:
                got = result["metrics"].get(f"{workload}.{m['name']}")
                if got is None or got["unit"] != m["unit"]:
                    errors.append(f"trace={trace} {workload}: {m['name']} [{m['unit']}] missing, got {got}")
        printed = [ln for ln in lines if re.fullmatch(r"metric failed_frac = 0 fraction .*", ln)]
        if len(printed) != len(WORKLOADS):
            errors.append(f"trace={trace}: failed_frac = 0 printed {len(printed)} times")


def main() -> int:
    errors: list[str] = []
    check_tracer(errors)
    check_runs(errors)
    for e in errors:
        print("FAIL " + e)
    print("selfcheck: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
