"""Smoke run of the benchmark at the tiny bound m+2.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced, and fails unless each
run is correct with no failed operation and prints every metric that
BENCHMARK.json names, with its unit.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(ROOT / spec["command"][1]), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=ROOT)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{tag}: correct={res['correct']} failed={res['failed']}/{res['attempted']}")
            got = res["metrics"]
            for m in wanted:
                if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{tag}: metric {m['name']} ({m['unit']}) missing")
            if set(got) != {m["name"] for m in wanted}:
                problems.append(f"{tag}: unexpected metrics {sorted(set(got) - {m['name'] for m in wanted})}")
            print(f"{tag}: {len(got)} metrics, fail_ratio {res['failed'] / res['attempted']:g}")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
