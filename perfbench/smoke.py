"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json on a tiny grid, untraced and
traced, and checks the shape of the result line: exactly the keys
correct/attempted/failed/metrics, whole-number counts, and one value with
the declared unit for every end-to-end (untraced) or per-layer (traced)
metric.  It checks the output, not the numbers: correctness criteria such
as the fitted exponent are defined at the workloads' own grid sizes.
Exits non-zero on the first mismatch.  Takes about a minute.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY_N = 12


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: {msg}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--grid-n", str(TINY_N)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            where = f"{wl['name']} trace={trace}"
            check(proc.returncode == 0, f"{where}: exit {proc.returncode}: {proc.stderr[-400:]}")
            lines = proc.stdout.strip().splitlines()
            check(bool(lines), f"{where}: no output")
            res = json.loads(lines[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(res)}")
            check(isinstance(res["correct"], bool), f"{where}: correct is not a bool")
            check(isinstance(res["attempted"], int) and res["attempted"] >= 1, f"{where}: attempted")
            check(isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"],
                  f"{where}: failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = res["metrics"]
            check(set(got) == set(want), f"{where}: metric names differ: {set(got) ^ set(want)}")
            for name, m in got.items():
                check(set(m) == {"value", "unit"} and m["unit"] == want[name], f"{where}: {name} shape")
                check(isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool),
                      f"{where}: {name} value is not a number")
            print(f"ok {where}: {res['attempted']} runs, {len(got)} metrics, correct={res['correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
