"""Run every workload of BENCHMARK.json and print the end-to-end metrics.

    python3 perfbench/report.py                    # seed 1, one run each
    python3 perfbench/report.py --seeds 1-10       # ten runs each, with spreads

Each run is `run.py --trace 0` with BENCHMARK.json's run_seconds.  For each
workload it prints every end-to-end metric by name and unit with its
median, quartiles and spread (IQR over median, the figure the bounds in
BENCHMARK.json are set against), and fail_ratio summed over the runs.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default="1-1", help="a range 'lo-hi', e.g. 1-10")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for wl in (w["name"] for w in spec["workloads"]):
        values, attempted, failed = {}, 0, 0
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                res = {"attempted": 0, "failed": 0}
            attempted += res["attempted"]
            failed += res["failed"]
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                status = 1
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            shown = " ".join(f"{k}={m['value']:.4f}" for k, m in res["metrics"].items())
            print(f"{wl} seed {seed}: {shown} correct={res['correct']}", flush=True)
        print(f"== {wl}: {len(args.seeds)} runs")
        for m in spec["end_to_end"]:
            v = values.get(m["name"], [])
            if not v:
                continue
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            print(f"   {m['name']:<12} {med:.4f} {m['unit']:<3} q1 {q1:.4f} q3 {q3:.4f} "
                  f"spread {(q3 - q1) / med:.4f} (bound {m['bound']})")
        ratio = failed / attempted if attempted else 1.0
        print(f"   {'fail_ratio':<12} {ratio:.4g}     ({failed}/{attempted} runs failed)", flush=True)
        status |= failed > 0
    return status


if __name__ == "__main__":
    sys.exit(main())
