"""End-to-end and per-layer benchmark of the pyramid-eq solve pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/ (no install step).  Each sample is one `pyramid-eq` subcommand in a
fresh interpreter, one at a time (closed loop, one client), on a scenario
config generated from the workload's base config with `[run] seed` set to
--seed.  Every sample is checked for correctness and its artifact set is
hashed; samples of one run must hash alike.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics from separately traced samples.  The last line of
standard output is the JSON result; the lines before it are the same
numbers for people, with the environment.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import aggregate, combine  # noqa: E402


@dataclass(frozen=True)
class Workload:
    config: str        # base scenario, relative to the checkout root
    command: tuple     # subcommand and flags
    grid_n: int | None
    needs_lp: bool     # the run must carry an LP certificate
    phase: bool        # check the fitted exponent (criterion 8(i))


WORKLOADS = {
    "supercritical-phase": Workload("configs/phase_supercritical.toml",
                                    ("phase", "--solve"), None, False, True),
    "certify-lp": Workload("configs/demo_small.toml", ("solve",), 128, True, False),
    "c0-continuation": Workload("perfbench/configs/demo_small_c0.toml", ("solve",), None, True, False),
}

# pinned in tests/test_acceptance.py: criterion 4 (LP primal-dual, profile
# gap, slackness) and criterion 8(i) (fitted exponent error)
LP_PRIMAL_DUAL_TOL = 1e-9
GAP_TOL = 1e-6
SLACK_TOL = 1e-6
EXPONENT_TOL = 0.15

SETUP_PROBES = 2       # extra set-up-only runs per benchmark run
MIN_SAMPLES = 2        # the determinism check compares at least two runs
# A traced run needs two traced runs (their counts must repeat) and an
# untraced one between them for the overhead.  On the 2-vCPU VM this was
# built on, the first full run after a few idle seconds is often 10-15 %
# slower than the next, so in a traced run it only warms up: checked and
# hashed, not timed.
TRACE_PLAN = ("warmup", "traced", "plain", "traced")
HARD_LIMIT_S = 170.0   # no sample may end later than this after start


def scenario_text(base: str, seed: int) -> str:
    """The base config with `seed` in [run] set to the benchmark seed."""
    lines = base.splitlines()
    section = None
    for i, line in enumerate(lines):
        s = line.split("#", 1)[0].strip()
        if s.startswith("["):
            section = s.strip("[] ")
        elif section == "run" and s.partition("=")[0].strip() == "seed":
            lines[i] = f"seed = {seed}"
            return "\n".join(lines) + "\n"
    raise ValueError("the base config sets no [run] seed")


def artifact_hash(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(out)).encode() + b"\0")
            h.update(p.read_bytes() + b"\0")
    return h.hexdigest()


def check_artifacts(out: Path, wl: Workload) -> tuple[list, dict]:
    """Problems found in one run's artifacts (empty means correct), and the
    public result fields that the per-layer metrics report (0 if absent)."""
    problems = []
    fields = {"wages.envelope_residual": 0.0, "lp.gap_rel": 0.0, "pyramid.exponent_abs_err": 0.0}
    try:
        d = json.loads((out / "duality.json").read_text())
        fields["wages.envelope_residual"] = d["envelope_residual"]
        if d["converged"] is not True:
            problems.append("wage solve did not converge")
        lp = d["lp"]
        if lp is None:
            if wl.needs_lp:
                problems.append("no LP certificate")
        else:
            fields["lp.gap_rel"] = lp["gap_rel"]
            scale = max(1.0, abs(lp["value"]))
            if lp["status"] != "optimal":
                problems.append(f"LP status {lp['status']}")
            if abs(lp["value"] - lp["dual_value"]) / scale > LP_PRIMAL_DUAL_TOL:
                problems.append("LP primal-dual difference above tolerance")
            if lp["gap_rel"] > GAP_TOL:
                problems.append(f"profile gap {lp['gap_rel']:.3g} above tolerance")
            if max(abs(lp["eps_f"]), abs(lp["lam_g"])) > SLACK_TOL:
                problems.append("slackness above tolerance")
        if wl.phase:
            p = json.loads((out / "phase.json").read_text())
            if p["fitted_exponent"] is None:
                problems.append(f"phase fit declined: {p['declined']}")
            else:
                err = abs(p["fitted_exponent"] - p["predicted_exponent"])
                fields["pyramid.exponent_abs_err"] = err
                if err > EXPONENT_TOL:
                    problems.append("fitted exponent outside criterion 8(i)")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"artifacts unreadable: {exc!r}")
    return problems, fields


class Bench:
    def __init__(self, wl: Workload, seed: int, work: Path, grid_n):
        self.wl = wl
        self.work = work
        self.threads = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.threads)
        self.env["PYTHONHASHSEED"] = "0"  # same dict layouts in every run
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)  # installed code has bytecode caches
        scenario = work / "scenario.toml"
        scenario.write_text(scenario_text((ROOT / wl.config).read_text(), seed))
        n = grid_n if grid_n is not None else wl.grid_n
        self.cli_args = [*wl.command, "--config", str(scenario), "--quiet"]
        if n is not None:
            self.cli_args += ["--grid-n", str(n)]
        self.t_start = time.monotonic()
        self.count = 0

    def left(self) -> float:
        return self.t_start + HARD_LIMIT_S - time.monotonic()

    def run(self, mode: str, trace: bool) -> dict:
        """One child interpreter; returns its timings, checks and hash."""
        self.count += 1
        tag = f"{mode}{self.count}"
        out = self.work / tag
        result_path = self.work / f"{tag}.json"
        args = [sys.executable, str(HERE / "child.py"), str(result_path), mode,
                "1" if trace else "0", "--", *self.cli_args, "--out", str(out)]
        t_spawn = time.monotonic()
        proc = subprocess.Popen(args, cwd=self.work, env=self.env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.left()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"mode": mode, "trace": trace, "wall": time.monotonic() - t_spawn,
                    "problems": ["timed out"]}
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        s = {"mode": mode, "trace": trace, "wall": time.monotonic() - t_spawn, "problems": []}
        try:
            r = json.loads(result_path.read_text())
        except (OSError, ValueError):
            tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
            s["problems"].append(f"exit {proc.returncode}, no result: {tail[0]}")
            return s
        if r["exit_code"] != 0 or r["t_loaded"] is None:
            s["problems"].append(f"exit {r['exit_code']}")
        if r["t_loaded"] is not None:
            s["setup_s"] = r["t_loaded"] - t_spawn
            s["solve_s"] = r["t_done"] - r["t_loaded"]
        s["rss_mb"] = r["maxrss_kb"] / 1024.0
        if mode == "full":
            problems, fields = check_artifacts(out, self.wl)
            s["problems"] += problems
            s["hash"] = artifact_hash(out)
            if trace and "setup_s" in s:
                s["spans"] = r["trace"]
                s["layers"] = aggregate(r["trace"], r["t_loaded"], r["t_done"])
                s["layers"].update(fields)
        return s

    def samples(self, seconds: float, trace: bool) -> list:
        """Full runs until --seconds is used up: at least the plan, and no
        run is started that is expected to end after the hard limit."""
        plan = TRACE_PLAN if trace else ("plain",) * MIN_SAMPLES
        deadline = self.t_start + seconds
        done, walls = [], []
        while True:
            est = statistics.median(walls) if walls else 0.0
            if est > self.left():
                break
            if len(done) >= len(plan) and time.monotonic() + est > deadline:
                break
            kind = plan[len(done)] if len(done) < len(plan) else plan[-1]
            s = self.run("full", kind == "traced")
            s["warmup"] = kind == "warmup"
            done.append(s)
            walls.append(s["wall"])
            if "solve_s" not in s:
                break
        return done


def mark_nondeterministic(samples: list) -> None:
    """Fail every run whose artifact hash differs from the most common one
    (ties go to the earliest)."""
    hashes = [s["hash"] for s in samples if "hash" in s]
    if not hashes:
        return
    ref = max(hashes, key=lambda h: (hashes.count(h), -hashes.index(h)))
    for s in samples:
        if "hash" in s and s["hash"] != ref:
            s["problems"].append("artifact hash differs from the other runs of this seed")


def environment(bench: Bench, seed: int, samples: list, probes: list) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": bench.threads,
        "blas_threads": bench.threads,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "seed": seed,
        "samples": len(samples),
        "traced_samples": sum(1 for s in samples if s["trace"]),
        "setup_probes": len(probes),
    }


def spread(vals: list) -> str:
    return f"median of {len(vals)}, min {min(vals):.6g}, max {max(vals):.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--grid-n", type=int, default=None,
                    help="grid size override, for the smoke test only")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    # SystemExit unwinds through Bench.run, which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    missing = [p for p in ("src/pyramid_eq/cli.py", wl.config, "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a pyramid-eq source checkout, missing {missing}", file=sys.stderr)
        return 2
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]

    work = HERE / ".out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(wl, args.seed, work, args.grid_n)

    # the first set-up run compiles bytecode and is not timed
    _, *probes = setups = [bench.run("setup", False)
                           for _ in range(1 + (0 if args.trace else SETUP_PROBES))]
    broken = [p["problems"] for p in setups if p["problems"]]
    if broken:
        print(f"perfbench: set-up failed: {broken[0]}", file=sys.stderr)
        return 2
    samples = bench.samples(args.seconds, bool(args.trace))
    mark_nondeterministic(samples)

    untraced = [s for s in samples if not s["trace"] and not s["warmup"] and "solve_s" in s]
    values = {}
    if args.trace:
        traced = [s for s in samples if "layers" in s]
        if traced:
            values, mismatched = combine([s["layers"] for s in traced])
            plain = [s["solve_s"] for s in untraced]
            values["trace.overhead_s"] = values["trace.solve_s"] - statistics.median(plain) if plain else 0.0
            values["trace.count_mismatches"] = len(mismatched)
            for s in traced if mismatched else ():
                s["problems"].append(f"work counts differ between traced runs: {mismatched}")

    env = environment(bench, args.seed, samples, probes)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for i, s in enumerate(samples, 1):
        times = " ".join(f"{k}={s[k]:.4f}" for k in ("setup_s", "solve_s", "rss_mb") if k in s)
        kind = " traced" if s["trace"] else " warm-up (not timed)" if s["warmup"] else ""
        print(f"run {i}{kind}: {times} "
              f"sha256={s.get('hash', '-')[:16]} {'; '.join(s['problems']) or 'ok'}")
    if args.trace:
        spans_path = work / "spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for s in samples:
                for sp in s["spans"]["spans"] if "spans" in s else ():
                    fh.write(json.dumps([s["spans"]["run_id"], *sp]) + "\n")
        print(f"spans -> {spans_path}")
    elif untraced:
        setups = [p["setup_s"] for p in probes] + [s["setup_s"] for s in untraced]
        values = {"solve_s": statistics.median(s["solve_s"] for s in untraced),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(s["rss_mb"] for s in untraced)}
        print(f"solve_s {values['solve_s']:.4f} s ({spread([s['solve_s'] for s in untraced])})")
        print(f"setup_s {values['setup_s']:.4f} s ({spread(setups)})")
        print(f"peak_rss_mb {values['peak_rss_mb']:.2f} MB ({spread([s['rss_mb'] for s in untraced])})")

    attempted = len(samples)
    failed = sum(1 for s in samples if s["problems"])
    print(f"fail_ratio {failed / attempted if attempted else 1.0:.4g} ({failed}/{attempted} runs failed)")
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        # no run gave timings (the program crashed or timed out): still report
        # the counted failures, with no metrics, and exit non-zero
        print(f"perfbench: no value for metrics {missing}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    if args.trace:
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        {**result, "env": env, "runs": [{k: v for k, v in s.items() if k != "spans"} for s in samples]},
        indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
