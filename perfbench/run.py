#!/usr/bin/env python3
"""End-to-end benchmark of mempart: builds the perfbench binary from source,
runs one workload in a fresh process, and passes its report through.

    python3 perfbench/run.py --workload serve_repeat --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. The exit code is non-zero when
any answer was wrong or the build failed.

    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --steadiness --workload sim_replay --runs 10

--self-test runs the tests of the benchmark's own arithmetic. --steadiness
runs one workload --runs times in fresh processes with seeds --seed,
--seed + 1, ... and prints, per end-to-end metric, the median, quartiles,
(max - min) / median and (Q3 - Q1) / median beside the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
# Seed kept out of tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures once, then builds incrementally; returns the build dir."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "perfbench_arith_test", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(done.stdout.decode(errors="replace")[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(step))
    return out


def clean_env():
    """The program runs as users run it: every MEMPART_* knob unset."""
    return {k: v for k, v in os.environ.items() if not k.startswith("MEMPART_")}


def self_test(out):
    done = subprocess.run([str(out / "perfbench_arith_test")], env=clean_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=60, check=False)
    if done.returncode != 0:
        log(done.stdout.decode(errors="replace"))
        raise SystemExit("perfbench: arithmetic self-test failed")
    return done.stdout.decode(errors="replace").strip()


def benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.exists() else {}


def run_once(out, workload, seed, seconds, trace, echo=True):
    """Runs the perfbench binary; returns (exit code, last stdout line)."""
    # Run inside the build dir, so the serve socket path stays short.
    cmd = [str(out / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", "."]
    proc = subprocess.Popen(cmd, cwd=out, env=clean_env(), stdout=subprocess.PIPE, text=True)
    try:
        text, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("perfbench: run timed out")
    lines = text.strip().splitlines()
    if echo:
        sys.stdout.write(text)
        sys.stdout.flush()
    return proc.returncode, (lines[-1] if lines else "")


def steadiness(out, args, spec):
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    values = {}
    for i in range(args.runs):
        seed = args.seed + i
        code, last = run_once(out, args.workload, seed, args.seconds, 0, echo=False)
        if code != 0:
            raise SystemExit(f"perfbench: seed {seed} failed: {last}")
        for name, m in json.loads(last)["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log(f"steadiness: {args.workload} seed {seed} done")
    print(f"steadiness of {args.workload}: {args.runs} runs, seeds {args.seed}.."
          f"{args.seed + args.runs - 1}, {args.seconds} s each")
    print(f"{'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'range/med':>10} {'iqr/med':>9} {'bound':>6}")
    over = []
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        rng = (max(vals) - min(vals)) / med if med else float("nan")
        iqr = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and not iqr <= bound:
            flag = "  OVER"
            over.append(name)
        print(f"{name:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{rng:>10.4f} {iqr:>9.4f} {bound if bound is not None else '-':>6}{flag}")
    return 1 if over else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = spec.get("run_seconds", 10)
    out = build()
    passed = self_test(out)
    if args.self_test:
        print(passed)
        return 0
    whys = {w["name"]: w["why"] for w in spec.get("workloads", [])}
    if args.workload not in whys and spec:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(whys)}")
    if args.steadiness:
        return steadiness(out, args, spec)
    print(f"run: default_seed={DEFAULT_SEED} held_out_seed={HELD_OUT_SEED}")
    print(f"run: why={whys.get(args.workload, '')}")
    code, _ = run_once(out, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
