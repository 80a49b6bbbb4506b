#!/usr/bin/env python3
"""Build and run the PathExpander benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds the
optimised benchmark binary (perfbench/CMakeLists.txt, which builds the
library from ../src) into .bench_build/; later runs only rebuild what
changed.  Then it

  * times the workload's set-up SETUP_REPS times, each in a fresh
    process, and reports the median as setup_s;
  * runs the workload's closed loop for --seconds (tracing off, or with
    --trace 1 alternating off and on and recording spans);
  * checks the outputs: failed runs, lost fleet workers, the sandboxing
    invariant, digests that differ between repetitions and, at the
    default seed, digests that differ from perfbench/digests.txt;
  * prints every metric with its unit, one JSON line with the full
    record (metrics, digests, provenance; also written to
    .bench_build/perfbench-out/), and as the last line the result:
    {"correct", "attempted", "failed", "metrics"}, where the metrics are
    BENCHMARK.json's end_to_end list (--trace 0) or its per_layer list
    (--trace 1).

--record-digests rewrites perfbench/digests.txt from a default-seed run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
DIGESTS = os.path.join(HERE, "digests.txt")
DEFAULT_SEED = 1
SETUP_REPS = 7
# Set-up metrics the fresh set-up processes measure (medians reported).
SETUP_METRICS = ["setup_s", "minic.compile_ms",
                 "analysis.engine_ctor_ms_first",
                 "fleet.coordinator_ctor_ms", "fleet.handshake_ms"]
# Wall-clock limit for the measuring processes of one run (after the build).
TIME_LIMIT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; raise on failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], env=env,
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "perfbench"], env=env,
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def invoke(args, timeout):
    """Run the binary; return its report (the last stdout line)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench {' '.join(args)} exited with "
                           f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed no report")
    return json.loads(lines[-1])


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def read_digests():
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and not line.startswith("#"):
                    table[parts[0]] = parts[1]
    return table


def write_digests(workload, digests):
    table = read_digests()
    table.update(digests)
    with open(DIGESTS, "w") as f:
        f.write("# Digests of the default-seed run (seed "
                f"{DEFAULT_SEED}) of each workload; run.py compares a\n"
                "# default-seed run against them.  Rewrite with "
                "--record-digests.\n")
        for name in sorted(table):
            f.write(f"{name} {table[name]}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    started = time.monotonic()

    # Set-up, several times, each in a fresh process: the verifier
    # memo and the allocator start cold, as for a user.
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [invoke(common + ["--seconds", "1", "--trace", "0",
                               "--setup-only"], TIME_LIMIT_S)
              for _ in range(SETUP_REPS)]

    out_dir = os.path.join(BUILD, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    remaining = TIME_LIMIT_S - (time.monotonic() - started)
    report = invoke(common + ["--seconds", str(args.seconds),
                              "--trace", str(args.trace),
                              "--out-dir", out_dir], remaining)

    metrics = dict(report["metrics"])
    for name in SETUP_METRICS:
        values = [s["metrics"][name]["value"] for s in setups
                  if name in s["metrics"]]
        if values:
            metrics[name] = {"value": statistics.median(values),
                             "unit": setups[0]["metrics"][name]["unit"]}
    attempted = report["attempted"] + sum(s["attempted"] for s in setups)
    failed = report["failed"] + sum(s["failed"] for s in setups)
    failures = report["failures"] + [f for s in setups
                                     for f in s["failures"]]

    # The default seed's digests must match the recorded ones.
    if args.record_digests:
        if args.seed != DEFAULT_SEED:
            ap.error("--record-digests needs the default seed")
        write_digests(args.workload, report["digests"])
    elif args.seed == DEFAULT_SEED:
        recorded = read_digests()
        for name, value in report["digests"].items():
            attempted += 1
            if recorded.get(name) != value:
                failed += 1
                failures.append(f"digest {name} is {value}, recorded "
                                f"{recorded.get(name)}")
    metrics["failed_frac"] = {"value": failed / max(attempted, 1),
                              "unit": "fraction"}

    info = dict(report["info"])
    info["git_commit"] = git_commit()
    info["setup_reps"] = SETUP_REPS
    info["seconds"] = args.seconds
    info["trace"] = args.trace

    wrong = [m["name"] for m in wanted if m["name"] not in metrics or
             metrics[m["name"]]["unit"] != m["unit"]]
    if wrong:
        log(f"run.py: {args.workload} did not measure {wrong} in the "
            "units BENCHMARK.json names")
        return 1

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for key in sorted(info):
        print(f"  {key}: {info[key]}")
    for name in sorted(metrics):
        m = metrics[name]
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    for name in sorted(report["digests"]):
        print(f"  digest {name}: {report['digests'][name]}")
    for f in failures:
        print(f"  FAILED: {f}")
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "attempted": attempted,
              "failed": failed, "failures": failures,
              "metrics": metrics, "digests": report["digests"],
              "provenance": info}
    print(json.dumps({"record": record}, sort_keys=True))
    with open(os.path.join(out_dir, f"record-{args.workload}-seed"
                           f"{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        log(f"run.py: {err}")
        sys.exit(1)
