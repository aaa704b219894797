#!/usr/bin/env python3
"""Repository benchmark: the partition service in its shipped configuration.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the taskpart
libraries from the repository's src/) and runs one workload, or both:

    python3 perfbench/run.py --workload warm_skew --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

It prints one table row per workload with every metric by name and unit (a
traced run prints one row per metric instead), the requests sent /
succeeded / failed / shed in every phase, and the sample sizes. It writes
the same values plus a host block as JSON under results/ of the build
directory, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a traced run. The exit code is
0 only when every checked response was correct. perfbench/README.md lists
the metrics and what each should move.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["warm_skew", "retrain_churn"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure (once) and build the benchmark; build output goes to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "perfbench_serve", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def host_block(bdir):
    cache = {}
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=30).stdout
        compiler = out.splitlines()[0] if out else compiler
    except (OSError, subprocess.SubprocessError):
        pass
    # The ceiling keeps git from reporting an enclosing repository's commit
    # when the checkout is not a repository itself.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True,
                                timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "git_commit": commit}


def run_workload(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"perfbench: {workload} exited with code {proc.returncode}")
        return None
    return json.loads(lines[-1])


def fmt(value):
    if value is None:
        return "nan"
    if value != 0 and (abs(value) >= 1e5 or abs(value) < 1e-3):
        return f"{value:.4g}"
    return f"{value:.4f}".rstrip("0").rstrip(".")


def print_tables(results, trace):
    names = []
    for r in results:
        for name, m in r["metrics"].items():
            label = f"{name} ({m['unit']})"
            if label not in names:
                names.append(label)
    values = [{f"{n} ({m['unit']})": fmt(m["value"])
               for n, m in r["metrics"].items()} for r in results]
    checks = [[str(r["correct"]).lower(), str(r["checked"]), str(r["wrong"])]
              for r in results]
    if trace:
        # Per-layer metrics are many: one row per metric, one column per workload.
        print_rows(["metric"] + [r["workload"] for r in results],
                   [[label] + [c[i] for c in checks]
                    for i, label in enumerate(["correct", "checked", "wrong"])] +
                   [[n] + [v.get(n, "-") for v in values] for n in names])
    else:
        print_rows(["workload", "correct", "checked", "wrong"] + names,
                   [[r["workload"]] + c + [v.get(n, "-") for n in names]
                    for r, c, v in zip(results, checks, values)])
    print()
    phase_rows = [[r["workload"], p["name"], str(p["sent"]),
                   str(p["succeeded"]), str(p["failed"]), str(p["shed"])]
                  for r in results for p in r["phases"]]
    print_rows(["workload", "phase", "sent", "succeeded", "failed", "shed"],
               phase_rows)
    for r in results:
        print()
        for key, value in r["notes"].items():
            print(f"{r['workload']}: {key}: {value}")
        if r["spans"]:
            print_rows(["span", "count", "total_us", "self_us"],
                       [[s["name"], str(s["count"]), fmt(s["total_us"]),
                         fmt(s["self_us"])] for s in r["spans"]])
        for m in r["mismatches"]:
            print(f"{r['workload']}: MISMATCH {m}")


def print_rows(header, rows):
    widths = [max(len(str(x)) for x in col) for col in zip(header, *rows)]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own self-test")
    args = parser.parse_args()

    bdir = build_dir()
    if not build(bdir):
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(bdir, "perfbench_selftest")]).returncode

    binary = os.path.join(bdir, "perfbench_serve")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for w in workloads:
        r = run_workload(binary, w, args)
        if r is None:
            return 1
        results.append(r)

    print_tables(results, args.trace)
    path = os.path.join(bdir, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"host": host_block(bdir), "seconds": args.seconds,
                   "runs": results}, f, indent=2)
    print(f"results written to {path}")

    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{n}": m
                   for r in results for n, m in r["metrics"].items()}
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] + r["shed"] + r["wrong"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
