#!/usr/bin/env python3
"""End-to-end event and service benchmark of the accelerex pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--rank-seeds A,B]

Run from the repository root. The first call builds the pipeline
libraries from ../src and the harness (perfbench/CMakeLists.txt) with
CMake + Ninja into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later calls rebuild incrementally. The harness
generates the workload's inputs from the seed, runs them, checks every
output, and prints its metrics. This script then checks the printed
metric names and units against BENCHMARK.json — a missing, extra or
non-finite metric is an error, never a zero — and prints the result
object as the last line. The exit code is 0 only when every output
check passed.

--self-test checks BENCHMARK.json against the harness's own catalog and
against perfbench/interactions.json (each layer metric's predicted
effect). With --rank-seeds it also runs every workload traced on two
seeds and checks that the layer ranking is the same on both.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def subprocess_env(bdir):
    # Keep compiler and runtime temporaries inside the checkout.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build():
    """Configures once, then builds incrementally. Returns the binary."""
    bdir = build_dir()
    env = subprocess_env(bdir)
    steps = []
    if not os.path.exists(os.path.join(bdir, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4",
                  "--target", "acx_perfbench"])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr)
        if r.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "acx_perfbench"), env


def catalog(binary, env):
    out = subprocess.run([binary, "--list"], env=env, check=True,
                         capture_output=True, text=True).stdout
    cat = {}
    for line in out.splitlines():
        key, *items = line.split()
        cat[key] = items
    return cat


def expected_metrics(bench, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def verify_result(result, bench, trace):
    """Raises ValueError unless `result` carries exactly the metrics
    BENCHMARK.json names for this mode, each finite with its unit."""
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise ValueError("result has no '%s'" % key)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result has extra keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise ValueError("failed must be a whole number >= 0")
    want = expected_metrics(bench, trace)
    got = result["metrics"]
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    if missing:
        raise ValueError("metrics missing from the run: %s" % missing)
    if extra:
        raise ValueError("metrics not in BENCHMARK.json: %s" % extra)
    for name, unit in want.items():
        m = got[name]
        if m.get("unit") != unit:
            raise ValueError("%s: unit %r, BENCHMARK.json says %r"
                             % (name, m.get("unit"), unit))
        v = m.get("value")
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not math.isfinite(v):
            raise ValueError("%s: value %r is not a finite number" % (name, v))


def whole(x):
    # The harness's JSON writer prints every number as a double.
    return int(x) if isinstance(x, float) and x.is_integer() else x


def run_workload(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise ValueError("unknown workload %r; BENCHMARK.json has %s"
                         % (args.workload, names))
    binary, env = build()
    out_dir = os.path.join(build_dir(), "runs")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("harness exceeded %d s" % RUN_TIMEOUT_S)
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("harness printed nothing (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    result["attempted"] = whole(result.get("attempted"))
    result["failed"] = whole(result.get("failed"))
    verify_result(result, bench, args.trace == 1)
    print(json.dumps(result), flush=True)
    ok = proc.returncode == 0 and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


def self_test(args, bench):
    problems = []
    binary, env = build()
    cat = catalog(binary, env)

    # Names: the harness's catalog and BENCHMARK.json, both ways.
    bench_workloads = [w["name"] for w in bench["workloads"]]
    if sorted(cat["workloads"]) != sorted(bench_workloads):
        problems.append("workloads differ: harness %s, BENCHMARK.json %s"
                        % (cat["workloads"], bench_workloads))
    for key in ("end_to_end", "per_layer"):
        harness = dict(item.split(":", 1) for item in cat[key])
        listed = {m["name"]: m["unit"] for m in bench[key]}
        if harness != listed:
            problems.append("%s differs: harness %s, BENCHMARK.json %s"
                            % (key, harness, listed))
    for w in bench["workloads"]:
        if not w.get("why", "").strip() or "\n" in w["why"]:
            problems.append("workload %s needs a one-line why" % w["name"])
    e2e = {m["name"] for m in bench["end_to_end"]}
    if "setup_s" not in e2e:
        problems.append("end_to_end lacks setup_s")

    # The interaction list: every layer metric has a prediction, naming
    # only known end-to-end metrics and workloads.
    inter = load_json(os.path.join(HERE, "interactions.json"))
    layer_names = {m["name"] for m in bench["per_layer"]}
    covered = set()
    for row in inter["interactions"]:
        covered.update(row["layer_metrics"])
        for p in row["predictions"]:
            if p["end_to_end"] not in e2e:
                problems.append("interaction names unknown metric %s"
                                % p["end_to_end"])
            if p["workload"] not in bench_workloads:
                problems.append("interaction names unknown workload %s"
                                % p["workload"])
    if covered != layer_names:
        problems.append("interactions cover %s, per_layer lists %s"
                        % (sorted(covered - layer_names),
                           sorted(layer_names - covered)))

    # A missing metric is an error, not a zero.
    fake = {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                        for m in bench["end_to_end"][1:]}}
    try:
        verify_result(fake, bench, False)
        problems.append("a result missing %s was accepted"
                        % bench["end_to_end"][0]["name"])
    except ValueError:
        pass

    if args.rank_seeds:
        seeds = args.rank_seeds.split(",")
        for w in bench_workloads:
            rankings = []
            for seed in seeds:
                out = subprocess.run(
                    [sys.executable, __file__, "--workload", w, "--seed", seed,
                     "--seconds", str(bench["run_seconds"]), "--trace", "1"],
                    capture_output=True, text=True, cwd=ROOT).stdout
                for line in out.splitlines():
                    if line.startswith(("ledger", "  ", "ranking", "fidelity",
                                        "FAILED")):
                        log("%s seed %s | %s" % (w, seed, line))
                rank = [l.split()[1:] for l in out.splitlines()
                        if l.startswith("ranking")]
                rankings.append(rank[0] if rank else None)
            log("%s: ranking %s" % (w, rankings))
            if rankings[0] is None or any(r != rankings[0] for r in rankings):
                problems.append("%s: layer ranking differs across seeds %s: %s"
                                % (w, seeds, rankings))

    for p in problems:
        log("self-test: " + p)
    log("self-test: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--rank-seeds", default="")
    args = ap.parse_args()
    try:
        bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        if args.self_test:
            return self_test(args, bench)
        if not args.workload:
            ap.error("--workload is required")
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        return run_workload(args, bench)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
