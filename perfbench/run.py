#!/usr/bin/env python3
"""The repo benchmark: one command, four generated scenario workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the simulator's src/ layers in Release plus the
harness) into .bench_build/perfbench; later runs reuse that build.

The workload's scenario spec is generated here from --seed and handed to
the harness as spec text on stdin. --trace 0 runs the untraced closed loop
and reports the end-to-end metrics; --trace 1 runs the separate traced
pass and reports the per-layer metrics. Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero when the build
fails, the harness refuses the build, or any correctness check fails.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
HARNESS_TIMEOUT_S = 170
# Compilers and the harness keep their scratch files inside the build tree.
TMP = os.path.join(BUILD, "tmp")
ENV = dict(os.environ, TMPDIR=TMP)

# Each workload: spec template, replications per case for one closed-loop
# run (e2e) and for the traced pass, the case that layers the spec bypasses
# are measured on, and the replication count for the extra estimators.
WORKLOADS = {
    "flat_uniform": {
        "spec": """\
name        = flat_uniform
description = Flat engine, uniform view, n=10^6, Poisson(4), q=0.9
n           = 1000000
backend     = flat
fanout      = poisson(4)
failure     = crash(0.1)
metric      = reliability
""",
        "e2e_reps": 16,
        "trace_reps": 24,
        "ref_case": "-",
        "estimator_reps": 2,
    },
    "flat_overlay": {
        "spec": """\
name        = flat_overlay
description = Flat engine over ER and BA overlays of mean degree 16, n=2.5*10^5
n           = 250000
backend     = flat
topology    = $topo
topology.p  = 6.4e-5
topology.m  = 8
fanout      = poisson(4)
failure     = crash(0.1)
metric      = reliability
sweep.topo  = er, ba
""",
        "e2e_reps": 16,
        "trace_reps": 16,
        "ref_case": "topo=er",
        "estimator_reps": 4,
    },
    "grid_small": {
        "spec": """\
name        = grid_small
description = Paper Fig. 4a grid on the flat engine with the mean-field pass, n=1000
n           = 1000
backend     = flat
engine      = both
fanout      = poisson($z)
failure     = crash($f)
metric      = reliability
sweep.z     = range(1.1, 6.7, 0.4), 4.0
sweep.f     = 0.0, 0.1, 0.5, 0.9
""",
        "e2e_reps": 100,
        "trace_reps": 400,
        "ref_case": "z=4.0,f=0.1",
        "estimator_reps": 60,
    },
    "des_churn": {
        "spec": """\
name        = des_churn
description = 8 overlapping multicasts over one SCAMP churn trace, DES, n=2000
n           = 2000
backend     = protocol
fanout      = poisson(5)
latency     = exponential(1)
failure     = churn(crash@2:0.2, lease@5:0.25, join@8:0.5)
membership.dynamics = scamp-churn(1)
workload.messages   = 8
workload.spacing    = 1.5
workload.sources    = spread
metric      = reliability
""",
        "e2e_reps": 30,
        "trace_reps": 60,
        "ref_case": "-",
        "estimator_reps": 60,
    },
}

def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def spec_seed(workload, seed):
    """The spec's seed key: a 32-bit hash of (workload, --seed)."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).hexdigest()
    return int(digest[:8], 16)


def make_spec(workload, seed, trace):
    w = WORKLOADS[workload]
    reps = w["trace_reps"] if trace else w["e2e_reps"]
    return (w["spec"] + f"repetitions = {reps}\n"
            f"seed        = {spec_seed(workload, seed)}\n")


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found at {os.path.join(REPO, 'src')}; "
             "run from a full checkout")
    os.makedirs(TMP, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_harness",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=ENV, check=False).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (see {log_path})")


def source_fingerprint():
    """sha256 over src/ and perfbench/ file contents, in path order."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(REPO, ".git")):
        return "none (exported tree)"
    out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    w = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(BUILD, "out", tag)
    cmd = [HARNESS, "trace" if args.trace else "e2e",
           "--seconds", str(args.seconds), "--out", out_dir]
    if args.trace:
        cmd += ["--ref-case", w["ref_case"],
                "--estimator-reps", str(w["estimator_reps"])]
    try:
        proc = subprocess.run(cmd, input=make_spec(args.workload, args.seed,
                                                   args.trace),
                              capture_output=True, text=True, env=ENV,
                              check=False, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"harness exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["host"]["commit"] = commit()
    report["host"]["source_sha256"] = source_fingerprint()
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(report, f, indent=2)

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    raw = report["result"]["metrics"]
    metrics = {}
    problems = list(report["notes"])
    for name, unit in expected.items():
        value = raw.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} missing or not finite")
            continue
        metrics[name] = {"value": value, "unit": unit}
    attempted = int(report["attempted"])
    failed = int(report["failed"])
    correct = not problems and failed == 0 and attempted >= 1

    print(f"workload {args.workload}  seed {args.seed}  "
          f"spec seed {spec_seed(args.workload, args.seed)}  "
          f"trace {args.trace}")
    print("host " + json.dumps(report["host"], sort_keys=True))
    print("details " + json.dumps(report["result"]["details"], sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
