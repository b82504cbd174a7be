#!/usr/bin/env python3
"""Build and run the mvflow host-cost benchmark for one workload.

    python3 perfbench/run.py --workload pt2pt_window --seed 1 --seconds 40 --trace 0

Run from the repository root. The first call builds perfbench (the
simulator libraries from src/ plus the program in perfbench/src) under
.bench_build/perfbench; later calls only rebuild what changed. It prints every metric by name and unit, checks each cell's simulated
fingerprint against perfbench/oracle.json, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --record-oracle

re-records perfbench/oracle.json (see perfbench/README.md).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
ORACLE = os.path.join(HERE, "oracle.json")
WORKLOADS = ("pt2pt_window", "nas_prepost1", "verbs_ring")
# Fingerprint fields that describe delivered content rather than simulated
# timing; they stay checked even in cells whose timing follows the heap.
CONTENT_FIELDS = ("payload_fnv", "verified", "completions")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def run_binary(workload, seed, seconds, trace, env=None):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, f"trace_{workload}_seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"perfbench: {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_oracle(result, oracle):
    """Count the cell runs whose fingerprint disagrees with the oracle or,
    for seed-dependent fields, with the cell's other runs in this run."""
    failed = 0
    problems = []
    expected = oracle.get(result["workload"], {})
    for name, cell in result["cells"].items():
        want = expected.get(name)
        for variant in cell["variants"]:
            bad = []
            if want is None:
                bad.append("cell not in oracle")
            else:
                for field, value in want["fixed"].items():
                    if variant["fixed"].get(field) != value:
                        bad.append(f"{field}={variant['fixed'].get(field)} "
                                   f"(oracle {value})")
            if variant["seeded"] != cell["variants"][0]["seeded"]:
                bad.append("seed-dependent fields differ between passes")
            if bad:
                failed += variant["runs"]
                problems.append(f"{name}: {'; '.join(bad)}")
    missing = sorted(set(expected) - set(result["cells"]))
    for name in missing:
        problems.append(f"{name}: cell did not run")
    return failed, len(missing), problems


def machine(result):
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for fn in sorted(filenames):
            path = os.path.join(dirpath, fn)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    try:
        # The ceiling keeps git from reading any repository above ROOT.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, env=env,
                                timeout=10).stdout.strip() or "unavailable"
    except OSError:
        commit = "unavailable"
    m = dict(result["machine"])
    m.update({
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    })
    return m


def record_oracle(seconds):
    """Run every workload under several seeds and allocator settings and
    keep, per cell, the fields that never changed. A cell whose simulated
    timing moved with the heap keeps only its content fields, and so does
    every cell that converted a backlogged eager send to rendezvous: the
    device pins its own copy of such a message, so whether the pin-down
    cache hits depends on the address the allocator hands back."""
    env_variants = [
        {},
        {"GLIBC_TUNABLES": "glibc.malloc.tcache_count=0"},
        {"MALLOC_ARENA_MAX": "1"},
    ]
    oracle = {}
    for workload in WORKLOADS:
        seen = {}
        for seed in (1, 2, 3):
            for extra in env_variants:
                log(f"recording {workload} seed={seed} {extra}")
                env = dict(os.environ, **extra)
                result = run_binary(workload, seed, seconds, 0, env)
                for name, cell in result["cells"].items():
                    if cell["failed"]:
                        sys.exit(f"perfbench: {name} failed: {cell['error']}")
                    for v in cell["variants"]:
                        seen.setdefault(name, []).append(v["fixed"])
        cells = {}
        for name, variants in sorted(seen.items()):
            first = variants[0]
            stable = (all(v == first for v in variants) and
                      first.get("converted_to_rndv", 0) == 0)
            fixed = {k: val for k, val in first.items()
                     if stable or k in CONTENT_FIELDS}
            cells[name] = {"fixed": fixed,
                           "heap_dependent": sorted(set(first) - set(fixed))}
        oracle[workload] = cells
    with open(ORACLE, "w") as f:
        json.dump(oracle, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {ORACLE}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-oracle", action="store_true")
    args = ap.parse_args()
    if not args.record_oracle and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be a whole number")

    build()
    if args.record_oracle:
        record_oracle(min(args.seconds, 1))
        return

    result = run_binary(args.workload, args.seed, args.seconds, args.trace)
    with open(ORACLE) as f:
        oracle = json.load(f)
    oracle_failed, missing, problems = check_oracle(result, oracle)
    for p in problems[:20]:
        log("oracle:", p)
    self_test = result["self_test"]
    attempted = result["attempted"] + missing + 1
    failed = (result["failed"] + oracle_failed + missing +
              (0 if self_test["ok"] else 1))
    for name, cell in result["cells"].items():
        if cell["failed"]:
            log(f"cell {name}: {cell['error']}")
    if not self_test["ok"]:
        log("accounting self-test failed:", json.dumps(self_test))

    m = machine(result)
    full = dict(result, machine=m, attempted=attempted, failed=failed,
                failed_frac=failed / attempted)
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    out = os.path.join(BUILD, "results",
                       f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(out, "w") as f:
        json.dump(full, f, indent=1)

    print(f"# workload {args.workload} seed {args.seed} passes "
          f"{result['passes']} (traced {result['traced_passes']})")
    print("# machine " + json.dumps(m, sort_keys=True))
    print("# self_test " + json.dumps(self_test, sort_keys=True))
    for name, mv in result["metrics"].items():
        print(f"{name} {mv['value']:.9g} {mv['unit']}")
    print(f"failed_frac {failed / attempted:.9g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()
