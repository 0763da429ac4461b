#!/usr/bin/env python3
"""End-to-end benchmark of the Shard Manager reproduction.

Builds the program from the checkout's sources (smperf/CMakeLists.txt, into .bench_build/)
and runs one workload:

    python3 smperf/run.py --workload hotspot_flash --seed 1 --seconds 55 --trace 0
    python3 smperf/run.py --smoke          # reduced-size check of both workloads

Each benchmark run starts the smperf binary several times, one fresh process per repetition,
until --seconds have been spent (at least MIN_PROCESSES). Set-up time and memory are medians
over the processes; the unit's wall time sums each measured step's fastest time. Simulated outcomes and per-layer counts must be identical in every process, and
across runs of the same sources and seed (a record under .bench_out/outcomes/ remembers them);
any difference fails the run. With --trace 1, untraced and traced processes alternate: the
per-layer metrics come from the traced ones, the tracing overhead from the pair.

The last line of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exits 0 when every check passed, 1 when a check failed, 2 when the program cannot be built.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("hotspot_flash", "rolling_upgrade")
MIN_PROCESSES = 3
MAX_PROCESSES = 200
RUN_DEADLINE_S = 150  # no new process starts after this
RUN_LIMIT_S = 170     # a process still running at this point is killed; runs end within 180 s

# Metric names and units come from the benchmark definition at the checkout root. Every
# workload reports every name; a per-layer metric of a layer the workload does not exercise
# reports 0.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------------------------
# Build


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "smperf"


def build():
    """Configures and builds smperf; returns the binary path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"smperf: no program sources under {ROOT / 'src'}")
        return None
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    build_log = out / "build.log"
    with open(build_log, "w") as sink:
        if not (out / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sink, stderr=subprocess.STDOUT).returncode != 0:
                log(f"smperf: configure failed, see {build_log}")
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(out), "-j", jobs]
        if subprocess.run(cmd, stdout=sink, stderr=subprocess.STDOUT).returncode != 0:
            log(f"smperf: build failed, see {build_log}")
            return None
    binary = out / "smperf"
    return binary if binary.is_file() else None


def source_hash():
    """Identity of the code under test: every file the benchmark builds from."""
    digest = hashlib.sha256()
    files = [p for d in ("src", "smperf") for p in (ROOT / d).rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if result.returncode == 0:
            return result.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


# ---------------------------------------------------------------------------------------------
# Processes


def run_process(binary, workload, seed, traced, timeout, small=False, spans=None):
    """Runs one smperf process; returns (result dict or None, stdout text)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if small:
        cmd.append("--small")
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        log(f"smperf: {workload} seed {seed} killed after {timeout:.0f} s")
        return None, ""
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("SMPERF_RESULT "):
            result = json.loads(line[len("SMPERF_RESULT "):])
    if proc.returncode != 0 or result is None:
        log(f"smperf: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr[-4000:]}")
        return None, proc.stdout
    return result, proc.stdout


def median(values):
    return statistics.median(values) if values else 0.0


def identity_problems(results, label):
    """Exact values must agree across processes on every key they share."""
    problems = []
    reference = results[0]["exact"]
    for i, result in enumerate(results[1:], start=1):
        for key, value in result["exact"].items():
            if key in reference and reference[key] != value:
                problems.append(f"{label}: '{key}' is {reference[key]} in process 0 "
                                f"but {value} in process {i}")
    return problems


def record_outcomes(workload, seed, exact, digest):
    """Compares exact values with earlier runs of the same sources and seed, then records."""
    path = ROOT / ".bench_out" / "outcomes" / f"{workload}-seed{seed}.json"
    problems = []
    merged = dict(exact)
    if path.is_file():
        try:
            earlier = json.loads(path.read_text())
        except (OSError, ValueError):
            earlier = {}
        if earlier.get("source_hash") == digest:
            for key, value in earlier.get("exact", {}).items():
                if key in exact and exact[key] != value:
                    problems.append(f"'{key}' is {value} in an earlier run of the same sources "
                                    f"and seed but {exact[key]} now")
                merged.setdefault(key, value)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"source_hash": digest, "exact": merged}, sort_keys=True))
    return problems


def check_failures(results):
    failures = []
    for i, result in enumerate(results):
        for check in result["checks"]:
            if not check["ok"]:
                failures.append(f"process {i}: check {check['name']} failed {check['detail']}")
    return failures


# ---------------------------------------------------------------------------------------------
# Metrics


def unit_wall_ms(results):
    """Wall time of one measured unit on a quiet host, from the step times of a run's processes.

    Each process runs the measured phase as a fixed sequence of steps that is the same work in
    every process of a seed. The host's noise only adds time, and its slow stretches last from
    seconds to minutes, so each step's fastest repetition in the run is the estimate it moves
    least (see README): the unit's time is the sum over steps of each step's fastest time.
    """
    return sum(min(step) for step in zip(*(r["steps_ms"] for r in results)))


def step_problems(results):
    """Every process of one seed must run the same sequence of measured steps."""
    counts = sorted({len(r["steps_ms"]) for r in results})
    if counts[0] == 0 or len(counts) > 1:
        return [f"measured step counts differ or are empty across processes: {counts}"]
    return []


def end_to_end_metrics(untraced):
    timing = lambda key: median([r["timing"][key] for r in untraced])
    exact = untraced[0]["exact"]
    values = {
        "setup_s": timing("setup_s"),
        "peak_rss_mb": timing("peak_rss_mb"),
        "unit_wall_ms": unit_wall_ms(untraced),
        "success_rate": exact["success_rate"],
        "slo_attainment": exact["slo_attainment"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(untraced, traced):
    values = {}
    exact = traced[0]["exact"]
    for key, value in exact.items():
        values[key] = value
    for key in traced[0]["timing"]:
        values[key] = median([r["timing"][key] for r in traced])
    wall_ms = unit_wall_ms(untraced)
    traced_wall_ms = unit_wall_ms(traced)
    values["trace.overhead_ratio"] = traced_wall_ms / wall_ms
    values["requests_per_wall_s"] = exact["requests"] / (wall_ms / 1e3)
    values["sim_s_per_wall_s"] = exact["sim_s"] / (wall_ms / 1e3)
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------------------------
# Entry points


def benchmark(args):
    binary = build()
    if binary is None:
        return 2
    start = time.monotonic()
    digest = source_hash()
    out_dir = ROOT / ".bench_out"
    spans_path = out_dir / "spans" / f"{args.workload}-seed{args.seed}.csv"
    spans_path.parent.mkdir(parents=True, exist_ok=True)

    untraced, traced, problems, trace_table = [], [], [], ""
    crashed = 0
    while True:
        elapsed = time.monotonic() - start
        runs = len(untraced) + len(traced)
        measured = traced if args.trace else untraced
        enough = elapsed >= args.seconds and len(measured) >= MIN_PROCESSES
        if enough or runs >= MAX_PROCESSES or (runs > 0 and elapsed > RUN_DEADLINE_S):
            break
        # With tracing, untraced and traced processes alternate (the pair gives the overhead).
        traced_turn = args.trace and len(traced) < len(untraced)
        result, stdout = run_process(binary, args.workload, args.seed, traced_turn,
                                     timeout=RUN_LIMIT_S - elapsed,
                                     spans=spans_path if traced_turn else None)
        if result is None:
            crashed += 1
            break
        if traced_turn:
            traced.append(result)
            trace_table = "\n".join(l for l in stdout.splitlines()
                                    if not l.startswith("SMPERF_RESULT "))
        else:
            untraced.append(result)

    everything = untraced + traced
    if crashed:
        problems.append("a benchmark process crashed or timed out")
    if everything:
        problems += check_failures(everything)
        problems += identity_problems(everything, "same seed, one run")
        problems += step_problems(everything)
        merged = {}
        for result in everything:
            merged.update(result["exact"])
        problems += record_outcomes(args.workload, args.seed, merged, digest)

    attempted = crashed + len(everything)
    failed = crashed + sum(1 for r in everything if not all(c["ok"] for c in r["checks"]))

    host = {
        "cores": os.cpu_count(),
        "compiler": everything[0]["compiler"] if everything else "unknown",
        "build_type": everything[0]["build_type"] if everything else "unknown",
        "git_sha": git_sha(),
        "source_hash": digest,
        "loadavg": list(os.getloadavg()),
        "process_cpu_s": [r["timing"]["process.cpu_s"] for r in everything],
        "process_wall_s": [r["timing"]["process.wall_s"] for r in everything],
        "unit_wall_ms": [r["timing"]["unit_wall_ms"] for r in everything],
        "traced": [False] * len(untraced) + [True] * len(traced),
    }

    if args.trace and traced and untraced:
        metrics = per_layer_metrics(untraced, traced)
        print(trace_table)
        print(f"tracing overhead: traced unit wall / untraced = "
              f"{metrics['trace.overhead_ratio']['value']:.4f} "
              f"({len(traced)} traced, {len(untraced)} untraced processes)")
    elif not args.trace and untraced:
        metrics = end_to_end_metrics(untraced)
    else:
        metrics = {}
        problems.append("no complete process to report from")

    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print("host: " + json.dumps(host, sort_keys=True))
    for problem in problems:
        print("FAILED: " + problem)
    correct = not problems
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "correct": correct, "host": host, "metrics": metrics,
              "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    with open(out_dir / "runs.jsonl", "a") as sink:
        sink.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def smoke():
    """Reduced-size run of every workload, traced and untraced, with all checks."""
    binary = build()
    if binary is None:
        return 2
    ok = True
    for workload in WORKLOADS:
        results = []
        for traced in (False, True):
            result, _ = run_process(binary, workload, 1, traced, timeout=RUN_LIMIT_S,
                                    small=True)
            if result is None:
                ok = False
                continue
            results.append(result)
        problems = check_failures(results)
        if len(results) == 2:
            problems += identity_problems(results, workload)
            problems += step_problems(results)
        ok = ok and not problems
        print(f"smoke {workload}: {'ok' if not problems and len(results) == 2 else 'FAILED'}")
        for problem in problems:
            print("  " + problem)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
