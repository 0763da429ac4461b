#!/usr/bin/env python3
"""Checks that simulated outcomes are byte-identical to those of a base commit.

    python3 scripts/outcome_diff.py --base origin/main

Checks the base ref out into a temporary `git worktree`. Each checkout builds and runs smperf
through its own smperf/run.py (`build()` into that checkout's .bench_build/, `run_process()`),
so this checkout's build is reused when `run.py --smoke` has just made it. Every workload runs
untraced at --small --seed 1 on both builds, and the `exact` maps of their SMPERF_RESULT lines
are compared: simulated outcomes, per-layer counts and `sim.events`. A change that only makes
the program faster must leave every one of them unchanged.

Prints one line per workload and every differing key. Exits 0 when all outcomes match, 1 on
any difference or failed run, 2 when the base cannot be checked out or either build fails.
Nothing under smperf/ changes.
"""

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
sys.dont_write_bytecode = True  # importing smperf/run.py leaves no __pycache__ there


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_runner(checkout, name):
    """Imports `checkout`'s smperf/run.py, whose build and run paths are rooted there."""
    spec = importlib.util.spec_from_file_location(name, checkout / "smperf" / "run.py")
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    return runner


def exact_outcomes(runner, binary, workload):
    result, _ = runner.run_process(binary, workload, SEED, traced=False,
                                   timeout=runner.RUN_LIMIT_S, small=True)
    return None if result is None else result["exact"]


def differences(base, head):
    """Keys whose values differ, including keys present on one side only."""
    missing = "<absent>"
    return [(key, base.get(key, missing), head.get(key, missing))
            for key in sorted(set(base) | set(head))
            if base.get(key, missing) != head.get(key, missing)]


def compare(head, head_bin, base, base_bin, base_ref):
    same = True
    for workload in head.WORKLOADS:
        head_exact = exact_outcomes(head, head_bin, workload)
        base_exact = exact_outcomes(base, base_bin, workload)
        if head_exact is None or base_exact is None:
            print(f"{workload}: FAILED to run")
            same = False
            continue
        diff = differences(base_exact, head_exact)
        print(f"{workload} seed {SEED}: "
              f"{'identical' if not diff else f'{len(diff)} keys differ'} "
              f"({len(head_exact)} keys, sim.events {head_exact.get('sim.events')})")
        for key, old, new in diff:
            print(f"  {key}: {base_ref} {old!r} -> checkout {new!r}")
        same = same and not diff
    return 0 if same else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="git ref whose outcomes are the reference")
    args = parser.parse_args()

    head = load_runner(ROOT, "head_run")
    head_bin = head.build()
    if head_bin is None:
        return 2
    with tempfile.TemporaryDirectory(prefix="outcome_diff.") as tmp:
        base_src = Path(tmp) / "base"
        add = subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                              str(base_src), args.base], capture_output=True, text=True)
        if add.returncode != 0:
            log(f"outcome_diff: cannot check out {args.base}: {add.stderr.strip()}")
            return 2
        try:
            # An absolute build directory would be shared by both checkouts.
            os.environ.pop("CARGO_TARGET_DIR", None)
            base = load_runner(base_src, "base_run")
            base_bin = base.build()
            if base_bin is None:
                return 2
            return compare(head, head_bin, base, base_bin, args.base)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(base_src)], capture_output=True)


if __name__ == "__main__":
    sys.exit(main())
