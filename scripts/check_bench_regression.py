#!/usr/bin/env python3
"""Bench gate check: evaluates the gates of a fresh BENCH_<bench>.json against its baseline.

Every BENCH file has one schema (DESIGN.md §16): `bench`, `scale`,
`host{cores,compiler,build_type,git_sha}`, `measured{}`, `projected{}` and `gates[]`. A metric
is a scalar or a `{median,min,max,n}` record, whose median is compared. The check is one loop
over the fresh file's gates; a gate `{metric, direction, tolerance, bound, hard, same_scale}`
names the good side (`higher`, `lower` or `equal`) and is judged as follows:

* `bound` is always checked: the value must be >= it (higher), <= it (lower) or == it (equal);
* `tolerance` compares with the baseline's value of the same metric: the value may move to the
  bad side by at most tolerance x |baseline| (for `equal`, either way). It is skipped when the
  baseline lacks the metric, and for a `same_scale` gate when the two files ran at different
  scales;
* a gate the baseline carries but the fresh file dropped is a warning (a `same_scale` one only
  at equal scale).

A broken `hard` gate, or a fresh file outside the schema, exits 1. Every other finding is a
warning with a GitHub ::warning:: annotation, and exits 0. A missing, unreadable or
out-of-schema baseline is a warning as well; the bounds are still enforced.

Usage: check_bench_regression.py <baseline.json> <fresh.json>
"""

import argparse
import json
import sys

SECTIONS = {"bench": str, "scale": (int, float), "host": dict, "measured": dict,
            "projected": dict, "gates": list}
HOST_KEYS = ("cores", "compiler", "build_type", "git_sha")
DIRECTIONS = ("higher", "lower", "equal")
RECORD_KEYS = {"median", "min", "max", "n"}


def schema_errors(doc):
    if not isinstance(doc, dict):
        return ["not a JSON object"]
    errors = [f"'{key}' missing or of the wrong type" for key, kind in SECTIONS.items()
              if not isinstance(doc.get(key), kind)]
    if errors:
        return errors
    errors += [f"host.{key} missing" for key in HOST_KEYS if key not in doc["host"]]
    for section in ("measured", "projected"):
        for key, val in doc[section].items():
            if isinstance(val, (dict, list)) and (not isinstance(val, dict)
                                                  or set(val) != RECORD_KEYS):
                errors.append(f"{section}.{key} is neither a scalar nor a "
                              "{median,min,max,n} record")
    for gate in doc["gates"]:
        if (not isinstance(gate, dict) or not isinstance(gate.get("metric"), str)
                or gate.get("direction") not in DIRECTIONS):
            errors.append(f"malformed gate {gate!r}")
    return errors


def value(doc, metric):
    for section in ("measured", "projected"):
        val = doc.get(section, {}).get(metric)
        if val is not None:
            return val["median"] if isinstance(val, dict) else val
    return None


def meets(val, direction, limit):
    if direction == "higher":
        return val >= limit
    if direction == "lower":
        return val <= limit
    return val == limit


def judge(gate, fresh, baseline, same_scale):
    """Returns what is wrong with one gate of the fresh file (empty when it holds)."""
    direction = gate["direction"]
    now = value(fresh, gate["metric"])
    if now is None:
        return ["metric missing from the fresh file"]
    problems = []
    if "bound" in gate and not meets(now, direction, gate["bound"]):
        problems.append(f"{now} breaks the bound ({direction} {gate['bound']})")
    tolerance = gate.get("tolerance")
    base = value(baseline, gate["metric"])
    if tolerance is None or base is None or (gate.get("same_scale") and not same_scale):
        return problems
    slack = tolerance * abs(base)
    if direction == "equal":
        held = now == base or (slack > 0 and abs(now - base) <= slack)
    else:
        held = meets(now, direction, base - slack if direction == "higher" else base + slack)
    if not held:
        problems.append(f"{now} vs baseline {base} (tolerance {tolerance:.0%}, {direction})")
    return problems


def load(path):
    """The document at `path` and its schema errors."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        return {}, [str(err)]
    return doc, schema_errors(doc)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", help="committed baseline BENCH file")
    parser.add_argument("fresh", help="fresh BENCH file from the same bench")
    args = parser.parse_args()

    fresh, errors = load(args.fresh)
    if errors:
        for error in errors:
            print(f"::error title=Bench schema::{args.fresh}: {error}")
        return 1
    title = f"Bench gate ({fresh['bench']})"
    baseline, errors = load(args.baseline)
    if errors:
        print(f"::warning title={title}::baseline {args.baseline} unusable ({errors[0]}); "
              "checking bounds only")
        baseline = {}
    same_scale = baseline.get("scale") == fresh["scale"]
    if baseline and not same_scale:
        print(f"note: scales differ (baseline {baseline['scale']}, fresh {fresh['scale']}); "
              "skipping same_scale comparisons")

    warnings, failures = [], []
    for gate in fresh["gates"]:
        problems = judge(gate, fresh, baseline, same_scale)
        status = ("FAIL" if gate.get("hard") else "WARN") if problems else "ok"
        print(f"{status:4} {gate['metric']}: {value(fresh, gate['metric'])}")
        found = [f"{gate['metric']}: {p}" for p in problems]
        (failures if gate.get("hard") else warnings).extend(found)
    kept = {gate["metric"] for gate in fresh["gates"]}
    for gate in baseline.get("gates", []):
        if gate["metric"] not in kept and (same_scale or not gate.get("same_scale")):
            warnings.append(f"{gate['metric']}: gate in the baseline, dropped from the fresh file")

    for kind, messages in (("warning", warnings), ("error", failures)):
        for message in messages:
            print(f"::{kind} title={title}::{message}")
    print(f"\n{len(fresh['gates'])} gate(s): {len(failures)} hard failure(s), "
          f"{len(warnings)} warning(s)", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
