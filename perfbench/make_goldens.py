"""Take the goldens the benchmark checks against.

Usage, from the root of a checkout: python3 perfbench/make_goldens.py

Runs every item any seed can draw, once untraced and once traced, and writes
perfbench/golden/<workload>.json with each item's exit code, output (or its
SHA-256 for arith), dump bytes and reduction.steps. The goldens pin the
program's observable results; take them again only when a change to those
results is intended.
"""

import json
import sys

import workloads
from run import check_pass, run_pass


def main() -> int:
    workloads.GOLDEN.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        items = workloads.golden_items(workload)
        workloads.write_inputs(items)
        plain = run_pass(workload, items, trace=False)
        traced = run_pass(workload, items, trace=True)
        golden = {
            item["name"]: workloads.golden_record(
                workload, outcome, traced["item_steps"].get(item["name"], 0)
            )
            for item, outcome in zip(items, plain["outcomes"])
        }
        reference = {item["name"]: o for item, o in zip(items, plain["outcomes"])}
        failures = check_pass(workload, items, traced, golden, reference)
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        path = workloads.GOLDEN / f"{workload}.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True, ensure_ascii=False) + "\n", "utf-8")
        print(f"{path}: {len(golden)} items, {sum(r['steps'] for r in golden.values())} steps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
