"""The reltt benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {corpus,library,arith} --seed N \
        --seconds S --trace {0,1}

The run first times set-up in a few fresh interpreters, then runs passes of
the workload's seeded items one after another, each in a fresh interpreter,
for S seconds: a pass starts only if one as long as the last would still end
within them. Every outcome is checked against its known
answer; a mismatch is a failed item and never stops the run.

Every time is in reference seconds (see calibrate.py): each interpreter
samples the host's speed with fixed reference work while it runs and scales
its own times by it, so that the host's drift cancels out.

With --trace 0 every pass is untraced and the result line carries the
end-to-end metrics. With --trace 1 the passes alternate between untraced and
traced, the result line carries the per-layer metrics of the traced passes,
and the traced outputs must equal the untraced ones byte for byte.

Every metric is printed as `metric NAME VALUE UNIT` before the result line,
which is the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import OUT

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "verdict_s_p50": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.self_s": "s",
    "surface.self_s": "s",
    "surface.parse_s": "s",
    "surface.tokens": "count",
    "surface.tokens_per_s": "tokens/s",
    "surface.render_s": "s",
    "script.self_s": "s",
    "script.statements": "count",
    "script.dump_s": "s",
    "script.dump_bytes": "bytes",
    "kernel.self_s": "s",
    "kernel.passes": "count",
    "kernel.passes_per_proof": "ratio",
    "reduction.self_s": "s",
    "reduction.normalize_calls": "count",
    "reduction.steps": "count",
    "reduction.steps_per_s": "steps/s",
    "reduction.fuel_exhausted": "count",
    "reduction.verdict.equal": "count",
    "reduction.verdict.distinct": "count",
    "reduction.verdict.undecided": "count",
    "systemf.self_s": "s",
    "systemf.calls": "count",
    "systemf.kernel_s": "s",
    "systemf.reduction_s": "s",
    "analysis.self_s": "s",
    "prelude.self_s": "s",
    "trace.spans": "count",
    "trace.pass_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead": "ratio",
}


class HarnessError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


def run_worker(args: list[str], result_path: Path) -> dict:
    """Run one worker interpreter to completion and return what it wrote."""
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args, str(result_path)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        raise HarnessError(f"worker ran over {WORKER_TIMEOUT_S} s") from e
    if proc.returncode != 0 or not result_path.exists():
        raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text("utf-8"))


def run_pass(workload: str, items: list[dict], trace: bool) -> dict:
    job = {
        "workload": workload,
        "items": items,
        "trace": trace,
        "spans_path": str(OUT / f"{workload}.spans.jsonl"),
    }
    job_path = OUT / f"{workload}.job.json"
    job_path.write_text(json.dumps(job), "utf-8")
    return run_worker([str(job_path)], OUT / f"{workload}.result.json")


def setup_probe() -> float:
    return run_worker(["--setup-only"], OUT / "setup.result.json")["setup_s"]


def _outputs(outcome: dict) -> tuple:
    return outcome["rc"], outcome["stdout"], outcome.get("files")


def check_pass(workload, items, result, golden, reference) -> list[str]:
    """Problems in one pass, one entry per failed item."""
    failures = []
    steps = result.get("item_steps")
    for item, outcome in zip(items, result["outcomes"]):
        got_steps = None if steps is None else steps.get(item["name"], 0)
        problems = workloads.check_item(workload, item, outcome, golden, got_steps)
        if reference is not None and _outputs(outcome) != _outputs(reference[item["name"]]):
            problems.append("traced output differs from the untraced output")
        if problems:
            failures.append(f"{item['name']}: {'; '.join(problems)}")
    return failures


def _median_layers(traced: list[dict]) -> dict[str, float]:
    keys = traced[0]["layers"]
    return {k: statistics.median(r["layers"][k] for r in traced) for k in keys}


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run the workload; return metrics, checks attempted, failures and sample counts."""
    if not (Path("src/reltt/cli.py").is_file() and Path("corpus").is_dir()):
        raise HarnessError("run from the root of a reltt checkout: src/reltt and corpus/ are missing")
    try:
        golden = workloads.load_goldens(workload)
    except OSError as e:
        raise HarnessError(f"goldens missing: {e}") from e
    items = workloads.make_items(workload, seed)
    workloads.write_inputs(items)

    setup_probe()  # compiles bytecode once, so no timed interpreter pays for it
    start = time.perf_counter()
    setups = [setup_probe() for _ in range(SETUP_PROBES)]
    untraced, traced = [], []
    last = 0.0
    # Start a pass only if one as long as the last still ends within the run.
    while not untraced or (trace and not traced) or time.perf_counter() - start + last <= seconds:
        is_traced = trace and len(traced) < len(untraced)
        began = time.perf_counter()
        (traced if is_traced else untraced).append(run_pass(workload, items, is_traced))
        last = time.perf_counter() - began

    attempted = 0
    failures = []
    reference = {item["name"]: o for item, o in zip(items, untraced[0]["outcomes"])}
    for result in untraced + traced:
        attempted += len(items) + ("changed_attributes" in result)
        failures += check_pass(
            workload, items, result, golden, reference if "layers" in result else None
        )
        if result.get("changed_attributes"):
            failures.append(f"untraced pass changed {result['changed_attributes'][:5]}")
    if traced:
        attempted += 1
        if len({r["layers"]["reduction.steps"] for r in traced}) != 1:
            failures.append("reduction.steps differs between traced passes")

    setups += [r["setup_s"] for r in untraced + traced]
    # Per pass, then over passes: some interpreters run every item up to 1.5x
    # slower than others at the same host speed, and a median over passes
    # keeps a minority of them from shifting the result.
    verdicts_by_pass = [
        [o["seconds"] for item, o in zip(items, r["outcomes"]) if workloads.is_verdict_item(workload, item)]
        for r in untraced
    ]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(r["pass_s"] for r in untraced),
        "verdict_s_p50": statistics.median(statistics.median(v) for v in verdicts_by_pass),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    layers = {}
    if traced:
        layers = _median_layers(traced)
        layers["trace.pass_s"] = statistics.median(r["pass_s"] for r in traced)
        layers["trace.overhead"] = layers["trace.pass_s"] / end_to_end["pass_s"]
    host = {
        "wall_pass_s": statistics.median(r["wall_pass_s"] for r in untraced),
        "reference_slice_s": statistics.median(r["slice_s"] for r in untraced),
    }
    counts = {
        "verdict_samples": sum(len(v) for v in verdicts_by_pass),
        "setup_samples": len(setups),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
    }
    return end_to_end, layers, attempted, failures, counts, host


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        end_to_end, layers, attempted, failures, counts, host = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except HarnessError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)

    for name, value in end_to_end.items():
        print(f"metric {name} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"metric failed_share {len(failures) / attempted:.6g} ratio")
    for name, value in counts.items():
        print(f"metric {name} {value} count")
    for name, value in host.items():
        print(f"metric {name} {value:.6g} s")
    for name, value in layers.items():
        print(f"metric {name} {value:.6g} {LAYER_UNITS[name]}")

    shown = layers if args.trace else end_to_end
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
