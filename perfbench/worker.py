"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json RESULT.json
       python3 perfbench/worker.py --setup-only RESULT.json

Run from the root of a checkout. The worker times its own set-up (importing
`reltt.cli` and the first `prelude_env()`), then runs the job's items once,
in order, and writes every item's outcome and timing to RESULT.json. Every
time is in reference seconds (see calibrate.py). With "trace" set in the job
it installs the span tracer for the pass only; without it, it checks
afterwards that every reltt module attribute is still the object it was at
import time.
"""

import time

_T0 = time.perf_counter()

import calibrate  # noqa: E402

SAMPLER = calibrate.Sampler()
SAMPLER.start()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path("src").resolve()))

import reltt.cli  # noqa: E402
from reltt import script, surface, systemf  # noqa: E402

if not Path(reltt.cli.__file__).resolve().is_relative_to(Path("src").resolve()):
    sys.exit(f"reltt was imported from {reltt.cli.__file__}, not from ./src")

import spans  # noqa: E402

_IMPORTED = spans.module_attributes()
script.prelude_env()
_SETUP_END = time.perf_counter()


def _cli_item(item: dict) -> dict:
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = reltt.cli.main(list(item["argv"]))
        except Exception as e:  # a crash is a failed item, not a failed run
            rc = f"raised {type(e).__name__}: {e}"
    return {"start": start, "end": time.perf_counter(), "rc": rc, "stdout": buf.getvalue()}


class _Library:
    """The library workload: the packaged prelude loaded without the
    prelude_env cache, then projected, validated, witnessed and dumped."""

    def __init__(self) -> None:
        self.checked = {}
        self.result = None

    def run(self, item: dict) -> dict:
        start = time.perf_counter()
        try:
            out = self._run(item)
            rc = 0
        except Exception as e:  # an item's failure is recorded, not fatal
            out, rc = f"{type(e).__name__}: {e}", 1
        return {"start": start, "end": time.perf_counter(), "rc": rc, "stdout": out}

    def _run(self, item: dict) -> str:
        name = item["name"]
        if name == "load":
            parsed = surface.parse(script.prelude_source(), allow_dotted=True)
            self.result = script.run_script(parsed)
            self.checked = {c.name: c for c in self.result.checked}
            if not self.result.ok:
                raise RuntimeError("the packaged library failed to check")
            return "".join(
                f"proof {c.name}: {surface.render_judgment(c.judgment)}\n"
                for c in self.result.checked
            )
        if name == "export":
            return "match" if script.export_prelude() == script.prelude_source() else "mismatch"
        if "dump" in item:
            return script.dump(self.result.checked, item["dump"]).decode("utf-8")
        c = self.checked[item["proof"]]
        deriv = systemf.project_derivation(c.ctx, c.proof, c.judgment)
        subject, ftype = systemf.validate_f(systemf.project_ctx(c.ctx), deriv)
        _, _, witnessed = systemf.self_witness(c.ctx, c.proof)
        return (
            f"{surface.render_term(subject)} : "
            f"{surface.render_type(systemf.rel_of_ftype(ftype))}\n"
            f"{surface.render_judgment(witnessed)}\n"
        )


def _run_pass(job: dict, tracer) -> tuple[list[dict], float]:
    items = job["items"]
    library = _Library() if job["workload"] == "library" else None
    outcomes = []
    start = time.perf_counter()
    for item in items:
        if tracer is not None:
            tracer.item = item["name"]
        outcomes.append(library.run(item) if library else _cli_item(item))
    return outcomes, time.perf_counter() - start


def _in_reference_seconds(name: str, value: float, scale: float) -> float:
    if name.endswith("_per_s"):
        return value / scale
    if name.endswith("_s"):
        return value * scale
    return value


def main(argv: list[str]) -> int:
    if argv[0] == "--setup-only":
        SAMPLER.stop()
        setup_s = SAMPLER.reference_seconds(_T0, _SETUP_END)
        Path(argv[1]).write_text(json.dumps({"setup_s": setup_s}), "utf-8")
        return 0
    job = json.loads(Path(argv[0]).read_text("utf-8"))
    for item in job["items"]:
        for path in item.get("files", {}).values():
            Path(path).unlink(missing_ok=True)
    tracer = spans.Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    try:
        outcomes, wall_pass_s = _run_pass(job, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    SAMPLER.stop()
    for outcome in outcomes:
        outcome["seconds"] = SAMPLER.reference_seconds(outcome.pop("start"), outcome.pop("end"))
    pass_s = sum(o["seconds"] for o in outcomes)
    for item, outcome in zip(job["items"], outcomes):
        files = item.get("files")
        if files:
            outcome["files"] = {
                k: Path(p).read_text("utf-8") if Path(p).exists() else None
                for k, p in files.items()
            }
    result = {
        "setup_s": SAMPLER.reference_seconds(_T0, _SETUP_END),
        "pass_s": pass_s,
        "wall_pass_s": wall_pass_s,
        "slice_s": statistics.median(d for _, d in SAMPLER.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcomes": outcomes,
    }
    if tracer is None:
        now = spans.module_attributes()
        result["changed_attributes"] = sorted(
            f"{m}.{n}" for (m, n), obj in _IMPORTED.items() if now.get((m, n)) is not obj
        )
    else:
        # Span times include the reference slices that ran inside them, in
        # proportion to their length; one factor takes both out.
        scale = pass_s / wall_pass_s
        result["layers"] = {
            name: _in_reference_seconds(name, value, scale)
            for name, value in tracer.layer_metrics().items()
        }
        result["item_steps"] = dict(tracer.item_steps)
        tracer.write_spans(job["spans_path"])
    Path(argv[1]).write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
