"""Span tracing for the benchmark, installed from outside the program.

`Tracer.install()` replaces every public function of the traced reltt
modules with a wrapper that records a span, and rebinds every module
attribute that refers to such a function, so re-imports such as
`kernel.conv_check` or `cli.run_script` are traced too. `uninstall()`
restores the original objects. Nothing in `src/` changes, and when no tracer
is installed the program runs its own functions untouched.

`syntax` is deliberately left unwrapped: its binder and substitution helpers
run millions of times per pass, and their cost lands in the self time of the
layer that called them. Direct recursion of a wrapped function (for example
`reduction.step` descending a term) is folded into the outermost span.

Spans stay in memory while the pass runs; `write_spans` writes them out
after the pass has been timed.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "surface", "script", "kernel", "reduction", "systemf", "analysis", "prelude")
ALL_MODULES = LAYERS + ("syntax", "gen_prelude")

PARSE_FUNCS = {"tokenize", "parse", "parse_term", "parse_type", "parse_proof"}
KERNEL_PASS_FUNCS = {"kernel.check", "kernel.check_declared", "kernel.to_relpf"}


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if (
            not name.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == mod.__name__
        ):
            yield name, obj


def module_attributes() -> dict[tuple[str, str], object]:
    """Every attribute of every loaded reltt module, keyed by (module, name)."""
    found = {}
    for short in ALL_MODULES:
        mod = sys.modules.get(f"reltt.{short}")
        if mod is not None:
            for name, obj in vars(mod).items():
                found[(short, name)] = obj
    return found


class Tracer:
    def __init__(self) -> None:
        # Each span: [name, parent index, start, end, child seconds, under_systemf].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self.counters: Counter = Counter()
        self.item_steps: Counter = Counter()
        self.item = ""
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"reltt.{layer}")
            for name, fn in _public_functions(mod):
                wrappers[id(fn)] = self._wrap(layer, name, fn)
        for short in ALL_MODULES:
            mod = importlib.import_module(f"reltt.{short}")
            for name, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, w)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def _wrap(self, layer: str, name: str, fn):
        qual = f"{layer}.{name}"
        spans = self.spans
        stack = self._stack
        depth = self._depth
        hook = _HOOKS.get(qual)
        is_pass = qual in KERNEL_PASS_FUNCS

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == qual:
                return fn(*args, **kwargs)
            if is_pass and depth["kernel"] == 0:
                self.counters["kernel.passes"] += 1
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [qual, parent, 0.0, 0.0, 0.0, depth["systemf"] > 0]
            spans.append(span)
            stack.append(index)
            depth[layer] += 1
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                depth[layer] -= 1
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += span[3] - span[2]
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = name
        return traced

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times and counts of everything recorded so far."""
        self_s = defaultdict(float)
        parse_s = render_s = dump_s = sf_kernel = sf_reduction = 0.0
        systemf_calls = 0
        for name, parent, start, end, child, under_systemf in self.spans:
            layer, func = name.split(".", 1)
            own = (end - start) - child
            self_s[layer] += own
            if layer == "surface":
                if func in PARSE_FUNCS:
                    parse_s += own
                elif func.startswith("render_"):
                    render_s += own
            elif layer == "systemf":
                systemf_calls += 1
            elif under_systemf and layer == "kernel":
                sf_kernel += own
            elif under_systemf and layer == "reduction":
                sf_reduction += own
            if name == "script.dump" and (parent < 0 or self.spans[parent][0] != name):
                dump_s += end - start
        c = self.counters
        m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        m.update(
            {
                "surface.parse_s": parse_s,
                "surface.render_s": render_s,
                "surface.tokens": c["surface.tokens"],
                "surface.tokens_per_s": c["surface.tokens"] / parse_s if parse_s else 0.0,
                "script.statements": c["script.statements"],
                "script.dump_s": dump_s,
                "script.dump_bytes": c["script.dump_bytes"],
                "kernel.passes": c["kernel.passes"],
                "kernel.passes_per_proof": (
                    c["kernel.passes"] / c["script.proofs"] if c["script.proofs"] else 0.0
                ),
                "reduction.normalize_calls": c["reduction.normalize_calls"],
                "reduction.steps": c["reduction.steps"],
                "reduction.steps_per_s": (
                    c["reduction.steps"] / self_s["reduction"] if self_s["reduction"] else 0.0
                ),
                "reduction.fuel_exhausted": c["reduction.fuel_exhausted"],
                "reduction.verdict.equal": c["reduction.verdict.equal"],
                "reduction.verdict.distinct": c["reduction.verdict.distinct"],
                "reduction.verdict.undecided": c["reduction.verdict.undecided"],
                "systemf.calls": systemf_calls,
                "systemf.kernel_s": sf_kernel,
                "systemf.reduction_s": sf_reduction,
                "trace.spans": len(self.spans),
                "trace.self_sum_s": sum(self_s.values()),
            }
        )
        return m

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, parent, start, end, _, _) in enumerate(self.spans):
                f.write(json.dumps([i, parent, name, start, end]) + "\n")


# Hooks read counts off the arguments and results of a traced call.


def _on_tokenize(t: Tracer, args, result) -> None:
    t.counters["surface.tokens"] += len(result)


def _on_normalize(t: Tracer, args, result) -> None:
    c = t.counters
    c["reduction.normalize_calls"] += 1
    c["reduction.steps"] += result.steps_used
    c["reduction.fuel_exhausted"] += result.status == "fuel-exhausted"
    t.item_steps[t.item] += result.steps_used


def _on_conv_check(t: Tracer, args, result) -> None:
    t.counters[f"reduction.verdict.{result}"] += 1


def _on_run_script(t: Tracer, args, result) -> None:
    t.counters["script.statements"] += len(args[0].statements)
    t.counters["script.proofs"] += sum(type(s).__name__ == "ProofDef" for s in args[0].statements)


def _on_dump(t: Tracer, args, result) -> None:
    t.counters["script.dump_bytes"] += len(result)


_HOOKS = {
    "surface.tokenize": _on_tokenize,
    "reduction.normalize": _on_normalize,
    "reduction.conv_check": _on_conv_check,
    "script.run_script": _on_run_script,
    "script.dump": _on_dump,
}
