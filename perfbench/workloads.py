"""The benchmark's three workloads: their seeded inputs and known answers.

Every workload is a list of items. The parent process builds the list from
the seed, a fresh worker interpreter runs it once per pass, and `check_item`
compares each outcome with answers fixed here (exit codes, diagnostic kinds,
integer arithmetic) and with the goldens taken when the benchmark was added.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
OUT = HERE / "out"
CORPUS = Path("corpus")

WORKLOADS = ("corpus", "library", "arith")

POSITIVE = ("basics", "derived", "datatypes")
LAST_CORPUS_ITEM = "check:datatypes"
DUMPS = ("judgments", "erasure", "systemf")

# arith: every pass runs the same costly slots, so a pass's cost does not
# depend on the seed; the seed orders them and draws the cheap
# fuel-exhausted items. A distinct slot declares C = A + B + 1.
ARITH_SLOTS = (
    ("equal", 1, 1),
    ("equal", 0, 3),
    ("distinct", 1, 0),
    ("distinct", 0, 2),
    ("normalize", 0, 4),
    ("normalize", 1, 1),
)
ARITH_MAX_SUM = 4
ARITH_UNDECIDED_ITEMS = 3
# Every budget here is below the 61 steps that the smallest sum, add 0 0,
# takes to normalize, so these conversions cannot finish.
ARITH_UNDECIDED_FUELS = (8, 16, 24)

_PROOF_NAME = re.compile(r"^proof\s+([A-Za-z_][\w']*)\s*:", re.M)
_EXPECT = re.compile(r"^-- expect:\s*(\S+)", re.M)
_NORMAL_FORM = re.compile(r": normal form: (.*) \(\d+ steps\)$", re.M)


def numeral(k: int) -> str:
    text = "zero"
    for _ in range(k):
        text = f"succ ({text})"
    return text


def arith_pairs() -> list[tuple[int, int]]:
    return [(a, b) for a in range(ARITH_MAX_SUM + 1) for b in range(ARITH_MAX_SUM + 1 - a)]


def _arith_script(kind: str, a: int, b: int, c: int, fuel: int | None) -> str:
    lines = [f"-- {kind}: add {a} {b} against {c}"]
    if fuel is not None:
        lines.append(f"#fuel {fuel}")
    lines.append(
        f"proof s : [u : add ({numeral(a)}) ({numeral(b)}) [Nat] m] |- "
        f"{numeral(c)} [Nat] m := ({numeral(c)}) <| u |> m"
    )
    lines.append(f"#normalize add ({numeral(a)}) ({numeral(b)})")
    if kind == "equal":
        lines.append(f"#normalize {numeral(c)}")
    return "\n".join(lines) + "\n"


def arith_item(kind: str, a: int, b: int, fuel: int | None = None) -> dict:
    """One arith item. The program sees only `argv` and the script text."""
    if kind == "normalize":
        return {
            "name": f"normalize-{a}-{b}",
            "kind": kind,
            "a": a,
            "b": b,
            "argv": ["normalize", f"add ({numeral(a)}) ({numeral(b)})"],
        }
    c = a + b + 1 if kind == "distinct" else a + b
    name = f"{kind}-{a}-{b}" + (f"-f{fuel}" if fuel is not None else "")
    path = OUT / "arith" / f"{name}.rtt"
    return {
        "name": name,
        "kind": kind,
        "a": a,
        "b": b,
        "c": c,
        "fuel": fuel,
        "script": _arith_script(kind, a, b, c, fuel),
        "path": path.relative_to(HERE.parent).as_posix(),
        "argv": ["check", path.relative_to(HERE.parent).as_posix()],
    }


def _corpus_items() -> list[dict]:
    items = []
    for stem in POSITIVE:
        argv = ["check", f"corpus/{stem}.rtt"]
        files = {}
        for what in DUMPS:
            out = (OUT / "corpus" / f"{stem}.{what}.jsonl").relative_to(HERE.parent).as_posix()
            argv += [f"--dump-{what}", out]
            files[what] = out
        items.append({"name": f"check:{stem}", "argv": argv, "files": files})
    items.append({"name": "analyze:datatypes", "argv": ["analyze", "corpus/datatypes.rtt"]})
    for path in sorted((CORPUS / "negative").glob("*.rtt")):
        items.append({"name": f"check:negative/{path.stem}", "argv": ["check", path.as_posix()]})
    return items


def library_proof_names() -> list[str]:
    text = (Path("src") / "reltt" / "prelude.rtt").read_text("utf-8")
    return _PROOF_NAME.findall(text)


def _library_items() -> tuple[list[dict], list[dict]]:
    rest = [{"name": f"proof:{n}", "proof": n} for n in library_proof_names()]
    rest += [{"name": f"dump:{w}", "dump": w} for w in ("judgments", "erasures", "systemf")]
    rest.append({"name": "export"})
    return [{"name": "load"}], rest


def make_items(workload: str, seed: int) -> list[dict]:
    """The items of one pass. The same seed gives the same items, in the same order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus":
        items = _corpus_items()
        rng.shuffle(items)
        # check:datatypes runs last: the heap it leaves slows every later item
        # of the same process by up to 1.7x in some passes, which a user's own
        # reltt process never sees, and where the seed put it would change
        # verdict_s_p50.
        items.sort(key=lambda item: item["name"] == LAST_CORPUS_ITEM)
        return items
    if workload == "library":
        first, rest = _library_items()
        rng.shuffle(rest)
        return first + rest
    if workload == "arith":
        items = [arith_item(*slot) for slot in ARITH_SLOTS]
        pairs = arith_pairs()
        for _ in range(ARITH_UNDECIDED_ITEMS):
            a, b = rng.choice(pairs)
            items.append(arith_item("undecided", a, b, rng.choice(ARITH_UNDECIDED_FUELS)))
        rng.shuffle(items)
        return items
    raise ValueError(f"unknown workload {workload!r}")


def arith_universe() -> list[dict]:
    """Every item any seed can draw, for taking goldens."""
    items = [arith_item(*slot) for slot in ARITH_SLOTS]
    for a, b in arith_pairs():
        for fuel in ARITH_UNDECIDED_FUELS:
            items.append(arith_item("undecided", a, b, fuel))
    return items


def golden_items(workload: str) -> list[dict]:
    if workload == "arith":
        return arith_universe()
    if workload == "library":
        first, rest = _library_items()
        return first + rest
    return _corpus_items()


def is_verdict_item(workload: str, item: dict) -> bool:
    """Items timed for verdict_s: each cli.main call, or the library load."""
    return workload != "library" or item["name"] == "load"


def write_inputs(items: list[dict]) -> None:
    for sub in ("corpus", "arith"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    for item in items:
        if "script" in item:
            Path(item["path"]).write_text(item["script"], "utf-8")


# ---------------------------------------------------------------------------
# Known answers
# ---------------------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_goldens(workload: str) -> dict:
    path = GOLDEN / f"{workload}.json"
    return json.loads(path.read_text("utf-8"))


def golden_record(workload: str, outcome: dict, steps: int) -> dict:
    """What the goldens keep of one item's outcome."""
    record = {"rc": outcome.get("rc"), "steps": steps}
    if workload == "arith":
        record["stdout_sha256"] = sha256(outcome["stdout"])
    else:
        record["stdout"] = outcome["stdout"]
        if outcome.get("files"):
            record["files"] = outcome["files"]
    return record


def _expected_verdict(workload: str, item: dict) -> list[str]:
    """Problems with an outcome against answers that do not come from the program."""
    out, rc = item["stdout"], item["rc"]
    name = item["name"]
    problems = []
    if workload == "corpus":
        if name.startswith("check:negative/"):
            kind = _EXPECT.search(Path(item["argv"][1]).read_text("utf-8")).group(1)
            errors = [line for line in out.splitlines() if "error[" in line]
            if rc != 1:
                problems.append(f"exit {rc}, expected 1")
            if len(errors) != 1 or f"error[{kind}]" not in errors[0]:
                problems.append(f"expected exactly one error[{kind}] line, got {errors}")
        elif name.startswith("check:"):
            names = _PROOF_NAME.findall(Path(item["argv"][1]).read_text("utf-8"))
            echoed = re.findall(r": proof ([A-Za-z_][\w']*): ", out)
            if rc != 0:
                problems.append(f"exit {rc}, expected 0")
            if echoed != names:
                problems.append(f"echoed proofs {echoed}, expected {names}")
        elif rc != 0:
            problems.append(f"exit {rc}, expected 0")
    elif workload == "library":
        if name == "load":
            echoed = re.findall(r"^proof ([A-Za-z_][\w']*): ", out, re.M)
            if rc != 0 or echoed != library_proof_names():
                problems.append("library did not check every proof")
        elif name == "export" and out != "match":
            problems.append("export_prelude() differs from the packaged prelude.rtt")
        elif rc != 0:
            problems.append(f"{name} raised: {out}")
    elif workload == "arith":
        kind = item["kind"]
        if kind == "normalize":
            if rc != 0 or not out.startswith("normal form ("):
                problems.append(f"normalize: exit {rc}, output {out[:80]!r}")
        else:
            errors = [line for line in out.splitlines() if "error[" in line]
            if kind == "equal":
                forms = _NORMAL_FORM.findall(out)
                if rc != 0 or errors or ": proof s: " not in out:
                    problems.append(f"expected the proof to check, exit {rc}, {errors}")
                if len(forms) != 2 or forms[0] != forms[1]:
                    problems.append("add A B and C = A+B render different normal forms")
            else:
                want = "conversion-failed" if kind == "distinct" else "conversion-undecided"
                if rc != 1 or len(errors) != 1 or f"error[{want}]" not in errors[0]:
                    problems.append(f"expected one error[{want}], exit {rc}, {errors}")
    return problems


def check_item(workload: str, item: dict, outcome: dict, golden: dict, steps: int | None) -> list[str]:
    """Every way an item's outcome differs from its known answer.

    `steps` is the item's reduction.steps from a traced pass, or None for an
    untraced one.
    """
    merged = dict(item, **outcome)
    problems = _expected_verdict(workload, merged)
    want = golden.get(item["name"])
    if want is None:
        return problems + ["no golden for this item"]
    got = golden_record(workload, outcome, want["steps"] if steps is None else steps)
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            problems.append(f"{key} differs from the golden")
    return problems
