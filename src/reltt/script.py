"""Proof-script processing: name elaboration, statement execution,
diagnostics, structured dumps, and the generated library file.

A script's statements run in order against an environment of named terms,
types, and checked proofs. Definitions are expanded eagerly at their use
sites, so stored payloads never contain defined names; because the core
representation is locally nameless, expansion cannot capture binders. A
definition is expanded once, when it is defined, so a name defined later
never reaches into it.
Defined proof names are not abbreviations inside later proof terms; a proof
term referring to one is reported as an unbound proof variable.

Each failing statement yields exactly one error diagnostic and processing
continues with the following statements, so one broken proof does not hide
diagnostics for independent ones. Exit status is success exactly when no
error diagnostics were produced. The `proof NAME: ...` echo of a checked
proof is rendered the first time its message is read, so a caller that
never reads it, such as the packaged library's loader, never renders it.

Dumps are line-delimited JSON with sorted keys, UTF-8, rendered through the
surface syntax so terms and types round-trip through the parser. The System F
dump re-checks each proof under the fuel it was checked with.

The packaged library (`prelude.rtt`) is read in two parts. Its `type` and
`def` statements load eagerly: they are terms and types, not claims, and
they are all a user script can build on. Its `*_wit` proofs are claims
about those terms. No user result rests on them, since proof names are not
abbreviations and dumps cover only a run's own proofs, so each is kept as
its source text and parsed and checked the first time it is read (`#check
NAME`, `env.proofs[NAME]`, `.values()`), once per process and fuel. Every
witness is still checked: by the Tier-1 tests, by the benchmark's `library`
workload, which runs the whole file through `run_script`, and on demand.
A witness that fails to check raises `LibraryError` when it is read.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from functools import lru_cache
from pathlib import Path

from .analysis import (
    MINUS,
    PLUS,
    AnalysisError,
    forall_class,
    is_simple_transitive,
    is_symmetric,
    polarity_holds,
)
from .derived import bool_, nat, unit
from .kernel import (
    KernelError,
    PApp,
    PConv,
    PConvE,
    PConvI,
    PIota,
    PLam,
    PPair,
    PPi,
    PRho,
    PTyApp,
    PTyLam,
    PVar,
    Proof,
    RelPfNode,
    check_declared,
    to_relpf,
)
from .records import dataclass, field
from .reduction import DEFAULT_FUEL, FUEL_EXHAUSTED, normalize
from .surface import (
    Command,
    Pragma,
    ProofDef,
    Script,
    TermDef,
    TypeDef,
    parse,
    render_judgment,
    render_proof,
    render_term,
    render_type,
)
from .syntax import (
    Context,
    ContextEntry,
    Judgment,
    RelType,
    TVar,
    Term,
    free_type_vars,
    rebuild_type,
    subst_term_multi,
    subst_terms_in_type,
)
from .systemf import (
    FError,
    erase_proof,
    project_ctx,
    project_derivation,
    validate_f,
)


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    span: tuple[int, int]
    kind: str
    message: str

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: the message of an
        # echo (see `_echo`) is rendered the first time it is read.
        render = self.__dict__.get("_render")
        if name != "message" or render is None:
            raise AttributeError(name)
        message = render()
        object.__setattr__(self, "message", message)
        return message


def _echo(span: tuple[int, int], name: str, judgment: Judgment) -> Diagnostic:
    """The `proof NAME: ...` note for a checked proof, rendered only if it is read."""
    d = object.__new__(Diagnostic)
    for attr, value in (("severity", "info"), ("span", span), ("kind", "note")):
        object.__setattr__(d, attr, value)
    object.__setattr__(d, "_render", lambda: f"proof {name}: {render_judgment(judgment)}")
    return d


@dataclass(frozen=True)
class CheckedProof:
    name: str
    ctx: Context
    judgment: Judgment
    proof: Proof
    fuel: int  # the fuel the proof was checked under; dumps re-check with it


class Proofs(Mapping):
    """Checked proofs by name, in the order they were added.

    A value may also be a library witness held as its source text (see
    `_Witness`); reading it (`proofs[name]`, `.values()`, `.items()`) checks
    it. `in`, `len`, iteration over the names and `copy` check nothing.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries=()) -> None:
        self._entries = dict(entries)

    def __getitem__(self, name: str) -> CheckedProof:
        value = self._entries[name]
        return value.read() if type(value) is _Witness else value

    def __setitem__(self, name: str, proof: "CheckedProof | _Witness") -> None:
        self._entries[name] = proof

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def copy(self) -> "Proofs":
        return Proofs(self._entries)


@dataclass
class Env:
    terms: dict[str, Term] = field(default_factory=dict)
    types: dict[str, RelType] = field(default_factory=dict)
    proofs: dict[str, CheckedProof] | Proofs = field(default_factory=dict)

    def copy(self) -> "Env":
        return Env(dict(self.terms), dict(self.types), self.proofs.copy())


@dataclass
class RunResult:
    diagnostics: list[Diagnostic]
    env: Env
    checked: list[CheckedProof] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)


# ---------------------------------------------------------------------------
# Name elaboration
# ---------------------------------------------------------------------------


def _without_terms(env: Env, names: tuple[str, ...]) -> Env:
    if not any(n in env.terms for n in names):
        return env
    return Env({n: t for n, t in env.terms.items() if n not in names}, env.types, env.proofs)


def _without_type(env: Env, name: str) -> Env:
    if name not in env.types:
        return env
    return Env(env.terms, {n: r for n, r in env.types.items() if n != name}, env.proofs)


def _elab_term(t: Term, env: Env) -> Term:
    return subst_term_multi(env.terms, t) if env.terms else t


def _elab_type(r: RelType, env: Env) -> RelType:
    """Expand the type names of `env.types` and, inside promotions, the term
    names of `env.terms`, in one simultaneous pass. An expansion is not walked
    again, so a name defined later never reaches into an earlier `type`."""
    types, terms = env.types, env.terms
    if not (types or terms):
        return r

    def leaf(x: RelType, d: int) -> RelType:
        if type(x) is TVar:
            return types.get(x.name, x)
        return subst_terms_in_type(terms, x)

    return rebuild_type(r, leaf)


def _elab_entry(e: ContextEntry, env: Env) -> ContextEntry:
    return ContextEntry(
        e.pvar, _elab_term(e.left, env), _elab_type(e.rel, env), _elab_term(e.right, env)
    )


def _elab_judgment(j: Judgment, env: Env) -> Judgment:
    return Judgment(_elab_term(j.left, env), _elab_type(j.rel, env), _elab_term(j.right, env))


def _define(stmt: TermDef | TypeDef, env: Env) -> Diagnostic | None:
    """Add a `def` or `type` to env, expanded once against the definitions
    before it. A name that is already defined is an error and is skipped."""
    if stmt.name in env.terms or stmt.name in env.types:
        return Diagnostic("error", stmt.span, "redefinition", f"'{stmt.name}' is already defined")
    if isinstance(stmt, TermDef):
        env.terms[stmt.name] = _elab_term(stmt.term, env)
    else:
        env.types[stmt.name] = _elab_type(stmt.rel, env)
    return None


def _elab_proof(p: Proof, env: Env) -> Proof:
    match p:
        case PVar(_):
            return p
        case PLam(pvar, sl, rel, sr, body):
            inner = _without_terms(env, (sl, sr))
            return PLam(pvar, sl, _elab_type(rel, env), sr, _elab_proof(body, inner), span=p.span)
        case PApp(fn, arg):
            return PApp(_elab_proof(fn, env), _elab_proof(arg, env), span=p.span)
        case PTyApp(fn, rel):
            return PTyApp(_elab_proof(fn, env), _elab_type(rel, env), span=p.span)
        case PTyLam(tv, body):
            return PTyLam(tv, _elab_proof(body, _without_type(env, tv)), span=p.span)
        case PConv(left, body, right):
            return PConv(
                _elab_term(left, env), _elab_proof(body, env), _elab_term(right, env), span=p.span
            )
        case PConvI(body):
            return PConvI(_elab_proof(body, env), span=p.span)
        case PConvE(body):
            return PConvE(_elab_proof(body, env), span=p.span)
        case PIota(left, promoted):
            return PIota(_elab_term(left, env), _elab_term(promoted, env), span=p.span)
        case PRho(g, tl, tr, eq, body):
            guarded = _without_terms(env, (g,))
            return PRho(
                g,
                _elab_term(tl, guarded),
                _elab_term(tr, guarded),
                _elab_proof(eq, env),
                _elab_proof(body, env),
                span=p.span,
            )
        case PPair(left, right, mid):
            return PPair(
                _elab_proof(left, env), _elab_proof(right, env), _elab_term(mid, env), span=p.span
            )
        case PPi(scrut, mid, pl, pr, body):
            return PPi(
                _elab_proof(scrut, env),
                mid,
                pl,
                pr,
                _elab_proof(body, _without_terms(env, (mid,))),
                span=p.span,
            )
    raise TypeError(f"not a proof: {p!r}")


# ---------------------------------------------------------------------------
# Statement execution
# ---------------------------------------------------------------------------


def _analysis_report(r: RelType, fuel: int) -> list[str]:
    lines = []
    for x in sorted(free_type_vars(r)):
        pos = polarity_holds(x, PLUS, r)
        neg = polarity_holds(x, MINUS, r)
        lines.append(f"{x}: positive={pos} negative={neg}")
    lines.append(f"quantifier class: {forall_class(r, fuel)}")
    lines.append(f"symmetric shape: {is_symmetric(r, fuel)}")
    lines.append(f"simple transitive shape: {is_simple_transitive(r, fuel)}")
    return lines


def _relpf_lines(node: RelPfNode, depth: int = 0) -> list[str]:
    own = f"{'  ' * depth}{node.rule}: {render_judgment(node.judgment)}"
    lines = [own]
    for child in node.children:
        lines.extend(_relpf_lines(child, depth + 1))
    return lines


def _check_proof(stmt: ProofDef, env: Env, fuel: int) -> CheckedProof:
    """Elaborate a `proof` statement against env and check it under fuel;
    a proof that does not check raises `KernelError`."""
    ctx = tuple(_elab_entry(e, env) for e in stmt.ctx)
    proof = _elab_proof(stmt.proof, env)
    judgment = check_declared(ctx, proof, _elab_judgment(stmt.judgment, env), fuel)
    return CheckedProof(stmt.name, ctx, judgment, proof, fuel)


def run_script(
    script: Script,
    fuel: int = DEFAULT_FUEL,
    env: Env | None = None,
    trace: bool = False,
) -> RunResult:
    env = env.copy() if env is not None else Env()
    diags: list[Diagnostic] = []
    checked: list[CheckedProof] = []
    file_fuel = fuel

    def error(span, kind, message):
        diags.append(Diagnostic("error", span, kind, message))

    def info(span, message):
        diags.append(Diagnostic("info", span, "note", message))

    for stmt in script.statements:
        match stmt:
            case TermDef() | TypeDef():
                diag = _define(stmt, env)
                if diag is not None:
                    diags.append(diag)
            case ProofDef(name=name, span=span):
                if name in env.proofs:
                    error(span, "redefinition", f"'{name}' is already defined")
                    continue
                try:
                    record = _check_proof(stmt, env, file_fuel)
                except KernelError as e:
                    error(e.location or span, e.kind, str(e))
                    continue
                env.proofs[name] = record
                checked.append(record)
                diags.append(_echo(span, name, record.judgment))
                if trace:
                    tree = to_relpf(record.ctx, record.proof, file_fuel)
                    info(span, "\n".join(_relpf_lines(tree)))
            case Pragma("fuel", count, span):
                file_fuel = count
            case Command("normalize", term, span):
                result = normalize(_elab_term(term, env), file_fuel)
                if result.status == FUEL_EXHAUSTED:
                    info(
                        span,
                        f"fuel exhausted after {result.steps_used} steps at "
                        f"{render_term(result.term)}",
                    )
                else:
                    info(
                        span,
                        f"normal form: {render_term(result.term)} "
                        f"({result.steps_used} steps)",
                    )
            case Command("analyze", rel, span):
                try:
                    for line in _analysis_report(_elab_type(rel, env), file_fuel):
                        info(span, line)
                except AnalysisError as e:
                    error(span, "analysis-undecided", str(e))
            case Command("check", name, span):
                if name not in env.proofs:
                    error(span, "unknown-name", f"no proof named '{name}'")
                else:
                    diags.append(_echo(span, name, env.proofs[name].judgment))
            case Command("dump", what, span):
                payload = dump(checked, what)
                for line in payload.decode("utf-8").splitlines():
                    info(span, line)
            case _:
                raise TypeError(f"not a statement: {stmt!r}")
    return RunResult(diags, env, checked)


# ---------------------------------------------------------------------------
# Dumps
# ---------------------------------------------------------------------------


def _records(entries: list[CheckedProof], what: str) -> list[dict]:
    records = []
    for e in entries:
        if what == "judgments":
            records.append(
                {
                    "name": e.name,
                    "left": render_term(e.judgment.left),
                    "type": render_type(e.judgment.rel),
                    "right": render_term(e.judgment.right),
                }
            )
        elif what == "erasures":
            records.append({"name": e.name, "erasure": render_term(erase_proof(e.proof))})
        elif what == "systemf":
            try:
                deriv = project_derivation(e.ctx, e.proof, e.judgment, e.fuel)
                subject, ftype = validate_f(project_ctx(e.ctx), deriv)
                records.append(
                    {
                        "name": e.name,
                        "subject": render_term(subject),
                        "type": render_type(ftype),
                    }
                )
            except (KernelError, FError) as err:
                records.append({"name": e.name, "error": str(err)})
        else:
            raise ValueError(f"unknown dump target '{what}'")
    return records


def dump(entries: list[CheckedProof], what: str) -> bytes:
    lines = [json.dumps(r, sort_keys=True, ensure_ascii=False) for r in _records(entries, what)]
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


# ---------------------------------------------------------------------------
# The generated library file
# ---------------------------------------------------------------------------

_PRELUDE_HEADER = """\
-- The checked combinator library, generated from reltt.prelude.
-- Regenerate with `python -m reltt.gen_prelude`; do not edit by hand.
"""

_PRELUDE_TYPES = (("Unit", unit), ("Bool", bool_), ("Nat", nat))


def export_prelude() -> str:
    """Render the standard library as a proof script."""
    from .prelude import stdlib

    lines = [_PRELUDE_HEADER]
    for name, form in _PRELUDE_TYPES:
        lines.append(f"type {name} := {render_type(form())}")
    lines.append("")
    lib = stdlib()
    for name, entry in lib.items():
        lines.append(f"def {name} := {render_term(entry.term)}")
    lines.append("")
    for name, entry in lib.items():
        lines.append(
            f"proof {name}_wit : [] |- {render_judgment(entry.judgment)} := "
            f"{render_proof(entry.proof)}"
        )
    return "\n".join(lines) + "\n"


def prelude_source() -> str:
    # Read beside this module, not through `importlib.resources`, which
    # imports `inspect` on Python 3.12 and later.
    return Path(__file__).with_name("prelude.rtt").read_text("utf-8")


class LibraryError(RuntimeError):
    """The packaged library parsed but failed to check.

    Its own class, so that the CLI can report it as a configuration error
    while any other failure during the load (a `RecursionError` is a
    `RuntimeError` too) stays an internal error.
    """


_LIBRARY_FAILED = "the packaged library failed to check: "


class _Witness:
    """A library proof kept as its source text until it is first read, then
    parsed, elaborated against the library's definitions and checked once."""

    __slots__ = ("source", "start", "end", "env", "fuel", "checked")

    def __init__(self, source: str, start: int, end: int, env: Env, fuel: int) -> None:
        self.source, self.start, self.end = source, start, end
        self.env, self.fuel, self.checked = env, fuel, None

    def read(self) -> CheckedProof:
        if self.checked is None:
            # Padded in front, so that its spans are offsets into the library
            # file, as in a load of the whole file.
            text = " " * self.start + self.source[self.start : self.end]
            (stmt,) = parse(text, allow_dotted=True).statements
            try:
                self.checked = _check_proof(stmt, self.env, self.fuel)
            except KernelError as e:
                raise LibraryError(_LIBRARY_FAILED + str(e)) from None
        return self.checked


# `proof`, `def` and `type` are keywords, and every statement begins with one
# of them or with `#`, so in text without comments these words mark statements.
_FIRST_PROOF_LINE = re.compile(r"^proof\b(?!')", re.M)
_PROOF_WORD = re.compile(r"\bproof\b(?!')(?:\s+([^\W\d]\w*'*))?")
_NOT_A_PROOF = re.compile(r"--|\b(?:def|type)\b")


def _split_library(source: str) -> tuple[int, list[tuple[str, int, int]]]:
    """Where the library's eager part ends, and each witness after it as
    (name, start, end).

    The witnesses are the statements from the first line that begins with
    `proof` to the end. The split is a scan of the text, not a parse, so it is
    made only where the scan is sure: no `proof` comes before that line, and
    the source holds no `#` (so every witness is checked at the load's fuel),
    and after that line no comment, `def` or `type`, and `proof` statements
    with distinct names. Otherwise the whole source is the eager part.
    """
    first = _FIRST_PROOF_LINE.search(source)
    if (
        first is None
        or _PROOF_WORD.search(source, 0, first.start())
        or _NOT_A_PROOF.search(source, first.start())
        or "#" in source
    ):
        return len(source), []
    marks = list(_PROOF_WORD.finditer(source, first.start()))
    names = [m[1] for m in marks]
    if None in names or len(set(names)) < len(names):
        return len(source), []
    ends = [m.start() for m in marks[1:]] + [len(source)]
    return first.start(), [(m[1], m.start(), end) for m, end in zip(marks, ends)]


@lru_cache(maxsize=None)
def _prelude_env(fuel: int) -> Env:
    source = prelude_source()
    eager, witnesses = _split_library(source)
    result = run_script(parse(source[:eager], allow_dotted=True), fuel)
    if not result.ok:
        problems = [d.message for d in result.diagnostics if d.severity == "error"]
        raise LibraryError(_LIBRARY_FAILED + "; ".join(problems))
    env = result.env
    env.proofs = Proofs(env.proofs)
    for name, start, end in witnesses:
        env.proofs[name] = _Witness(source, start, end, env, fuel)
    return env


def prelude_env(fuel: int = DEFAULT_FUEL) -> Env:
    """The environment of the packaged library file: its types and
    definitions, and its proofs, each checked the first time it is read."""
    return _prelude_env(fuel).copy()
