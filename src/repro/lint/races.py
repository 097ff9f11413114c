"""Lock-discipline race analyzer (RPR101 unguarded writes, RPR102 cycles).

A lightweight, per-module lockset analysis for what still runs threads:
the serial loop's parse-prefetch pool (``engine._Build.make_parsed_stream``),
the profiler's sampler thread and the fault-injection hooks they reach
(the multiprocess backend's supervision is passive — it runs on the
engine thread, inside the wait for the next parsed file):

1. **Worker entries.**  A function is a worker entry when it is passed to
   ``Thread(target=...)`` / ``pool.submit(...)`` / ``executor.map(...)``,
   or carries a ``# repro-lint: worker-entry`` marker (for callbacks
   invoked from worker threads through an indirection the AST cannot
   follow, e.g. the injected container read path).
2. **Worker-reachable set.**  Entries plus everything they transitively
   call or reference by name inside the same module (bare calls, ``self``
   method calls, and functions passed as callbacks).
3. **Shared state.**  ``self.<attr>`` accessed from worker-reachable
   methods, and module globals read there that some function declares
   ``global``.
4. **RPR101.**  Any write to shared state — from *any* function, worker
   or not — must be lexically inside a ``with <lock>`` block, in
   ``__init__``/``__post_init__`` (happens-before thread start), through
   a ``threading.local()`` object, through a parameter (ownership was
   passed in), or vetted in the allowlist file.
5. **RPR102.**  Nested ``with lockA: … with lockB:`` pairs define a
   lock-order graph; a cycle means two code paths can acquire the same
   locks in opposite orders and deadlock.

The allowlist (``race_allowlist.txt`` next to this module, overridable
via :func:`set_allowlist_path`) holds vetted single-writer fields as
``<path-suffix>::<Class.attr | global>`` lines.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.framework import Finding, SourceFile, rule

__all__ = [
    "set_allowlist_path",
    "load_allowlist",
    "load_allowlist_lines",
    "stale_allowlist_findings",
    "allowlist_path",
    "DEFAULT_ALLOWLIST_PATH",
    "USED_ALLOWLIST_FACT",
]

DEFAULT_ALLOWLIST_PATH = os.path.join(os.path.dirname(__file__), "race_allowlist.txt")

_allowlist_path = DEFAULT_ALLOWLIST_PATH
_LOCKISH_RE = re.compile(r"lock|mutex", re.IGNORECASE)
_POOL_DISPATCH = ("submit", "map", "apply_async")


#: Fact kind under which RPR101 records every allowlist entry that
#: actually suppressed (or would suppress) a finding — the staleness
#: check consumes these, and the cache replays them on hits.
USED_ALLOWLIST_FACT = "race-allowlist-used"


def set_allowlist_path(path: str | None) -> None:
    """Point the analyzer at a different allowlist (``None`` = default)."""
    global _allowlist_path
    _allowlist_path = path if path is not None else DEFAULT_ALLOWLIST_PATH


def allowlist_path() -> str:
    """The allowlist file the analyzer currently consults."""
    return _allowlist_path


def load_allowlist_lines(path: str | None = None) -> list[tuple[int, str, str]]:
    """Parse ``<path-suffix>::<key>`` lines as ``(lineno, suffix, key)``."""
    target = path if path is not None else _allowlist_path
    entries: list[tuple[int, str, str]] = []
    if not os.path.exists(target):
        return entries
    with open(target, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "::" not in line:
                raise ValueError(
                    f"{target}: malformed allowlist line {line!r} "
                    "(expected <path-suffix>::<Class.attr | global>)"
                )
            suffix, key = line.split("::", 1)
            entries.append((lineno, suffix.strip(), key.strip()))
    return entries


def load_allowlist(path: str | None = None) -> list[tuple[str, str]]:
    """Parse ``<path-suffix>::<key>`` lines; ``#`` starts a comment."""
    return [(suffix, key) for _, suffix, key in load_allowlist_lines(path)]


def _allowlisted(
    path: str, key: str, entries: list[tuple[str, str]]
) -> tuple[str, str] | None:
    """The matching allowlist entry, or ``None``."""
    short = key.rsplit(".", 1)[-1]
    for suffix, entry_key in entries:
        if not path.endswith(suffix):
            continue
        if key == entry_key or short == entry_key.rsplit(".", 1)[-1]:
            return (suffix, entry_key)
    return None


def stale_allowlist_findings(
    files: list[str], used: set[str], path: str | None = None
) -> list[Finding]:
    """RPR103 findings for entries that no longer match any source.

    An entry is *stale* when its file suffix matched a file the run
    actually analyzed, yet the entry never suppressed anything there —
    the vetted write it documented is gone.  Entries whose file was not
    part of the run are left alone (nothing can be concluded).  Like the
    mypy bridge (RPR201), this runs at the CLI layer, not as a
    registered per-file rule: its input is a whole run, not one file.
    """
    target = path if path is not None else _allowlist_path
    findings: list[Finding] = []
    for lineno, suffix, key in load_allowlist_lines(target):
        if not any(f.endswith(suffix) for f in files):
            continue
        if f"{suffix}::{key}" in used:
            continue
        findings.append(
            Finding(
                "RPR103",
                target.replace(os.sep, "/"),
                lineno,
                1,
                f"stale race-allowlist entry '{suffix}::{key}': no write in "
                f"the analyzed tree matches it any more — remove the entry "
                "(or re-vet the code it used to cover)",
            )
        )
    return findings


# ---------------------------------------------------------------------- #
# Module model
# ---------------------------------------------------------------------- #


@dataclass(eq=False)  # identity semantics: _Func objects live in sets
class _Func:
    """One function/method with the scope facts the analysis needs."""

    node: ast.FunctionDef | ast.AsyncFunctionDef
    qualname: str
    class_name: str | None
    parent: "_Func | None"
    params: set[str] = field(default_factory=set)
    locals: set[str] = field(default_factory=set)
    globals_decl: set[str] = field(default_factory=set)
    nonlocals_decl: set[str] = field(default_factory=set)

    def resolves_locally(self, name: str) -> bool:
        """Is ``name`` a parameter/local of this or an enclosing function?"""
        func: _Func | None = self
        while func is not None:
            if name in func.params or name in func.locals:
                return True
            func = func.parent
        return False


def _own_walk(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Yield nodes of ``fn``'s body without descending into nested defs."""
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.append(child)


class _ModuleModel:
    """Functions, thread-locals, and name resolution for one module."""

    def __init__(self, sf: SourceFile) -> None:
        self.sf = sf
        self.functions: list[_Func] = []
        self.by_node: dict[ast.AST, _Func] = {}
        self.by_name: dict[str, list[_Func]] = {}
        self.threadlocals: set[str] = set()
        self._collect(sf.tree, class_name=None, parent=None, prefix="")
        for tl in ast.walk(sf.tree):
            if (
                isinstance(tl, ast.Assign)
                and isinstance(tl.value, ast.Call)
                and self._is_threading_local(tl.value.func)
            ):
                for target in tl.targets:
                    if isinstance(target, ast.Name):
                        self.threadlocals.add(target.id)

    @staticmethod
    def _is_threading_local(func: ast.expr) -> bool:
        if isinstance(func, ast.Name) and func.id == "local":
            return True
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "local"
            and isinstance(func.value, ast.Name)
            and func.value.id == "threading"
        )

    def _collect(
        self,
        node: ast.AST,
        class_name: str | None,
        parent: _Func | None,
        prefix: str,
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._collect(child, child.name, parent, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = _Func(
                    node=child,
                    qualname=f"{prefix}{child.name}",
                    class_name=class_name,
                    parent=parent,
                )
                args = child.args
                for arg in (
                    args.posonlyargs + args.args + args.kwonlyargs
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else [])
                ):
                    func.params.add(arg.arg)
                for sub in _own_walk(child):
                    if isinstance(sub, ast.Global):
                        func.globals_decl.update(sub.names)
                    elif isinstance(sub, ast.Nonlocal):
                        func.nonlocals_decl.update(sub.names)
                    elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                        func.locals.add(sub.id)
                self.functions.append(func)
                self.by_node[child] = func
                self.by_name.setdefault(child.name, []).append(func)
                self._collect(child, class_name, func, f"{prefix}{child.name}.")
            else:
                # Recurse through if/try/with blocks so defs nested in
                # control flow still register under the right scope.
                self._collect(child, class_name, parent, prefix)

    def methods_of(self, class_name: str | None) -> dict[str, _Func]:
        return {
            f.node.name: f for f in self.functions if f.class_name == class_name
        }

    def statements_of(self, func: _Func) -> Iterator[ast.AST]:
        """Walk ``func``'s own body, not its nested function definitions."""
        return _own_walk(func.node)


# ---------------------------------------------------------------------- #
# Worker-reachable set
# ---------------------------------------------------------------------- #


def _worker_entries(model: _ModuleModel) -> set[_Func]:
    entries: set[_Func] = set()
    marker_lines = model.sf.worker_entry_lines()
    for func in model.functions:
        if func.node.lineno in marker_lines or (func.node.lineno - 1) in marker_lines:
            entries.add(func)
    for node in ast.walk(model.sf.tree):
        if not isinstance(node, ast.Call):
            continue
        candidates: list[ast.expr] = []
        func_expr = node.func
        if isinstance(func_expr, ast.Attribute) and func_expr.attr in _POOL_DISPATCH:
            if node.args:
                candidates.append(node.args[0])
        if (
            isinstance(func_expr, ast.Name) and func_expr.id == "Thread"
        ) or (
            isinstance(func_expr, ast.Attribute) and func_expr.attr == "Thread"
        ):
            for kw in node.keywords:
                if kw.arg == "target":
                    candidates.append(kw.value)
        for cand in candidates:
            if isinstance(cand, ast.Name):
                entries.update(model.by_name.get(cand.id, ()))
            elif (
                isinstance(cand, ast.Attribute)
                and isinstance(cand.value, ast.Name)
                and cand.value.id == "self"
            ):
                entries.update(model.by_name.get(cand.attr, ()))
    return entries


def _reachable(model: _ModuleModel, entries: set[_Func]) -> set[_Func]:
    reached = set(entries)
    frontier = list(entries)
    while frontier:
        func = frontier.pop()
        for node in model.statements_of(func):
            targets: list[_Func] = []
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                targets.extend(model.by_name.get(node.id, ()))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                method = model.methods_of(func.class_name).get(node.attr)
                if method is not None:
                    targets.append(method)
            for target in targets:
                if target not in reached:
                    reached.add(target)
                    frontier.append(target)
    return reached


def _shared_state(
    model: _ModuleModel, workers: set[_Func]
) -> tuple[set[tuple[str, str]], set[str]]:
    """(class, attr) pairs and global names touched by worker code."""
    shared_attrs: set[tuple[str, str]] = set()
    module_globals_decl: set[str] = set()
    for func in model.functions:
        module_globals_decl.update(func.globals_decl)
    shared_globals: set[str] = set()
    for func in workers:
        for node in model.statements_of(func):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and func.class_name is not None
            ):
                shared_attrs.add((func.class_name, node.attr))
            elif isinstance(node, ast.Name) and node.id in module_globals_decl:
                shared_globals.add(node.id)
    return shared_attrs, shared_globals


# ---------------------------------------------------------------------- #
# Write-site scan (RPR101)
# ---------------------------------------------------------------------- #

_CONSTRUCTORS = ("__init__", "__post_init__", "__new__")


def _base_of_target(target: ast.expr) -> ast.expr:
    """Peel subscripts/attribute chains down to the owning expression.

    ``self._hits[key]`` → ``self._hits`` (the shared container);
    ``obj.attr`` → ``obj.attr``.
    """
    while isinstance(target, ast.Subscript):
        target = target.value
    return target


def _write_targets(node: ast.AST) -> Iterator[ast.expr]:
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                yield from target.elts
            else:
                yield target
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        if isinstance(node, ast.AnnAssign) and node.value is None:
            return
        yield node.target


def _locked_spans(func: _Func) -> list[tuple[int, int]]:
    """(first, last) line ranges of ``with <lock>`` bodies in ``func``."""
    spans: list[tuple[int, int]] = []
    for node in ast.walk(func.node):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            expr = ast.unparse(item.context_expr)
            if _LOCKISH_RE.search(expr):
                last = max(
                    (getattr(n, "end_lineno", n.lineno) or n.lineno)
                    for n in ast.walk(node)
                    if hasattr(n, "lineno")
                )
                spans.append((node.lineno, last))
                break
    return spans


def _is_locked(lineno: int, spans: list[tuple[int, int]]) -> bool:
    return any(first <= lineno <= last for first, last in spans)


@rule("RPR101", "unguarded-shared-write")
def check_unguarded_writes(sf: SourceFile) -> Iterator[Finding]:
    """Writes to state shared with worker threads must hold a lock.

    State is *shared* when worker-reachable code touches it; every write
    — including main-thread writes racing worker reads — needs a lock,
    construction-time initialization, thread-local storage, or a vetted
    allowlist entry (``race_allowlist.txt``).
    """
    model = _ModuleModel(sf)
    workers = _reachable(model, _worker_entries(model))
    if not workers:
        return
    shared_attrs, shared_globals = _shared_state(model, workers)
    shared_attr_names = {attr for _, attr in shared_attrs}
    allow = load_allowlist()

    for func in model.functions:
        if func.node.name in _CONSTRUCTORS:
            continue
        spans = _locked_spans(func)
        for node in model.statements_of(func):
            for raw_target in _write_targets(node):
                target = _base_of_target(raw_target)
                key: str | None = None
                desc = ""
                if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
                    base = target.value.id
                    if base in model.threadlocals:
                        continue
                    if base == "self":
                        if (func.class_name, target.attr) in shared_attrs:
                            key = f"{func.class_name}.{target.attr}"
                            desc = f"attribute 'self.{target.attr}'"
                    elif not func.resolves_locally(base):
                        # Write through a module-level object (e.g. the
                        # installed injector): match shared attrs by name.
                        if target.attr in shared_attr_names:
                            key = target.attr
                            desc = f"attribute '{base}.{target.attr}'"
                elif isinstance(target, ast.Name):
                    if target.id in func.globals_decl and target.id in shared_globals:
                        key = target.id
                        desc = f"module global '{target.id}'"
                    elif (
                        target.id in func.nonlocals_decl
                        and func in workers
                    ):
                        key = target.id
                        desc = f"closure variable '{target.id}'"
                if key is None:
                    continue
                if _is_locked(node.lineno, spans):
                    continue
                matched = _allowlisted(sf.path, key, allow)
                if matched is not None:
                    sf.record_fact(USED_ALLOWLIST_FACT, f"{matched[0]}::{matched[1]}")
                    continue
                yield sf.finding(
                    "RPR101",
                    node,
                    f"unguarded write to {desc} in '{func.qualname}' — it is "
                    "shared with worker-entry code; guard with a lock or add "
                    "a vetted race_allowlist.txt entry",
                )


# ---------------------------------------------------------------------- #
# Lock-order cycles (RPR102)
# ---------------------------------------------------------------------- #


@rule("RPR102", "lock-order-cycle")
def check_lock_order(sf: SourceFile) -> Iterator[Finding]:
    """Nested lock acquisitions must follow one global order.

    ``with A: with B`` in one path and ``with B: with A`` in another can
    deadlock; the analyzer builds the acquisition graph over all nested
    ``with <lock>`` statements and reports every cycle once.
    """
    edges: dict[tuple[str, str], ast.AST] = {}

    def visit(node: ast.AST, held: tuple[str, ...]) -> None:
        acquired = held
        if isinstance(node, (ast.With, ast.AsyncWith)):
            names = [
                ast.unparse(item.context_expr)
                for item in node.items
                if _LOCKISH_RE.search(ast.unparse(item.context_expr))
            ]
            for name in names:
                for outer in acquired:
                    if outer != name:
                        edges.setdefault((outer, name), node)
                acquired = acquired + (name,)
        for child in ast.iter_child_nodes(node):
            visit(child, acquired)

    visit(sf.tree, ())

    graph: dict[str, set[str]] = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)

    reported: set[frozenset[str]] = set()

    def find_cycle(start: str) -> list[str] | None:
        stack: list[tuple[str, list[str]]] = [(start, [start])]
        while stack:
            node, path = stack.pop()
            for succ in graph.get(node, ()):
                if succ == start:
                    return path + [start]
                if succ not in path:
                    stack.append((succ, path + [succ]))
        return None

    for start in sorted(graph):
        cycle = find_cycle(start)
        if cycle is None:
            continue
        members = frozenset(cycle)
        if members in reported:
            continue
        reported.add(members)
        anchor = edges[(cycle[0], cycle[1])]
        yield sf.finding(
            "RPR102",
            anchor,
            "lock-order cycle: " + " -> ".join(cycle) + " — two paths acquire "
            "these locks in opposite orders and can deadlock",
        )
