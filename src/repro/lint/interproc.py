"""Interprocedural layer: cross-module fork-safety and shm ownership.

PR 2's race analyzer (:mod:`repro.lint.races`) reasons about one module
at a time, which is enough for thread locksets but not for the process
boundary: the thing ``Process(target=...)`` captures is routinely
defined in *another* module than the one that starts the process.  This module builds a small cross-module
project model — one summary per file in the lint run, linked through
``from X import Y`` edges — and uses it for two rules:

- **RPR111 (fork-safety dataflow).**  A value that exists only in the
  parent process must not ride across ``Process(target=..., args=...)``:
  locks and other threading primitives (possibly held at fork), open
  file handles (shared offsets, double-close), live :class:`ShmRing`
  objects (the child must *attach*, not inherit — inherited rings dodge
  the registry/tracker hygiene), and tracer/registry singletons (their
  buffers would be forked mid-write).  The rule taints ``args`` values,
  closure captures of nested/lambda targets, bound-``self`` targets
  whose class stores a tainted attribute, and — via the project model —
  arguments smuggled inside a constructor call whose class is defined in
  another module.  Plain-data specs (strings, ints, ``.spec()``
  descriptors) pass.
- **RPR112 (shm resource ownership).**  Every ``ShmRing.create`` must
  be dominated by a release: the bound name (or ``self`` attribute)
  sees a ``.close()``/``.unlink()`` somewhere in the module, or the
  module calls ``sweep_created_segments`` (the registry sweep releases
  anything ``create`` registered).  A create whose result is dropped on
  the floor is always a leak.

Both rules are registered with ``scope="project"``: their verdict on a
file can change when a *different* file changes, so the incremental
cache ties their findings to the whole tree's hash, not the file's.

Stdlib-only, never imports the engine — like everything under
``repro.lint``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.framework import (
    Finding,
    SourceFile,
    register_project_builder,
    rule,
)

__all__ = ["ProjectModel", "current_project"]

_THREADING_PRIMITIVES = {
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "Event", "Barrier",
}
_SINGLETON_CTORS = {"Tracer", "MetricsRegistry", "FaultInjector"}
_RELEASE_METHODS = ("close", "unlink")
_TAINT_DEPTH = 4


# ---------------------------------------------------------------------- #
# Project model
# ---------------------------------------------------------------------- #


@dataclass
class ModuleSummary:
    """What the cross-module analyses need to know about one file."""

    sf: SourceFile
    dotted: str
    #: local alias -> (module spelled in the import, original name)
    imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    top_functions: dict[str, ast.AST] = field(default_factory=dict)
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)
    #: module-level ``name = <expr>`` assignments
    global_assigns: dict[str, ast.expr] = field(default_factory=dict)


def _dotted_name(sf: SourceFile) -> str:
    parts = list(sf.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _summarize(sf: SourceFile) -> ModuleSummary:
    summary = ModuleSummary(sf=sf, dotted=_dotted_name(sf))
    for node in sf.tree.body:
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                summary.imports[alias.asname or alias.name] = (
                    node.module, alias.name
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.top_functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            summary.classes[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    summary.global_assigns[target.id] = node.value
    return summary


class ProjectModel:
    """Every module of one lint run, linked by import edges."""

    def __init__(self, sources: list[SourceFile]) -> None:
        self.modules: list[ModuleSummary] = [_summarize(sf) for sf in sources]
        self.by_path: dict[str, ModuleSummary] = {
            m.sf.path: m for m in self.modules
        }
        self._by_dotted: dict[str, ModuleSummary] = {
            m.dotted: m for m in self.modules
        }

    def _find_module(self, spelled: str) -> ModuleSummary | None:
        if spelled in self._by_dotted:
            return self._by_dotted[spelled]
        for mod in self.modules:
            if mod.dotted.endswith("." + spelled) or spelled.endswith(
                "." + mod.dotted
            ):
                return mod
        return None

    def resolve_import(
        self, summary: ModuleSummary, name: str
    ) -> tuple[ModuleSummary, str] | None:
        """Follow one ``from X import name`` hop within the run."""
        origin = summary.imports.get(name)
        if origin is None:
            return None
        module = self._find_module(origin[0])
        if module is None:
            return None
        return module, origin[1]


_current_project: ProjectModel | None = None


def _build_project(sources: list[SourceFile]) -> None:
    global _current_project
    _current_project = ProjectModel(sources)


register_project_builder(_build_project)


def current_project() -> ProjectModel | None:
    """The model built for the lint run in progress (tests use this)."""
    return _current_project


# ---------------------------------------------------------------------- #
# Taint analysis
# ---------------------------------------------------------------------- #


def _callee_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _direct_taint(call: ast.Call) -> str | None:
    """Taint carried by this call expression itself (not its arguments)."""
    name = _callee_name(call)
    if name in _THREADING_PRIMITIVES:
        return f"a threading.{name} primitive"
    if name == "open" and isinstance(call.func, ast.Name):
        return "an open file handle"
    if (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in ("create", "attach")
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "ShmRing"
    ):
        return "a live ShmRing"
    if name in _SINGLETON_CTORS:
        return f"a process-local {name} singleton"
    return None


def _local_assigns(fn: ast.AST) -> dict[str, ast.expr]:
    """Simple ``name = <expr>`` bindings in ``fn``'s own body."""
    assigns: dict[str, ast.expr] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigns[target.id] = node.value
    return assigns


class _TaintContext:
    """Name resolution for one taint query."""

    def __init__(
        self,
        project: ProjectModel,
        summary: ModuleSummary,
        scope_assigns: dict[str, ast.expr],
        class_node: ast.ClassDef | None,
    ) -> None:
        self.project = project
        self.summary = summary
        self.scope_assigns = scope_assigns
        self.class_node = class_node

    def self_attr_taint(self, attr: str) -> str | None:
        """Taint of ``self.<attr>`` per the enclosing class's assignments."""
        if self.class_node is None:
            return None
        for method in self.class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            assigns = _local_assigns(method)
            for node in ast.walk(method):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == attr
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        taint = _expr_taint(node.value, self, assigns)
                        if taint:
                            return taint
        return None


def _expr_taint(
    expr: ast.expr | None,
    ctx: _TaintContext,
    scope_assigns: dict[str, ast.expr] | None = None,
    depth: int = 0,
) -> str | None:
    """Why ``expr`` must not cross the process boundary, or ``None``."""
    if expr is None or depth > _TAINT_DEPTH:
        return None
    assigns = scope_assigns if scope_assigns is not None else ctx.scope_assigns
    if isinstance(expr, ast.Call):
        direct = _direct_taint(expr)
        if direct:
            return direct
        # A constructor call smuggling a tainted value inside: resolve the
        # class locally or through an import edge, then taint its args.
        for sub in list(expr.args) + [kw.value for kw in expr.keywords]:
            taint = _expr_taint(sub, ctx, assigns, depth + 1)
            if taint:
                name = _callee_name(expr) or "a constructor"
                return f"a {name}(...) carrying {taint}"
        return None
    if isinstance(expr, ast.Name):
        bound = assigns.get(expr.id)
        if bound is None:
            bound = ctx.summary.global_assigns.get(expr.id)
        if bound is not None and bound is not expr:
            return _expr_taint(bound, ctx, assigns, depth + 1)
        return None
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return ctx.self_attr_taint(expr.attr)
    if isinstance(expr, (ast.Tuple, ast.List)):
        for elt in expr.elts:
            taint = _expr_taint(elt, ctx, assigns, depth + 1)
            if taint:
                return taint
        return None
    if isinstance(expr, ast.IfExp):
        return _expr_taint(expr.body, ctx, assigns, depth + 1) or _expr_taint(
            expr.orelse, ctx, assigns, depth + 1
        )
    return None


# ---------------------------------------------------------------------- #
# RPR111 — fork-safety dataflow
# ---------------------------------------------------------------------- #


def _parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _enclosing(
    node: ast.AST, parents: dict[ast.AST, ast.AST], kinds: tuple
) -> ast.AST | None:
    cursor = parents.get(node)
    while cursor is not None:
        if isinstance(cursor, kinds):
            return cursor
        cursor = parents.get(cursor)
    return None


def _free_loads(fn: ast.AST) -> set[str]:
    """Names ``fn`` loads but neither binds nor receives as parameters."""
    if isinstance(fn, ast.Lambda):
        params = {a.arg for a in fn.args.args}
        bound: set[str] = set()
        loads = {
            n.id
            for n in ast.walk(fn.body)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
    else:
        args = fn.args  # type: ignore[attr-defined]
        params = {
            a.arg
            for a in args.posonlyargs + args.args + args.kwonlyargs
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        }
        bound = {
            n.id
            for stmt in fn.body  # type: ignore[attr-defined]
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        loads = {
            n.id
            for stmt in fn.body  # type: ignore[attr-defined]
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
    return loads - params - bound


def _kwarg(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


@rule("RPR111", "fork-unsafe-capture", scope="project")
def check_fork_safety(sf: SourceFile) -> Iterator[Finding]:
    """Parent-process-only values must not cross ``Process(target=...)``.

    Locks, open file handles, live ``ShmRing`` objects, and
    tracer/registry singletons are meaningful only in the process that
    made them; capturing one in a worker's closure, passing it through
    ``args=``, or reaching it through a bound-method target forks state
    the child cannot safely use.  Spawn targets must be module-level
    functions fed plain data (the ``WorkerSpec`` pattern).
    """
    project = current_project()
    if project is None or sf.path not in project.by_path:
        return
    summary = project.by_path[sf.path]
    parents = _parent_map(sf.tree)

    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.Call):
            continue
        if _callee_name(node) != "Process":
            continue
        target = _kwarg(node, "target")
        if target is None:
            continue  # not the multiprocessing signature (e.g. sim.Process)
        encl_fn = _enclosing(
            node, parents, (ast.FunctionDef, ast.AsyncFunctionDef)
        )
        encl_class = _enclosing(node, parents, (ast.ClassDef,))
        scope_assigns = _local_assigns(encl_fn) if encl_fn is not None else {}
        ctx = _TaintContext(project, summary, scope_assigns, encl_class)

        # 1. The target itself: closures, lambdas, bound methods.
        if isinstance(target, ast.Lambda):
            for name in sorted(_free_loads(target)):
                taint = _expr_taint(ast.Name(id=name, ctx=ast.Load()), ctx)
                if taint:
                    yield sf.finding(
                        "RPR111", node,
                        f"Process target lambda captures '{name}' ({taint}) "
                        "from the parent process; spawn a module-level "
                        "function with plain-data args instead",
                    )
        elif isinstance(target, ast.Name):
            nested = None
            if encl_fn is not None:
                for sub in ast.walk(encl_fn):
                    if (
                        isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and sub.name == target.id
                        and sub is not encl_fn
                    ):
                        nested = sub
                        break
            if nested is not None:
                for name in sorted(_free_loads(nested)):
                    taint = _expr_taint(ast.Name(id=name, ctx=ast.Load()), ctx)
                    if taint:
                        yield sf.finding(
                            "RPR111", node,
                            f"Process target '{target.id}' closes over "
                            f"'{name}' ({taint}) from the parent process; "
                            "workers must start from a module-level function "
                            "with plain-data args",
                        )
            # Module-level functions — local or resolved through an import
            # edge — are safe targets by construction; nothing to do.
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            taint_attr = None
            if isinstance(encl_class, ast.ClassDef):
                for method in encl_class.body:
                    if not isinstance(
                        method, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    for sub in ast.walk(method):
                        if (
                            isinstance(sub, ast.Assign)
                            and any(
                                isinstance(t, ast.Attribute)
                                and isinstance(t.value, ast.Name)
                                and t.value.id == "self"
                                for t in sub.targets
                            )
                        ):
                            for t in sub.targets:
                                if not (
                                    isinstance(t, ast.Attribute)
                                    and isinstance(t.value, ast.Name)
                                    and t.value.id == "self"
                                ):
                                    continue
                                taint = ctx.self_attr_taint(t.attr)
                                if taint:
                                    taint_attr = (t.attr, taint)
                                    break
                        if taint_attr:
                            break
                    if taint_attr:
                        break
            if taint_attr is not None:
                yield sf.finding(
                    "RPR111", node,
                    f"Process target is the bound method "
                    f"'self.{target.attr}' of a class holding "
                    f"'self.{taint_attr[0]}' ({taint_attr[1]}); the whole "
                    "instance is pickled/forked into the child — spawn a "
                    "module-level function with plain-data args",
                )

        # 2. Everything passed through args=(...).
        args_val = _kwarg(node, "args")
        if isinstance(args_val, (ast.Tuple, ast.List)):
            for elt in args_val.elts:
                taint = _expr_taint(elt, ctx)
                if taint:
                    label = ast.unparse(elt)
                    yield sf.finding(
                        "RPR111", node,
                        f"Process args pass {label!r} ({taint}) across the "
                        "process boundary; ship plain data and re-create "
                        "the resource in the child",
                    )


# ---------------------------------------------------------------------- #
# RPR112 — shm resource ownership
# ---------------------------------------------------------------------- #


@rule("RPR112", "unreleased-shm-ring", scope="project")
def check_shm_ownership(sf: SourceFile) -> Iterator[Finding]:
    """Every ``ShmRing.create`` needs a release path or the sweep.

    A created segment outlives the process unless someone unlinks it.
    The create itself registers the segment with the created-segment
    registry, so a module that calls ``sweep_created_segments`` is
    covered; otherwise the binding (name or ``self`` attribute) must see
    a ``.close()`` or ``.unlink()`` somewhere in the module.  A create
    whose result is discarded can never be released by name and is
    always flagged (the sweep aside).
    """
    creates: list[tuple[ast.Call, str | None]] = []
    parents = _parent_map(sf.tree)
    sweeps = False
    released: set[str] = set()
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.Call):
            continue
        if _callee_name(node) == "sweep_created_segments":
            sweeps = True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "create"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "ShmRing"
        ):
            binding: str | None = None
            parent = parents.get(node)
            if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
                target = parent.targets[0]
                if isinstance(target, ast.Name):
                    binding = target.id
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    binding = target.attr
            creates.append((node, binding))
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _RELEASE_METHODS
        ):
            owner = node.func.value
            if isinstance(owner, ast.Name):
                released.add(owner.id)
            elif isinstance(owner, ast.Attribute):
                released.add(owner.attr)
    if sweeps:
        return
    for call, binding in creates:
        if binding is None:
            yield sf.finding(
                "RPR112", call,
                "ShmRing.create result is discarded; the segment can never "
                "be released by name — bind it and close/unlink it, or "
                "sweep via sweep_created_segments()",
            )
        elif binding not in released:
            yield sf.finding(
                "RPR112", call,
                f"ShmRing.create bound to '{binding}' is never closed or "
                "unlinked in this module, and the module never runs "
                "sweep_created_segments(); the segment leaks past process "
                "exit",
            )
