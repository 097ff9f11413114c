"""Paper-invariant lint rules (RPR001–RPR008, RPR110).

Each rule documents the invariant it protects and the paper section the
invariant comes from.  Rules are pure AST checks over one
:class:`~repro.lint.framework.SourceFile`; suppressions are handled by
the framework.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.framework import Finding, SourceFile, rule

__all__ = ["LAYOUT_LITERALS", "GATED_PACKAGES", "CLOCK_FNS"]

#: Table I/II values that must never be re-typed outside
#: ``repro/dictionary/layout.py``: the 512-byte node (Table II), the
#: 17,613-entry trie table and its 26³ = 17,576 tail (Table I).
LAYOUT_LITERALS = {512, 17613, 17576}  # repro-lint: disable=RPR001 - the rule's own definition

#: Packages under the RPR007 annotation-completeness gate (mirrors the
#: per-package mypy strictness overrides in pyproject.toml).
GATED_PACKAGES = ("core", "dictionary", "parsing", "postings", "robustness", "search")

#: ``time``-module clocks that RPR008 fences behind ``util/timing.py``.
CLOCK_FNS = {
    "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
    "time", "time_ns", "process_time", "process_time_ns", "clock_gettime",
}

#: ``random``-module calls that touch the unseeded global generator.
_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "getrandbits", "choice", "choices",
    "shuffle", "sample", "uniform", "seed", "gauss", "normalvariate",
    "expovariate", "betavariate", "triangular", "vonmisesvariate",
    "paretovariate", "weibullvariate", "lognormvariate", "randbytes",
}


def _iter_functions(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _arg_defaults(node: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[tuple[ast.arg, ast.expr]]:
    """(argument, default) pairs, positional and keyword-only alike."""
    args = node.args
    positional = args.posonlyargs + args.args
    for arg, default in zip(positional[len(positional) - len(args.defaults):], args.defaults):
        yield arg, default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg, default


# ---------------------------------------------------------------------- #
# RPR001 — layout constants come from repro.dictionary.layout
# ---------------------------------------------------------------------- #


@rule("RPR001", "layout-literal")
def check_layout_literals(sf: SourceFile) -> Iterator[Finding]:
    """Table I/II layout values must come from ``repro.dictionary.layout``.

    Re-typing 512 / 17613 / 17576 (or defaulting a ``degree`` parameter
    to a literal 16) re-derives the paper's node and trie geometry in a
    second place; the two copies then drift independently.
    """
    if sf.parts and sf.parts[-1] == "layout.py":
        return
    defaulted_degrees: set[tuple[int, int]] = set()
    for fn in _iter_functions(sf.tree):
        for arg, default in _arg_defaults(fn):
            if (
                arg.arg == "degree"
                and isinstance(default, ast.Constant)
                and default.value == 16
            ):
                defaulted_degrees.add((default.lineno, default.col_offset))
                yield sf.finding(
                    "RPR001",
                    default,
                    "parameter 'degree' defaults to literal 16; "
                    "use repro.dictionary.layout.DEFAULT_DEGREE",
                )
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.keyword) and node.arg == "degree":
            value = node.value
            if isinstance(value, ast.Constant) and value.value == 16:
                yield sf.finding(
                    "RPR001",
                    value,
                    "call passes degree=16 as a literal; "
                    "use repro.dictionary.layout.DEFAULT_DEGREE",
                )
                defaulted_degrees.add((value.lineno, value.col_offset))
        if (
            isinstance(node, ast.Constant)
            and type(node.value) is int
            and node.value in LAYOUT_LITERALS
        ):
            yield sf.finding(
                "RPR001",
                node,
                f"layout literal {node.value} duplicates a Table I/II value; "
                "import it from repro.dictionary.layout",
            )


# ---------------------------------------------------------------------- #
# RPR002 — randomness flows through repro.util.rng
# ---------------------------------------------------------------------- #


@rule("RPR002", "unseeded-random")
def check_unseeded_random(sf: SourceFile) -> Iterator[Finding]:
    """No unseeded ``random`` / ``numpy.random`` outside ``util/rng.py``.

    Every stochastic choice in the reproduction must derive from an
    explicit seed (the paper's experiments are re-runnable); the global
    generators make runs unrepeatable.
    """
    if sf.path.endswith("util/rng.py"):
        return
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            bad = sorted(
                alias.name for alias in node.names if alias.name in _GLOBAL_RANDOM_FNS
            )
            if bad:
                yield sf.finding(
                    "RPR002",
                    node,
                    f"imports global-state random function(s) {', '.join(bad)}; "
                    "use repro.util.rng.make_rng",
                )
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = func.value.id
            if base == "random" and func.attr in _GLOBAL_RANDOM_FNS:
                yield sf.finding(
                    "RPR002",
                    node,
                    f"random.{func.attr}() uses the unseeded global generator; "
                    "use repro.util.rng.make_rng",
                )
            elif base == "random" and func.attr == "Random" and not (node.args or node.keywords):
                yield sf.finding(
                    "RPR002",
                    node,
                    "random.Random() without a seed is not reproducible; "
                    "pass an explicit seed or use repro.util.rng.make_rng",
                )
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in ("np", "numpy")
        ):
            yield sf.finding(
                "RPR002",
                node,
                f"numpy.random.{func.attr}() bypasses the seeded generator "
                "discipline; use repro.util.rng.make_rng",
            )


# ---------------------------------------------------------------------- #
# RPR003 — encode paths are float-free
# ---------------------------------------------------------------------- #


def _encode_scope(name: str) -> bool:
    return "encode" in name or name.startswith(("write", "_write"))


@rule("RPR003", "float-in-encode")
def check_float_in_encode(sf: SourceFile) -> Iterator[Finding]:
    """No float arithmetic in ``postings/`` encode paths.

    Compressed output must be bit-identical across platforms and Python
    builds; floats (true division, float literals, ``math.*``) introduce
    rounding that can silently change an emitted code.
    """
    if not sf.in_part("postings"):
        return
    for fn in _iter_functions(sf.tree):
        if not _encode_scope(fn.name):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Constant) and type(node.value) is float:
                yield sf.finding(
                    "RPR003",
                    node,
                    f"float literal {node.value!r} inside encode path "
                    f"'{fn.name}'; use exact integer arithmetic",
                )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                yield sf.finding(
                    "RPR003",
                    node,
                    f"true division inside encode path '{fn.name}' produces a "
                    "float; use // with explicit rounding",
                )
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "float":
                    yield sf.finding(
                        "RPR003", node, f"float() call inside encode path '{fn.name}'"
                    )
                elif (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "math"
                ):
                    yield sf.finding(
                        "RPR003",
                        node,
                        f"math.{func.attr}() inside encode path '{fn.name}' "
                        "routes through floats; use integer arithmetic",
                    )


# ---------------------------------------------------------------------- #
# RPR004 — fsync before atomic rename
# ---------------------------------------------------------------------- #


@rule("RPR004", "rename-without-fsync")
def check_fsync_before_rename(sf: SourceFile) -> Iterator[Finding]:
    """``os.replace``/``os.rename`` must be preceded by ``os.fsync``.

    The crash-durability argument of the checkpoint layer (write temp →
    fsync → rename) only holds when the data hits the platter before the
    rename makes it visible; a rename without fsync can surface an empty
    file after power loss.
    """
    for fn in _iter_functions(sf.tree):
        fsync_lines = [
            node.lineno
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "fsync"
        ]
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("replace", "rename")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os"
            ):
                continue
            if not any(line < node.lineno for line in fsync_lines):
                yield sf.finding(
                    "RPR004",
                    node,
                    f"os.{node.func.attr}() in '{fn.name}' without a preceding "
                    "os.fsync(); the rename is not crash-durable",
                )


# ---------------------------------------------------------------------- #
# RPR005 — no broad excepts outside robustness/
# ---------------------------------------------------------------------- #


def _is_broad(expr: ast.expr | None) -> bool:
    if expr is None:
        return True
    if isinstance(expr, ast.Name) and expr.id in ("Exception", "BaseException"):
        return True
    if isinstance(expr, ast.Tuple):
        return any(_is_broad(elt) for elt in expr.elts)
    return False


def _forwards_to_future(handler: ast.ExceptHandler) -> bool:
    """True if the handler calls ``<obj>.set_exception(<caught name>)``."""
    for node in ast.walk(handler):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "set_exception"
            and any(
                isinstance(arg, ast.Name) and arg.id == handler.name
                for arg in node.args
            )
        ):
            return True
    return False


@rule("RPR005", "broad-except")
def check_broad_except(sf: SourceFile) -> Iterator[Finding]:
    """No bare/broad ``except`` outside ``robustness/``.

    Only the fault-handling layer is allowed to catch everything (it
    classifies and re-routes); anywhere else a broad except hides
    corruption the robustness tests are designed to surface.
    """
    if sf.in_part("robustness"):
        return
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad(node.type):
            continue
        # A handler that re-raises unconditionally is logging, not hiding.
        if any(isinstance(stmt, ast.Raise) and stmt.exc is None for stmt in node.body):
            continue
        # A handler that forwards the caught exception into a Future
        # (``future.set_exception(exc)``) is cross-thread propagation,
        # not hiding — the waiter's ``result()`` re-raises it.
        if node.name and _forwards_to_future(node):
            continue
        what = "bare except" if node.type is None else "broad except"
        yield sf.finding(
            "RPR005",
            node,
            f"{what} swallows errors the robustness layer should classify; "
            "catch specific exceptions (broad catches live in robustness/)",
        )


# ---------------------------------------------------------------------- #
# RPR006 — no mutable default arguments
# ---------------------------------------------------------------------- #


@rule("RPR006", "mutable-default")
def check_mutable_defaults(sf: SourceFile) -> Iterator[Finding]:
    """No mutable default arguments anywhere under ``src/``.

    A shared default list/dict/set aliases state across calls — in the
    engine that means across *builds*, breaking run-to-run determinism.
    """
    for fn in _iter_functions(sf.tree):
        for arg, default in _arg_defaults(fn):
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            )
            if mutable:
                yield sf.finding(
                    "RPR006",
                    default,
                    f"mutable default for parameter '{arg.arg}' of '{fn.name}' "
                    "is shared across calls; default to None instead",
                )


# ---------------------------------------------------------------------- #
# RPR007 — annotation completeness in the gated packages
# ---------------------------------------------------------------------- #


@rule("RPR007", "missing-annotation")
def check_annotations(sf: SourceFile) -> Iterator[Finding]:
    """Full signature annotations in the ``GATED_PACKAGES``.

    The offline half of the typing gate: the same packages mypy checks
    with ``disallow_untyped_defs`` in CI must carry complete signatures,
    so the gate holds even where mypy is not installed.
    """
    if not sf.in_part(*GATED_PACKAGES):
        return
    for fn in _iter_functions(sf.tree):
        missing: list[str] = []
        args = fn.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg in ("self", "cls"):
                continue
            if arg.annotation is None:
                missing.append(arg.arg)
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append("*" + args.vararg.arg)
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append("**" + args.kwarg.arg)
        if missing:
            yield sf.finding(
                "RPR007",
                fn,
                f"'{fn.name}' has unannotated parameter(s): {', '.join(missing)}",
            )
        if fn.returns is None:
            yield sf.finding(
                "RPR007", fn, f"'{fn.name}' is missing a return annotation"
            )


# ---------------------------------------------------------------------- #
# RPR008 — clocks flow through util/timing.py (and obs/)
# ---------------------------------------------------------------------- #


@rule("RPR008", "adhoc-clock")
def check_adhoc_clocks(sf: SourceFile) -> Iterator[Finding]:
    """Wall-clock reads go through ``util/timing.py`` (telemetry exempt).

    Telemetry quarantines nondeterminism into one place: every timestamp
    comes from the blessed ``repro.util.timing.now`` clock, so the
    determinism tests can reason about exactly which artifacts carry
    wall-clock data (docs/OBSERVABILITY.md).  An ad-hoc
    ``time.perf_counter()`` sprinkled elsewhere creates a second timing
    source that the span tracer cannot see and the tests cannot exclude.

    Only *calls* are flagged — passing ``time.monotonic`` as a clock
    callable (dependency injection, as in ``robustness/retry.py``) keeps
    the read swappable and is fine.

    ``obs/profile.py`` is fenced by name alongside ``util/timing.py``:
    a sampling profiler *is* a clock consumer (its tick loop reads
    ``time.monotonic`` directly to schedule deterministic intervals), so
    it belongs inside the fence rather than suppressed line by line —
    same rationale as the blessed timing module itself.

    The fence also covers ``timeit.default_timer`` — the clock benchmark
    scripts habitually reach for — because the rule runs over
    ``benchmarks/`` too (``make lint`` / CI select RPR008 there):
    benchmark timing must flow through ``util/timing.py`` so every
    number a bench script reports comes from the same clock the
    telemetry uses.
    """
    if sf.path.endswith(("util/timing.py", "obs/profile.py")) or sf.in_part("obs"):
        return
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "time":
                bad = sorted(
                    alias.name for alias in node.names if alias.name in CLOCK_FNS
                )
                if bad:
                    yield sf.finding(
                        "RPR008",
                        node,
                        f"imports clock function(s) {', '.join(bad)} from time; "
                        "use repro.util.timing.now / Stopwatch",
                    )
            elif node.module == "timeit" and any(
                alias.name == "default_timer" for alias in node.names
            ):
                yield sf.finding(
                    "RPR008",
                    node,
                    "imports default_timer from timeit; benchmark clocks go "
                    "through repro.util.timing",
                )
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
            and func.attr in CLOCK_FNS
        ):
            yield sf.finding(
                "RPR008",
                node,
                f"ad-hoc time.{func.attr}() call; clocks are fenced behind "
                "repro.util.timing (now / Stopwatch) so telemetry and the "
                "determinism tests see every timing source",
            )
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "timeit"
            and func.attr == "default_timer"
        ):
            yield sf.finding(
                "RPR008",
                node,
                "ad-hoc timeit.default_timer() call; benchmark clocks go "
                "through repro.util.timing",
            )


# ---------------------------------------------------------------------- #
# RPR110 — multiprocessing entry points are fork-bomb-safe
# ---------------------------------------------------------------------- #

#: Constructors that create OS processes (or a pool of them).
_PROCESS_CTORS = {"Process", "Pool", "ProcessPoolExecutor"}


def _is_main_guard(node: ast.If) -> bool:
    """True for ``if __name__ == "__main__":`` (either operand order)."""
    test = node.test
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)):
        return False
    operands = [test.left, *test.comparators]
    names = {o.id for o in operands if isinstance(o, ast.Name)}
    consts = {o.value for o in operands if isinstance(o, ast.Constant)}
    return "__name__" in names and "__main__" in consts


def _ctor_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@rule("RPR110", "unsafe-mp-entry")
def check_mp_entry_points(sf: SourceFile) -> Iterator[Finding]:
    """Process-spawning code must be fork-bomb-safe under ``spawn``.

    The ``spawn`` start method re-imports the ``__main__`` module in
    every child, so a ``Process``/``Pool``/``ProcessPoolExecutor``
    constructed at module top level (outside a function or an
    ``if __name__ == "__main__"`` guard) re-executes in each child and
    forks without bound.  The multiprocess execution backend keeps its
    worker entry points module-level functions and builds its executor
    inside a method (``core/mp_backend.py``); this rule holds the rest
    of the tree to the same layout.  A ``lambda`` target is flagged too: it does not pickle
    under ``spawn``, so code relying on it silently becomes
    fork-start-method-only.
    """
    # Nodes whose subtree may construct processes freely: function bodies
    # (only run when called) and ``__main__``-guarded blocks.
    safe: set[int] = set()
    for node in ast.walk(sf.tree):
        inner: Iterable[ast.AST] = ()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inner = ast.walk(node)
        elif isinstance(node, ast.If) and _is_main_guard(node):
            inner = (n for stmt in node.body for n in ast.walk(stmt))
        for sub in inner:
            if isinstance(sub, ast.Call):
                safe.add(id(sub))
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _ctor_name(node.func)
        if name not in _PROCESS_CTORS:
            continue
        if id(node) not in safe:
            yield sf.finding(
                "RPR110",
                node,
                f"{name}(...) at module top level re-executes on import in "
                "every spawn-start-method child (fork bomb); move it inside "
                'a function or an ``if __name__ == "__main__"`` guard',
            )
        for kw in node.keywords:
            if kw.arg == "target" and isinstance(kw.value, ast.Lambda):
                yield sf.finding(
                    "RPR110",
                    kw.value,
                    f"lambda target for {name}(...) does not pickle under "
                    "the spawn start method; use a module-level function",
                )
