"""repro lint — the reproduction's static-analysis pack.

Three layers, all driven by ``repro lint`` (or ``make lint``):

1. **Paper-invariant rules** (RPR0xx, :mod:`repro.lint.rules`): AST checks
   that keep the codebase honest about the paper's layout and numeric
   contracts — Table I/II constants must come from
   :mod:`repro.dictionary.layout`, randomness must flow through
   :mod:`repro.util.rng`, encode paths stay float-free, atomic renames
   fsync first, and so on.
2. **Lock-discipline race analyzer** (RPR1xx, :mod:`repro.lint.races`):
   a lockset analysis over what still runs threads — the serial loop's
   parse-prefetch pool, the profiler's sampler, the fault-injection
   hooks they reach — for unguarded writes to state shared with worker
   threads, and lock-order cycles.
3. **Typing gate** (RPR2xx, :mod:`repro.lint.typing_gate`): an
   annotation-completeness gate over the paper-critical packages, plus a
   wrapper that runs mypy when it is installed (CI installs it; the gate
   degrades gracefully offline).

Design constraint: this package is **stdlib-only** and must never import
the engine (or anything else under ``repro.*``) at runtime — linting a
tree must not execute it.  ``tests/test_lint.py`` and the CI lint job both
assert this.
"""

from repro.lint.framework import Finding, lint_paths, registered_rules
from repro.lint import interproc, protocol, races, rules  # noqa: F401  (importing registers the rules)

__all__ = [
    "Finding", "lint_paths", "registered_rules", "interproc", "protocol",
    "races", "rules",
]
