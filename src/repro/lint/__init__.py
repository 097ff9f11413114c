"""repro lint — the reproduction's static-analysis pack.

Two layers, both driven by ``repro lint`` (or ``make lint``):

1. **Paper-invariant rules** (RPR0xx, :mod:`repro.lint.rules`): AST checks
   that keep the codebase honest about the paper's layout and numeric
   contracts — Table I/II constants must come from
   :mod:`repro.dictionary.layout`, randomness must flow through
   :mod:`repro.util.rng`, encode paths stay float-free, atomic renames
   fsync first, process pools are built only where a ``spawn`` child
   cannot re-run them (RPR110), and so on.
2. **Typing gate** (RPR007 plus RPR201, :mod:`repro.lint.typing_gate`):
   an annotation-completeness gate over the paper-critical packages,
   plus a wrapper that runs mypy when it is installed (CI installs it;
   the gate degrades gracefully offline).

Every rule judges a file by that file's content alone, so the
incremental cache re-lints only the files that changed.

Design constraint: this package is **stdlib-only** and must never import
the engine (or anything else under ``repro.*``) at runtime — linting a
tree must not execute it.  ``tests/test_lint.py`` and the CI lint job both
assert this.
"""

from repro.lint.framework import Finding, lint_paths, registered_rules
from repro.lint import rules  # noqa: F401  (importing registers the rules)

__all__ = ["Finding", "lint_paths", "registered_rules", "rules"]
