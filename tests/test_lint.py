"""Tests for the static-analysis pack (``repro lint``).

Three layers of coverage, mirroring docs/STATIC_ANALYSIS.md:

- **Fixtures** (``tests/lint_fixtures/``): every rule has a file with
  known violations *and* a suppressed twin of the same violation, so
  these tests pin both detection and the suppression machinery.
- **Self-check**: the repo's own ``src/`` tree lints clean — the gate CI
  enforces.
- **Isolation**: linting must never import the engine; the lint CLI
  stays usable (and fast) even when the index machinery would not load.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from repro.lint import lint_paths, registered_rules
from repro.lint.framework import LintCache

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
FIXTURES = os.path.join(REPO, "tests", "lint_fixtures")


def fixture(*parts: str) -> str:
    return os.path.join(FIXTURES, *parts)


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python -m repro.lint.cli`` in a clean subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint.cli", *argv],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
    )


# Per-rule expectations: fixture path, number of unsuppressed findings.
RULE_FIXTURES = [
    ("RPR001", fixture("rpr001_layout.py"), 4),
    ("RPR002", fixture("rpr002_random.py"), 3),
    ("RPR003", fixture("postings", "rpr003_encode.py"), 2),
    ("RPR004", fixture("rpr004_rename.py"), 1),
    ("RPR005", fixture("rpr005_except.py"), 2),
    ("RPR006", fixture("rpr006_defaults.py"), 2),
    ("RPR007", fixture("core", "rpr007_annotations.py"), 2),
    ("RPR008", fixture("rpr008_clocks.py"), 3),
    ("RPR008", fixture("rpr008_bench_timeit.py"), 3),
    ("RPR008", fixture("rpr008_profile.py"), 3),
    ("RPR110", fixture("rpr110_mp_entry.py"), 4),
]

# Vetted negatives: fixture sets that must produce zero findings for the
# given codes.
OK_FIXTURES = [
    # The RPR008 carve-out: the same clock reads that fire in
    # rpr008_profile.py are exempt under an obs/ path.
    (["RPR008"],
     [fixture("obs", "profile.py")]),
]


class TestRuleFixtures:
    @pytest.mark.parametrize("code,path,expected", RULE_FIXTURES,
                             ids=[f"{c}-{os.path.splitext(os.path.basename(p))[0]}"
                                  for c, p, _ in RULE_FIXTURES])
    def test_rule_fires_and_suppression_holds(self, code, path, expected):
        run = lint_paths([path], select=[code])
        assert run.files_checked == 1
        assert [f.code for f in run.findings] == [code] * expected
        # The suppressed twin (an inline `disable=<code>` line) must not
        # appear.
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        disabled = {
            i for i, line in enumerate(lines, start=1)
            if f"disable={code}" in line
        }
        assert disabled, f"fixture {path} lost its suppressed twin"
        assert not disabled & {f.line for f in run.findings}

    @pytest.mark.parametrize("code,path,expected", RULE_FIXTURES,
                             ids=[c for c, _, _ in RULE_FIXTURES])
    def test_cli_exits_nonzero_on_fixture(self, code, path, expected):
        proc = run_cli(path, "--select", code, "--format", "json")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert f'"{code}"' in proc.stdout

    def test_file_level_suppression(self, tmp_path):
        mod = tmp_path / "timed.py"
        body = "import time\n\n\ndef t():\n    return time.time()\n"
        mod.write_text(body)
        assert [f.code for f in lint_paths([str(mod)], select=["RPR008"]).findings] == ["RPR008"]
        mod.write_text("# repro-lint: disable-file=RPR008 - fixture\n" + body)
        assert lint_paths([str(mod)], select=["RPR008"]).findings == []

    @pytest.mark.parametrize("codes,paths", OK_FIXTURES,
                             ids=["rpr008-obs-carveout"])
    def test_vetted_negatives_stay_clean(self, codes, paths):
        run = lint_paths(paths, select=codes)
        assert run.files_checked == len(paths)
        assert run.findings == []

    def test_unknown_rule_code(self):
        with pytest.raises(KeyError):
            lint_paths([FIXTURES], select=["RPR999"])
        proc = run_cli(FIXTURES, "--select", "RPR999")
        assert proc.returncode == 2


class TestSelfCheck:
    def test_src_tree_lints_clean(self):
        """The acceptance gate: ``repro lint src/`` exits 0."""
        proc = run_cli("src", "--mypy", "off")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_benchmarks_clock_fence_clean(self):
        """``benchmarks/`` honors the RPR008 clock fence (the bench
        scripts time through util/timing, never ad-hoc time/timeit
        clocks)."""
        run = lint_paths([os.path.join(REPO, "benchmarks")], select=["RPR008"])
        assert run.findings == []

    def test_every_documented_rule_registered(self):
        codes = set(registered_rules())
        assert codes == {
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
            "RPR007", "RPR008", "RPR110",
        }
        for reg in registered_rules().values():
            assert reg.description, f"{reg.code} has no description"

    def test_select_lists_in_hooks_and_ci_name_registered_rules(self):
        """Every ``--select`` code the pre-commit hooks, the Makefile and
        CI pass exists: an unknown code makes ``repro lint`` exit 2."""
        codes = set(registered_rules())
        for name in (".pre-commit-config.yaml", "Makefile",
                     os.path.join(".github", "workflows", "ci.yml")):
            with open(os.path.join(REPO, name), encoding="utf-8") as fh:
                selects = re.findall(r"--select[ =]+([A-Z0-9,]+)", fh.read())
            assert selects, f"{name} has no --select list"
            for select in selects:
                unknown = set(select.split(",")) - codes
                assert not unknown, f"{name}: --select {select}: {sorted(unknown)}"


class TestIsolation:
    def test_lint_never_imports_the_engine(self):
        """`import repro.lint.cli` must not pull in any engine module."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import sys\n"
            "import repro.lint.cli\n"
            "loaded = [m for m in sys.modules\n"
            "          if m.startswith('repro.') and not m.startswith('repro.lint')]\n"
            "assert not loaded, loaded\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    def test_repro_cli_lint_subcommand(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--list-rules"],
            capture_output=True, text=True, cwd=REPO, env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "RPR110" in proc.stdout

    def test_parse_error_becomes_rpr000(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        run = lint_paths([str(broken)])
        assert run.parse_errors == 1
        assert run.findings[0].code == "RPR000"
        proc = run_cli(str(broken))
        assert proc.returncode == 1


class TestLintCache:
    def test_second_run_hits_and_replays_findings(self, tmp_path):
        mod = tmp_path / "timed.py"
        mod.write_text("import time\n\n\ndef t():\n    return time.time()\n")
        cache = LintCache(str(tmp_path / "cache"))
        r1 = lint_paths([str(mod)], cache=cache)
        assert (r1.cache_hits, r1.cache_misses) == (0, 1)
        assert r1.findings, "expected the RPR008 clock finding"
        r2 = lint_paths([str(mod)], cache=cache)
        assert (r2.cache_hits, r2.cache_misses) == (1, 0)
        assert ([(f.code, f.line) for f in r1.findings]
                == [(f.code, f.line) for f in r2.findings])

    def test_edit_invalidates_the_entry(self, tmp_path):
        mod = tmp_path / "timed.py"
        mod.write_text("import time\n\n\ndef t():\n    return time.time()\n")
        cache = LintCache(str(tmp_path / "cache"))
        lint_paths([str(mod)], cache=cache)
        mod.write_text("def t():\n    return 0\n")
        r2 = lint_paths([str(mod)], cache=cache)
        assert (r2.cache_hits, r2.cache_misses) == (0, 1)
        assert r2.findings == []

    def test_one_file_edit_relints_only_that_file(self, tmp_path):
        """Under the default codes an edit re-lints the edited file alone;
        the unchanged file's findings replay from the cache."""
        timed = tmp_path / "timed.py"
        timed.write_text("import time\n\n\ndef t():\n    return time.time()\n")
        other = tmp_path / "other.py"
        other.write_text("A = 1\n")
        paths = [str(timed), str(other)]
        cache = LintCache(str(tmp_path / "cache"))
        r1 = lint_paths(paths, cache=cache)
        assert (r1.cache_hits, r1.cache_misses) == (0, 2)
        assert [f.code for f in r1.findings] == ["RPR008"]
        other.write_text("A = 2\n")
        r2 = lint_paths(paths, cache=cache)
        assert (r2.cache_hits, r2.cache_misses) == (1, 1)
        assert [f.code for f in r2.findings] == ["RPR008"]

    def test_cli_reports_cache_stats_and_no_cache_disables(self, tmp_path):
        mod = tmp_path / "plain.py"
        mod.write_text("A = 1\n")
        proc = run_cli(str(mod), "--select", "RPR008", "--format", "json")
        payload = json.loads(proc.stdout)
        assert {"cache_hits", "cache_misses"} <= set(payload)
        proc2 = run_cli(str(mod), "--select", "RPR008", "--format", "json",
                        "--no-cache")
        payload2 = json.loads(proc2.stdout)
        assert payload2["cache_hits"] == 0
