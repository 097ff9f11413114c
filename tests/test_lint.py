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
from repro.lint import races
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
    ("RPR101", fixture("rpr101_races.py"), 2),
    ("RPR102", fixture("rpr102_deadlock.py"), 1),
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
        # The suppressed twin must not appear.  RPR102's twin is the
        # separate file-level fixture (test_file_level_suppression);
        # every other fixture carries an inline `disable=<code>` line.
        if code == "RPR102":
            return
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

    def test_file_level_suppression(self):
        run = lint_paths([fixture("rpr102_suppressed.py")], select=["RPR102"])
        assert run.findings == []

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


class TestRaceAllowlist:
    def test_allowlist_suppresses_vetted_writes(self):
        races.set_allowlist_path(fixture("allowlist.txt"))
        try:
            run = lint_paths([fixture("rpr101_races.py")], select=["RPR101"])
        finally:
            races.set_allowlist_path(None)
        assert run.findings == []

    def test_empty_allowlist_restores_findings(self):
        races.set_allowlist_path(os.devnull)
        try:
            run = lint_paths([fixture("rpr101_races.py")], select=["RPR101"])
        finally:
            races.set_allowlist_path(None)
        assert len(run.findings) == 2

    def test_malformed_allowlist_rejected(self, tmp_path):
        bad = tmp_path / "allow.txt"
        bad.write_text("no-separator-here\n")
        with pytest.raises(ValueError):
            races.load_allowlist(str(bad))

    def test_shipped_allowlist_parses(self):
        entries = races.load_allowlist(races.DEFAULT_ALLOWLIST_PATH)
        assert entries, "shipped race_allowlist.txt is empty or missing"
        for suffix, key in entries:
            assert suffix and key


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

    def test_race_analyzer_clean_on_engine_paths(self):
        """Zero unallowlisted unguarded shared writes in core/ + indexers/."""
        run = lint_paths(
            [os.path.join(SRC, "repro", "core"),
             os.path.join(SRC, "repro", "indexers")],
            select=["RPR101", "RPR102"],
        )
        assert run.findings == []

    def test_every_documented_rule_registered(self):
        codes = set(registered_rules())
        assert codes == {
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
            "RPR007", "RPR008", "RPR101", "RPR102", "RPR110",
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
        assert "RPR101" in proc.stdout

    def test_parse_error_becomes_rpr000(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        run = lint_paths([str(broken)])
        assert run.parse_errors == 1
        assert run.findings[0].code == "RPR000"
        proc = run_cli(str(broken))
        assert proc.returncode == 1


_RACY_MODULE = (
    "import threading\n"
    "\n"
    "\n"
    "class C:\n"
    "    def __init__(self):\n"
    "        self.n = 0\n"
    "        self._t = threading.Thread(target=self._w)\n"
    "\n"
    "    def _w(self):\n"
    "        self.n += 1\n"
    "\n"
    "    def reset(self):\n"
    "        self.n = 0\n"
)


class TestAllowlistStaleness:
    """The race allowlist self-validates: entries nothing consumes fail.

    RPR101 records a ``race-allowlist-used`` fact for every entry that
    actually vets a write; the CLI then flags, as RPR103, any entry whose
    file was analyzed but whose key was never consumed.
    """

    def _run(self, allow_text, tmp_path, paths):
        allow = tmp_path / "allow.txt"
        allow.write_text(allow_text)
        races.set_allowlist_path(str(allow))
        try:
            run = lint_paths(paths, select=["RPR101"])
            used = set(run.facts.get(races.USED_ALLOWLIST_FACT, []))
            stale = races.stale_allowlist_findings(
                run.files, used, str(allow))
        finally:
            races.set_allowlist_path(None)
        return run, stale

    def test_consumed_entry_is_not_stale(self, tmp_path):
        run, stale = self._run(
            "lint_fixtures/rpr101_races.py::Counter.count\n",
            tmp_path, [fixture("rpr101_races.py")],
        )
        assert run.findings == []  # the entry vetted both writes...
        assert stale == []         # ...so it is live, not stale

    def test_dead_entry_is_flagged_at_its_line(self, tmp_path):
        run, stale = self._run(
            "# vetted writes\n"
            "lint_fixtures/rpr101_races.py::Counter.count\n"
            "lint_fixtures/rpr101_races.py::Counter.ghost\n",
            tmp_path, [fixture("rpr101_races.py")],
        )
        assert [f.code for f in stale] == ["RPR103"]
        assert stale[0].line == 3
        assert "Counter.ghost" in stale[0].message
        assert stale[0].path.endswith("allow.txt")

    def test_entry_for_unanalyzed_file_is_left_alone(self, tmp_path):
        """Staleness is only decidable for files in the analyzed set."""
        _, stale = self._run(
            "some/other_module.py::Thing.attr\n",
            tmp_path, [fixture("rpr101_races.py")],
        )
        assert stale == []

    def test_cli_fails_on_stale_entry(self, tmp_path):
        mod = tmp_path / "plain_mod.py"
        mod.write_text("X = 1\n")
        allow = tmp_path / "allow.txt"
        allow.write_text("plain_mod.py::Ghost.attr\n")
        proc = run_cli(str(mod), "--allowlist", str(allow),
                       "--mypy", "off", "--no-cache")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "RPR103" in proc.stdout

    def test_shipped_allowlist_has_no_stale_entries(self):
        """Every entry in the package allowlist is still consumed when
        linting ``src`` (the CI gate — see test_src_tree_lints_clean)."""
        run = lint_paths([SRC], select=["RPR101"])
        used = set(run.facts.get(races.USED_ALLOWLIST_FACT, []))
        assert races.stale_allowlist_findings(run.files, used) == []


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

    def test_allowlist_facts_survive_cache_replay(self, tmp_path):
        """Incremental runs must not mistake a cached-but-live entry for
        a stale one: facts are cached with the findings."""
        mod = tmp_path / "racy_mod.py"
        mod.write_text(_RACY_MODULE)
        allow = tmp_path / "allow.txt"
        allow.write_text("racy_mod.py::C.n\n")
        races.set_allowlist_path(str(allow))
        cache = LintCache(str(tmp_path / "cache"))
        try:
            r1 = lint_paths([str(mod)], select=["RPR101"], cache=cache)
            r2 = lint_paths([str(mod)], select=["RPR101"], cache=cache)
        finally:
            races.set_allowlist_path(None)
        assert r2.cache_hits == 1
        for run in (r1, r2):
            assert run.findings == []
            used = set(run.facts.get(races.USED_ALLOWLIST_FACT, []))
            assert used == {"racy_mod.py::C.n"}
            assert races.stale_allowlist_findings(
                run.files, used, str(allow)) == []

    def test_custom_allowlist_is_part_of_the_cache_key(
            self, tmp_path, monkeypatch, capsys):
        """A warm cache must not replay RPR101 findings made under another
        allowlist: the allowlist's content salts every entry."""
        from repro.lint.cli import main as lint_main

        mod = tmp_path / "racy_mod.py"
        mod.write_text(_RACY_MODULE)
        allow = tmp_path / "allow.txt"
        allow.write_text("racy_mod.py::C.n\n")
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        monkeypatch.chdir(tmp_path)

        def lint(allowlist):
            return lint_main([str(mod), "--select", "RPR101",
                              "--allowlist", str(allowlist)])

        try:
            assert lint(allow) == 0
            assert lint(empty) == 1
            allow.write_text("")  # same path, new content
            assert lint(allow) == 1
        finally:
            races.set_allowlist_path(None)
        assert "RPR101" in capsys.readouterr().out

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
