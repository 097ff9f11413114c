"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_arg_parser, main


@pytest.fixture(scope="module")
def generated(tmp_path_factory, capsys_module=None):
    root = str(tmp_path_factory.mktemp("cli"))
    code = main(["generate", "wikipedia", root, "--scale", "0.2"])
    assert code == 0
    return f"{root}/wikipedia_mini"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_arg_parser().parse_args(["simulate"])
        assert (args.parsers, args.cpu_indexers, args.gpus) == (6, 2, 2)
        assert args.dataset == "clueweb09"


class TestCommands:
    def test_generate_and_stats(self, generated, capsys):
        code = main(["stats", generated, "--no-html"])
        assert code == 0
        out = capsys.readouterr().out
        assert "documents:" in out and "tokens:" in out

    def test_build_query_merge(self, generated, tmp_path, capsys):
        index = str(tmp_path / "idx")
        code = main([
            "build", generated, index,
            "--parsers", "2", "--cpu-indexers", "1", "--gpus", "1",
            "--positional", "--sample-fraction", "0.2", "--no-html",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "indexed" in out and "MB/s" in out

        # Ranked query over some indexed term.
        from repro.postings.reader import PostingsReader

        term = next(iter(PostingsReader(index).vocabulary()))
        assert main(["query", index, term, "--mode", "ranked", "-k", "3"]) == 0
        ranked_out = capsys.readouterr().out
        assert "doc" in ranked_out

        assert main(["query", index, term, "--mode", "and"]) == 0
        assert main(["query", index, term, "--mode", "phrase"]) == 0
        capsys.readouterr()

        merged = str(tmp_path / "merged")
        assert main(["merge", index, merged]) == 0
        assert "merged" in capsys.readouterr().out

    def test_simulate(self, capsys):
        code = main(["simulate", "--dataset", "wikipedia"])
        assert code == 0
        out = capsys.readouterr().out
        assert "total" in out and "MB/s" in out

    def test_simulate_custom_config(self, capsys):
        assert main(["simulate", "--dataset", "congress", "--parsers", "4",
                     "--cpu-indexers", "4", "--gpus", "0"]) == 0
        assert "4 parsers" in capsys.readouterr().out


class TestTraceDegenerate:
    """``repro explain`` on degenerate-but-legal trace.json artifacts."""

    @staticmethod
    def _write(tmp_path, events):
        import json

        (tmp_path / "trace.json").write_text(json.dumps({"traceEvents": events}))
        return str(tmp_path)

    def test_empty_trace_file(self, tmp_path, capsys):
        index = self._write(tmp_path, [])
        assert main(["explain", index]) == 0
        assert "(empty trace)" in capsys.readouterr().out

    def test_single_lane_trace_file(self, tmp_path, capsys):
        index = self._write(tmp_path, [
            {"ph": "M", "name": "thread_name", "tid": 1, "pid": 1,
             "args": {"name": "main"}},
            {"ph": "X", "name": "build", "ts": 0, "dur": 1_000_000,
             "tid": 1, "pid": 1},
            {"ph": "X", "name": "parse", "ts": 0, "dur": 1_000_000,
             "tid": 1, "pid": 1},
        ])
        assert main(["explain", index]) == 0
        out = capsys.readouterr().out
        assert "lane utilization" in out and "main" in out

    def test_all_zero_duration_spans_file(self, tmp_path, capsys):
        index = self._write(tmp_path, [
            {"ph": "X", "name": "build", "ts": 0, "dur": 0, "tid": 1, "pid": 1},
            {"ph": "X", "name": "parse", "ts": 0, "dur": 0, "tid": 2, "pid": 1},
        ])
        assert main(["explain", index]) == 0
        out = capsys.readouterr().out
        assert "0.000s wall" in out and "stage totals:" in out

    def test_damaged_trace_file_rejected(self, tmp_path, capsys):
        import json

        (tmp_path / "trace.json").write_text(json.dumps({"not_trace_events": []}))
        assert main(["explain", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestErrorHandling:
    def test_missing_collection_dir(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "nope")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_index_dir(self, tmp_path, capsys):
        code = main(["query", str(tmp_path / "noidx"), "term"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_ingest_source(self, tmp_path, capsys):
        code = main(["ingest", str(tmp_path / "missing"), str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestProfileCommand:
    @pytest.fixture(scope="class")
    def profiled_index(self, generated, tmp_path_factory):
        index = str(tmp_path_factory.mktemp("prof") / "idx")
        code = main([
            "build", generated, index,
            "--parsers", "2", "--cpu-indexers", "1", "--gpus", "1",
            "--sample-fraction", "0.2", "--no-html",
            "--profile", "--profile-interval", "0.002",
        ])
        assert code == 0
        return index

    def test_build_profile_writes_and_announces_artifact(
            self, profiled_index, capsys):
        import os

        from repro.obs.profile_schema import PROFILE_FILENAME, load_profile

        path = os.path.join(profiled_index, PROFILE_FILENAME)
        payload = load_profile(path)  # schema-valid on disk
        assert "engine" in payload["lanes"]

    def test_profile_report_and_exports(self, profiled_index, tmp_path, capsys):
        folded = str(tmp_path / "stacks.folded")
        assert main(["explain", profiled_index, "--folded", folded]) == 0
        out = capsys.readouterr().out
        assert "== run.profile.json ==" in out
        assert "profile:" in out and "sample(s)" in out
        assert "function(s) by self time:" in out
        assert f"wrote folded stacks to {folded}" in out
        with open(folded, encoding="utf-8") as fh:
            first = fh.readline()
        assert first.rstrip().rsplit(" ", 1)[1].isdigit()

    def test_profile_cumulative_mode(self, profiled_index, capsys):
        """There is no ranking by cumulative time (its top rows were the
        interpreter's entry frames): every frame row carries both its
        self and its cumulative seconds, and cumulative ≥ self."""
        assert main(["explain", profiled_index, "--top", "3"]) == 0
        out = capsys.readouterr().out
        table = out[out.index("top 3 function(s) by self time:"):].splitlines()
        assert table[1].split() == ["self", "cum", "frame"]
        rows = table[2:5]
        assert len(rows) == 3
        for row in rows:
            slf, cum = (float(col.rstrip("s")) for col in row.split()[:2])
            assert cum >= slf

    def test_profile_diff(self, profiled_index, capsys):
        assert main(["explain", "--diff", profiled_index,
                     profiled_index]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            f"diff: {profiled_index} -> {profiled_index}", "(no differences)",
        ]

    def test_profile_without_target_or_diff_is_usage_error(self, capsys):
        assert main(["explain"]) == 2
        assert "error" in capsys.readouterr().err

    def test_profile_missing_artifact_fails(self, tmp_path, capsys):
        """An empty directory holds nothing to explain: exit 2, naming
        the artifacts it looked for."""
        assert main(["explain", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "run.profile.json" in err and "trace.json" in err

    def test_folded_without_a_profile_is_an_error(self, tmp_path, capsys):
        import json

        (tmp_path / "trace.json").write_text(json.dumps({"traceEvents": []}))
        folded = tmp_path / "stacks.folded"
        assert main(["explain", str(tmp_path), "--folded", str(folded)]) == 2
        assert "--profile" in capsys.readouterr().err
        assert not folded.exists()

    def test_removed_commands_are_gone(self):
        for command in ("trace", "profile"):
            with pytest.raises(SystemExit):
                build_arg_parser().parse_args([command, "idx"])
