"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's workflow:

- ``generate`` — materialize a synthetic mini collection (ClueWeb /
  Wikipedia / Congress profile);
- ``stats`` — a collection directory's Table III row;
- ``build`` — run the heterogeneous engine over a collection directory
  (``--resume`` continues an interrupted build, ``--on-error`` picks the
  skip / quarantine policy for corrupt containers, ``--no-telemetry``
  skips the ``run.metrics.json`` / ``trace.json`` artifacts,
  ``--profile`` writes ``run.profile.json``);
- ``explain`` — where a build's time went, from whichever of its
  ``trace.json``, ``run.metrics.json`` and ``run.profile.json`` exist:
  the engine's wall per resource (docs/OBSERVABILITY.md, "Where the
  engine's wall went"), lane utilization and stage totals; the metrics;
  the top profile frames.  ``--diff A B`` compares two builds' timings,
  counters, gauges and per-frame profile time; ``--folded`` exports the
  profile's collapsed stacks for a flame graph (open ``trace.json`` in
  Perfetto / chrome://tracing for the timeline);
- ``verify`` — check an index directory's checksums and cross-file
  invariants (including telemetry artifact schemas); exits non-zero on
  the first inconsistency;
- ``query`` — Boolean / ranked / phrase retrieval over an index;
- ``merge`` — consolidate a multi-run index into one monolithic run;
- ``report`` — regenerate the full reproduction report (scorecard +
  every simulated table/figure) as Markdown;
- ``simulate`` — the paper-scale pipeline simulation (Tables IV/VI
  numbers without touching a terabyte);
- ``lint`` — the paper-invariant static-analysis pack
  (docs/STATIC_ANALYSIS.md): AST rules and the typing gate.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_arg_parser"]

#: ``sorted(repro.postings.compression.CODECS)``, spelled out so building
#: the parser imports no engine module (``tests/test_cli.py`` pins it).
CODEC_NAMES = ("gamma", "varbyte", "varbyte-pos")


def build_arg_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Inverted-file construction on heterogeneous platforms "
            "(Wei & JaJa, IPDPS 2011) — reproduction CLI"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic mini collection")
    gen.add_argument("preset", choices=["clueweb09", "wikipedia", "congress"])
    gen.add_argument("root", help="directory to create the collection under")
    gen.add_argument("--scale", type=float, default=1.0, help="size multiplier")
    gen.add_argument("--seed", type=int, default=None)

    ingest = sub.add_parser("ingest", help="pack your own documents into a collection")
    ingest.add_argument("source", help="directory of text/HTML files, or a .jsonl file")
    ingest.add_argument("output", help="directory to create the collection under")
    ingest.add_argument("--name", default="ingested")
    ingest.add_argument("--docs-per-file", type=int, default=256)
    ingest.add_argument("--text-field", default="text", help="JSONL body field")
    ingest.add_argument("--on-error", choices=["strict", "skip"], default="strict",
                        help="skip: drop undecodable documents instead of aborting")

    stats = sub.add_parser("stats", help="Table III stats of a collection")
    stats.add_argument("collection", help="collection directory (manifest.tsv)")
    stats.add_argument("--no-html", action="store_true", help="collection is pure text")

    build = sub.add_parser("build", help="build inverted files")
    build.add_argument("collection", help="collection directory")
    build.add_argument("output", help="index output directory")
    build.add_argument("--parsers", type=int, default=6)
    build.add_argument("--cpu-indexers", type=int, default=2)
    build.add_argument("--gpus", type=int, default=2)
    build.add_argument("--codec", default="varbyte", choices=CODEC_NAMES)
    build.add_argument("--positional", action="store_true",
                       help="store token positions (enables phrase queries)")
    build.add_argument("--sample-fraction", type=float, default=0.01)
    build.add_argument("--no-html", action="store_true")
    build.add_argument("--resume", action="store_true",
                       help="continue an interrupted build from its last "
                            "durable run (checkpoint.bin + build.manifest)")
    build.add_argument("--on-error", choices=["strict", "skip", "quarantine"],
                       default="strict",
                       help="policy for permanently unreadable container files")
    build.add_argument("--quarantine-dir", default=None,
                       help="where quarantined containers go (default: "
                            "quarantine/ inside the collection)")
    build.add_argument("--no-telemetry", action="store_true",
                       help="disable span tracing + metrics (no "
                            "run.metrics.json / trace.json artifacts)")
    build.add_argument("--profile", action="store_true",
                       help="sample the engine and the parse worker process "
                            "with the deterministic-interval stack "
                            "profiler and write the merged "
                            "run.profile.json (repro explain)")
    build.add_argument("--profile-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="sampler tick for --profile (default 0.01)")
    build.add_argument("--exec", dest="exec_backend",
                       choices=["serial", "multiprocess"], default=None,
                       help="execution backend: serial (inline loop) or "
                            "multiprocess (the same loop fed by one "
                            "parse-ahead worker process, supervised with "
                            "restart/degrade recovery); output is "
                            "byte-identical (default: REPRO_EXEC_BACKEND "
                            "env or serial)")
    build.add_argument("--files-per-run", type=int, default=None,
                       help="container files per output run (default: 1)")

    explain = sub.add_parser(
        "explain", help="where a build's time went: its trace, metrics "
                        "and profile in one report"
    )
    explain.add_argument(
        "index", nargs="?", default=None,
        help="index directory (trace.json / run.metrics.json / "
             "run.profile.json); omit only with --diff",
    )
    explain.add_argument(
        "--diff", nargs=2, metavar=("A", "B"), default=None,
        help="compare two index directories: timings, counters, gauges "
             "and per-frame profile self time",
    )
    explain.add_argument("--top", type=int, default=10,
                         help="profile frames shown, and rows per --diff "
                              "table (default 10)")
    explain.add_argument("--folded", default=None, metavar="PATH",
                         help="also write the profile's collapsed stacks "
                              "(flamegraph.pl input)")

    verify = sub.add_parser(
        "verify", help="check an index's checksums and cross-file invariants"
    )
    verify.add_argument("index", help="index directory")
    verify.add_argument("--keep-going", action="store_true",
                        help="report every inconsistency instead of "
                             "stopping at the first")

    query = sub.add_parser("query", help="search an index directory")
    query.add_argument("index", help="index directory")
    query.add_argument("terms", nargs="+", help="query terms")
    query.add_argument("--mode", choices=["and", "or", "ranked", "phrase"],
                       default="ranked")
    query.add_argument("-k", type=int, default=10, help="ranked: top k")

    merge = sub.add_parser("merge", help="merge runs into a monolithic index")
    merge.add_argument("index", help="multi-run index directory")
    merge.add_argument("output", help="merged output directory")

    rep = sub.add_parser(
        "report", help="regenerate the full reproduction report (Markdown)"
    )
    rep.add_argument("--output", default="REPORT.md", help="file to write")

    simulate = sub.add_parser(
        "simulate", help="paper-scale pipeline simulation (no data needed)"
    )
    simulate.add_argument("--dataset", choices=["clueweb09", "wikipedia", "congress"],
                          default="clueweb09")
    simulate.add_argument("--parsers", type=int, default=6)
    simulate.add_argument("--cpu-indexers", type=int, default=2)
    simulate.add_argument("--gpus", type=int, default=2)

    lint = sub.add_parser(
        "lint", help="paper-invariant lint pack + typing gate"
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint)
    return parser


# ---------------------------------------------------------------------- #
# Command implementations (imports deferred: keep --help instant)
# ---------------------------------------------------------------------- #


def _cmd_generate(args) -> int:
    from repro.corpus.datasets import clueweb09_mini, congress_mini, wikipedia_mini

    maker = {
        "clueweb09": clueweb09_mini,
        "wikipedia": wikipedia_mini,
        "congress": congress_mini,
    }[args.preset]
    kwargs = {"scale": args.scale}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    coll = maker(args.root, **kwargs)
    print(f"{coll.name}: {coll.num_files} files, {coll.num_docs} docs, "
          f"{coll.compressed_bytes} compressed bytes at {coll.directory}")
    return 0


def _load_collection(path: str):
    import os

    from repro.corpus.collection import Collection

    name = os.path.basename(os.path.normpath(path))
    return Collection.load(name, path)


def _cmd_ingest(args) -> int:
    from repro.corpus.ingest import ingest_directory, ingest_jsonl

    if args.source.endswith(".jsonl"):
        coll = ingest_jsonl(
            args.source, args.output, name=args.name,
            text_field=args.text_field, docs_per_file=args.docs_per_file,
            on_error=args.on_error,
        )
    else:
        coll = ingest_directory(
            args.source, args.output, name=args.name,
            docs_per_file=args.docs_per_file, on_error=args.on_error,
        )
    print(f"{coll.name}: {coll.num_docs} documents in {coll.num_files} container "
          f"files at {coll.directory}")
    if coll.ingest_skipped:
        print(f"skipped {len(coll.ingest_skipped)} undecodable document(s):")
        for reason in coll.ingest_skipped[:20]:
            print(f"  {reason}")
    return 0


def _cmd_stats(args) -> int:
    from repro.corpus.collection import collection_statistics
    from repro.util.fmt import fmt_bytes, fmt_count

    stats = collection_statistics(_load_collection(args.collection),
                                  strip_html=not args.no_html)
    print(f"collection:   {stats.name}")
    print(f"compressed:   {fmt_bytes(stats.compressed_bytes)}")
    print(f"uncompressed: {fmt_bytes(stats.uncompressed_bytes)}")
    print(f"documents:    {fmt_count(stats.num_docs)}")
    print(f"terms:        {fmt_count(stats.num_terms)}")
    print(f"tokens:       {fmt_count(stats.num_tokens)}")
    print(f"tokens/doc:   {stats.tokens_per_doc:.1f}")
    return 0


def _cmd_build(args) -> int:
    from repro.core.config import PlatformConfig
    from repro.core.engine import IndexingEngine

    overrides = {}
    if args.exec_backend is not None:
        overrides["exec_backend"] = args.exec_backend
    if args.files_per_run is not None:
        overrides["files_per_run"] = args.files_per_run
    if args.profile:
        overrides["profile"] = True
    if args.profile_interval is not None:
        overrides["profile"] = True
        overrides["profile_interval_s"] = args.profile_interval
    config = PlatformConfig(
        num_parsers=args.parsers,
        num_cpu_indexers=args.cpu_indexers,
        num_gpus=args.gpus,
        codec=args.codec,
        positional=args.positional,
        sample_fraction=args.sample_fraction,
        strip_html=not args.no_html,
        on_error=args.on_error,
        quarantine_dir=args.quarantine_dir,
        telemetry=not args.no_telemetry,
        **overrides,
    )
    result = IndexingEngine(config).build(
        _load_collection(args.collection), args.output, resume=args.resume
    )
    print(f"indexed {result.token_count:,} tokens, {result.term_count:,} terms, "
          f"{result.document_count:,} docs into {result.run_count} runs")
    print(f"wall time: {result.wall_seconds:.1f}s (cpu {result.cpu_seconds:.1f}s); "
          f"simulated on the paper's node: "
          f"{result.report.total_s:.2f}s = {result.report.throughput_mbps:.1f} MB/s")
    print(f"CPU/GPU token split: {result.split.cpu_tokens:,} / {result.split.gpu_tokens:,}")
    sup = result.supervisor
    if sup is not None:
        line = (f"supervisor: parse worker restarted {sup.restarts} time(s), "
                f"{sup.requeued} requeued file(s)")
        if sup.degraded:
            line += ", degraded to inline parsing"
        if sup.poisoned:
            line += f", {sup.poisoned} poisoned file(s) parsed inline"
        print(line)
        for failure in sup.failures:
            print(f"  {failure.worker} incarnation {failure.incarnation} "
                  f"{failure.kind}: {failure.detail} → {failure.action}")
    artifacts = [p for p in (result.trace_path, result.metrics_path,
                             result.profile_path) if p is not None]
    if artifacts:
        print(f"telemetry: {', '.join(artifacts)}")
        print(f"where the time went: repro explain {args.output}")
    rb = result.robustness
    if rb.resumed_runs:
        print(f"resumed: {rb.resumed_runs} run(s) recovered from the manifest")
    if rb.retries:
        print(f"retries: {rb.retries} (backoff {rb.retry_backoff_s:.2f}s)")
    for skipped in rb.skipped:
        where = f" → {skipped.quarantined_to}" if skipped.quarantined_to else ""
        print(f"{skipped.action}: {skipped.path}{where} ({skipped.reason})")
    for failover in rb.gpu_failovers:
        print(failover.describe())
    return 0


def _cmd_explain(args) -> int:
    from repro.obs.profile import to_folded
    from repro.obs.profile_schema import PROFILE_FILENAME
    from repro.obs.stats import (
        load_build_artifacts,
        render_explain,
        render_explain_diff,
    )

    if args.diff is not None:
        a, b = args.diff
        print(render_explain_diff(
            (a, b), (load_build_artifacts(a), load_build_artifacts(b)), top=args.top
        ))
        return 0
    if args.index is None:
        print("error: explain needs an index directory (or --diff A B)",
              file=sys.stderr)
        return 2
    artifacts = load_build_artifacts(args.index)
    if args.folded is not None and PROFILE_FILENAME not in artifacts:
        print(f"error: --folded needs {PROFILE_FILENAME} in {args.index} "
              "(build with --profile)", file=sys.stderr)
        return 2
    print(render_explain(args.index, artifacts, top=args.top))
    if args.folded is not None:
        with open(args.folded, "w", encoding="utf-8") as fh:
            fh.write(to_folded(artifacts[PROFILE_FILENAME]))
        print(f"wrote folded stacks to {args.folded}")
    return 0


def _cmd_verify(args) -> int:
    import os

    from repro.obs.schema import METRICS_FILENAME, load_metrics
    from repro.robustness.verify import verify_index

    result = verify_index(args.index, keep_going=args.keep_going)
    for issue in result.issues:
        print(str(issue), file=sys.stderr)
    if result.ok:
        print(f"ok: {result.runs_checked} run(s), {result.docs_checked} doc(s), "
              f"{result.terms_checked} term(s) verified")
        metrics_path = os.path.join(args.index, METRICS_FILENAME)
        if os.path.exists(metrics_path):
            counters = load_metrics(metrics_path).get("counters", {})
            for prefix, title in (("robustness.", "robustness"),
                                  ("supervisor.", "supervisor")):
                section = {k: v for k, v in sorted(counters.items())
                           if k.startswith(prefix)}
                if section:
                    print(f"{title} counters from the build:")
                    for name, value in section.items():
                        print(f"  {name:32s} {value}")
        return 0
    print(f"{len(result.issues)} inconsistenc"
          f"{'y' if len(result.issues) == 1 else 'ies'} found", file=sys.stderr)
    return 1


def _cmd_query(args) -> int:
    from repro.search.query import SearchEngine

    engine = SearchEngine(args.index)
    text = " ".join(args.terms)
    if args.mode == "and":
        docs = engine.boolean_and(text)
        print(f"{len(docs)} documents: {docs[:50]}")
    elif args.mode == "or":
        docs = engine.boolean_or(text)
        print(f"{len(docs)} documents: {docs[:50]}")
    elif args.mode == "phrase":
        docs = engine.phrase(text)
        print(f"{len(docs)} documents contain the phrase: {docs[:50]}")
    else:
        for hit in engine.ranked(text, k=args.k):
            print(f"doc {hit.doc_id:8d}  score {hit.score:.4f}")
    return 0


def _cmd_merge(args) -> int:
    from repro.postings.merge import merge_index

    stats = merge_index(args.index, args.output)
    print(f"merged {stats['input_runs']} runs / {stats['terms']:,} terms / "
          f"{stats['postings']:,} postings → {stats['output_bytes']:,} bytes")
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import generate_full_report

    text = generate_full_report()
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.output} ({len(text)} chars)")
    return 0


def _cmd_simulate(args) -> int:
    from repro.core.config import PlatformConfig
    from repro.core.pipeline import simulate_full_build
    from repro.core.workload import WorkloadModel

    config = PlatformConfig(
        num_parsers=args.parsers,
        num_cpu_indexers=args.cpu_indexers,
        num_gpus=args.gpus,
    )
    works = WorkloadModel.paper_scale(args.dataset).files()
    report = simulate_full_build(works, config)
    p = report.pipeline
    print(f"dataset {args.dataset}: {len(works)} files, "
          f"{p.uncompressed_bytes / 1024**4:.2f} TiB, config: {config.describe()}")
    print(f"sampling       {report.sampling_s:10.2f} s")
    print(f"parsers        {p.parser_finish_s:10.2f} s")
    print(f"indexers       {p.indexer_finish_s:10.2f} s "
          f"(pre {p.pre_total_s:.1f} / indexing {p.indexing_total_s:.1f} / "
          f"post {p.post_total_s:.1f} / waits {p.indexer_wait_s:.1f})")
    print(f"dict combine   {report.dict_combine_s:10.2f} s")
    print(f"dict write     {report.dict_write_s:10.2f} s")
    print(f"total          {report.total_s:10.2f} s  →  "
          f"{report.throughput_mbps:.2f} MB/s")
    return 0


def _cmd_lint(args) -> int:
    from repro.lint.cli import run

    return run(args)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code (2 on usage errors)."""
    args = build_arg_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "ingest": _cmd_ingest,
        "stats": _cmd_stats,
        "build": _cmd_build,
        "explain": _cmd_explain,
        "verify": _cmd_verify,
        "query": _cmd_query,
        "merge": _cmd_merge,
        "report": _cmd_report,
        "simulate": _cmd_simulate,
        "lint": _cmd_lint,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:  # e.g. `repro explain … | head`
        sys.stderr.close()  # suppress the interpreter's flush-failure noise
        return 0
    except FileNotFoundError as exc:
        print(f"error: missing file or directory: {exc.filename or exc}", file=sys.stderr)
        return 2
    except (NotADirectoryError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
