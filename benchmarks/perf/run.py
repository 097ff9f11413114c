#!/usr/bin/env python3
"""The repository's benchmark: one workload, one seed, one JSON result.

    python3 benchmarks/perf/run.py --workload web_serial --seed 1

One *run* is: set-up (generate the corpus from ``--seed``, build the serial
reference index, verify and digest it), then timed reps — each a fresh
interpreter (``child.py``) in its own session — for ``--seconds`` seconds,
every rep's output checked against the reference outside the timed region.
A timing metric's value is the median over the run's reps, after the host
has been taken out of each rep's seconds: stolen time is subtracted and the
rest is scaled by the CPU speed a co-running probe measured on the rep's
core during the rep (``prober.py``; README.md says why).

``--trace 1`` adds one traced rep (``tracing.py``) and reports the
per-layer metrics instead; end-to-end numbers never come from traced reps.

Standard output carries two JSON lines: the full result document (also
written under ``benchmarks/perf/out/``) and, last, the summary
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import os
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(PERF_DIR))
sys.path.insert(1, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from typing import Any  # noqa: E402

import numpy  # noqa: E402

from repro.core.shm_ring import list_repro_segments  # noqa: E402
from repro.corpus.synthetic import generate_collection  # noqa: E402
from repro.postings.reader import PostingsReader  # noqa: E402
from repro.search.query import normalize_query  # noqa: E402
from repro.util.rng import derive_seed, make_rng  # noqa: E402
from repro.util.timing import now  # noqa: E402

import ops  # noqa: E402
import procs  # noqa: E402
from workloads import WORKLOADS, Workload, collection_spec  # noqa: E402

OUT_DIR = os.path.join(PERF_DIR, "out")
#: Reps are sized so ``--seconds 25`` holds five at this box's usual speed;
#: a run in a slow stretch stops at the budget with fewer, never under this.
MIN_REPS = 3
TRACE_UNTRACED_REPS = 3
CHECK_TERMS = 200
#: Probe chunks per CPU-second that define speed 1.0: what the box this
#: benchmark was sized on delivers to a rep in a quiet stretch.  A unit,
#: not a tunable — changing it rescales every timing metric.
REFERENCE_SPEED = 6_000.0


def child_env() -> dict[str, str]:
    """The environment of every process the harness starts."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), PERF_DIR])
    return env


class SpeedProbes:
    """One ``prober.py`` per allowed core, for the life of the run."""

    def __init__(self, cores: list[int]) -> None:
        self.procs = {
            core: subprocess.Popen(
                [sys.executable, os.path.join(PERF_DIR, "prober.py"), str(core)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(),
            )
            for core in cores
        }

    def speed(self, t0: float, t1: float, cores: list[int]) -> float:
        """Mean relative CPU speed of ``cores`` over the window ``[t0, t1]``."""
        speeds = []
        for core in cores:
            proc = self.procs[core]
            assert proc.stdin is not None and proc.stdout is not None
            proc.stdin.write(f"{t0!r} {t1!r}\n")
            proc.stdin.flush()
            count, cpu_s = proc.stdout.readline().split()
            if int(count) < 10:
                raise RuntimeError(f"only {count} speed samples on core {core}")
            speeds.append(int(count) / float(cpu_s) / REFERENCE_SPEED)
        return statistics.mean(speeds)

    def stop(self) -> None:
        for proc in self.procs.values():
            assert proc.stdin is not None
            proc.stdin.close()  # EOF is the probe's signal to exit
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def _quartiles(samples: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is all three."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def _first_line(path: str, prefix: str = "") -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return next((line.strip() for line in fh if line.startswith(prefix)), None)
    except OSError:
        return None


def machine_record() -> dict[str, Any]:
    model = _first_line("/proc/cpuinfo", "model name")
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model.split(":", 1)[1].strip() if model else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": _first_line("/proc/loadavg"),
        "git_commit": commit,
    }


class Run:
    """One benchmark run: owns the temp directory and the reps' sessions."""

    def __init__(self, workload: Workload, args: argparse.Namespace) -> None:
        self.workload = workload
        self.args = args
        self.tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
        self.cores = sorted(os.sched_getaffinity(0))
        self.probes = SpeedProbes(self.cores)
        #: Every rep's session, finished or in flight (procs.run_in_session).
        self.sessions: set[int] = set()
        self.segments_at_start = set(list_repro_segments())
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.merged_digest: str | None = None

    # -- set-up ------------------------------------------------------------ #

    def setup(self) -> None:
        """Corpus, serial reference build, reference digest and verify."""
        wl = self.workload
        # Set-up runs here, on one core, so one probe sees all of it.
        os.sched_setaffinity(0, self.cores[:1])
        with ops.Usage() as usage:
            self.collection = generate_collection(
                collection_spec(wl, self.args.seed), os.path.join(self.tmp, "corpus"))
            self.reference_dir = os.path.join(self.tmp, "reference")
            self.reference = ops.run_build(
                self.collection.directory, self.collection.name,
                {**wl.config, "exec_backend": "serial"}, self.reference_dir,
            )
            problems = ops.check_index(self.reference_dir, None)
            self.reference_digest = ops.index_digest(self.reference_dir)
            self.queries: list[str] = []
            if wl.op == "merge_read":
                self._make_queries()
        self.setup_usage = usage.as_dict()
        self._normalise(self.setup_usage, self.cores[:1])
        self._normalise(self.reference, self.cores[:1])
        if problems:
            raise RuntimeError(f"reference build does not verify: {problems}")

    def _normalise(self, result: dict[str, Any], cores: list[int]) -> None:
        """Take the host's share out of a result's seconds.

        Wall loses the time the hypervisor stole from the op's cores (their
        mean, when it ran on several); wall and CPU are then scaled by the
        speed those cores delivered.  The raw readings are kept.
        """
        speed = self.probes.speed(result["t_start"], result["t_end"], cores)
        steal = statistics.mean(result["steal_s"][str(core)] for core in cores)
        result.update(speed=speed, raw_wall_s=result["wall_s"], raw_cpu_s=result["cpu_s"],
                      steal_s=steal)
        result["wall_s"] = (result["wall_s"] - steal) * speed
        result["cpu_s"] *= speed

    def _make_queries(self) -> None:
        """Seeded two-term queries, terms weighted by document frequency."""
        rng = make_rng(derive_seed(self.args.seed, "perf", "queries"))
        with PostingsReader(self.reference_dir) as reader:
            # Only terms the query pipeline maps to themselves: a stem that
            # re-stems to something else would be a lookup of a non-term.
            terms = sorted(t for t in reader.vocabulary() if normalize_query(t) == [t])
            weights = numpy.array([len(reader.postings(t)) for t in terms], dtype=float)
        picks = rng.choice(len(terms), size=(self.workload.queries, 2), p=weights / weights.sum())
        self.queries = [f"{terms[a]} {terms[b]}" for a, b in picks]
        sample = rng.choice(len(terms), size=min(CHECK_TERMS, len(terms)), replace=False)
        self.check_terms = [terms[i] for i in sample]

    # -- reps ---------------------------------------------------------------- #

    def rep(self, index: int, trace: bool = False,
            backend: str | None = None) -> dict[str, Any] | None:
        """Run one rep in a fresh process; ``None`` if it failed any check.

        ``backend`` overrides the workload's ``exec_backend`` (the serial
        twin of a multiprocess workload, for ``mp.wall_vs_serial``).
        """
        wl = self.workload
        config = {**wl.config, "exec_backend": backend or wl.config["exec_backend"]}
        out_dir = os.path.join(self.tmp, f"rep{index}")
        job_path = out_dir + ".job.json"
        result_path = out_dir + ".result.json"
        if config["exec_backend"] == "multiprocess":
            cpus = self.cores
        else:
            cpus = [self.cores[index % len(self.cores)]]
        job = {
            "op": wl.op, "trace": trace, "config": config, "out_dir": out_dir,
            "cpus": cpus, "all_cpus": self.cores,
            "result": result_path, "corpus": self.collection.name,
            "corpus_dir": self.collection.directory,
            "index_dir": self.reference_dir, "queries": self.queries,
        }
        os.makedirs(out_dir)
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        timeout_s = self.args.rep_timeout_s or max(30.0, 10.0 * self.reference["raw_wall_s"])
        outcome = procs.run_in_session(
            [sys.executable, os.path.join(PERF_DIR, "child.py"), job_path],
            child_env(), timeout_s, self.sessions,
        )
        self.attempted += 1
        problems = outcome.problems
        result = None
        if not problems:
            with open(result_path, "r", encoding="utf-8") as fh:
                result = json.load(fh)
            self._normalise(result, cpus)
            if trace:
                result["trace_speed"] = self.probes.speed(
                    result["t_start"], result["t_trace_end"], cpus)
            wrong = self._check_output(result, out_dir)
            if wrong:
                self.correct = False
                problems = wrong
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.failures.extend(f"rep {index}: {p}" for p in problems)
            return None
        return result

    def _check_output(self, result: dict[str, Any], out_dir: str) -> list[str]:
        expected = self.reference["postings"]
        if self.workload.op == "build":
            problems = ops.check_index(out_dir, self.reference_digest)
            if result["postings"] != expected:
                problems.append(f"{result['postings']} postings, reference has {expected}")
            return problems
        merged = [os.path.join(out_dir, f"merged{i}") for i in (0, 1)]
        if self.merged_digest is None:
            self.merged_digest = ops.index_digest(merged[0])
        problems = [p for d in merged for p in ops.check_index(d, self.merged_digest)]
        if result["merged_postings"] != expected or result["decoded_postings"] != 2 * expected:
            problems.append(
                f"merged {result['merged_postings']} / decoded {result['decoded_postings']} "
                f"postings, reference has {expected}")
        problems += ops.check_merge_equivalence(self.reference_dir, merged[0], self.check_terms)
        self.merged_bytes = ops.index_bytes(merged[0])
        return problems

    def timed_reps(self) -> list[dict[str, Any]]:
        """Closed loop, one client: reps back to back until the budget is used."""
        if self.args.smoke:
            budget_s, at_least = 0.0, 1
        elif self.args.trace:
            budget_s, at_least = 0.0, TRACE_UNTRACED_REPS
        else:
            budget_s, at_least = float(self.args.seconds), MIN_REPS
        good = []
        started = now()
        count = 0
        while True:
            result = self.rep(count)
            count += 1
            if result is not None:
                good.append(result)
            elapsed = now() - started
            # Stop when the next rep would not finish inside the budget.
            if count >= at_least and elapsed + elapsed / count > budget_s:
                return good

    # -- results --------------------------------------------------------------- #

    def end_to_end(self, reps: list[dict[str, Any]], bench: dict[str, Any]) -> dict[str, Any]:
        postings = self.reference["postings"]
        if self.workload.op == "merge_read":
            stored = self.merged_bytes
        else:
            stored = ops.index_bytes(self.reference_dir)
        samples = {
            "input_mb_s": [r["input_bytes"] / 1e6 / r["wall_s"] for r in reps],
            "postings_s": [r["postings"] / r["wall_s"] for r in reps],
            "cpu_s": [r["cpu_s"] for r in reps],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
            "index_bytes_per_posting": [stored / postings],
            "setup_s": [self.setup_usage["wall_s"]],
        }
        # The same timing metrics straight off the clock, host included:
        # diagnostics beside each value, never the value itself.
        raw = {
            "input_mb_s": [r["input_bytes"] / 1e6 / r["raw_wall_s"] for r in reps],
            "postings_s": [r["postings"] / r["raw_wall_s"] for r in reps],
            "cpu_s": [r["raw_cpu_s"] for r in reps],
            "setup_s": [self.setup_usage["raw_wall_s"]],
        }
        out = {}
        for spec in bench["end_to_end"]:
            values = samples[spec["name"]]
            q1, median, q3 = _quartiles(values)
            value = max(values) if spec["name"] == "peak_rss_mb" else median
            spread = (q3 - q1) / median
            out[spec["name"]] = {
                "value": value, "unit": spec["unit"], "better": spec["better"],
                "bound": spec["bound"], "samples": values, "n": len(values),
                "min": min(values), "q1": q1, "q3": q3, "spread": spread,
                "unstable": spread > spec["bound"],
            }
            if spec["name"] in raw:
                out[spec["name"]]["raw_samples"] = raw[spec["name"]]
                out[spec["name"]]["raw_value"] = statistics.median(raw[spec["name"]])
        return out

    def serial_twin_reps(self, first_index: int) -> list[dict[str, Any]]:
        """The same corpus and config under ``exec_backend="serial"``, as
        fresh-process reps like any other: ``mp.wall_vs_serial``'s base."""
        results = [self.rep(first_index + i, backend="serial")
                   for i in range(TRACE_UNTRACED_REPS)]
        return [r for r in results if r is not None]

    def per_layer(self, reps: list[dict[str, Any]], serial: list[dict[str, Any]],
                  traced: dict[str, Any], bench: dict[str, Any]) -> dict[str, Any]:
        layers = dict(traced["layers"])
        untraced_wall = statistics.median(r["wall_s"] for r in reps)
        layers["trace.overhead_ratio"] = traced["wall_s"] / untraced_wall
        if serial:
            layers["mp.wall_vs_serial"] = (
                untraced_wall / statistics.median(r["wall_s"] for r in serial))
        # Layer seconds and rates are scaled like the end-to-end ones, by
        # the speed probed over the traced rep and its drives.
        speed = traced["trace_speed"]
        out = {}
        for spec in bench["per_layer"]:
            value = layers.get(spec["name"])
            if value is not None and spec["unit"] in ("s", "ms"):
                value *= speed
            elif value is not None and spec["unit"].endswith("/s"):
                value /= speed
            out[spec["name"]] = {"value": value, "unit": spec["unit"], "better": spec["better"]}
        return out

    def cleanup(self) -> None:
        """Kill what is still running, remove what was written, then assert
        that no process of this run (child, or member of a rep's session,
        re-parented or not) is alive."""
        self.probes.stop()
        os.sched_setaffinity(0, self.cores)
        for session in self.sessions:
            procs.kill_session(session)
        procs.remove_new_segments(self.segments_at_start)
        shutil.rmtree(self.tmp, ignore_errors=True)
        survivors = procs.live_descendants(self.sessions)
        if survivors:
            raise RuntimeError(f"processes still alive at exit: {survivors}")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="timed-rep budget of the run (at least %d reps run)" % MIN_REPS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced rep and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="two-file corpus, one rep (test_harness.py)")
    parser.add_argument("--rep-timeout-s", type=float, default=None,
                        help="override the rep timeout (default: 10x the reference build)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    workload = WORKLOADS[args.workload].sized(args.smoke)
    machine = machine_record()
    # The "build": byte-compile the program once so no rep pays for it.
    compileall.compile_dir(os.path.join(ROOT, "src", "repro"), quiet=2)

    def on_signal(signum: int, _frame: object) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    run = Run(workload, args)
    os.makedirs(run.tmp)
    try:
        run.setup()
        reps = run.timed_reps()
        serial: list[dict[str, Any]] = []
        traced = None
        if args.trace and reps:
            if workload.config["exec_backend"] == "multiprocess":
                serial = run.serial_twin_reps(run.attempted)
            traced = run.rep(run.attempted, trace=True)
        if not reps or (args.trace and traced is None):
            raise RuntimeError(f"no usable rep: {run.failures}")
        document = {
            "schema": "repro.perfbench/1",
            "workload": workload.name,
            "why": workload.why,
            "seed": args.seed,
            "smoke": args.smoke,
            "machine": machine,
            "protocol": {
                "seconds": args.seconds, "reps": len(reps),
                "fresh_interpreter_per_rep": True, "fsync": "program default (on)",
                "reference_speed": REFERENCE_SPEED, "setup_speed": run.setup_usage["speed"],
                # Per rep, before scaling: what the clock read, and the
                # relative CPU speed the probes saw during that rep.
                "raw_wall_s": [r["raw_wall_s"] for r in reps],
                "raw_cpu_s": [r["raw_cpu_s"] for r in reps],
                "steal_s": [r["steal_s"] for r in reps],
                "speed": [r["speed"] for r in reps],
            },
            "inputs": {
                "files": len(run.collection.files),
                "input_bytes": run.reference["input_bytes"],
                "postings": run.reference["postings"],
                "terms": run.reference["terms"],
                "runs": run.reference["runs"],
                "reference_digest": run.reference_digest,
                # What every rep wrote, byte for byte (checked per rep).
                "output_digest": run.merged_digest or run.reference_digest,
                "queries": len(run.queries),
            },
            "ops_attempted": run.attempted,
            "ops_failed": run.failed,
            "failures": run.failures,
            "correct": run.correct and run.failed == 0,
            "end_to_end": run.end_to_end(reps, bench),
        }
        suffix = ""
        if traced is not None:
            suffix = ".trace"
            document["per_layer"] = run.per_layer(reps, serial, traced, bench)
            document["warnings"] = traced["warnings"]
            with open(os.path.join(OUT_DIR, f"{workload.name}.trace.json"), "w",
                      encoding="utf-8") as fh:
                json.dump({"schema": "repro.perfbench.trace/1", "workload": workload.name,
                           "seed": args.seed, "spans": traced["spans"],
                           "query_seconds": traced.get("query_seconds", [])}, fh)
            for warning in traced["warnings"]:
                print(f"warning: {warning}", file=sys.stderr)
    finally:
        # Also on an exception or a signal: leave only after everything
        # this run started is gone, and say so if it was not.
        run.cleanup()

    with open(os.path.join(OUT_DIR, f"{workload.name}.seed{args.seed}{suffix}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
    section = document["per_layer"] if traced is not None else document["end_to_end"]
    summary = {
        "correct": document["correct"],
        "attempted": run.attempted,
        "failed": run.failed,
        # A layer the workload bypasses (or whose wrap target is gone) is
        # null in the document and 0 here, where a number is required.
        "metrics": {name: {"value": m["value"] or 0, "unit": m["unit"]}
                    for name, m in section.items()},
    }
    print(json.dumps(document))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
