"""Benchmark of the cfpq evaluator: one workload per invocation.

    python3 perfbench/run.py --workload hierarchy-all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and the grammars are read from ``grammars/``. The invocation
builds the workload's inputs from the seed, computes the expected
answers apart from the engine, runs perfbench/measure.py as a fresh
child process on the generated files, checks every answer, runs the
cross-path byte checks, and prints one JSON line as the last line of
standard output:

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer ones, read from the
spans of a traced child (written to ``.bench_work/traces/``). See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150
COUNTERS = ("pops", "items_created", "insertions", "edges_added")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: of 300 values, p95 leaves 15 above it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(job: dict, workdir: Path) -> dict:
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "measure.py"), str(job_path)],
        env=child_env(),
        stdout=sys.stderr,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return json.loads(Path(job["result"]).read_text(encoding="utf-8"))


# -- checks ------------------------------------------------------------------


def check_ops(rounds: list[dict], expected) -> tuple[int, int]:
    """Count attempted and failed operations.

    An operation fails on a CfpqError, on an answer whose digest differs
    from the expected TSV's, on ``pops != insertions`` at the fixpoint,
    or on counters that differ from the same query in an earlier round.
    """
    if isinstance(expected, bytes):
        expected = {None: expected}  # all-vertex ops carry no source
    digests = {source: sha256_hex(data) for source, data in expected.items()}
    first_counters: dict = {}
    attempted = failed = 0
    for round_ in rounds:
        for op in round_["ops"]:
            attempted += 1
            source = op.get("source")
            counters = tuple(op.get(key) for key in COUNTERS)
            if (
                "error" in op
                or op["sha"] != digests[source]
                or op["pops"] != op["insertions"]
                or first_counters.setdefault(source, counters) != counters
            ):
                failed += 1
    return attempted, failed


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def is_symmetric(tsv: str) -> bool:
    pairs = set()
    for line in tsv.splitlines():
        source, _, target = line.split("\t")
        pairs.add((source, target))
    return all((t, s) in pairs for s, t in pairs)


def once_per_run_ok(workload: str, inputs, tsv_path: Path, seed: int, workdir: Path) -> bool:
    """Checks made once per invocation, on top of the per-operation ones.

    hierarchy-all: ``cfpq eval --add-inverses`` in a child process writes
    the library path's bytes, and the answer is symmetric, as sc_t's must
    be. chain-nesting: the lifo and random disciplines render the fifo
    bytes. point-lookups: every expected answer holds its own source,
    because S derives the empty word.
    """
    if workload == "point-lookups":
        return all(f"{s}\tS\t{s}\n".encode() in inputs.expected[s] for s in inputs.sources)
    if not tsv_path.exists():
        return False
    library = tsv_path.read_bytes()
    if workload == "hierarchy-all":
        out = workdir / "cli.tsv"
        cli = subprocess.run(
            [sys.executable, "-m", "cfpq", "eval", "--grammar", str(inputs.grammar),
             "--graph", str(inputs.graph), "--add-inverses", "--out", str(out)],
            env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S,
        )
        return cli.returncode == 0 and out.read_bytes() == library and is_symmetric(library.decode())
    from cfpq import evaluate, load_triples, parse_grammar, results_tsv

    grammar = parse_grammar(inputs.grammar.read_text(encoding="utf-8"))
    graph = load_triples(inputs.graph.read_text(encoding="utf-8"))
    query = [(vertex, grammar.start) for vertex in graph.vertices()]
    return all(
        results_tsv(evaluate(grammar, graph, query, discipline, seed)).encode() == library
        for discipline in ("lifo", "random")
    )


# -- metrics -----------------------------------------------------------------


def end_to_end(result: dict) -> dict[str, tuple[float, str]]:
    rounds = result["rounds"]
    times = [op["seconds"] for round_ in rounds for op in round_["ops"] if "error" not in op]
    return {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "eval_s": (statistics.median(r["eval_s"] for r in rounds), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "lookup_p50_ms": (statistics.median(times) * 1000, "ms"),
        "lookup_p95_ms": (percentile(times, 0.95) * 1000, "ms"),
    }


def per_layer(result: dict, spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced run's spans and the traced rounds' records.

    A span's self time is its duration minus its children's. The
    ``*.self_pct`` shares are each layer's self time in one set-up plus
    one round: set-up spans are averaged over the traced set-ups, round
    spans over the traced rounds, and the probes are left out.
    """
    root: dict[int, int] = {}
    name_of: dict[int, str] = {}
    child_time: dict[int, float] = {}
    for ident, parent, name, start, end in spans:  # parents precede children
        root[ident] = ident if parent is None else root[parent]
        name_of[ident] = name
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + end - start

    def median_span(name: str) -> float:
        return statistics.median(end - start for _, _, n, start, end in spans if n == name)

    def median_per_round(name: str) -> float:
        totals: dict[int, float] = {}
        for ident, _, n, start, end in spans:
            if n == name:
                totals[root[ident]] = totals.get(root[ident], 0.0) + end - start
        return statistics.median(totals.values())

    self_by_kind: dict[str, dict[str, float]] = {"bench.setup": {}, "bench.round": {}}
    for ident, _, name, start, end in spans:
        totals = self_by_kind.get(name_of[root[ident]])
        if totals is not None:
            layer = name.split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + end - start - child_time.get(ident, 0.0)
    roots = Counter(name_of[r] for r in set(root.values()))
    self_s = {
        layer: sum(totals.get(layer, 0.0) / roots[kind] for kind, totals in self_by_kind.items())
        for layer in ("grammar", "graph", "engine", "bench")
    }

    traced = [r for r in result["rounds"] if r["traced"]]
    counts = {key: sum(op.get(key, 0) for op in traced[0]["ops"]) for key in COUNTERS}
    run_pops = sum(op.get("pops", 0) for r in traced for op in r["ops"])
    run_s = sum(end - start for _, _, n, start, end in spans if n == "engine.run")
    metrics = {
        "grammar.parse_ms": (median_span("grammar.parse") * 1000, "ms"),
        "graph.load_s": (median_span("graph.load"), "s"),
        "graph.inverses_s": (median_span("graph.inverses"), "s"),
        "graph.copy_ms": (median_span("graph.copy") * 1000, "ms"),
        "engine.init_s": (median_per_round("engine.init"), "s"),
        "engine.run_s": (median_per_round("engine.run"), "s"),
        "engine.pop_us": (run_s / max(run_pops, 1) * 1e6, "us"),
        "engine.render_s": (median_per_round("engine.render"), "s"),
        **{f"engine.{key}": (counts[key], "count") for key in COUNTERS},
        "engine.edges_per_pop": (counts["edges_added"] / max(counts["pops"], 1), "ratio"),
        "engine.run_rss_mb": (result["run_rss_mb"], "MB"),
        **{f"{layer}.self_pct": (100 * t / sum(self_s.values()), "%") for layer, t in self_s.items()},
        "trace.overhead_s": (trace_overhead(result), "s"),
    }
    return metrics


def trace_overhead(result: dict) -> float:
    """What tracing adds to one round's ``eval_s``.

    With lookups, the median traced-minus-untraced difference of a
    lookup answered both ways back to back, times the lookups per round.
    Otherwise the median difference within adjacent round pairs (rounds
    go T U U T ..., so each pair holds one of each kind); the host's
    drift over a round of seconds swamps the cost of a few spans there.
    """
    rounds = result["rounds"]
    if "overhead_pairs" in result:
        return statistics.median(result["overhead_pairs"]) * len(rounds[0]["ops"])
    pairs = [rounds[i : i + 2] for i in range(0, len(rounds) - 1, 2)]
    return statistics.median(sum(r["eval_s"] if r["traced"] else -r["eval_s"] for r in pair) for pair in pairs)


# -- one run -------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    """Build, measure and check one run; returns the result object that is printed."""
    from inputs import BUILDERS, SIZES

    size = size or SIZES[workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        inputs = BUILDERS[workload](ROOT, workdir, seed, size)
        print(f"{workload} seed={seed}: {inputs.make_up}", file=sys.stderr)
        job = {
            "grammar": str(inputs.grammar),
            "graph": str(inputs.graph),
            "inverses": inputs.inverses,
            "sources": inputs.sources,
            "warmup": size.warmup,
            "seconds": seconds,
            "trace": trace,
            "tsv_out": str(workdir / "library.tsv"),
            "result": str(workdir / "result.json"),
            "trace_out": str(workdir / "trace.json"),
        }
        result = run_child(job, workdir)
        attempted, failed = check_ops(result["rounds"], inputs.expected)
        correct = once_per_run_ok(workload, inputs, workdir / "library.tsv", seed, workdir)
        if trace:
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            kept = traces / f"{workload}-seed{seed}.json"
            shutil.copyfile(job["trace_out"], kept)
            metrics = per_layer(result, json.loads(kept.read_text(encoding="utf-8")))
        else:
            metrics = end_to_end(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("hierarchy-all", "chain-nesting", "point-lookups"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cfpq" / "__init__.py").is_file() or not (ROOT / "grammars").is_dir():
        print(f"error: {ROOT} is not a cfpq source checkout (needs src/cfpq and grammars/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
