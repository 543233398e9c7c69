"""The measured process of one benchmark run.

    python3 perfbench/measure.py JOB.json     (PYTHONPATH must reach cfpq)

run.py starts one of these per run, so peak RSS is this run's own. It
reads the generated grammar and graph files named in the job and plays
the rounds that end within ``seconds``. A round sets up (repeatedly, for
``SETUP_SECONDS``) and then answers one all-vertex query, or one pass
over the job's lookup sources; the first round also runs the untimed
warm-up lookups. It calls only what ``cfpq eval`` calls:
``parse_grammar``, ``load_ntriples``/``load_triples``, ``with_inverses``,
``Evaluation(...).run()`` and ``results_tsv``.

With ``trace`` set, traced and untraced rounds alternate in pairs,
starting with one traced round. Traced rounds record a span around
every call, and round and lookup parent spans; untraced rounds only
read the clock around each query, so paired traced and untraced rounds
differ by the cost of tracing. Spans stay in
memory and are written to ``trace_out`` when the run ends. Answers are
reported as SHA-256 digests with the engine's counters; the first
all-vertex answer is also written out whole, to ``tsv_out``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

from cfpq import CfpqError, Evaluation, load_ntriples, load_triples, parse_grammar, results_tsv, with_inverses

SETUP_SECONDS = 0.5
COPY_PROBES = 5
INVERSE_PROBES = 3
OVERHEAD_PAIRS = 100


def status_mb(field: str) -> float:
    """A size field of /proc/self/status (``VmRSS``, ``VmHWM``), in MB.

    Peak RSS is read from VmHWM: getrusage's ru_maxrss would also count
    the parent's peak, which the kernel carries over into the child at exec.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no {field} line in /proc/self/status")


class Spans:
    """In-memory span log: ``[id, parent id or None, name, start, end]``."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [len(self.records), self._open[-1] if self._open else None, name, perf_counter(), None]
        self.records.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            record[4] = perf_counter()
            self._open.pop()


def untraced(name: str):
    return nullcontext()


def set_up(job: dict, span):
    with span("bench.setup"):
        started = perf_counter()
        with span("grammar.parse"):
            grammar = parse_grammar(Path(job["grammar"]).read_text(encoding="utf-8"))
        with span("graph.load"):
            text = Path(job["graph"]).read_text(encoding="utf-8")
            graph = load_ntriples(text) if job["graph"].endswith(".nt") else load_triples(text)
        if job["inverses"]:
            with span("graph.inverses"):
                graph = with_inverses(graph)
        elapsed = perf_counter() - started
    return grammar, graph, elapsed


def answer(grammar, graph, query, span, rss: bool = False):
    """One query as ``cfpq eval`` answers it; returns (record, tsv).

    The clock stops after the query's working state is freed, as a
    closed-loop caller pays for that before its next query. With ``rss``
    the record also holds ``run_rss_mb``: the peak RSS after ``.run()``
    minus the RSS before it.
    """
    record: dict = {}
    tsv = None
    started = perf_counter()
    try:
        with span("engine.init"):
            evaluation = Evaluation(grammar, graph, query)
        if rss:
            rss_before = status_mb("VmRSS")
        with span("engine.run"):
            result = evaluation.run()
        if rss:
            record["run_rss_mb"] = status_mb("VmHWM") - rss_before
        with span("engine.render"):
            tsv = results_tsv(result)
        record.update(result.stats.as_dict())
        with span("engine.free"):
            del evaluation, result
    except CfpqError as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["seconds"] = perf_counter() - started
    if tsv is not None:
        record["sha"] = hashlib.sha256(tsv.encode()).hexdigest()
    return record, tsv


def all_vertex_round(job, grammar, graph, query, span, rss):
    with span("bench.round"):
        record, tsv = answer(grammar, graph, query, span, rss)
    if tsv is not None and not Path(job["tsv_out"]).exists():
        Path(job["tsv_out"]).write_text(tsv, encoding="utf-8")
    return record["seconds"], [record]


def lookup_round(job, grammar, graph, queries, span, rss):
    records = []
    with span("bench.round"):
        for name, query in queries:
            with span("bench.lookup"):
                record, _ = answer(grammar, graph, query, span, rss and not records)
            record["source"] = name
            records.append(record)
    return sum(record["seconds"] for record in records), records


def probe_layers(job, graph, spans) -> None:
    """Layer timings outside the rounds: the working copy of the loaded
    graph, and with_inverses where set-up does not call it."""
    for _ in range(COPY_PROBES):
        with spans.span("graph.copy"):
            graph.copy()
    if not job["inverses"]:
        for _ in range(INVERSE_PROBES):
            with spans.span("graph.inverses"):
                with_inverses(graph)


def overhead_pairs(grammar, graph, queries) -> list[float]:
    """Traced minus untraced time of the first OVERHEAD_PAIRS lookups,
    each answered both ways back to back, in alternating order, so that
    the host's drift between the two is negligible. The collector runs
    only between pairs: its pauses, of up to 25 ms, would otherwise
    swamp a cost of well under 1 ms."""
    spans = Spans()  # kept apart from the run's spans
    differences = []
    gc.disable()
    try:
        for i, (_, query) in enumerate(queries[:OVERHEAD_PAIRS]):
            gc.collect()
            seconds = {}
            for traced in (i % 2 == 1, i % 2 == 0):
                seconds[traced] = answer(grammar, graph, query, spans.span if traced else untraced)[0]["seconds"]
            differences.append(seconds[True] - seconds[False])
    finally:
        gc.enable()
    return differences


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    spans = Spans()
    setups: list[float] = []
    rounds: list[dict] = []
    warm: list[dict] = []
    longest = 0.0
    began = perf_counter()
    # A round starts only if a round as long as the longest so far still
    # ends within the run's seconds.
    while len(rounds) < (2 if job["trace"] else 1) or perf_counter() - began + longest < job["seconds"]:
        round_began = perf_counter()
        # Traced and untraced rounds go T U U T T U ..., so a drift over
        # the run weighs on both alike.
        traced = job["trace"] and len(rounds) % 4 in (0, 3)
        span = spans.span if traced else untraced
        # Every round sets up afresh, repeating for SETUP_SECONDS, so the
        # set-up samples spread over the run like the rounds do. Each
        # set-up starts from a heap without the previous graph, as a
        # fresh ``cfpq eval`` would.
        setup_began = perf_counter()
        while perf_counter() - setup_began < SETUP_SECONDS:
            grammar = graph = None
            gc.collect()
            grammar, graph, elapsed = set_up(job, span)
            setups.append(elapsed)
        start = grammar.start
        if job["sources"]:
            queries = [(name, [(graph.vertex_id(name), start)]) for name in job["sources"]]
            play = lookup_round
        else:
            queries = [(vertex, start) for vertex in graph.vertices()]
            play = all_vertex_round
        # A traced run samples run_rss_mb once, on the process's first
        # query, before other queries have raised the peak.
        if not rounds:
            warm = [
                answer(grammar, graph, query, untraced, job["trace"] and not i)[0]
                for i, (_, query) in enumerate(queries[: job["warmup"]])
            ]
        gc.collect()
        eval_s, records = play(job, grammar, graph, queries, span, traced and not rounds and not warm)
        rounds.append({"traced": traced, "eval_s": eval_s, "ops": records})
        longest = max(longest, perf_counter() - round_began)

    out = {"setup_s": setups, "rounds": rounds, "peak_rss_mb": status_mb("VmHWM")}
    if job["trace"]:
        out["run_rss_mb"] = next(op["run_rss_mb"] for op in warm + rounds[0]["ops"] if "run_rss_mb" in op)
        if job["sources"]:
            out["overhead_pairs"] = overhead_pairs(grammar, graph, queries)
        probe_layers(job, graph, spans)  # last, in a warm process
        Path(job["trace_out"]).write_text(json.dumps(spans.records), encoding="utf-8")
    Path(job["result"]).write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
