"""Command-line front end: evaluate queries, generate graphs, cross-check.

    cfpq eval  --grammar g.cfg --graph edges.tsv --query pairs.tsv --out results.tsv
    cfpq eval  --grammar g.cfg --gen ablist --n 50            # all vertices x start
    cfpq gen   barabasi --n 100 --k 3 --seed 1 --out edges.tsv
    cfpq check --grammar g.cfg --gen barabasi --n 40 --k 3 --seed 7

Results are TSV rows ``source<TAB>nonterminal<TAB>target`` sorted
ascending; run statistics go to stderr as ``key=value`` lines so stdout
stays pipeable. Without ``--query`` every vertex is queried under the
grammar's start symbol. ``eval --discipline`` picks the worklist order.
``check`` exits 0 iff all three worklist disciplines agree with the
reference evaluator, whose budget of 100 000 triples is fixed.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time
from pathlib import Path
from typing import Iterable

from .engine import DISCIPLINES, evaluate, results_tsv_groups
from .errors import CfpqError
from .grammar import Grammar, parse_grammar, split_lines
from .graph import GENERATORS, DataGraph, _add_inverses, load_ntriples, load_triples, to_tsv
from .oracle import fixpoint_relations


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CfpqError(f"cannot read {path}: {exc}") from exc


def _load_grammar(path: str) -> Grammar:
    return parse_grammar(_read_text(path))


def _load_graph(path: str) -> DataGraph:
    text = _read_text(path)
    if path.lower().endswith(".nt"):
        return load_ntriples(text)
    return load_triples(text)


def _graph_from_args(args: argparse.Namespace) -> DataGraph:
    """The one graph that eval, check and gen work on: the --graph file,
    or the --gen generator's, inverted in place under --add-inverses.

    A generator gets the options its signature names, out of n, k,
    seed, labels and label; label is the first of --labels. Any other
    generator option given is an error, and so is one given with
    --graph, but for --seed on eval and check, where it also seeds the
    random discipline.
    """
    if (args.graph is None) == (args.gen is None):
        raise CfpqError("exactly one of --graph or --gen is required")
    if args.gen is not None and args.n is None:
        raise CfpqError("--gen requires --n")
    labels = [label for label in ("a,b,c,d" if args.labels is None else args.labels).split(",") if label]
    if not labels:
        raise CfpqError("--labels: at least one label is required")
    for label in labels:
        if any(char in label for char in "\t\n\r"):
            raise CfpqError(f"--labels: a label cannot hold a tab or a line break: {label!r}")
    generator = GENERATORS.get(args.gen)
    takes = inspect.signature(generator).parameters if generator else {}
    given = {"n": args.n, "k": args.k, "labels": args.labels, "seed": args.seed if args.command == "gen" else None}
    for option, value in given.items():
        if value is not None and option not in takes and not (option == "labels" and "label" in takes):
            source = f"the {args.gen} generator" if generator else "--graph"
            raise CfpqError(f"--{option} is not an option of {source}")
    if generator is None:
        graph = _load_graph(args.graph)
    else:
        options = {
            "n": args.n,
            "k": 1 if args.k is None else args.k,
            "seed": 0 if args.seed is None else args.seed,
            "labels": labels,
            "label": labels[0],
        }
        graph = generator(**{name: options[name] for name in takes})
    if args.add_inverses:
        _add_inverses(graph)
    return graph


def _parse_query_file(text: str, graph: DataGraph, grammar: Grammar) -> list[tuple[int, str]]:
    pairs: list[tuple[int, str]] = []
    offenders: list[str] = []
    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            offenders.append(f"line {lineno}: expected 'vertex<TAB>nonterminal', got {line!r}")
            continue
        name, nonterminal = fields
        problems = []
        if not graph.has_vertex(name):
            problems.append(f"unknown vertex {name!r}")
        if nonterminal not in grammar.nonterminals:
            problems.append(f"unknown nonterminal {nonterminal!r}")
        if problems:
            offenders.append(f"line {lineno}: " + ", ".join(problems))
            continue
        pairs.append((graph.vertex_id(name), nonterminal))
    if offenders:
        raise CfpqError("invalid query pairs:\n  " + "\n  ".join(offenders))
    return pairs


def _query_from_args(args: argparse.Namespace, grammar: Grammar, graph: DataGraph) -> list[tuple[int, str]]:
    if args.query is not None:
        return _parse_query_file(_read_text(args.query), graph, grammar)
    return [(vertex, grammar.start) for vertex in graph.vertices()]


def _write_output(chunks: Iterable[str], out: str | None) -> None:
    """Write the text chunks to file ``out``, or to stdout if it is None, one at a time."""
    if out is None:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError as exc:
            # Nothing more can reach stdout: point its descriptor at the
            # null device so the flush at interpreter exit fails no more.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise CfpqError(f"cannot write stdout: {exc}") from exc
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise CfpqError(f"cannot write {out}: {exc}") from exc


def _stat_lines(pairs: list[tuple[str, object]]) -> None:
    for key, value in pairs:
        print(f"{key}={value}", file=sys.stderr)


# -- subcommands ---------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    grammar = _load_grammar(args.grammar)
    graph = _graph_from_args(args)
    query = _query_from_args(args, grammar, graph)
    started = time.perf_counter()
    result = evaluate(grammar, graph, query, args.discipline, args.seed)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    _write_output(results_tsv_groups(result), args.out)
    _stat_lines(
        [
            ("vertices", graph.vertex_count),
            ("input_triples", graph.edge_count),
            *result.stats.as_dict().items(),
            ("elapsed_ms", f"{elapsed_ms:.3f}"),
            ("results", result.answer_count),
        ]
    )
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    graph = _graph_from_args(args)
    _write_output((to_tsv(graph),), args.out)
    _stat_lines([("vertices", graph.vertex_count), ("triples", graph.edge_count)])
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    grammar = _load_grammar(args.grammar)
    graph = _graph_from_args(args)
    query = _query_from_args(args, grammar, graph)
    table = fixpoint_relations(grammar, graph)
    # One scan of each queried relation, rather than one per query pair.
    expected: dict[tuple[int, str], set[int]] = {pair: set() for pair in query}
    for nonterminal in {nt for _, nt in query}:
        for source, target in table.relations[nonterminal]:
            targets = expected.get((source, nonterminal))
            if targets is not None:
                targets.add(target)
    for discipline in DISCIPLINES:
        answers = evaluate(grammar, graph, query, discipline, args.seed).answers
        if answers != expected:
            for pair in sorted(expected, key=lambda p: (graph.vertex_name(p[0]), p[1])):
                if answers[pair] != expected[pair]:
                    vertex, nonterminal = pair
                    got = sorted(graph.vertex_name(v) for v in answers[pair])
                    want = sorted(graph.vertex_name(v) for v in expected[pair])
                    line = (
                        f"check: mismatch under {discipline} at ({graph.vertex_name(vertex)}, "
                        f"{nonterminal}): engine={got} oracle={want}\n"
                    )
                    _write_output((line,), args.out)
                    return 1
    total = sum(len(targets) for targets in expected.values())
    line = f"check: ok pairs={len(expected)} results={total} disciplines={','.join(DISCIPLINES)}\n"
    _write_output((line,), args.out)
    return 0


# -- argument wiring -------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cfpq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    generator = argparse.ArgumentParser(add_help=False)
    generator.add_argument("--n", type=int, help="generator size")
    generator.add_argument("--k", type=int, help="attachment degree for barabasi (default 1)")
    generator.add_argument("--labels", help="generator labels, comma separated (default a,b,c,d)")
    generator.add_argument("--add-inverses", action="store_true", help="also materialize (o, p^-1, s) edges")
    generator.add_argument("--out", help="output file (default: stdout)")

    query = argparse.ArgumentParser(add_help=False, parents=[generator])
    query.add_argument("--grammar", required=True, help="grammar file")
    query.add_argument("--graph", help="triples file, TSV or .nt")
    query.add_argument("--gen", choices=sorted(GENERATORS), help="generate the graph instead of loading one")
    query.add_argument("--query", help="query pairs file: vertex<TAB>nonterminal per line (default: all vertices x start)")

    p_eval = sub.add_parser("eval", parents=[query], help="evaluate a query, write result TSV")
    p_eval.add_argument("--discipline", choices=DISCIPLINES, default="fifo")
    p_eval.set_defaults(func=cmd_eval)

    p_gen = sub.add_parser("gen", parents=[generator], help="emit a synthetic graph as TSV")
    p_gen.add_argument("gen", metavar="kind", choices=sorted(GENERATORS), help="one of %(choices)s")
    p_gen.set_defaults(func=cmd_gen, graph=None)

    p_check = sub.add_parser("check", parents=[query], help="engine vs reference evaluator under all disciplines")
    p_check.set_defaults(func=cmd_check)

    # gen's --seed defaults to None, so that one a generator does not take is seen.
    for command, seed_default, seed_help in (
        (p_eval, 0, "seed for the generator and the random discipline (default 0)"),
        (p_gen, None, "seed for the generator (default 0)"),
        (p_check, 0, "seed for the generator and for check's random-discipline run (default 0)"),
    ):
        command.add_argument("--seed", type=int, default=seed_default, help=seed_help)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CfpqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
