"""Seeded workload inputs and their answers, computed apart from the engine.

Each builder writes the graph file the measured process reads, names
the grammar file in ``grammars/``, and returns the answer every query
must render to. Graph structure comes from the package's
generators with a pinned generator seed, so the structure counters are
the same in every run; the workload seed relabels the vertices, which
changes the file bytes, the loader's id assignment and with it the
engine's processing order, and for ``point-lookups`` draws the sources.
Expected answers come from the reference evaluator (``fixpoint_relations``)
or from a closed form, never from ``Evaluation``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from cfpq import DataGraph, fixpoint_relations, gen_ablist, gen_barabasi, parse_grammar, to_tsv, with_inverses

ONTOLOGY_IRI = "http://example.org/hierarchy#"
PREDICATE_IRIS = {
    "subClassOf": "http://www.w3.org/2000/01/rdf-schema#subClassOf",
    "type": "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
}


# gen_barabasi's edges per new vertex, and the pinned generator seed.
K = 3
GRAPH_SEED = 1


@dataclass(frozen=True)
class Size:
    """Size of one workload: vertices (chain length for ablist) and lookups."""

    n: int
    lookups: int = 0
    warmup: int = 0


@dataclass
class Inputs:
    """What one run needs: files for the child, expected answers for the checks."""

    grammar: Path
    graph: Path
    inverses: bool
    # All-vertex workloads: the TSV bytes of the one query. point-lookups:
    # source vertex name -> TSV bytes of that single-pair query.
    expected: bytes | dict[str, bytes]
    sources: list[str] = field(default_factory=list)
    make_up: dict[str, int] = field(default_factory=dict)


def relabel(graph: DataGraph, rng: random.Random) -> tuple[DataGraph, list[int]]:
    """Copy ``graph`` with vertex ids permuted by ``rng``; vertex ``j`` is named ``v{j}``.

    Returns the copy and ``perm`` with ``perm[old_id] == new_id``.
    """
    perm = list(graph.vertices())
    rng.shuffle(perm)
    out = DataGraph()
    for new_id in graph.vertices():
        out.intern(f"v{new_id}")
    for s, label, t in graph.triples:
        out.add_edge(perm[s], label, perm[t])
    return out, perm


def render_rows(rows) -> bytes:
    """The canonical answer TSV for ``(source name, target name)`` rows under ``S``."""
    return "".join(f"{s}\tS\t{t}\n" for s, t in sorted(rows)).encode()


def _grammar(root: Path, name: str):
    path = root / "grammars" / f"{name}.cfg"
    return path, parse_grammar(path.read_text(encoding="utf-8"))


def _oracle_rows(grammar, graph: DataGraph) -> list[tuple[str, str]]:
    table = fixpoint_relations(grammar, graph)
    name = graph.vertex_name
    return [(name(s), name(t)) for s, t in table.relations[grammar.start]]


def build_hierarchy(root: Path, workdir: Path, seed: int, size: Size) -> Inputs:
    """``sc_t`` over a subClassOf/type preferential-attachment hierarchy, as N-Triples."""
    grammar_path, grammar = _grammar(root, "sc_t")
    base = gen_barabasi(size.n, K, GRAPH_SEED, labels=("subClassOf", "type"))
    graph, _ = relabel(base, random.Random(seed))
    lines = []
    for line in to_tsv(graph).splitlines():
        s, p, o = line.split("\t")
        lines.append(f"<{ONTOLOGY_IRI}{s}> <{PREDICATE_IRIS[p]}> <{ONTOLOGY_IRI}{o}> .\n")
    graph_path = workdir / "hierarchy.nt"
    graph_path.write_text("".join(lines), encoding="utf-8")
    loaded = with_inverses(graph)
    rows = _oracle_rows(grammar, loaded)
    return Inputs(
        grammar_path,
        graph_path,
        inverses=True,
        expected=render_rows(rows),
        make_up={"vertices": loaded.vertex_count, "triples": len(loaded.triples), "rows": len(rows)},
    )


def build_chain(root: Path, workdir: Path, seed: int, size: Size) -> Inputs:
    """``ab_ambiguous`` over the chain a^n b^n; answers from the closed form."""
    grammar_path, _ = _grammar(root, "ab_ambiguous")
    graph, perm = relabel(gen_ablist(size.n), random.Random(seed))
    graph_path = workdir / "chain.tsv"
    graph_path.write_text(to_tsv(graph), encoding="utf-8")
    # Chain position i reaches j under S iff the word between them is
    # balanced: i == j, or i = n - m and j = n + m for m in 1..n.
    name = lambda position: graph.vertex_name(perm[position])  # noqa: E731
    n = size.n
    rows = [(name(i), name(i)) for i in range(2 * n + 1)]
    rows += [(name(n - m), name(n + m)) for m in range(1, n + 1)]
    return Inputs(
        grammar_path,
        graph_path,
        inverses=False,
        expected=render_rows(rows),
        make_up={"vertices": graph.vertex_count, "triples": len(graph.triples), "rows": len(rows)},
    )


def build_lookups(root: Path, workdir: Path, seed: int, size: Size) -> Inputs:
    """``ab_unambiguous`` over a two-label barabasi graph, queried one source at a time."""
    grammar_path, grammar = _grammar(root, "ab_unambiguous")
    rng = random.Random(seed)
    graph, _ = relabel(gen_barabasi(size.n, K, GRAPH_SEED, labels=("a", "b")), rng)
    graph_path = workdir / "lookups.tsv"
    graph_path.write_text(to_tsv(graph), encoding="utf-8")
    sources = [graph.vertex_name(v) for v in rng.sample(range(graph.vertex_count), size.lookups)]
    wanted = set(sources)
    answers: dict[str, list[tuple[str, str]]] = {s: [] for s in sources}
    for s, t in _oracle_rows(grammar, graph):
        if s in wanted:
            answers[s].append((s, t))
    return Inputs(
        grammar_path,
        graph_path,
        inverses=False,
        expected={s: render_rows(rows) for s, rows in answers.items()},
        sources=sources,
        make_up={
            "vertices": graph.vertex_count,
            "triples": len(graph.triples),
            "rows": sum(len(rows) for rows in answers.values()),
        },
    )


BUILDERS = {
    "hierarchy-all": build_hierarchy,
    "chain-nesting": build_chain,
    "point-lookups": build_lookups,
}

SIZES = {
    "hierarchy-all": Size(n=600),
    "chain-nesting": Size(n=20_000),
    "point-lookups": Size(n=8_000, lookups=300, warmup=30),
}
