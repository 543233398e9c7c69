"""Reference evaluator: naive bottom-up fixpoint over vertex-pair relations.

Deliberately simple and structurally unlike the worklist engine, so the
two can check each other. Every symbol gets a relation (set of vertex
pairs). Terminal relations are read off the graph once. Each pass
recomputes every nonterminal's relation from scratch, from the previous
pass only: union over the nonterminal's productions of the left-to-right
composition of the right-hand-side relations, where an empty right-hand
side contributes the identity relation. Passes repeat until nothing
changes. Quadratic blowup is the point, hence the size guard.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import SizeGuardExceeded, UnknownNonterminal
from .grammar import Grammar
from .graph import DataGraph

Relation = set[tuple[int, int]]

DEFAULT_MAX_TRIPLES = 100_000


class RelationTable:
    """Fixpoint result: one vertex-pair relation per grammar symbol."""

    __slots__ = ("grammar", "relations", "passes")

    def __init__(self, grammar: Grammar, relations: dict[str, Relation], passes: int):
        self.grammar = grammar
        self.relations = relations
        self.passes = passes


def compose(left: Relation, right: Relation) -> Relation:
    """Relational composition: pairs (x, z) with (x, y) left and (y, z) right."""
    by_source: dict[int, list[int]] = {}
    for y, z in right:
        by_source.setdefault(y, []).append(z)
    return {(x, z) for x, y in left if y in by_source for z in by_source[y]}


def _sequence_relation(rhs: Sequence[str], relations: dict[str, Relation], vertex_count: int) -> Relation:
    if not rhs:
        return {(v, v) for v in range(vertex_count)}
    acc = relations[rhs[0]]
    for symbol in rhs[1:]:
        acc = compose(acc, relations[symbol])
    return acc


def fixpoint_relations(
    grammar: Grammar,
    graph: DataGraph,
    max_triples: int = DEFAULT_MAX_TRIPLES,
    on_pass: Callable[[dict[str, frozenset[tuple[int, int]]]], None] | None = None,
) -> RelationTable:
    """Compute every symbol's relation by naive iteration to a fixpoint.

    ``on_pass`` (when given) receives a frozen snapshot of the relations
    after each pass; handy for asserting monotone convergence. Raises
    SizeGuardExceeded when the graph is over the triple budget.
    """
    edge_count = graph.edge_count
    if edge_count > max_triples:
        raise SizeGuardExceeded(f"input has {edge_count} triples, over the budget of {max_triples}")
    relations: dict[str, Relation] = {symbol: set() for symbol in grammar.terminals}
    for source, label, target in graph.triples:
        if label in relations:
            relations[label].add((source, target))
    for nonterminal in grammar.nonterminals:
        relations[nonterminal] = set()

    passes = 0
    while True:
        passes += 1
        updates = {
            nonterminal: set().union(
                *(
                    _sequence_relation(p.rhs, relations, graph.vertex_count)
                    for p in grammar.productions_of(nonterminal)
                )
            )
            for nonterminal in grammar.nonterminals
        }
        changed = any(updates[nt] != relations[nt] for nt in grammar.nonterminals)
        relations.update(updates)
        if on_pass is not None:
            on_pass({s: frozenset(r) for s, r in relations.items()})
        if not changed:
            break
    return RelationTable(grammar, relations, passes)


def oracle_eval(table: RelationTable, vertex: int, nonterminal: str) -> set[int]:
    """Answer set for one query pair, read off the fixpoint table."""
    if nonterminal not in table.grammar.nonterminals:
        raise UnknownNonterminal(f"{nonterminal!r} is not a nonterminal of this grammar")
    return {target for source, target in table.relations[nonterminal] if source == vertex}


def reachable_via(table: RelationTable, vertex: int, symbols: Sequence[str]) -> set[int]:
    """Vertices reached from ``vertex`` along the symbol sequence.

    Folds each symbol's relation over a frontier set; the empty sequence
    returns {vertex}. Used to check engine position sets for soundness.
    """
    frontier = {vertex}
    for symbol in symbols:
        relation = table.relations[symbol]
        frontier = {z for y, z in relation if y in frontier}
    return frontier
