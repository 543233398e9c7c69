"""Worklist evaluation of context-free path queries.

A query pair (vertex, nonterminal) asks which vertices are reachable
from the given one along a path whose label string the nonterminal
derives. Each queried pair seeds one item per production of the
nonterminal. An item is a production annotated with one vertex set per
position: the set after the j-th right-hand-side symbol holds the
vertices reachable from the item's origin along paths matching the
first j symbols. Vertices enter a set unprocessed and are processed
exactly once, at the worklist's leisure:

* before a terminal, processing follows the matching graph edges into
  the next position set;
* before a nonterminal, processing either reads off the edges already
  derived for that (vertex, nonterminal) pair or spawns the
  nonterminal's items with this vertex as origin;
* in the last set, processing records the derived edge
  (origin, lhs, vertex) in the derived-edge store and notifies the
  items waiting on it.

Waiting slots are registered when a vertex is marked processed right
before a nonterminal, so a derived edge reaches exactly the slots whose
reads it would otherwise have missed. The input graph is never written:
terminal steps read its successor index, nonterminal steps read the
per-query derived-edge store, keyed by (origin, nonterminal). That store
ends up holding every derived edge for the spawned pairs, so answer
extraction is a plain lookup in it, and many queries can share one
loaded graph. The worklist pop order (fifo, lifo or seeded random)
changes the run, not the fixpoint.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidParams, LabelClash, UnknownNonterminal, UnknownVertex
from .grammar import Grammar, Production, Symbol
from .graph import DataGraph

UNPROCESSED = False
PROCESSED = True

# A pending slot: this vertex is unprocessed in item.sets[position].
Slot = tuple["TraceItem", int, int]


class TraceItem:
    """A production instance rooted at an origin vertex.

    ``sets[j]`` maps vertex id -> processed flag; ``sets[0]`` starts out
    holding only the origin, unprocessed. For a right-hand side of n
    symbols there are n+1 sets.
    """

    __slots__ = ("production", "origin", "sets")

    def __init__(self, production: Production, origin: int):
        self.production = production
        self.origin = origin
        self.sets: list[dict[int, bool]] = [{} for _ in range(len(production.rhs) + 1)]
        self.sets[0][origin] = UNPROCESSED

    def __repr__(self) -> str:
        return f"TraceItem({self.production!r}, origin={self.origin})"


def marked_union(position_set: dict[int, bool], vertex: int) -> bool:
    """Add ``vertex`` as unprocessed unless present in any state.

    Returns True iff the vertex was absent and has been inserted; the
    caller enqueues the new slot exactly in that case.
    """
    if vertex in position_set:
        return False
    position_set[vertex] = UNPROCESSED
    return True


class Worklist:
    """Pending slots with a pluggable pop discipline.

    fifo pops the oldest entry, lifo the newest, random a uniformly
    seeded pick (swap-with-last, then pop). All three reach the same
    fixpoint; they exist to exercise order independence.
    """

    __slots__ = ("discipline", "_entries", "_rng")

    def __init__(self, discipline: str = "fifo", seed: int = 0):
        if discipline not in ("fifo", "lifo", "random"):
            raise InvalidParams(f"unknown worklist discipline {discipline!r}")
        self.discipline = discipline
        self._entries: deque[Slot] | list[Slot] = [] if discipline == "random" else deque()
        self._rng = random.Random(seed) if discipline == "random" else None

    def push(self, slot: Slot) -> None:
        self._entries.append(slot)

    def pop(self) -> Slot:
        if self.discipline == "fifo":
            return self._entries.popleft()
        if self.discipline == "lifo":
            return self._entries.pop()
        i = self._rng.randrange(len(self._entries))
        self._entries[i], self._entries[-1] = self._entries[-1], self._entries[i]
        return self._entries.pop()

    def remove(self, slot: Slot) -> None:
        """Drop one specific pending slot (manual stepping only)."""
        self._entries.remove(slot)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class Stats:
    """Structure counters tracked during a run, reported by the CLI."""

    items_created: int = 0
    pops: int = 0
    edges_added: int = 0
    insertions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "items_created": self.items_created,
            "pops": self.pops,
            "edges_added": self.edges_added,
            "insertions": self.insertions,
        }


@dataclass
class EvalResult:
    """Outcome of a run over a read-only input graph.

    ``graph`` is the caller's input, unchanged. ``derived`` maps
    (origin, nonterminal) to the targets of the derived edges of that
    pair; together the two are the input plus every derived edge.
    """

    graph: DataGraph
    derived: dict[tuple[int, Symbol], set[int]]
    answers: dict[tuple[int, Symbol], set[int]]
    stats: Stats
    items: tuple[TraceItem, ...]


class Evaluation:
    """One query evaluation; construct, then ``run()`` (or ``step()``).

    Splitting construction from the loop keeps the machinery open for
    inspection: tests drive single steps, snapshot position sets between
    them and check that everything only ever grows.

    The input graph is only read, so many evaluations can share one
    loaded graph. The per-query state is four plain containers:

    * ``items``: every item, in creation order;
    * ``spawned``: the (origin, nonterminal) pairs that have items, so
      each pair spawns at most once;
    * ``waiters``: (vertex, nonterminal) -> the slots that were marked
      processed right before that nonterminal and thus need to hear
      about new derived edges (vertex, nonterminal, target);
    * ``derived``: (origin, nonterminal) -> targets of the derived edges.
    """

    def __init__(
        self,
        grammar: Grammar,
        graph: DataGraph,
        query: Iterable[tuple[int, Symbol]],
        discipline: str = "fifo",
        seed: int = 0,
    ):
        clash = graph.labels & grammar.nonterminals
        if clash:
            raise LabelClash(
                f"graph labels collide with grammar nonterminals: {', '.join(sorted(s.text for s in clash))}"
            )
        self.grammar = grammar
        self.graph = graph
        self.items: list[TraceItem] = []
        self.spawned: set[tuple[int, Symbol]] = set()
        self.waiters: dict[tuple[int, Symbol], list[tuple[TraceItem, int]]] = {}
        self.derived: dict[tuple[int, Symbol], set[int]] = {}
        self.worklist = Worklist(discipline, seed)
        self.stats = Stats()

        pairs: list[tuple[int, Symbol]] = []
        seen: set[tuple[int, Symbol]] = set()
        for vertex, nonterminal in query:
            if nonterminal not in grammar.nonterminals:
                raise UnknownNonterminal(f"queried symbol {nonterminal.text!r} is not a nonterminal")
            if not 0 <= vertex < graph.vertex_count:
                raise UnknownVertex(f"queried vertex {vertex} out of range")
            if (vertex, nonterminal) not in seen:
                seen.add((vertex, nonterminal))
                pairs.append((vertex, nonterminal))
        self.query = tuple(pairs)
        for vertex, nonterminal in self.query:
            self._spawn(nonterminal, vertex)

    def _spawn(self, nonterminal: Symbol, origin: int) -> None:
        if (origin, nonterminal) in self.spawned:
            return
        self.spawned.add((origin, nonterminal))
        for production in self.grammar.productions_of(nonterminal):
            item = TraceItem(production, origin)
            self.items.append(item)
            self.stats.items_created += 1
            self.stats.insertions += 1  # the origin seed in sets[0]
            self.worklist.push((item, 0, origin))

    def _process(self, item: TraceItem, position: int, vertex: int) -> None:
        self.stats.pops += 1
        assert item.sets[position].get(vertex) is UNPROCESSED
        rhs = item.production.rhs
        if position < len(rhs):
            symbol = rhs[position]
            is_terminal = symbol in self.grammar.terminals
            if is_terminal:
                targets = self.graph.index.get((vertex, symbol))
            elif (vertex, symbol) in self.spawned:
                targets = self.derived.get((vertex, symbol))
            else:
                # No items for (symbol, vertex) yet, so no derived edge
                # (vertex, symbol, *) can exist either; nothing to read.
                assert (vertex, symbol) not in self.derived
                self._spawn(symbol, vertex)
                targets = None
            if targets:
                target_set = item.sets[position + 1]
                for successor in targets:
                    if marked_union(target_set, successor):
                        self.stats.insertions += 1
                        self.worklist.push((item, position + 1, successor))
            item.sets[position][vertex] = PROCESSED
            if not is_terminal:
                self.waiters.setdefault((vertex, symbol), []).append((item, position + 1))
        else:
            # Last set: the origin reaches this vertex along the whole
            # right-hand side, which derives a new lhs-labeled edge.
            key = (item.origin, item.production.lhs)
            targets = self.derived.get(key)
            if targets is None:
                targets = self.derived[key] = set()
            if vertex not in targets:
                targets.add(vertex)
                self.stats.edges_added += 1
                for waiting_item, waiting_position in self.waiters.get(key, ()):
                    if marked_union(waiting_item.sets[waiting_position], vertex):
                        self.stats.insertions += 1
                        self.worklist.push((waiting_item, waiting_position, vertex))
            item.sets[position][vertex] = PROCESSED

    def step(self) -> bool:
        """Process one pending slot; False once the worklist is empty."""
        if not self.worklist:
            return False
        item, position, vertex = self.worklist.pop()
        self._process(item, position, vertex)
        return True

    def process_slot(self, item: TraceItem, position: int, vertex: int) -> None:
        """Process one chosen pending slot out of worklist order.

        Meant for manual stepping in tests and debugging sessions; the
        slot must currently be pending.
        """
        self.worklist.remove((item, position, vertex))
        self._process(item, position, vertex)

    def run(self) -> EvalResult:
        while self.step():
            pass
        return self.result()

    def result(self) -> EvalResult:
        answers = {pair: set(self.derived.get(pair, ())) for pair in self.query}
        return EvalResult(self.graph, self.derived, answers, self.stats, tuple(self.items))


def evaluate(
    grammar: Grammar,
    graph: DataGraph,
    query: Iterable[tuple[int, Symbol]],
    discipline: str = "fifo",
    seed: int = 0,
) -> EvalResult:
    """Evaluate a context-free path query; see the module docstring."""
    return Evaluation(grammar, graph, query, discipline, seed).run()


# -- canonical renderings -------------------------------------------------


def render_position_set(position_set: dict[int, bool], graph: DataGraph) -> str:
    parts = (
        f"{graph.vertex_name(vertex)}{'•' if processed else '°'}"
        for vertex, processed in sorted(position_set.items())
    )
    return "{" + ",".join(parts) + "}"


def render_item(item: TraceItem, graph: DataGraph) -> str:
    """One item as ``[S -> {1•} a {2•,3°} S {} b {}]`` (sets ascending)."""
    parts = [render_position_set(item.sets[0], graph)]
    for symbol, position_set in zip(item.production.rhs, item.sets[1:]):
        parts.append(symbol.text)
        parts.append(render_position_set(position_set, graph))
    return f"[{item.production.lhs.text} -> {' '.join(parts)}]"


def final_items(result: EvalResult) -> list[str]:
    """Canonical rendering of every item, sorted for stable comparison."""
    return sorted(render_item(item, result.graph) for item in result.items)


def results_tsv(result: EvalResult) -> str:
    """Answer rows as ``source<TAB>nonterminal<TAB>target`` TSV text.

    Rows are sorted ascending lexicographically, newline-terminated with
    LF; the same answers always render to the same bytes.
    """
    graph = result.graph
    rows = sorted(
        (graph.vertex_name(vertex), nonterminal.text, graph.vertex_name(target))
        for (vertex, nonterminal), targets in result.answers.items()
        for target in targets
    )
    return "".join("\t".join(row) + "\n" for row in rows)
