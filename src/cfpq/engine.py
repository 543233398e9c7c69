"""Set-at-a-time worklist evaluation of context-free path queries.

A query pair (vertex, nonterminal) asks which vertices are reachable
from the given one along a path whose label string the nonterminal
derives. Each queried pair seeds one item per production of the
nonterminal. An item is a production annotated with one vertex set per
position: the set after the j-th right-hand-side symbol holds the
vertices reachable from the item's origin along paths matching the
first j symbols. Position 0 holds only the origin, so it is not stored.

The unit of work is a slot, one position of one item. A vertex that
enters a position set also enters the slot's pending delta, and the
slot is queued when its delta turns non-empty. Processing a slot takes
its whole delta at once (semi-naive evaluation):

* before a terminal, the graph's adjacency for that label is looked up
  once, and the delta's successor sets in it are unioned into the next
  position set;
* before a nonterminal N, each delta vertex v either spawns the items of
  (v, N) or contributes the edges already derived for (v, N); either way
  the next slot is registered as a waiter of (v, N);
* in the last set, the delta vertices not yet derived for (origin, lhs)
  become derived edges, and the new targets go, as one set, to every
  waiter of (origin, lhs).

Only the part of an insertion that is new to the position set reaches
the delta, so every vertex of every position set is processed exactly
once, and the counters count vertices: ``pops`` adds the size of each
processed delta, ``insertions`` the size of each fresh part. The input
graph is never written: terminal steps read its successor index,
nonterminal steps read the per-query derived-edge store. That store ends
up holding every derived edge for the spawned pairs, so answer
extraction is a plain lookup in it, and many queries can share one
loaded graph. The worklist pop order (fifo, lifo or seeded random)
changes the run, not the fixpoint.

Each vertex set of the run (position set, pending delta, derived
targets) picks its own container, as Roaring bitmaps do per chunk: a
tuple of vertex ids or an int bitmask. One rule, in ``_join``, serves
every set: a set of at most ``max(32, vertex_count >> 6)`` members is a
tuple and a larger one a mask, and a union with a mask is a mask, so a
set only ever turns from a tuple into a mask. The bound is where the
two cost the same memory: a tuple holds 8 bytes per member, a mask of V
vertices V/8 bytes. A delta has its position set's container, and a
derived target set starts as the first delta that reaches it. Sparse
sets take a tuple's few words, and on a dense run a union is one int
OR, as in the Boolean-matrix formulation of CFPQ.

One worklist loop, ``Evaluation._drain``, runs every step, for
``run()``, ``step()`` and ``process_slot()`` alike, with the run's
state bound once per call rather than once per step. It serves both
containers: a tuple delta is walked vertex by vertex; a mask delta's
members come from its low bits when it has at most ``_SMALL`` of them
and are enumerated in C otherwise, and its terminal step ORs per-source
successor masks, built once per label and source for the evaluation. A
step passes on what it read: the masks as one mask, and a single
successor set or derived target set as it is, so a set is built only to
merge two reads. On a sparse run most joins add one vertex to a tuple
or to no set yet. The loop does those joins itself, by ``_join``'s
rule, while the union has at most ``_SMALL`` members, as it does the
last set's one-vertex join into a tuple target set; every other join
goes through ``_join``.

The run's state is laid out for the cyclic garbage collector to skip:
slots and (vertex, nonterminal) pairs are ints, and waiter lists are
dicts of int keys and None values, which the collector does not track,
nor masks; a tuple of ints is tracked when it is made and untracked by
the first collection that sees it. An item is an entry in two flat
lists until ``items`` builds it a view.

The finished run is the result: ``run()`` and ``evaluate`` return the
``Evaluation`` itself, and its answers are read from the derived-edge
store in place, with no copy of it. ``results_tsv_groups`` renders one
(source, nonterminal) group of TSV rows at a time, ``answer_count``
counts the rows, and only the ``answers``, ``derived`` and ``items``
views build sets of vertex ids, all on each read.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import compress, count
from operator import itemgetter, or_
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import InvalidParams, LabelClash, UnknownNonterminal, UnknownVertex
from .grammar import Grammar, Production
from .graph import DataGraph

DISCIPLINES = ("fifo", "lifo", "random")
"""The worklist pop orders, in the order ``cfpq check`` runs them."""

VertexSet = tuple[int, ...] | int
"""A vertex set of the run: a tuple of vertex ids or an int mask."""

# Maps the digits of bin() to the bytes compress() reads as false and true.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_BIT = (1).__lshift__


_SMALL = 8
"""The bound of the small-set paths.

A mask of at most this many members gives them from its low bits, and
the worklist loop joins into a tuple itself while the union stays
within it.
"""


def _mask_limit(vertex_count: int) -> int:
    """The most members a vertex set holds as a tuple; a larger one is an int mask."""
    return max(32, vertex_count >> 6)


def _flags(mask: int) -> bytes:
    """Byte v is 1 if vertex v is in the mask, else 0, up to its highest member."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)


def _members(mask: int) -> Iterable[int]:
    """The vertices of a mask, ascending.

    A mask of at most ``_SMALL`` members gives them from its low
    bits, in a few steps each; a larger one has them enumerated in C
    from ``_flags``, a pass over the whole mask.
    """
    if mask.bit_count() > _SMALL:
        return compress(count(), _flags(mask))
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return members


def _mask_of(vertices: Collection[int]) -> int:
    """The mask of a collection of vertices."""
    if len(vertices) < 64:
        return sum(map(_BIT, vertices))
    # Summing shifted bits costs a pass over the mask per vertex; writing
    # digits and parsing them once costs one pass in all.
    digits = bytearray(b"0") * (max(vertices) + 1)
    for vertex in vertices:
        digits[vertex] = 49  # ord("1")
    return int(digits[::-1], 2)


class _SuccessorMasks:
    """Per source vertex, the mask of its successors under one label.

    A source's mask is built the first time a delta holds the source;
    ``_built`` is the mask of the sources built so far, and ``_sources``
    the mask of those among them that have successors, so a union ORs
    no source's empty mask.
    """

    __slots__ = ("_by_source", "_masks", "_built", "_sources")

    def __init__(self, by_source: dict[int, set[int]], vertex_count: int):
        self._by_source = by_source
        self._masks = [0] * vertex_count
        self._built = 0
        self._sources = 0

    def union(self, delta: int) -> int:
        """The mask of every successor of the vertices of ``delta``."""
        missing = delta & ~self._built
        if missing:
            masks, by_source = self._masks, self._by_source
            sources = []
            for vertex in _members(missing):
                targets = by_source.get(vertex)
                if targets:
                    masks[vertex] = _mask_of(targets)
                    sources.append(vertex)
            self._built |= missing
            self._sources |= _mask_of(sources)
        present = delta & self._sources
        if present.bit_count() > _SMALL:
            return reduce(or_, compress(self._masks, _flags(present)), 0)
        return reduce(or_, map(self._masks.__getitem__, _members(present)), 0)


def _vertices(vertex_set: VertexSet | None) -> Iterable[int]:
    """The vertices of a set of any container, or none for None."""
    if vertex_set.__class__ is int:
        return _members(vertex_set)
    return vertex_set or ()


def _join(
    seen: VertexSet | None, new: Collection[int] | int, limit: int
) -> tuple[VertexSet, VertexSet]:
    """The union of ``seen`` (None for no set yet) and ``new``, and the part of ``new`` not in ``seen``.

    The container rule of every vertex set of the run: the union is an
    int mask if either side is one or it has more than ``limit``
    members, and a tuple otherwise, so a set only ever turns from a
    tuple into a mask. The fresh part has the union's container.
    ``new`` is only read, though it may come back as the fresh part.
    """
    if seen.__class__ is int or new.__class__ is int:
        if new.__class__ is not int:
            new = _mask_of(new)
        if seen is None:
            return new, new
        if seen.__class__ is not int:
            seen = _mask_of(seen)
        return seen | new, new & ~seen
    if seen is None:
        # tuple() of a tuple is the tuple itself.
        new = tuple(new) if len(new) <= limit else _mask_of(new)
        return new, new
    fresh = (new if new.__class__ is set else set(new)).difference(seen)
    if len(seen) + len(fresh) <= limit:
        fresh = tuple(fresh)
        return seen + fresh, fresh
    fresh = _mask_of(fresh)
    return _mask_of(seen) | fresh, fresh


class TraceItem:
    """A production instance rooted at an origin vertex.

    ``slot`` is the slot of the item's position 0; position j is slot
    ``slot + j``. The position sets and pending deltas live in the
    evaluation's per-slot stores, and the item reads its own through
    ``sets`` and ``pending``. For a right-hand side of n symbols there
    are n+1 positions; position 0 holds only the origin, is not stored,
    and ``sets`` reports it as ``{origin: None}``. The stores hold each
    set as a tuple or an int mask (see ``Evaluation``); ``sets`` and
    ``pending`` read both alike.
    """

    __slots__ = ("production", "origin", "slot", "_sets", "_pending")

    def __init__(
        self,
        production: Production,
        origin: int,
        slot: int,
        sets: list[VertexSet | None],
        pending: dict[int, VertexSet],
    ):
        self.production = production
        self.origin = origin
        self.slot = slot
        self._sets = sets
        self._pending = pending

    @property
    def sets(self) -> list[dict[int, None]]:
        """Per position, the position set as a dict keyed by vertex id; a mask's come ascending."""
        end = self.slot + len(self.production.rhs) + 1
        return [{self.origin: None}] + [
            dict.fromkeys(_vertices(position_set)) for position_set in self._sets[self.slot + 1 : end]
        ]

    @property
    def pending(self) -> list[set[int]]:
        """Per position, the vertices of the position set not yet processed."""
        return [set(_vertices(self._pending.get(self.slot + j))) for j in range(len(self.production.rhs) + 1)]

    def __repr__(self) -> str:
        return f"TraceItem({self.production!r}, origin={self.origin})"


def _pop_random(entries: list[int], rng: random.Random) -> int:
    i = rng.randrange(len(entries))
    entries[i], entries[-1] = entries[-1], entries[i]
    return entries.pop()


class Worklist:
    """Pending slots with a pluggable pop discipline.

    fifo pops the oldest entry, lifo the newest, random a uniformly
    seeded pick (swap-with-last, then pop). All three reach the same
    fixpoint; they exist to exercise order independence. ``push`` and
    ``pop`` are bound per discipline once, so the hot loop calls the
    container's own methods where it can.
    """

    __slots__ = ("_entries", "push", "pop")

    def __init__(self, discipline: str = "fifo", seed: int = 0):
        if discipline not in DISCIPLINES:
            raise InvalidParams(f"unknown worklist discipline {discipline!r}")
        entries: deque[int] | list[int] = deque() if discipline == "fifo" else []
        self._entries = entries
        self.push = entries.append
        if discipline == "fifo":
            self.pop = entries.popleft
        elif discipline == "lifo":
            self.pop = entries.pop
        else:
            self.pop = partial(_pop_random, entries, random.Random(seed))

    def remove(self, slot: int) -> None:
        """Drop one specific pending slot (manual stepping only)."""
        self._entries.remove(slot)

    def __iter__(self) -> Iterator[int]:
        return iter(self._entries)

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
        """The counters by name, in declaration order."""
        return dict(vars(self))


Rule = tuple[Production, int, tuple[int, ...]]


@lru_cache(maxsize=64)
def _grammar_tables(grammar: Grammar) -> tuple[tuple[str, ...], dict[str, int], tuple[tuple[Rule, ...], ...]]:
    """Nonterminals sorted by spelling, their numbers, and per nonterminal, its rules.

    A rule is a production, its lhs number and, per rhs position, the
    nonterminal's number or -1 before a terminal. Built once per
    grammar and shared, so callers only read them.
    """
    nonterminals = tuple(sorted(grammar.nonterminals))
    number = {nonterminal: i for i, nonterminal in enumerate(nonterminals)}
    rules = tuple(
        tuple((p, i, tuple(number.get(s, -1) for s in p.rhs)) for p in grammar.productions_of(nonterminal))
        for i, nonterminal in enumerate(nonterminals)
    )
    return nonterminals, number, rules


class Evaluation:
    """One query evaluation; construct, then ``run()`` (or ``step()``).

    Splitting construction from the loop keeps the machinery open for
    inspection: tests drive single steps, snapshot position sets between
    them and check that everything only ever grows. The finished run is
    its own result: ``run()`` returns it, and ``answers``,
    ``answer_count``, ``derived`` and ``results_tsv_groups`` read it.

    The input graph is only read, so many evaluations can share one
    loaded graph. Inside the run the item with creation index i owns
    the slots ``i * width + position`` (``width`` is the grammar's
    longest right-hand side plus one), and a (vertex, nonterminal) pair
    is the int ``vertex * len(nonterminals) + nonterminal number``. The
    numbering and the rules come from tables built once per grammar. The
    per-query state is:

    * per slot, the position set (None until its first vertex, and at
      position 0 for good) and, in one map, the pending delta: the
      vertices in the set that no step has processed yet; ``items``
      builds views of both per item on each read;
    * ``waiters``: pair -> the slots right after that nonterminal that
      must hear about the pair's new derived edges; a pair has an entry
      iff its items have been spawned, so each pair spawns at most once;
    * the derived-edge store, pair -> targets, read as ``derived`` with
      (origin, nonterminal) keys and target sets;
    * ``worklist``: the slots whose delta is non-empty.

    Each position set, delta and target set is a tuple of vertex ids or
    an int mask (bit v set for vertex v), by ``_join``'s one rule: a set
    of at most ``_mask_limit(vertex_count)`` members is a tuple, and a
    larger one a mask. A slot's delta has the container of its
    position set (at position 0, of a set of one), a target set starts
    as the first delta that reaches it, and a set only ever turns from a
    tuple into a mask.

    ``run()``, ``step()`` and ``process_slot()`` share one loop,
    ``_drain``: run drains the worklist, step pops one slot, and
    process_slot hands the loop a delta of one vertex. The loop itself
    joins a new part into no set yet, or one new vertex into a tuple,
    when the union stays within ``min(_SMALL, limit)`` members; every
    other join calls ``_insert``.
    """

    def __init__(
        self,
        grammar: Grammar,
        graph: DataGraph,
        query: Iterable[tuple[int, str]],
        discipline: str = "fifo",
        seed: int = 0,
    ):
        clash = graph.labels & grammar.nonterminals
        if clash:
            raise LabelClash(
                f"graph labels collide with grammar nonterminals: {', '.join(sorted(clash))}"
            )
        self.grammar = grammar
        self.graph = graph
        self.waiters: dict[int, dict[int, None]] = {}
        self.worklist = Worklist(discipline, seed)
        self.stats = Stats()
        self._sets: list[VertexSet | None] = []
        self._pending: dict[int, VertexSet] = {}
        self._derived: dict[int, VertexSet] = {}
        self._limit = _mask_limit(graph.vertex_count)
        # Per label, the successor masks of the sources mask steps have read.
        self._successor_masks: dict[str, _SuccessorMasks] = {}
        self._width = grammar.max_rhs_len + 1
        self._nonterminals, self._number, self._rules = _grammar_tables(grammar)
        # Per item index, its rule and its origin. TraceItem views are
        # built only when ``items`` is read, so a run allocates no object
        # per item that the garbage collector would have to scan.
        self._item_rules: list[Rule] = []
        self._origins: list[int] = []

        # The caller's pairs, first occurrence kept; tuple() of a tuple is
        # the tuple itself, so no pair is copied.
        self.query = tuple(dict.fromkeys(map(tuple, query)))
        for pair in self.query:
            if len(pair) != 2:
                raise InvalidParams(f"query pair {pair!r} is not a (vertex, nonterminal) pair")
            vertex, nonterminal = pair
            if nonterminal not in grammar.nonterminals:
                raise UnknownNonterminal(f"queried symbol {nonterminal!r} is not a nonterminal")
            if vertex.__class__ is not int or not 0 <= vertex < graph.vertex_count:
                raise UnknownVertex(f"queried vertex {vertex!r} is not a vertex id of the graph")
            self._spawn(vertex * len(self._nonterminals) + self._number[nonterminal])

    def _spawn(self, key: int) -> None:
        """Create the items of pair ``key``, each with its origin pending."""
        origin, number = divmod(key, len(self._nonterminals))
        self.waiters[key] = {}
        rules = self._rules[number]
        blank = [None] * self._width
        # _join's rule for a set of one member; the pair's items share it.
        one = (origin,) if self._limit >= 1 else 1 << origin
        for rule in rules:
            slot = len(self._sets)
            self._item_rules.append(rule)
            self._origins.append(origin)
            self._sets += blank
            self._pending[slot] = one
            self.worklist.push(slot)
        self.stats.items_created += len(rules)
        self.stats.insertions += len(rules)

    def _insert(self, slot: int, new: Collection[int] | int) -> None:
        """Add ``new`` to a position set; its fresh part joins the slot's delta.

        ``new`` is only read, never kept, so callers may pass a set they
        go on using. ``_join`` picks the position set's container, and the
        delta takes the same one.
        """
        self._sets[slot], fresh = _join(self._sets[slot], new, self._limit)
        pending = self._pending
        delta = pending.get(slot)
        is_mask = fresh.__class__ is int
        if is_mask and delta.__class__ is tuple:
            # The set has just turned into a mask, so its delta turns too,
            # even when nothing in ``new`` was fresh.
            delta = pending[slot] = _mask_of(delta)
        if not fresh:
            return
        self.stats.insertions += fresh.bit_count() if is_mask else len(fresh)
        if delta is None:
            pending[slot] = fresh
            self.worklist.push(slot)
        else:
            # The fresh part is disjoint from the delta, which is part of
            # the set, so + appends to a tuple and ORs into a mask alike.
            pending[slot] = delta + fresh

    def _drain(self, steps: int, slot: int = 0, delta: VertexSet | None = None) -> None:
        """The worklist loop: process up to ``steps`` deltas (-1: until the worklist is empty).

        The first is ``delta`` of ``slot`` if one is given, the rest are
        popped. A given delta is handed over, and a popped one is taken
        out of the pending map: the step may keep it. The run's state is
        bound once per call, and the counters are added to ``stats`` when
        the call ends; ``_spawn`` extends the lists bound here in place.
        """
        sets, pending, derived, waiters = self._sets, self._pending, self._derived, self.waiters
        item_rules, origins, graph_index = self._item_rules, self._origins, self.graph.index
        successor_masks, vertex_count = self._successor_masks, self.graph.vertex_count
        push, pop, take = self.worklist.push, self.worklist.pop, pending.pop
        insert, spawn = self._insert, self._spawn
        width, pair_width, limit = self._width, len(self._nonterminals), self._limit
        # The most members a join done in the loop below builds as a tuple;
        # a larger union goes to _insert.
        small = min(_SMALL, limit)
        handed, delta = delta, None
        pops = insertions = edges = 0
        try:
            while steps:
                if handed is None:
                    # The pending map's keys are exactly the queued slots.
                    if not pending:
                        return
                    slot = pop()
                    delta = take(slot)
                else:
                    delta, handed = handed, None
                steps -= 1
                is_mask = delta.__class__ is int
                pops += delta.bit_count() if is_mask else len(delta)
                index, position = divmod(slot, width)
                production, lhs, numbers = item_rules[index]
                if position < len(numbers):
                    number = numbers[position]
                    # What the step read: the first read is passed on as
                    # it is, and a set is built only to merge a second one.
                    new = None
                    merged = False
                    mask = 0
                    if number < 0:
                        label = production.rhs[position]
                        by_source = graph_index.get(label)
                        if not by_source:
                            continue
                        if is_mask:
                            masks = successor_masks.get(label)
                            if masks is None:
                                masks = successor_masks[label] = _SuccessorMasks(by_source, vertex_count)
                            mask = masks.union(delta)
                        else:
                            for vertex in delta:
                                targets = by_source.get(vertex)
                                if targets:
                                    if new is None:
                                        new = targets
                                    elif merged:
                                        new |= targets
                                    else:
                                        # The graph's own set is only read.
                                        new, merged = new | targets, True
                    else:
                        for vertex in _members(delta) if is_mask else delta:
                            key = vertex * pair_width + number
                            waiting = waiters.get(key)
                            if waiting is None:
                                # No items for this pair yet, so no derived
                                # edge of it either; nothing to read.
                                spawn(key)
                                waiting = waiters[key]
                            else:
                                targets = derived.get(key)
                                if targets:
                                    if targets.__class__ is int:
                                        mask |= targets
                                    elif new is None:
                                        new = targets
                                    elif merged:
                                        new.update(targets)
                                    else:
                                        new, merged = set(new), True
                                        new.update(targets)
                            waiting[slot + 1] = None
                    # The mask goes in first: once the next set is a mask,
                    # the other reads join it as one more mask rather than
                    # key by key.
                    if mask:
                        insert(slot + 1, mask)
                    if not new:
                        continue
                    receivers = (slot + 1,)
                else:
                    # Last set: the origin reaches these vertices along the
                    # whole right-hand side, which derives new lhs edges.
                    key = origins[index] * pair_width + lhs
                    targets = derived.get(key)
                    if targets is None:
                        # The first delta is handed over as the target set,
                        # not copied: a copy per derived pair costs time and
                        # peak RSS.
                        derived[key] = new = delta
                    elif (
                        targets.__class__ is tuple
                        and delta.__class__ is tuple
                        and len(delta) == 1
                        and len(targets) < small
                    ):
                        if delta[0] in targets:
                            continue
                        derived[key] = targets + delta
                        new = delta
                    else:
                        derived[key], new = _join(targets, delta, limit)
                        if not new:
                            continue
                    edges += new.bit_count() if new.__class__ is int else len(new)
                    receivers = waiters[key]
                # Join ``new`` into each receiving set. While the set stays
                # a tuple the join is done here, with what _insert does for
                # a tuple; every other join is _insert's.
                if new.__class__ is int or len(new) > small:
                    for receiver in receivers:
                        insert(receiver, new)
                    continue
                size = len(new)
                fresh = new if new.__class__ is tuple else tuple(new)
                for receiver in receivers:
                    seen = sets[receiver]
                    if seen is None:
                        # No set, so no delta either.
                        sets[receiver] = pending[receiver] = fresh
                        push(receiver)
                        insertions += size
                    elif seen.__class__ is tuple and size == 1 and len(seen) < small:
                        if fresh[0] in seen:
                            continue
                        sets[receiver] = seen + fresh
                        queued = pending.get(receiver)
                        if queued is None:
                            pending[receiver] = fresh
                            push(receiver)
                        else:
                            pending[receiver] = queued + fresh
                        insertions += 1
                    else:
                        insert(receiver, new)
        finally:
            stats = self.stats
            stats.pops += pops
            stats.insertions += insertions
            stats.edges_added += edges

    def step(self) -> bool:
        """Process one pending slot's whole delta; False once the worklist is empty."""
        if not self._pending:
            return False
        self._drain(1)
        return True

    def process_slot(self, item: TraceItem, position: int, vertex: int) -> None:
        """Process one chosen pending vertex out of worklist order.

        Meant for manual stepping in tests and debugging sessions:
        ``position`` must be one of ``0..len(item.production.rhs)``,
        ``vertex`` must currently be pending there, and it is processed
        as a delta of its own.
        """
        if not 0 <= position <= len(item.production.rhs):
            raise InvalidParams(f"position {position} is out of range for {item!r}")
        slot = item.slot + position
        delta = self._pending.get(slot)
        if delta is None or vertex not in _vertices(delta):
            raise InvalidParams(f"vertex {vertex} is not pending at position {position} of {item!r}")
        if delta.__class__ is int:
            single = 1 << vertex
            delta = self._pending[slot] = delta ^ single
        else:
            single = (vertex,)
            delta = self._pending[slot] = tuple(other for other in delta if other != vertex)
        if not delta:
            del self._pending[slot]
            self.worklist.remove(slot)
        self._drain(1, slot, single)

    @property
    def items(self) -> tuple[TraceItem, ...]:
        """Every item, in creation order, as views built on each read."""
        return tuple(
            TraceItem(rule[0], origin, index * self._width, self._sets, self._pending)
            for index, (rule, origin) in enumerate(zip(self._item_rules, self._origins))
        )

    @property
    def derived(self) -> dict[tuple[int, str], set[int]]:
        """The derived-edge store keyed by (origin, nonterminal), built on each read."""
        width = len(self._nonterminals)
        return {
            (key // width, self._nonterminals[key % width]): set(_vertices(targets))
            for key, targets in self._derived.items()
        }

    def run(self) -> Evaluation:
        """Run to the fixpoint and return this evaluation, which holds the answers."""
        self._drain(-1)
        return self

    def _answer_sets(self) -> Iterator[tuple[int, str, VertexSet | None]]:
        """Per query pair, its vertex, nonterminal and targets as the store holds them (None for none)."""
        width, number, derived = len(self._nonterminals), self._number, self._derived
        for vertex, nonterminal in self.query:
            yield vertex, nonterminal, derived.get(vertex * width + number[nonterminal])

    @property
    def answers(self) -> dict[tuple[int, str], set[int]]:
        """Each query pair's answer set, built from the store on each read."""
        return {
            (vertex, nonterminal): set(_vertices(targets))
            for vertex, nonterminal, targets in self._answer_sets()
        }

    @property
    def answer_count(self) -> int:
        """The number of answer rows, counted in the store."""
        return sum(
            targets.bit_count() if targets.__class__ is int else len(targets)
            for _, _, targets in self._answer_sets()
            if targets
        )


def evaluate(
    grammar: Grammar,
    graph: DataGraph,
    query: Iterable[tuple[int, str]],
    discipline: str = "fifo",
    seed: int = 0,
) -> Evaluation:
    """Evaluate a context-free path query and return the finished run; see the module docstring."""
    return Evaluation(grammar, graph, query, discipline, seed).run()


# -- canonical renderings -------------------------------------------------


def render_position_set(position_set: Collection[int], pending: Collection[int], graph: DataGraph) -> str:
    parts = (f"{graph.vertex_name(vertex)}{'°' if vertex in pending else '•'}" for vertex in sorted(position_set))
    return "{" + ",".join(parts) + "}"


def render_item(item: TraceItem, graph: DataGraph) -> str:
    """One item as ``[S -> {1•} a {2•,3°} S {} b {}]`` (sets ascending).

    Pending vertices render ``°``, processed ones ``•``.
    """
    sets, pending = item.sets, item.pending
    parts = [render_position_set(sets[0], pending[0], graph)]
    for j, symbol in enumerate(item.production.rhs, start=1):
        parts.append(symbol)
        parts.append(render_position_set(sets[j], pending[j], graph))
    return f"[{item.production.lhs} -> {' '.join(parts)}]"


def final_items(result: Evaluation) -> list[str]:
    """Canonical rendering of every item, sorted for stable comparison."""
    return sorted(render_item(item, result.graph) for item in result.items)


def _name_order(names: Sequence[str]) -> tuple[list[str], Callable[[bytes], Iterable[int]]]:
    """The vertex names sorted, and a function putting a mask's flags, padded to every vertex, in that order."""
    order = sorted(range(len(names)), key=names.__getitem__)
    # itemgetter of a single index returns the item, not a 1-tuple; one
    # vertex's padded flags already are in name order.
    return [names[vertex] for vertex in order], itemgetter(*order) if len(order) > 1 else bytes


def results_tsv_groups(result: Evaluation) -> Iterator[str]:
    """``results_tsv``'s text, one (source, nonterminal) group of rows at a time.

    ``result`` is a finished ``Evaluation``; its query pairs' targets are
    read from its derived-edge store in place. Groups come sorted by the
    unique key (source name, nonterminal), so the sort never compares
    targets, and within a group rows come by target name. A tuple group
    sorts its target names, unless it has one, which is written as
    one row with no sort or join. A mask group filters the name-sorted vertex
    list by the mask's membership bytes; that list is built once per
    call, and only if a mask group shows up.
    """
    names = result.graph.vertex_names
    groups = sorted(
        (names[vertex], nonterminal, targets)
        for vertex, nonterminal, targets in result._answer_sets()
        if targets
    )
    sorted_names = in_name_order = None
    for source, nonterminal, targets in groups:
        prefix = f"{source}\t{nonterminal}\t"
        if targets.__class__ is int:
            if sorted_names is None:
                sorted_names, in_name_order = _name_order(names)
            target_names = compress(sorted_names, in_name_order(_flags(targets).ljust(len(names), b"\0")))
        elif len(targets) > 1:
            target_names = sorted(map(names.__getitem__, targets))
        else:
            (target,) = targets
            yield prefix + names[target] + "\n"
            continue
        yield prefix + ("\n" + prefix).join(target_names) + "\n"


def results_tsv(result: Evaluation) -> str:
    """Answer rows as ``source<TAB>nonterminal<TAB>target`` TSV text, LF-terminated, sorted.

    The join of ``results_tsv_groups``; write those groups out one at a
    time instead to keep the whole text out of memory.
    """
    return "".join(results_tsv_groups(result))
