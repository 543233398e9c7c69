from __future__ import annotations

import random
from bisect import bisect_right
from contextlib import contextmanager
from itertools import accumulate, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfpq import engine
from cfpq import (
    DataGraph,
    Evaluation,
    Grammar,
    Production,
    compose,
    evaluate,
    final_items,
    fixpoint_relations,
    gen_barabasi,
    oracle_eval,
    parse_grammar,
    reachable_via,
    results_tsv,
    serialize_grammar,
    to_tsv,
)

from conftest import bundled_grammar

# The engine's mask limit, swept: every set a mask, every set a tuple,
# sets of up to two members as tuples and of more as masks (both
# containers meet, and the limit is the loop's own bound for joining one
# vertex into a tuple), and the default, under which the small graphs
# drawn here hold every set as a tuple.
MASK_LIMITS = {
    "masks": lambda vertex_count: -1,
    "tuples": lambda vertex_count: 1 << 62,
    "mixed": lambda vertex_count: 2,
    "default": engine._mask_limit,
}


@contextmanager
def _mask_limit(name: str):
    """Patch the named entry of MASK_LIMITS into the engine."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_mask_limit", MASK_LIMITS[name])
        yield


NONTERMINAL_POOL = ("S", "A", "B")
TERMINAL_POOL = ("a", "b")


@st.composite
def grammars(draw) -> Grammar:
    nts = draw(
        st.lists(st.sampled_from(NONTERMINAL_POOL), min_size=1, max_size=3, unique=True)
    )
    alphabet = TERMINAL_POOL + tuple(nts)
    productions = []
    for nt in nts:
        for _ in range(draw(st.integers(1, 3))):
            rhs = draw(st.lists(st.sampled_from(alphabet), min_size=0, max_size=3))
            productions.append(Production(nt, tuple(rhs)))
    return Grammar(productions)


@st.composite
def graphs_with_edges(draw) -> tuple[DataGraph, list[tuple[int, str, int]]]:
    """A small graph and the edge list it was built from, duplicates included."""
    n = draw(st.integers(1, 5))
    g = DataGraph()
    for i in range(n):
        g.intern(str(i))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.sampled_from(TERMINAL_POOL),
                st.integers(0, n - 1),
            ),
            max_size=12,
        )
    )
    for s, label, t in edges:
        g.add_edge(s, label, t)
    return g, edges


def graphs():
    return graphs_with_edges().map(lambda drawn: drawn[0])


def _nullable(grammar: Grammar) -> set:
    """Closure of nonterminals deriving the empty string; engine-free."""
    nullable: set = set()
    changed = True
    while changed:
        changed = False
        for p in grammar.productions:
            if p.lhs not in nullable and all(s in nullable for s in p.rhs):
                nullable.add(p.lhs)
                changed = True
    return nullable


@settings(max_examples=60, deadline=None)
@given(grammars(), graphs())
def test_engine_agrees_with_reference_and_itself(grammar, graph):
    query = [(v, grammar.start) for v in graph.vertices()]
    table = fixpoint_relations(grammar, graph)
    expected = {(v, grammar.start): oracle_eval(table, v, grammar.start) for v in graph.vertices()}
    nullable = _nullable(grammar)

    def input_snapshot():
        successors = {(v, label): graph.successors(v, label) for v in graph.vertices() for label in graph.labels}
        return set(graph.triples), set(graph.labels), successors

    before = input_snapshot()
    renderings, counters = set(), set()
    for limit, (discipline, seed) in product(MASK_LIMITS, (("fifo", 0), ("lifo", 0), ("random", 0), ("random", 9))):
        with _mask_limit(limit):
            result = evaluate(grammar, graph, query, discipline, seed)
        # the input graph is only read, never written
        assert input_snapshot() == before
        assert result.answers == expected
        renderings.add(results_tsv(result))
        counters.add(tuple(result.stats.as_dict().items()))
        containers = {s.__class__ for s in result._sets if s is not None}
        derived_containers = {targets.__class__ for targets in result._derived.values()}
        if limit == "masks":
            assert containers <= {int}
            assert derived_containers <= {int}
        elif limit == "tuples":
            assert containers <= {tuple}
            assert derived_containers <= {tuple}

        stats = result.stats
        v, p, k = graph.vertex_count, len(grammar.productions), grammar.max_rhs_len
        assert stats.items_created <= v * p
        assert stats.pops <= v * v * p * (k + 1)
        assert stats.pops == stats.insertions

        # derived edges carry nonterminal labels only
        for s, label in result.derived:
            assert label in grammar.nonterminals

        for item in result.items:
            # at the fixpoint every entry is processed ...
            assert not any(item.pending)
            # ... and each position set is sound for its matched prefix
            for j in range(len(item.production.rhs) + 1):
                allowed = reachable_via(table, item.origin, item.production.rhs[:j])
                assert set(item.sets[j]) <= allowed
            # items that can finish produced their self-closing edge
            if item.production.lhs in nullable:
                assert item.origin in result.derived.get((item.origin, item.production.lhs), ())

    assert len(renderings) == 1
    assert len(counters) == 1


def _assert_each_delta_has_its_sets_container(ev):
    """The queued slots are those with a delta, each non-empty and of its position set's container.

    Position 0 stores no set: its delta holds exactly the item's origin.
    Every set, delta and derived target set is a tuple or a mask.
    """
    assert {s.__class__ for s in ev._sets if s is not None} <= {tuple, int}
    assert {targets.__class__ for targets in ev._derived.values()} <= {tuple, int}
    assert sorted(ev.worklist) == sorted(ev._pending)
    for slot, delta in ev._pending.items():
        assert delta.__class__ in (tuple, int)
        assert delta
        index, position = divmod(slot, ev._width)
        if position == 0:
            assert ev._sets[slot] is None
            assert set(engine._vertices(delta)) == {ev._origins[index]}
        else:
            assert delta.__class__ is ev._sets[slot].__class__


def _assert_position_0_holds_only_the_origin(ev):
    """No position-0 set is stored, and each item reports its origin there."""
    assert ev._sets[:: ev._width] == [None] * len(ev._origins)
    for item in ev.items:
        assert item.sets[0] == {item.origin: None}


@settings(max_examples=30, deadline=None)
@given(grammars(), graphs())
def test_position_0_is_the_origin_and_not_a_stored_set(grammar, graph):
    query = [(v, grammar.start) for v in graph.vertices()]
    for limit in MASK_LIMITS:
        with _mask_limit(limit):
            ev = Evaluation(grammar, graph, query)
            _assert_position_0_holds_only_the_origin(ev)
            while ev.step():
                _assert_position_0_holds_only_the_origin(ev)
            _assert_position_0_holds_only_the_origin(Evaluation(grammar, graph, query).run())


@settings(max_examples=40, deadline=None)
@given(grammars(), graphs(), st.integers(0, 2**32 - 1))
def test_one_vertex_stepping_reaches_the_same_fixpoint(grammar, graph, seed):
    """Process pending vertices one at a time, in a seeded random order."""
    query = [(v, grammar.start) for v in graph.vertices()]
    table = fixpoint_relations(grammar, graph)
    expected = {(v, grammar.start): oracle_eval(table, v, grammar.start) for v in graph.vertices()}
    for limit in MASK_LIMITS:
        with _mask_limit(limit):
            ev = Evaluation(grammar, graph, query)
            rng = random.Random(seed)
            while True:
                _assert_each_delta_has_its_sets_container(ev)
                pending = [
                    (item, j, vertex)
                    for item in ev.items
                    for j, vertices in enumerate(item.pending)
                    for vertex in sorted(vertices)
                ]
                if not pending:
                    break
                ev.process_slot(*rng.choice(pending))
            assert len(ev.worklist) == 0
            stepped = ev
            assert stepped.stats.pops == stepped.stats.insertions
            assert stepped.answers == expected
            runs = [evaluate(grammar, graph, query, discipline, seed) for discipline in ("fifo", "lifo", "random")]
        for ran in runs:
            assert final_items(stepped) == final_items(ran)
            assert stepped.answers == ran.answers
            assert stepped.stats.as_dict() == ran.stats.as_dict()


def _masks(ev):
    """The slots whose position set is a mask, and the pairs whose derived target set is one."""
    slots = {slot for slot, position_set in enumerate(ev._sets) if position_set.__class__ is int}
    pairs = {key for key, targets in ev._derived.items() if targets.__class__ is int}
    return slots, pairs


@settings(max_examples=40, deadline=None)
@given(grammars(), graphs(), st.integers(0, 2**32 - 1))
def test_every_step_keeps_each_delta_in_its_sets_container(grammar, graph, seed):
    query = [(v, grammar.start) for v in graph.vertices()]
    expected = evaluate(grammar, graph, query).answers
    for limit, discipline in product(MASK_LIMITS, ("fifo", "lifo", "random")):
        with _mask_limit(limit):
            ev = Evaluation(grammar, graph, query, discipline, seed)
            _assert_each_delta_has_its_sets_container(ev)
            slots, pairs = _masks(ev)
            while ev.step():
                _assert_each_delta_has_its_sets_container(ev)
                # a pair has derived edges only once its items are spawned
                assert ev._derived.keys() <= ev.waiters.keys()
                # no position set and no derived target set turns from a mask back into a tuple
                later_slots, later_pairs = _masks(ev)
                assert slots <= later_slots
                assert pairs <= later_pairs
                slots, pairs = later_slots, later_pairs
        assert ev.answers == expected


# Two runs where a one-vertex join meets a full tuple: under "mixed" the
# first grows a position set past the limit, the second a derived target set.
@example(bundled_grammar("ab_unambiguous"), gen_barabasi(3, 3, 3, ("a", "b")), 0)
@example(bundled_grammar("ab_unambiguous"), gen_barabasi(3, 3, 4, ("a", "b")), 0)
@settings(max_examples=40, deadline=None)
@given(grammars(), graphs(), st.integers(0, 2**32 - 1))
def test_every_set_of_a_run_keeps_its_containers_bounds(grammar, graph, seed):
    """After a run, every set is a tuple of at most limit members or a mask."""
    query = [(v, grammar.start) for v in graph.vertices()]
    for limit_name, discipline in product(MASK_LIMITS, ("fifo", "lifo", "random")):
        with _mask_limit(limit_name):
            limit = engine._mask_limit(graph.vertex_count)
            result = evaluate(grammar, graph, query, discipline, seed)
        for vertex_set in result._sets + list(result._derived.values()):
            if vertex_set.__class__ is tuple:
                assert len(vertex_set) <= limit
            else:
                assert vertex_set is None or vertex_set.__class__ is int


_vertex_ids = st.sets(st.integers(0, 80), max_size=12)


@st.composite
def _stored_sets(draw):
    """A vertex set as the run stores it: None for none yet, a tuple, or a mask."""
    vertices = draw(_vertex_ids)
    return draw(st.sampled_from((None, tuple(vertices), engine._mask_of(vertices))))


_NEW_CONTAINERS = {"set": set, "tuple": tuple, "mask": engine._mask_of}


@settings(max_examples=300, deadline=None)
@given(_stored_sets(), _vertex_ids, st.sampled_from(sorted(_NEW_CONTAINERS)), st.integers(-1, 14))
def test_join_keeps_one_container_rule(seen, new_vertices, new_container, limit):
    before = set(engine._vertices(seen))
    new = _NEW_CONTAINERS[new_container](new_vertices)
    union, fresh = engine._join(seen, new, limit)
    assert set(engine._vertices(union)) == before | new_vertices
    assert set(engine._vertices(fresh)) == new_vertices - before
    size = len(before | new_vertices)
    # a mask if either side is one or the union has more than limit members, else a tuple
    container = int if seen.__class__ is int or new_container == "mask" or size > limit else tuple
    assert union.__class__ is container
    # the fresh part has the union's container
    assert fresh.__class__ is container
    if container is tuple:
        # a tuple lists each member once, the old ones first
        assert union == tuple(engine._vertices(seen)) + fresh
        assert len(set(fresh)) == len(fresh)


@settings(max_examples=60, deadline=None)
@given(graphs_with_edges())
def test_successor_index_is_consistent(drawn):
    graph, edges = drawn
    expected = {(s, label, t) for s, label, t in edges}
    assert graph.triples == expected
    assert graph.edge_count == len(expected)
    assert graph.labels == {label for _, label, _ in expected}
    for v in graph.vertices():
        for label in TERMINAL_POOL:
            assert graph.successors(v, label) == sorted({t for s, l, t in expected if s == v and l == label})
            for t in graph.vertices():
                assert graph.has_edge(v, label, t) == ((v, label, t) in expected)


def _results_tsv_by_rows(result) -> str:
    """Reference rendering: one (source, nonterminal, target) name tuple per row, all rows sorted."""
    graph = result.graph
    rows = sorted(
        (graph.vertex_name(vertex), nonterminal, graph.vertex_name(target))
        for (vertex, nonterminal), targets in result.answers.items()
        for target in targets
    )
    return "".join("\t".join(row) + "\n" for row in rows)


@st.composite
def named_hierarchies(draw) -> DataGraph:
    """A small subClassOf graph whose vertex names sort unlike their ids.

    Names mix characters below the tab with ordinary ones, so a row order
    keyed on concatenated ``name<TAB>`` text would differ from the
    field-by-field one.
    """
    names = draw(st.lists(st.text("\x00\x01\x08ab", min_size=1, max_size=3), min_size=1, max_size=6, unique=True))
    g = DataGraph()
    for name in names:
        g.intern(name)
    n = len(names)
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from(("subClassOf", "subClassOf^-1")), st.integers(0, n - 1)),
            max_size=12,
        )
    )
    for s, label, t in edges:
        g.add_edge(s, label, t)
    return g


def _check_results_tsv_against_the_row_sort(graph, query):
    grammar = bundled_grammar("sc")  # S and B: a source's S and B answers are two groups
    for limit, discipline in product(MASK_LIMITS, ("fifo", "lifo", "random")):
        with _mask_limit(limit):
            result = evaluate(grammar, graph, query, discipline)
        assert results_tsv(result) == _results_tsv_by_rows(result)


@settings(max_examples=60, deadline=None)
@given(named_hierarchies(), st.data())
def test_results_tsv_matches_the_row_sort_reference(graph, data):
    pairs = [(v, nt) for v in graph.vertices() for nt in ("S", "B")]
    query = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    _check_results_tsv_against_the_row_sort(graph, query)


def test_results_tsv_of_a_one_vertex_graph():
    # A mask group's names are picked in name order by an itemgetter over
    # every vertex, which returns a bare item, not a tuple, for one vertex.
    graph = DataGraph()
    graph.add_edge(graph.intern("x"), "subClassOf", graph.intern("x"))
    graph.add_edge(0, "subClassOf^-1", 0)
    _check_results_tsv_against_the_row_sort(graph, [(0, "S"), (0, "B")])
    with _mask_limit("masks"):
        assert results_tsv(evaluate(bundled_grammar("sc"), graph, [(0, "S")])) == "x\tS\tx\n"


@settings(max_examples=80, deadline=None)
@given(grammars())
def test_grammar_round_trips_through_text(grammar):
    assert parse_grammar(serialize_grammar(grammar)) == grammar


_relations = st.sets(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=10
)


@settings(max_examples=80, deadline=None)
@given(_relations, _relations, _relations)
def test_compose_is_associative(r1, r2, r3):
    assert compose(compose(r1, r2), r3) == compose(r1, compose(r2, r3))


@settings(max_examples=30, deadline=None)
@given(grammars(), graphs())
def test_reference_passes_are_monotone(grammar, graph):
    snapshots = []
    fixpoint_relations(grammar, graph, on_pass=snapshots.append)
    for earlier, later in zip(snapshots, snapshots[1:]):
        for symbol, relation in earlier.items():
            assert relation <= later[symbol]


def _barabasi_by_bisection(n, k, seed, labels):
    """Reference generator: bisect a fresh cumulative degree list per edge."""
    labs = list(labels)
    rng = random.Random(seed)
    g = DataGraph()
    for i in range(n):
        g.intern(str(i))
    degree = [0] * n

    def insert(s, label, t):
        if g.add_edge(s, label, t):
            degree[s] += 1
            degree[t] += 1

    for s in range(k):
        for t in range(k):
            if s != t:
                insert(s, labs[rng.randrange(len(labs))], t)
    for v in range(k, n):
        for _ in range(k):
            weights = list(accumulate(degree[:v]))
            if weights[-1] == 0:
                target = rng.randrange(v)
            else:
                target = bisect_right(weights, rng.random() * weights[-1])
            insert(v, labs[rng.randrange(len(labs))], target)
    return g


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 120), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_barabasi_matches_the_bisection_reference(n, k, seed):
    k = min(k, n)
    labels = ("a", "b", "c")
    assert to_tsv(gen_barabasi(n, k, seed, labels)) == to_tsv(_barabasi_by_bisection(n, k, seed, labels))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 25), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_barabasi_is_seed_deterministic(n, k, seed):
    if k > n:
        k = n
    assert to_tsv(gen_barabasi(n, k, seed)) == to_tsv(gen_barabasi(n, k, seed))
