from __future__ import annotations

import gc
import random
import time

import pytest

from cfpq import engine
from cfpq import (
    DataGraph,
    Evaluation,
    InvalidParams,
    LabelClash,
    UnknownNonterminal,
    UnknownVertex,
    Worklist,
    evaluate,
    final_items,
    fixpoint_relations,
    gen_ablist,
    gen_barabasi,
    gen_string,
    load_triples,
    oracle_eval,
    parse_grammar,
    render_item,
    results_tsv,
    with_inverses,
)

from conftest import bundled_grammar

# Frozen fixpoint of the worked example under the query {(1,S),(3,S)}:
# six items, all position sets fully processed.
FINAL_ITEMS = [
    "[S -> {1•} a {2•,3•} S {2•,3•,4•} b {3•,4•}]",
    "[S -> {1•}]",
    "[S -> {2•} a {} S {} b {}]",
    "[S -> {2•}]",
    "[S -> {3•} a {1•} S {1•,3•,4•} b {4•}]",
    "[S -> {3•}]",
]

ADDED_EDGES = {
    ("1", "S", "1"),
    ("1", "S", "3"),
    ("1", "S", "4"),
    ("2", "S", "2"),
    ("3", "S", "3"),
    ("3", "S", "4"),
}


def _example_query(graph):
    return [(graph.vertex_id("1"), "S"), (graph.vertex_id("3"), "S")]


def _derived_triples(derived):
    return {(s, label, t) for (s, label), targets in derived.items() for t in targets}


def _named_answers(result):
    g = result.graph
    return {
        (g.vertex_name(v), nt): {g.vertex_name(t) for t in targets}
        for (v, nt), targets in result.answers.items()
    }


def test_insertion_adds_only_fresh_vertices(nesting_grammar, loop_graph):
    v1, v3 = loop_graph.vertex_id("1"), loop_graph.vertex_id("3")
    ev = Evaluation(nesting_grammar, loop_graph, [(v1, "S")])
    item = ev.items[0]
    assert item.production.rhs == ("a", "S", "b")

    def counts():
        return ev.stats.insertions, len(ev.worklist)

    # 3's only a-successor is 1, so a delta of 3 at position 0 joins 1 into position 1
    insertions, queued = counts()
    ev._drain(1, item.slot, (v3,))
    assert item.sets[1] == {v1: None} and item.pending[1] == {v1}
    assert counts() == (insertions + 1, queued + 1)
    # already pending: no insertion, no re-enqueue
    ev._drain(1, item.slot, (v3,))
    assert item.pending[1] == {v1}
    assert counts() == (insertions + 1, queued + 1)
    ev.process_slot(item, 1, v1)
    # already processed: stays processed
    insertions, queued = counts()
    ev._drain(1, item.slot, (v3,))
    assert item.sets[1] == {v1: None} and item.pending[1] == set()
    assert counts() == (insertions, queued)


def test_process_slot_wants_a_pending_vertex(nesting_grammar, loop_graph):
    v1, v2 = loop_graph.vertex_id("1"), loop_graph.vertex_id("2")
    ev = Evaluation(nesting_grammar, loop_graph, [(v1, "S")])
    with pytest.raises(InvalidParams, match="not pending"):
        ev.process_slot(ev.items[0], 0, v2)
    ev.process_slot(ev.items[0], 0, v1)
    with pytest.raises(InvalidParams, match="not pending"):
        ev.process_slot(ev.items[0], 0, v1)


# S -> a S b has positions 0..3 and S -> ε only 0; the slot width is 4,
# so position 4 of the first item, or -4 of the second, is the other's 0.
@pytest.mark.parametrize("index, position", [(0, 4), (1, -4), (0, -1), (1, 1)])
def test_process_slot_wants_a_position_of_the_item(nesting_grammar, loop_graph, index, position):
    v1 = loop_graph.vertex_id("1")
    ev = Evaluation(nesting_grammar, loop_graph, [(v1, "S")])
    before = [item.pending for item in ev.items]
    with pytest.raises(InvalidParams, match=f"position {position} is out of range"):
        ev.process_slot(ev.items[index], position, v1)
    assert [item.pending for item in ev.items] == before
    assert len(ev.worklist) == 2


def test_query_seeds_items_per_production(nesting_grammar, loop_graph):
    ev = Evaluation(nesting_grammar, loop_graph, _example_query(loop_graph))
    assert [render_item(i, ev.graph) for i in ev.items] == [
        "[S -> {1°} a {} S {} b {}]",
        "[S -> {1°}]",
        "[S -> {3°} a {} S {} b {}]",
        "[S -> {3°}]",
    ]
    assert len(ev.worklist) == 4


def test_duplicate_query_pairs_collapse(nesting_grammar, loop_graph):
    v1 = loop_graph.vertex_id("1")
    ev = Evaluation(nesting_grammar, loop_graph, [(v1, "S"), (v1, "S")])
    assert len(ev.items) == 2
    assert ev.query == ((v1, "S"),)


def test_the_query_is_the_callers_pairs_in_first_seen_order(nesting_grammar, loop_graph):
    v1, v3 = loop_graph.vertex_id("1"), loop_graph.vertex_id("3")
    first, other, again = (v1, "S"), (v3, "S"), (v1, "S")
    assert again is not first
    ev = Evaluation(nesting_grammar, loop_graph, [first, other, again])
    assert ev.query == (first, other)
    assert ev.query[0] is first
    assert ev.query[1] is other
    # pairs given as lists are read as tuples
    ev = Evaluation(nesting_grammar, loop_graph, [[v3, "S"], [v1, "S"], [v3, "S"]])
    assert ev.query == ((v3, "S"), (v1, "S"))
    assert all(pair.__class__ is tuple for pair in ev.query)
    assert len(ev.items) == 4


def test_query_validation(nesting_grammar, loop_graph):
    with pytest.raises(UnknownNonterminal):
        Evaluation(nesting_grammar, loop_graph, [(0, "a")])
    with pytest.raises(UnknownVertex):
        Evaluation(nesting_grammar, loop_graph, [(99, "S")])


@pytest.mark.parametrize(
    "pair, error",
    [
        ((1.5, "S"), UnknownVertex),
        ((1.0, "S"), UnknownVertex),
        (("1", "S"), UnknownVertex),
        ((1, "S", 3), InvalidParams),
        (5, InvalidParams),
        (None, InvalidParams),
        (([1], "S"), InvalidParams),
        ((1, ["S"]), InvalidParams),
    ],
)
def test_a_malformed_query_pair_is_a_cfpq_error(nesting_grammar, loop_graph, pair, error):
    with pytest.raises(error):
        evaluate(nesting_grammar, loop_graph, [pair])


def test_empty_query_is_a_no_op(nesting_grammar, loop_graph):
    result = evaluate(nesting_grammar, loop_graph, [])
    assert result.answers == {}
    assert result.items == ()
    assert result.derived == {}


def _assert_the_run_is_its_own_result(grammar, graph, query):
    ev = Evaluation(grammar, graph, query)
    assert ev.run() is ev
    result = evaluate(grammar, graph, query)
    assert isinstance(result, Evaluation)
    assert result.graph is graph
    assert result.stats.as_dict() == ev.stats.as_dict()
    assert result.answers == ev.answers
    derived = result.derived
    assert result.answers == {pair: derived.get(pair, set()) for pair in query}
    assert result.answer_count == sum(map(len, result.answers.values()))
    assert result.stats.edges_added == sum(map(len, derived.values()))
    assert result.stats.pops == result.stats.insertions
    assert result.items.__class__ is tuple
    assert len(result.items) == result.stats.items_created
    assert final_items(result) == final_items(ev)


def test_the_run_is_its_own_result(nesting_grammar, loop_graph):
    _assert_the_run_is_its_own_result(nesting_grammar, loop_graph, _example_query(loop_graph))
    # a hierarchy whose sets pass the mask limit, so masks are read too
    graph = with_inverses(gen_barabasi(200, 3, seed=1, labels=("subClassOf", "type")))
    grammar = bundled_grammar("sc_t")
    _assert_the_run_is_its_own_result(grammar, graph, [(v, grammar.start) for v in graph.vertices()])


def test_answers_read_before_the_fixpoint_are_rebuilt(nesting_grammar, loop_graph):
    query = _example_query(loop_graph)
    expected = evaluate(nesting_grammar, loop_graph, query).answers
    # a read after one step, then run() to the end
    ev = Evaluation(nesting_grammar, loop_graph, query)
    ev.step()
    assert ev.answers != expected
    assert ev.run().answers == expected
    # a read after one step, then step() to the end
    ev = Evaluation(nesting_grammar, loop_graph, query)
    ev.step()
    assert ev.answers != expected
    while ev.step():
        pass
    assert ev.answers == expected
    # a read before any step, then process_slot() to the end
    ev = Evaluation(nesting_grammar, loop_graph, query)
    assert ev.answers != expected
    while ev.worklist:
        item = next(item for item in ev.items if any(item.pending))
        position = next(j for j, vertices in enumerate(item.pending) if vertices)
        ev.process_slot(item, position, min(item.pending[position]))
    assert ev.answers == expected


def test_scripted_drive_matches_frozen_trace(nesting_grammar, loop_graph):
    """Walk the first eight slot picks of the worked example by hand."""
    g = loop_graph
    v1, v2, v3 = g.vertex_id("1"), g.vertex_id("2"), g.vertex_id("3")
    S = "S"
    ev = Evaluation(nesting_grammar, g, _example_query(g))
    i1, i2 = ev.items[0], ev.items[1]

    def shot():
        return [render_item(it, ev.graph) for it in ev.items]

    ev.process_slot(i1, 0, v1)  # follow both a-edges out of vertex 1
    assert shot()[0] == "[S -> {1•} a {2°,3°} S {} b {}]"

    ev.process_slot(i1, 1, v2)  # vertex 2 sits before S: spawn items for (S, 2)
    assert len(ev.items) == 6
    i5, i6 = ev.items[4], ev.items[5]
    assert shot()[0] == "[S -> {1•} a {2•,3°} S {} b {}]"
    assert shot()[4:] == ["[S -> {2°} a {} S {} b {}]", "[S -> {2°}]"]

    ev.process_slot(i5, 0, v2)  # no a-edge out of 2, the set just closes
    assert shot()[4] == "[S -> {2•} a {} S {} b {}]"

    ev.process_slot(i6, 0, v2)  # empty right-hand side: derived edge (2,S,2)
    assert v2 in ev.derived.get((v2, S), ())
    assert shot()[0] == "[S -> {1•} a {2•,3°} S {2°} b {}]"

    ev.process_slot(i1, 2, v2)  # read the b-edge 2 -> 3
    assert shot()[0] == "[S -> {1•} a {2•,3°} S {2•} b {3°}]"

    ev.process_slot(i1, 3, v3)  # whole right-hand side matched: edge (1,S,3)
    assert v3 in ev.derived.get((v1, S), ())
    assert shot()[0] == "[S -> {1•} a {2•,3°} S {2•} b {3•}]"

    ev.process_slot(i2, 0, v1)  # the epsilon item yields the self edge (1,S,1)
    assert v1 in ev.derived.get((v1, S), ())

    # drain the remaining slots in any order: the fixpoint is frozen
    result = ev.run()
    assert final_items(result) == FINAL_ITEMS


def test_fixpoint_answers_edges_and_items(nesting_grammar, loop_graph):
    result = evaluate(nesting_grammar, loop_graph, _example_query(loop_graph))
    assert _named_answers(result) == {
        ("1", "S"): {"1", "3", "4"},
        ("3", "S"): {"3", "4"},
    }
    g = result.graph
    added = {
        (g.vertex_name(s), label, g.vertex_name(t))
        for s, label, t in _derived_triples(result.derived)
    }
    assert added == ADDED_EDGES
    assert result.stats.edges_added == len(ADDED_EDGES)
    assert final_items(result) == FINAL_ITEMS


def test_results_tsv_is_bit_stable(nesting_grammar, loop_graph):
    result = evaluate(nesting_grammar, loop_graph, _example_query(loop_graph))
    assert results_tsv(result) == (
        "1\tS\t1\n1\tS\t3\n1\tS\t4\n3\tS\t3\n3\tS\t4\n"
    )


def test_edges_added_by_hand_answer_as_loaded_ones(nesting_grammar, loop_graph):
    graph = DataGraph()
    for s, label, t in [("1", "a", "2"), ("1", "a", "3"), ("2", "b", "3"), ("3", "a", "1"), ("3", "b", "4")]:
        graph.add_edge(graph.intern(s), label, graph.intern(t))
    built = evaluate(nesting_grammar, graph, _example_query(graph))
    loaded = evaluate(nesting_grammar, loop_graph, _example_query(loop_graph))
    assert built.answers == loaded.answers
    assert results_tsv(built) == results_tsv(loaded)


def test_epsilon_rule_always_answers_self(loop_graph):
    grammar = parse_grammar("S ->\n")
    query = [(v, "S") for v in loop_graph.vertices()]
    result = evaluate(grammar, loop_graph, query)
    assert result.answers == {(v, "S"): {v} for v in loop_graph.vertices()}


def test_single_label_chain_answers():
    grammar = parse_grammar("A -> A A\nA -> s\n")
    graph = gen_string(3, "s")
    result = evaluate(grammar, graph, [(0, "A")])
    assert result.answers[(0, "A")] == {1, 2, 3}


def test_final_items_for_an_isolated_origin(nesting_grammar, loop_graph):
    v2 = loop_graph.vertex_id("2")
    result = evaluate(nesting_grammar, loop_graph, [(v2, "S")])
    assert final_items(result) == [
        "[S -> {2•} a {} S {} b {}]",
        "[S -> {2•}]",
    ]
    assert _named_answers(result) == {("2", "S"): {"2"}}


def test_left_recursion_terminates():
    grammar = parse_grammar("A -> A a | a\n")
    graph = gen_string(3, "a")
    result = evaluate(grammar, graph, [(0, "A")])
    assert result.answers[(0, "A")] == {1, 2, 3}
    table = fixpoint_relations(grammar, graph)
    assert result.answers[(0, "A")] == oracle_eval(table, 0, "A")


def test_mutual_recursion_on_a_two_cycle():
    grammar = parse_grammar("S -> a T\nT -> b S |\n")
    graph = load_triples("x\ta\ty\ny\tb\tx\n")
    query = [(v, "S") for v in graph.vertices()]
    result = evaluate(grammar, graph, query)
    table = fixpoint_relations(grammar, graph)
    for v in graph.vertices():
        assert result.answers[(v, "S")] == oracle_eval(table, v, "S")
    # words of S are (ab)*a, so from x every witness lands on y
    assert result.answers[(graph.vertex_id("x"), "S")] == {graph.vertex_id("y")}


def test_disciplines_reach_the_same_fixpoint(nesting_grammar, loop_graph):
    query = _example_query(loop_graph)
    outcomes = {
        (results_tsv(r), tuple(final_items(r)))
        for r in (
            evaluate(nesting_grammar, loop_graph, query, "fifo"),
            evaluate(nesting_grammar, loop_graph, query, "lifo"),
            evaluate(nesting_grammar, loop_graph, query, "random", seed=0),
            evaluate(nesting_grammar, loop_graph, query, "random", seed=77),
        )
    }
    assert len(outcomes) == 1


def test_pops_match_insertions_at_fixpoint(nesting_grammar, loop_graph):
    result = evaluate(nesting_grammar, loop_graph, _example_query(loop_graph))
    assert result.stats.pops == result.stats.insertions
    # every position-set entry has been processed exactly once
    total_entries = sum(len(s) for item in result.items for s in item.sets)
    assert result.stats.pops == total_entries
    assert not any(any(item.pending) for item in result.items)


def test_rederiving_an_edge_changes_nothing():
    # the ambiguous grammar derives many parses of the same window
    grammar = bundled_grammar("ab_ambiguous")
    graph = load_triples("1\ta\t2\n1\ta\t3\n2\tb\t3\n3\ta\t1\n3\tb\t4\n")
    query = [(v, "S") for v in graph.vertices()]
    result = evaluate(grammar, graph, query)
    assert result.stats.edges_added == len(_derived_triples(result.derived))
    table = fixpoint_relations(grammar, graph)
    for v in graph.vertices():
        assert result.answers[(v, "S")] == oracle_eval(table, v, "S")


def test_everything_grows_monotonically_under_stepping(nesting_grammar, loop_graph):
    ev = Evaluation(nesting_grammar, loop_graph, _example_query(loop_graph))

    def snapshot():
        return (
            {
                item.slot: [(set(s), set(s) - pending) for s, pending in zip(item.sets, item.pending)]
                for item in ev.items
            },
            _derived_triples(ev.derived),
        )

    previous_sets, previous_triples = snapshot()
    while ev.step():
        current_sets, current_triples = snapshot()
        assert previous_triples <= current_triples
        for key, old_sets in previous_sets.items():
            new_sets = current_sets[key]
            for (old, old_processed), (new, new_processed) in zip(old_sets, new_sets):
                assert old <= new
                assert old_processed <= new_processed  # marks never revert
        previous_sets, previous_triples = current_sets, current_triples


def test_structure_bounds_hold(nesting_grammar, loop_graph):
    result = evaluate(nesting_grammar, loop_graph, _example_query(loop_graph))
    v = loop_graph.vertex_count
    p = len(nesting_grammar.productions)
    k = nesting_grammar.max_rhs_len
    assert result.stats.items_created <= v * p
    assert result.stats.pops <= v * v * p * (k + 1)


def test_engine_asserts_label_disjointness(nesting_grammar):
    tainted = load_triples("1\tS\t2\n")
    with pytest.raises(LabelClash, match="collide"):
        Evaluation(nesting_grammar, tainted, [(0, "S")])


def test_answers_are_successor_lookups(nesting_grammar, loop_graph):
    result = evaluate(nesting_grammar, loop_graph, _example_query(loop_graph))
    for (vertex, nonterminal), targets in result.answers.items():
        assert targets == result.derived.get((vertex, nonterminal), set())


def test_answers_are_built_from_the_store():
    grammar = bundled_grammar("sc_t")
    # sets of this hierarchy pass the mask limit, so answers come from masks too
    graph = with_inverses(gen_barabasi(200, 3, seed=1, labels=("subClassOf", "type")))
    query = [(v, grammar.start) for v in graph.vertices()]
    result = Evaluation(grammar, graph, query).run()
    text = results_tsv(result)
    assert result.answer_count == text.count("\n")
    assert int in {targets.__class__ for targets in result._derived.values()}
    derived = result.derived
    # what run() used to copy out: each query pair's derived targets, as a set
    assert result.answers == {pair: derived.get(pair, set()) for pair in query}
    assert result.answers is not result.answers
    assert result.answer_count == sum(map(len, result.answers.values()))


def test_back_to_back_queries_on_one_loaded_graph():
    grammar = bundled_grammar("ab_unambiguous")

    def load():
        return gen_barabasi(60, 3, seed=1, labels=("a", "b"))

    shared = load()
    for source in (8, 5):
        query = [(source, "S")]
        result = evaluate(grammar, shared, query)
        fresh = evaluate(grammar, load(), query)
        assert result.answers == fresh.answers
        assert results_tsv(result) == results_tsv(fresh)
        assert result.stats.as_dict() == fresh.stats.as_dict()


def test_worklist_disciplines():
    entries = [("i", 0, v) for v in range(4)]

    fifo = Worklist("fifo")
    lifo = Worklist("lifo")
    for e in entries:
        fifo.push(e)
        lifo.push(e)
    assert [fifo.pop() for _ in range(4)] == entries
    assert [lifo.pop() for _ in range(4)] == entries[::-1]

    def drain(seed):
        w = Worklist("random", seed=seed)
        for e in entries:
            w.push(e)
        return [w.pop() for _ in range(4)]

    assert drain(3) == drain(3)  # seeded, hence reproducible
    assert sorted(drain(3)) == sorted(entries)

    with pytest.raises(InvalidParams):
        Worklist("sorted")


def test_run_state_is_not_tracked_by_the_garbage_collector():
    sparse = (bundled_grammar("ab_ambiguous"), gen_barabasi(40, 3, seed=2, labels=("a", "b")))
    # sets of this hierarchy pass the mask limit, so the run holds masks too
    dense = (bundled_grammar("sc_t"), with_inverses(gen_barabasi(200, 3, seed=1, labels=("subClassOf", "type"))))

    def untracked(vertex_sets, tuples):
        """No set of the given kind is tracked: masks never are, a tuple of ints not once collected."""
        return not any(gc.is_tracked(s) for s in vertex_sets if (s.__class__ is tuple) is tuples)

    for grammar, graph in (sparse, dense):
        ev = Evaluation(grammar, graph, [(v, grammar.start) for v in graph.vertices()])
        for _ in range(60):
            ev.step()
        slots = list(ev.worklist)
        assert slots
        assert not any(gc.is_tracked(slot) for slot in slots)
        assert untracked(ev._pending.values(), tuples=False)
        # CPython tracks a tuple when it is made and untracks one that holds
        # only untracked objects in the first collection that sees it.
        gc.collect(0)
        assert untracked(ev._pending.values(), tuples=True)
        ev.run()
        position_sets = [s for item in ev.items for s in item.sets]
        assert sum(map(len, position_sets)) == ev.stats.insertions
        assert untracked(ev._sets, tuples=False)
        assert ev.waiters
        for waiting in ev.waiters.values():
            assert not gc.is_tracked(waiting)
            assert not any(gc.is_tracked(slot) for slot in waiting)
        assert ev._derived
        assert untracked(ev._derived.values(), tuples=False)
        gc.collect(0)
        assert untracked(ev._sets, tuples=True)
        assert untracked(ev._derived.values(), tuples=True)
    assert {s.__class__ for s in ev._sets if s is not None} == {tuple, int}
    assert int in {targets.__class__ for targets in ev._derived.values()}


def test_a_mask_with_nothing_fresh_still_turns_a_tuple_set_and_its_delta(nesting_grammar, loop_graph):
    v1, v3 = loop_graph.vertex_id("1"), loop_graph.vertex_id("3")
    ev = Evaluation(nesting_grammar, loop_graph, [(v1, "S")])
    slot = ev.items[0].slot
    # 3's only a-successor is 1, as a tuple delta and as a mask delta
    ev._drain(1, slot, (v3,))
    assert ev._sets[slot + 1] == (v1,)
    assert ev._pending[slot + 1] == (v1,)
    insertions = ev.stats.insertions
    ev._drain(1, slot, 1 << v3)
    # a union with a mask is a mask, and the delta keeps its set's container
    assert ev._sets[slot + 1] == 1 << v1
    assert ev._pending[slot + 1] == 1 << v1
    assert ev.stats.insertions == insertions


def test_a_set_growing_by_one_vertex_moves_from_tuple_to_mask(nesting_grammar):
    # one a-edge per source, so a delta of source i at position 0 joins
    # target i alone into position 1
    graph = load_triples("".join(f"s{i}\ta\tt{i}\n" for i in range(40)))
    limit = engine._mask_limit(graph.vertex_count)
    assert limit + 4 <= 40
    targets = [graph.vertex_id(f"t{i}") for i in range(limit + 4)]
    ev = Evaluation(nesting_grammar, graph, [(graph.vertex_id("s0"), "S")])
    slot = ev.items[0].slot
    order = (tuple, int)
    rank = 0
    insertions = ev.stats.insertions
    for i in range(limit + 4):
        ev._drain(1, slot, (graph.vertex_id(f"s{i}"),))
        position_set, delta = ev._sets[slot + 1], ev._pending[slot + 1]
        assert set(engine._vertices(position_set)) == set(engine._vertices(delta)) == set(targets[: i + 1])
        # the delta keeps its set's container, which never moves back
        assert delta.__class__ is position_set.__class__
        assert order.index(position_set.__class__) >= rank
        rank = order.index(position_set.__class__)
        size = i + 1
        assert position_set.__class__ is (tuple if size <= limit else int)
    assert rank == 1
    assert ev.stats.insertions == insertions + limit + 4


def test_the_mixed_container_graph_holds_tuples_and_masks():
    # CI's mixed-container differential check runs this query; it is worth
    # its time only while the run holds both containers.
    grammar = bundled_grammar("ab_unambiguous")
    graph = gen_barabasi(2000, 3, seed=1, labels=("a", "b"))
    result = evaluate(grammar, graph, [(v, grammar.start) for v in graph.vertices()])
    assert {s.__class__ for s in result._sets if s is not None} == {tuple, int}
    assert {targets.__class__ for targets in result._derived.values()} == {tuple, int}
    assert result.answer_count == 23025


def test_an_a_n_b_n_chain_holds_every_set_as_a_tuple():
    # Every set of this shape holds one or two vertices, the case tuples are for.
    grammar = bundled_grammar("ab_ambiguous")
    result = evaluate(grammar, gen_ablist(200), [(v, grammar.start) for v in range(401)])
    position_sets = [s for s in result._sets if s is not None]
    assert position_sets
    assert all(s.__class__ is tuple for s in position_sets)
    assert result._derived
    assert all(targets.__class__ is tuple for targets in result._derived.values())
    assert max(map(len, position_sets)) <= 2
    assert result.stats.pops == result.stats.insertions


def test_mask_members_ascend_like_a_sorted_set():
    rng = random.Random(7)
    samples = [set(), {0}, {4000}] + [set(rng.sample(range(5000), rng.randrange(1, 300))) for _ in range(40)]
    # sizes on both sides of the bound up to which members come from the low bits
    samples += [set(rng.sample(range(5000), size)) for size in range(1, engine._SMALL + 3)]
    samples += [{v for v in range(3000) if bits >> v & 1} for bits in (rng.getrandbits(3000) for _ in range(20))]
    for vertices in samples:
        mask = engine._mask_of(vertices)
        assert mask == sum(1 << v for v in vertices)
        assert list(engine._members(mask)) == sorted(vertices)
    assert list(engine._members(0)) == []
    assert list(engine._members(1)) == [0]
    assert list(engine._members(1 << 4000)) == [4000]


def test_a_walk_from_one_end_of_a_long_string_stays_fast():
    # S -> S s | from vertex 0: the answer set is a mask as long as the
    # string, and every delta holds one vertex of it. Listing a delta's
    # members from the whole mask made this run quadratic, and some
    # fifteen times slower than it is now.
    grammar = parse_grammar("S -> S s\nS ->\n")
    graph = gen_string(100)
    table = fixpoint_relations(grammar, graph)
    for vertex in (0, 60, 100):
        assert evaluate(grammar, graph, [(vertex, "S")]).answers == {(vertex, "S"): oracle_eval(table, vertex, "S")}
    graph = gen_string(16000)
    started = time.perf_counter()
    result = evaluate(grammar, graph, [(0, "S")])
    elapsed = time.perf_counter() - started
    assert result.answers == {(0, "S"): set(range(16001))}
    assert result.stats.pops == result.stats.insertions == 32003
    assert elapsed < 2.0
