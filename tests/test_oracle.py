from __future__ import annotations

import pytest

from cfpq import (
    DataGraph,
    SizeGuardExceeded,
    UnknownNonterminal,
    compose,
    fixpoint_relations,
    gen_ablist,
    gen_complete,
    gen_cycle,
    gen_string,
    oracle_eval,
    parse_grammar,
    reachable_via,
)

# -- brute-force cross-check helpers ------------------------------------
#
# An entirely separate route to the answers: enumerate every path up to a
# length cap and test its label word with a closed-form predicate for the
# language at hand. Sound for any cap; complete once the cap covers the
# longest witness the instance can produce.


def _paths(graph: DataGraph, start: int, max_len: int):
    frontier = [(start, ())]
    while frontier:
        vertex, trace = frontier.pop()
        yield vertex, trace
        if len(trace) == max_len:
            continue
        for s, label, t in graph.triples:
            if s == vertex:
                frontier.append((t, trace + (label,)))


def _brute_answers(graph: DataGraph, start: int, predicate, max_len: int) -> set[int]:
    return {v for v, trace in _paths(graph, start, max_len) if predicate(trace)}


def _is_nested_pairs(trace: tuple[str, ...]) -> bool:
    n = len(trace) // 2
    return len(trace) == 2 * n and trace == ("a",) * n + ("b",) * n


def test_nested_pairs_on_ablist():
    grammar = parse_grammar("S -> a S b\nS ->\n")
    graph = gen_ablist(2)
    table = fixpoint_relations(grammar, graph)
    # identity from the empty rule plus the two balanced windows
    assert table.relations["S"] == {(v, v) for v in range(5)} | {(1, 3), (0, 4)}
    for v in graph.vertices():
        assert oracle_eval(table, v, "S") == _brute_answers(graph, v, _is_nested_pairs, 4)


def test_worked_example_answers(nesting_grammar, loop_graph):
    table = fixpoint_relations(nesting_grammar, loop_graph)
    by_name = {
        name: {loop_graph.vertex_name(t) for t in oracle_eval(table, loop_graph.vertex_id(name), "S")}
        for name in "1234"
    }
    assert by_name == {"1": {"1", "3", "4"}, "2": {"2"}, "3": {"3", "4"}, "4": {"4"}}
    # longest balanced witness here is aabb; a cap of 8 is roomy
    for name in "1234":
        v = loop_graph.vertex_id(name)
        assert oracle_eval(table, v, "S") == _brute_answers(loop_graph, v, _is_nested_pairs, 8)


def test_epsilon_only_grammar_is_identity(loop_graph):
    table = fixpoint_relations(parse_grammar("S ->\n"), loop_graph)
    assert table.relations["S"] == {(v, v) for v in range(4)}


def test_no_base_case_stays_empty(loop_graph):
    table = fixpoint_relations(parse_grammar("B -> B\n"), loop_graph)
    assert table.relations["B"] == set()
    assert table.passes == 1


def test_single_label_chains():
    dense = parse_grammar("A -> A A\nA -> s\n")
    sparse = parse_grammar("B -> B A | A B |\nA -> s\n")
    chain = gen_string(3, "s")
    dense_table = fixpoint_relations(dense, chain)
    assert oracle_eval(dense_table, 0, "A") == {1, 2, 3}
    assert oracle_eval(dense_table, 0, "A") == _brute_answers(
        chain, 0, lambda t: len(t) >= 1 and set(t) == {"s"}, 3
    )
    sparse_table = fixpoint_relations(sparse, chain)
    assert oracle_eval(sparse_table, 0, "B") == {0, 1, 2, 3}

    ring = gen_cycle(3, "s")
    ring_table = fixpoint_relations(dense, ring)
    assert oracle_eval(ring_table, 0, "A") == {0, 1, 2}
    assert oracle_eval(ring_table, 0, "A") == _brute_answers(
        ring, 0, lambda t: len(t) >= 1 and set(t) == {"s"}, 3
    )


def test_oracle_eval_wants_a_nonterminal(nesting_grammar, loop_graph):
    table = fixpoint_relations(nesting_grammar, loop_graph)
    with pytest.raises(UnknownNonterminal):
        oracle_eval(table, 0, "a")


def test_size_guard_trips():
    grammar = parse_grammar("A -> a\n")
    with pytest.raises(SizeGuardExceeded):
        fixpoint_relations(grammar, gen_complete(4, ["a"]), max_triples=10)


def test_size_guard_refuses_before_building_the_triples(monkeypatch):
    def unbuilt(graph):
        raise AssertionError("the triples of an over-budget graph were built")

    monkeypatch.setattr(DataGraph, "triples", property(unbuilt))
    with pytest.raises(SizeGuardExceeded, match="input has 16 triples, over the budget of 10"):
        fixpoint_relations(parse_grammar("A -> a\n"), gen_complete(4, ["a"]), max_triples=10)


def test_passes_grow_monotonically(nesting_grammar, loop_graph):
    snapshots = []
    table = fixpoint_relations(nesting_grammar, loop_graph, on_pass=snapshots.append)
    assert len(snapshots) == table.passes
    for earlier, later in zip(snapshots, snapshots[1:]):
        for symbol, relation in earlier.items():
            assert relation <= later[symbol]
    # last snapshot is the fixpoint itself
    assert snapshots[-1] == {s: frozenset(r) for s, r in table.relations.items()}
    bound = len(nesting_grammar.nonterminals) * loop_graph.vertex_count**2 + 1
    assert table.passes <= bound


def test_compose_chains_pairs():
    r1 = {(0, 1), (0, 2), (3, 3)}
    r2 = {(1, 5), (2, 5), (2, 6), (3, 0)}
    assert compose(r1, r2) == {(0, 5), (0, 6), (3, 0)}
    assert compose(r1, set()) == set()


def test_reachable_via_prefix_walks():
    grammar = parse_grammar("S -> a S b\nS ->\n")
    graph = gen_ablist(2)
    table = fixpoint_relations(grammar, graph)
    a, b, S = "a", "b", "S"
    assert reachable_via(table, 0, ()) == {0}
    assert reachable_via(table, 0, (a,)) == {1}
    assert reachable_via(table, 0, (a, S)) == {1, 3}
    assert reachable_via(table, 0, (a, S, b)) == {4}
