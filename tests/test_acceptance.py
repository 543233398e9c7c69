"""End-to-end acceptance checklist.

One test per numbered criterion. Each prints a single pass/fail line
(visible under ``pytest -v -s``) and asserts it; timing budgets are part
of the assertion. Criterion 8 needs external ontology files and skips
when they are not on disk.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from cfpq import (
    evaluate,
    final_items,
    fixpoint_relations,
    gen_ablist,
    gen_barabasi,
    gen_complete,
    gen_string,
    load_ntriples,
    load_triples,
    oracle_eval,
    parse_grammar,
    results_tsv,
    with_inverses,
)

from conftest import bundled_grammar

EXAMPLE_GRAMMAR = "S -> a S b\nS ->\n"
EXAMPLE_GRAPH = "1\ta\t2\n1\ta\t3\n2\tb\t3\n3\ta\t1\n3\tb\t4\n"

# Frozen fixpoint of the worked example under the query {(1,S),(3,S)}.
EXPECTED_FINAL_ITEMS = [
    "[S -> {1•} a {2•,3•} S {2•,3•,4•} b {3•,4•}]",
    "[S -> {1•}]",
    "[S -> {2•} a {} S {} b {}]",
    "[S -> {2•}]",
    "[S -> {3•} a {1•} S {1•,3•,4•} b {4•}]",
    "[S -> {3•}]",
]
EXPECTED_ADDED_EDGES = {
    ("1", "S", "1"),
    ("1", "S", "3"),
    ("1", "S", "4"),
    ("2", "S", "2"),
    ("3", "S", "3"),
    ("3", "S", "4"),
}
EXPECTED_ANSWERS = {("1", "S"): {"1", "3", "4"}, ("3", "S"): {"3", "4"}}

EXPECTED_ONTOLOGY_RESULTS = {
    "skos": 810,
    "generations": 2164,
    "travel": 2499,
    "pizza": 56195,
}


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _checked_run(grammar, graph, query, discipline="fifo", seed=0):
    """Evaluate and assert the structural bounds hold for this run."""
    result = evaluate(grammar, graph, query, discipline, seed)
    v, p, k = graph.vertex_count, len(grammar.productions), grammar.max_rhs_len
    assert result.stats.items_created <= v * p
    assert result.stats.pops <= v * v * p * (k + 1)
    return result


def _example_instance():
    grammar = parse_grammar(EXAMPLE_GRAMMAR)
    graph = load_triples(EXAMPLE_GRAPH)
    query = [(graph.vertex_id("1"), "S"), (graph.vertex_id("3"), "S")]
    return grammar, graph, query


def _random_instances():
    """The 100-instance grid: seeds 0..99 over (n, k) combos, 5 grammars.

    The single-terminal chain grammars are instantiated with terminal a
    so they are non-trivial on the {a,b,c,d}-labeled random graphs.
    """
    grammars = [
        bundled_grammar("ab_ambiguous"),
        bundled_grammar("ab_unambiguous"),
        parse_grammar("A -> A A | a\n"),
        parse_grammar("B -> B A | A B |\nA -> a\n"),
        bundled_grammar("kjp_an_bm_cm_dn"),
    ]
    combos = [(n, k) for n in (20, 40, 60) for k in (1, 3, 5)]
    for seed in range(100):
        n, k = combos[seed % len(combos)]
        graph = gen_barabasi(n, k, seed=seed)
        for grammar in grammars:
            query = [(v, grammar.start) for v in graph.vertices()]
            yield grammar, graph, query


def _ablist_instances():
    for n in (10, 50, 100):
        graph = gen_ablist(n)
        for name in ("ab_ambiguous", "ab_unambiguous"):
            grammar = bundled_grammar(name)
            yield grammar, graph, [(v, grammar.start) for v in graph.vertices()]


def test_criterion_1_worked_example_fixpoint():
    started = time.perf_counter()
    grammar, graph, query = _example_instance()
    result = _checked_run(grammar, graph, query)
    items_ok = final_items(result) == EXPECTED_FINAL_ITEMS
    g = result.graph
    added = {
        (g.vertex_name(s), label, g.vertex_name(t))
        for (s, label), targets in result.derived.items()
        for t in targets
    }
    elapsed = time.perf_counter() - started
    ok = items_ok and added == EXPECTED_ADDED_EDGES and elapsed < 1.0
    _report(1, "worked example reaches the frozen item fixpoint", ok, f"{elapsed:.3f}s")


def test_criterion_2_worked_example_answers():
    started = time.perf_counter()
    grammar, graph, query = _example_instance()
    result = _checked_run(grammar, graph, query)
    g = result.graph
    named = {
        (g.vertex_name(v), nt): {g.vertex_name(t) for t in targets}
        for (v, nt), targets in result.answers.items()
    }
    elapsed = time.perf_counter() - started
    ok = named == EXPECTED_ANSWERS and elapsed < 1.0
    _report(2, "worked example answer sets", ok, f"{elapsed:.3f}s")


def test_criterion_3_random_instances_match_reference():
    started = time.perf_counter()
    checked = 0
    first_failure = ""
    for grammar, graph, query in _random_instances():
        table = fixpoint_relations(grammar, graph)
        expected = {(v, nt): oracle_eval(table, v, nt) for v, nt in query}
        result = _checked_run(grammar, graph, query)
        checked += 1
        if result.answers != expected:
            first_failure = f"instance #{checked} ({grammar!r}, {graph!r})"
            break
    elapsed = time.perf_counter() - started
    ok = not first_failure and checked == 500 and elapsed < 300.0
    _report(
        3,
        "engine matches the reference evaluator on random instances",
        ok,
        first_failure or f"{checked} instances, {elapsed:.1f}s",
    )


def test_criterion_4_ambiguity_does_not_change_answers():
    started = time.perf_counter()
    ok = True
    details = []
    for n in (10, 50, 100):
        graph = gen_ablist(n)
        ambiguous = bundled_grammar("ab_ambiguous")
        unambiguous = bundled_grammar("ab_unambiguous")
        query = [(v, "S") for v in graph.vertices()]
        res_a = _checked_run(ambiguous, graph, query)
        res_u = _checked_run(unambiguous, graph, query)
        ok = ok and res_a.answers == res_u.answers
        total = sum(len(t) for t in res_a.answers.values())
        # every vertex answers itself; prefix vertices also reach their mirror
        ok = ok and total == 3 * n + 1
        details.append(f"n={n}: {total} results")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _report(4, "ambiguous and unambiguous grammars agree on chains", ok, f"{elapsed:.1f}s")


def test_criterion_5_disciplines_render_identical_bytes():
    started = time.perf_counter()
    instances = [_example_instance()]
    instances.extend(_random_instances())
    instances.extend(_ablist_instances())
    ok = True
    for grammar, graph, query in instances:
        renderings = {
            results_tsv(_checked_run(grammar, graph, query, discipline, seed=13))
            for discipline in ("fifo", "lifo", "random")
        }
        if len(renderings) != 1:
            ok = False
            break
    elapsed = time.perf_counter() - started
    _report(
        5,
        "result files are byte-identical across worklist disciplines",
        ok,
        f"{len(instances)} instances, {elapsed:.1f}s",
    )


def test_criterion_6_structure_counters_stay_in_bounds():
    started = time.perf_counter()
    grammar = parse_grammar("A -> A A\nA -> s\n")
    pops = {}
    ok = True
    for n in (10, 20, 40):
        graph = gen_complete(n, ["s"])
        query = [(v, "A") for v in graph.vertices()]
        result = _checked_run(grammar, graph, query)  # asserts the absolute bounds
        pops[n] = result.stats.pops
        ok = ok and result.stats.pops == result.stats.insertions
    # doubling the vertices at fixed grammar may scale pops at most
    # quadratically, the bound's own growth rate
    ok = ok and pops[20] / pops[10] <= 4.0 and pops[40] / pops[20] <= 4.0
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120.0
    _report(
        6,
        "counter bounds and quadratic pop scaling on complete graphs",
        ok,
        f"pops={pops}, {elapsed:.1f}s",
    )


def test_criterion_7_chain_answers_match_closed_forms():
    started = time.perf_counter()
    dense = bundled_grammar("hlg_dense")
    sparse = bundled_grammar("hlg_sparse")
    ok = True
    for n in (1, 5, 50):
        graph = gen_string(n, "s")
        dense_result = _checked_run(dense, graph, [(0, "A")])
        sparse_result = _checked_run(sparse, graph, [(0, "B")])
        ok = ok and dense_result.answers[(0, "A")] == set(range(1, n + 1))
        ok = ok and sparse_result.answers[(0, "B")] == set(range(0, n + 1))
        dense_table = fixpoint_relations(dense, graph)
        sparse_table = fixpoint_relations(sparse, graph)
        ok = ok and dense_result.answers[(0, "A")] == oracle_eval(dense_table, 0, "A")
        ok = ok and sparse_result.answers[(0, "B")] == oracle_eval(sparse_table, 0, "B")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    _report(7, "one-or-more and zero-or-more chain walks", ok, f"{elapsed:.1f}s")


def test_criterion_8_ontology_result_counts():
    root = Path(os.environ.get("CFPQ_ONTOLOGY_DIR", Path(__file__).resolve().parent.parent / "data" / "ontologies"))
    available = {}
    for name in EXPECTED_ONTOLOGY_RESULTS:
        for suffix in (".nt", ".tsv"):
            candidate = root / f"{name}{suffix}"
            if candidate.exists():
                available[name] = candidate
                break
    if not available:
        print("criterion 8: SKIP - ontology files not present")
        pytest.skip(f"no ontology files under {root}")
    started = time.perf_counter()
    grammar = bundled_grammar("sc_t")
    ok = True
    details = []
    for name, path in sorted(available.items()):
        text = path.read_text()
        graph = with_inverses(load_ntriples(text) if path.suffix == ".nt" else load_triples(text))
        query = [(v, grammar.start) for v in graph.vertices()]
        result = _checked_run(grammar, graph, query)
        total = sum(len(t) for t in result.answers.values())
        ok = ok and total == EXPECTED_ONTOLOGY_RESULTS[name]
        details.append(f"{name}={total}")
    elapsed = time.perf_counter() - started
    _report(8, "ontology result counts", ok, ", ".join(details) + f", {elapsed:.1f}s")
