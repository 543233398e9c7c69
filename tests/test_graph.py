from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfpq import (
    DataGraph,
    InvalidParams,
    MalformedTriple,
    UnknownVertex,
    gen_ablist,
    gen_barabasi,
    gen_complete,
    gen_cycle,
    gen_string,
    load_ntriples,
    load_triples,
    to_tsv,
    with_inverses,
)
from cfpq.graph import _add_inverses


def test_load_assigns_dense_ids_in_first_appearance_order():
    g = load_triples("x\ta\ty\ny\ta\tz\nx\tb\tz\n")
    assert g.vertex_count == 3
    assert [g.vertex_name(i) for i in range(3)] == ["x", "y", "z"]
    assert g.vertex_id("z") == 2
    assert len(g.triples) == 3


def test_loaded_example_shape(loop_graph):
    assert loop_graph.vertex_count == 4
    assert len(loop_graph.triples) == 5
    assert loop_graph.edge_count == 5
    assert loop_graph.labels == {"a", "b"}


def test_successors_are_ascending_or_empty(loop_graph):
    v1 = loop_graph.vertex_id("1")
    v2 = loop_graph.vertex_id("2")
    v3 = loop_graph.vertex_id("3")
    assert loop_graph.successors(v1, "a") == sorted(
        [loop_graph.vertex_id("2"), loop_graph.vertex_id("3")]
    )
    assert loop_graph.successors(v2, "a") == []
    assert loop_graph.successors(v3, "b") == [loop_graph.vertex_id("4")]


def test_duplicate_lines_collapse():
    g = load_triples("x\ta\ty\nx\ta\ty\n")
    assert len(g.triples) == 1


@pytest.mark.parametrize("text", ["x\ta\n", "x\ta\ty\tz\n", "just one field\n"])
def test_malformed_triples_raise(text):
    with pytest.raises(MalformedTriple):
        load_triples(text)


@pytest.mark.parametrize("text", ["x\t\ty\n", "\ta\ty\n", "x\ta\t\n"])
def test_empty_fields_raise_with_the_line_number(text):
    with pytest.raises(MalformedTriple, match="line 2: empty field"):
        load_triples("u\ta\tv\n" + text)


def test_add_inverses_materializes_reversed_edges():
    g = with_inverses(load_triples("x\tsubClassOf\ty\n"))
    assert len(g.triples) == 2
    assert g.vertex_count == 2
    x, y = g.vertex_id("x"), g.vertex_id("y")
    assert g.has_edge(y, "subClassOf^-1", x)


def test_with_inverses_adds_no_vertices(loop_graph):
    g = with_inverses(loop_graph)
    assert g.vertex_count == loop_graph.vertex_count
    assert len(g.triples) == 2 * len(loop_graph.triples)
    assert loop_graph.labels < g.labels


def test_with_inverses_leaves_its_input_untouched(loop_graph):
    triples, labels = set(loop_graph.triples), set(loop_graph.labels)
    with_inverses(loop_graph)
    assert loop_graph.triples == triples
    assert loop_graph.labels == labels


@pytest.mark.parametrize(
    "load, text",
    [
        (load_triples, "x\tsubClassOf\ty\ny\ttype\tz\nz\tsubClassOf\tx\nx\ttype\tx\n"),
        (load_ntriples, "<http://e/x> <http://e/p> <http://e/y> .\n<http://e/y> <http://e/q> _:b .\n"),
    ],
)
def test_loading_with_inverses_equals_with_inverses_of_the_load(load, text):
    in_place = load(text)
    _add_inverses(in_place)
    copied = with_inverses(load(text))
    assert in_place.triples == copied.triples
    assert in_place.labels == copied.labels
    assert [in_place.vertex_name(v) for v in in_place.vertices()] == [
        copied.vertex_name(v) for v in copied.vertices()
    ]
    assert in_place.index == copied.index


def test_inverses_of_a_graph_holding_both_directions():
    text = "x\tp\ty\ny\tp^-1\tx\nz\tp^-1\tx\nx\tq\tx\n"
    originals = load_triples(text).triples
    reversed_copies = {(o, p + "^-1", s) for s, p, o in originals}
    g = with_inverses(load_triples(text))
    assert g.triples == originals | reversed_copies
    assert g.vertex_count == 3


def test_labels_follow_add_edge():
    g = DataGraph()
    x, y = g.intern("x"), g.intern("y")
    labels = g.labels
    assert not labels
    g.add_edge(x, "a", y)
    g.add_edge(y, "a", x)
    assert labels == {"a"}
    g.add_edge(x, "b", x)
    assert labels == g.labels == {"a", "b"}
    with pytest.raises(AttributeError):
        g.labels = set()


def test_copy_is_independent_at_both_levels_of_the_index(loop_graph):
    v1, v2, v3, v4 = (loop_graph.vertex_id(name) for name in "1234")
    a, c = "a", "c"
    before = set(loop_graph.triples)
    g = loop_graph.copy()
    assert g.index == loop_graph.index
    assert g.add_edge(v1, a, v4)  # into the existing (1, a) target set
    assert g.add_edge(v2, a, v1)  # a new source under an existing label
    assert g.add_edge(v4, c, v1)  # a new label
    assert loop_graph.triples == before
    assert loop_graph.successors(v1, a) == [v2, v3]
    assert loop_graph.labels == {a, "b"}
    assert g.triples == before | {(v1, a, v4), (v2, a, v1), (v4, c, v1)}


def test_add_edge_reports_first_insertion_only(loop_graph):
    v1, v2 = loop_graph.vertex_id("1"), loop_graph.vertex_id("2")
    assert loop_graph.add_edge(v1, "S", v2) is True
    assert loop_graph.add_edge(v1, "S", v2) is False
    assert loop_graph.successors(v1, "S") == [v2]


def test_add_edge_rejects_out_of_range(loop_graph):
    with pytest.raises(UnknownVertex):
        loop_graph.add_edge(0, "a", 99)


def test_vertex_lookups(loop_graph):
    assert loop_graph.has_vertex("1")
    assert not loop_graph.has_vertex("99")
    with pytest.raises(UnknownVertex):
        loop_graph.vertex_id("99")
    with pytest.raises(UnknownVertex):
        loop_graph.vertex_name(99)


def test_copy_is_independent(loop_graph):
    g = loop_graph.copy()
    g.add_edge(0, "S", 0)
    assert not loop_graph.has_edge(0, "S", 0)
    assert len(g.triples) == len(loop_graph.triples) + 1


def test_gen_complete_exact_edges():
    g = gen_complete(2, ["a"])
    a = "a"
    assert g.triples == {(0, a, 0), (0, a, 1), (1, a, 0), (1, a, 1)}
    assert gen_complete(0, ["a"]).vertex_count == 0
    assert len(gen_complete(3, ["a", "b"]).triples) == 18


def test_gen_complete_needs_a_label():
    with pytest.raises(InvalidParams):
        gen_complete(3, [])


def test_gen_ablist_traces_the_word():
    g = gen_ablist(2)
    assert g.vertex_count == 5
    a, b = "a", "b"
    assert g.triples == {(0, a, 1), (1, a, 2), (2, b, 3), (3, b, 4)}
    assert gen_ablist(0).vertex_count == 1
    assert gen_ablist(0).triples == set()


def test_gen_string_chain():
    g = gen_string(3, "s")
    assert g.vertex_count == 4
    assert g.triples == {(i, "s", i + 1) for i in range(3)}
    assert gen_string(0).triples == set()


@pytest.mark.parametrize("generator", [gen_ablist, gen_string])
def test_chain_generators_reject_a_negative_size_by_its_value(generator):
    with pytest.raises(InvalidParams, match="got -3$"):
        generator(-3)


def test_gen_cycle_ring():
    g = gen_cycle(3, "s")
    assert g.triples == {(0, "s", 1), (1, "s", 2), (2, "s", 0)}
    assert gen_cycle(1, "s").triples == {(0, "s", 0)}
    with pytest.raises(InvalidParams):
        gen_cycle(0, "s")


def test_gen_barabasi_counts_and_clique():
    # k = n: nothing but the seed clique
    g = gen_barabasi(4, 4, seed=3)
    assert g.vertex_count == 4
    assert len(g.triples) == 12
    # k = 1: empty seed, one edge per later vertex, uniform fallback at v=1
    g = gen_barabasi(5, 1, seed=3)
    assert g.vertex_count == 5
    assert len(g.triples) == 4
    for v in range(1, 5):
        assert any(s == v and t < v for s, _, t in g.triples)


def test_gen_barabasi_is_reproducible():
    first = to_tsv(gen_barabasi(30, 3, seed=11))
    second = to_tsv(gen_barabasi(30, 3, seed=11))
    assert first == second
    assert first != to_tsv(gen_barabasi(30, 3, seed=12))


# SHA-256 of to_tsv(gen_barabasi(n, k, seed, labels)), frozen from the
# generator that bisected a freshly accumulated degree list per edge. The
# first two are the benchmark's hierarchy-all and point-lookups graphs.
BARABASI_DIGESTS = [
    ((600, 3, 1, ("subClassOf", "type")), "e1e37e23ae461bea6f5a165314de2b3267a64c132d8e2279541ae43756426579"),
    ((8000, 3, 1, ("a", "b")), "f851096e0a51c28870665bf0badc75e84faed2071795d5c95b335139637da699"),
    ((50, 1, 0, ("a", "b", "c", "d")), "eb89832680b0c8b05237aa3b738b5e76c6dd879c4074087f4b5d96cabfc353c3"),
    ((300, 5, 7, ("a", "b", "c", "d")), "79a3cae41a10d875339efeb10f31fb226689e2a54232de0770efb2385915cfd4"),
    ((6, 6, 3, ("x",)), "42d19e25bc4102d6034cbe38310095bd6b73ca54cce25cb189f8468137ec1e43"),
    ((2000, 2, 11, ("p", "q", "r")), "db0700d121930b3798184a6c0af65afc683ad32390303b71f92f7b3928041a9e"),
]


@pytest.mark.parametrize("params,digest", BARABASI_DIGESTS, ids=[str(p[:3]) for p, _ in BARABASI_DIGESTS])
def test_gen_barabasi_graphs_are_pinned(params, digest):
    assert hashlib.sha256(to_tsv(gen_barabasi(*params)).encode()).hexdigest() == digest


def test_gen_barabasi_validates_k():
    with pytest.raises(InvalidParams):
        gen_barabasi(5, 0, seed=0)
    with pytest.raises(InvalidParams):
        gen_barabasi(5, 6, seed=0)


def test_successor_index_matches_triple_set():
    for g in (gen_barabasi(25, 3, seed=5), gen_complete(4, ["a", "b"]), gen_ablist(3)):
        seen = 0
        for v in g.vertices():
            for label in g.labels:
                succ = g.successors(v, label)
                assert succ == sorted({t for s, l, t in g.triples if s == v and l == label})
                seen += len(succ)
        assert seen == len(g.triples) == g.edge_count


def test_to_tsv_round_trips():
    g = gen_barabasi(12, 2, seed=9)
    again = load_triples(to_tsv(g))
    assert to_tsv(again) == to_tsv(g)
    assert len(again.triples) == len(g.triples)


def test_ntriples_tokenizer_maps_iris_to_local_names():
    text = (
        "# a comment line\n"
        "<http://example.org/ns#Cat> <http://www.w3.org/2000/01/rdf-schema#subClassOf> "
        "<http://example.org/ns#Animal> .\n"
        "_:b0 <http://example.org/prop> \"some literal\" .\n"
    )
    g = load_ntriples(text)
    assert g.has_vertex("Cat")
    assert g.has_vertex("Animal")
    assert g.has_vertex("_:b0")
    assert g.has_vertex('"some literal"')
    assert g.has_edge(g.vertex_id("Cat"), "subClassOf", g.vertex_id("Animal"))


@pytest.mark.parametrize(
    "obj, name",
    [
        ("<http://e/y> . # note", "y"),
        ('"a . # b" . # note', '"a . # b"'),
        ("<http://e/ns#y> .", "y"),
    ],
)
def test_ntriples_trailing_comment_is_not_part_of_the_object(obj, name):
    g = load_ntriples(f"<http://e/x> <http://e/p> {obj}\n<http://e/x> <http://e/q> <http://e/y> .\n")
    assert g.has_edge(g.vertex_id("x"), "p", g.vertex_id(name))
    assert g.vertex_count == (2 if name == "y" else 3)


def test_ntriples_raw_tab_in_a_literal_is_its_escape():
    g = load_ntriples('<http://e/x> <http://e/p> "t\tab" .\n<http://e/x> <http://e/q> "t\\tab" .\n')
    assert g.vertex_names == ["x", '"t\\tab"']
    again = load_triples(to_tsv(g))
    assert to_tsv(again) == to_tsv(g)
    assert again.edge_count == 2


# str.splitlines would also end a line at each of these.
@pytest.mark.parametrize("char", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
def test_lines_end_only_at_cr_and_lf(char):
    g = load_triples(f"x\tp\ty{char}z\r\nu\tq\tv\rw\tq\tv\n")
    assert g.vertex_names == ["x", f"y{char}z", "u", "v", "w"]
    with pytest.raises(MalformedTriple, match="line 3:"):
        load_triples(f"x\tp\ty{char}z\r\n\rjust one field\n")
    g = load_ntriples(f'<http://e/x> <http://e/p> "a{char}b" .\r\n<http://e/x> <http://e/q> <http://e/y> .\r')
    assert g.vertex_names == ["x", f'"a{char}b"', "y"]
    with pytest.raises(MalformedTriple, match="line 3:"):
        load_ntriples(f'<http://e/x> <http://e/p> "a{char}b" .\r\n\r<http://e/x>\n')


def test_ntriples_inverses():
    g = with_inverses(load_ntriples("<http://e/x> <http://e/p> <http://e/y> .\n"))
    assert g.has_edge(g.vertex_id("y"), "p^-1", g.vertex_id("x"))


def test_ntriples_malformed():
    with pytest.raises(MalformedTriple):
        load_ntriples("<http://e/x> <http://e/p>\n")


@pytest.mark.parametrize(
    "line",
    [
        "a #b c .",
        "_:b0 <http://e/p> #x .",
        "a b # c .",
        "<http://e/a> <http://e/p> c d .",
        '<http://e/a> <http://e/p> "open .',
        ".a <http://e/p> <http://e/o> .",
        "<http://e/a> <http://e/p> <http://e/o>#c",
        '<http://e/a> <http://e/p> "x"y .',
        "<http://e/a> <http://e/p> <> .",
        "<http://e/a b> <http://e/p> <http://e/o> .",
        "<http://e/a> <http://e/p\tq> <http://e/o> .",
        "<http://e/a> <http://e/p> <http://e/o b> .",
        '<http://e/a> <http://e/p> "x"^^<http://e/d\tt> .',
    ],
)
def test_ntriples_line_that_is_not_three_terms_is_malformed(line):
    with pytest.raises(MalformedTriple, match="^line 2: expected 'subject predicate object \\.'$"):
        load_ntriples(f"<http://e/x> <http://e/q> <http://e/y> .\n{line}\n")


@pytest.mark.parametrize(
    "obj, name",
    [
        ("<http://e/b> # note", "b"),
        ('"x" # note', '"x"'),
        ("b#c .", "b#c"),
        ("c.", "c"),
        ("<http://e/b>", "b"),
        ("c.# note", "c"),
        ('"x y\tz" .', '"x y\\tz"'),
    ],
)
def test_ntriples_object_ends_at_the_dot_or_at_a_comment(obj, name):
    g = load_ntriples(f"<http://e/a> <http://e/p> {obj}\n")
    assert g.vertex_names == ["a", name]
    assert g.triples == {(0, "p", 1)}


_IRIS = st.builds(
    lambda base, local: (f"<{base}{local}>", local),
    st.sampled_from(["http://e/", "http://e/ns#", "http://e/a/b/"]),
    st.text("abcxyz019_-.:", min_size=1, max_size=6),
)
_BLANK_NODES = st.text("abz019", min_size=1, max_size=4).map(lambda label: (f"_:{label}",) * 2)
_LITERAL_BODIES = st.lists(
    st.one_of(
        st.sampled_from(['\\"', "\\\\", "\\t", "\\n", "\t", " ", ".", " . ", "#", " # ", "<a>", "@en"]),
        st.text(st.characters(blacklist_characters='"\\\r\n'), max_size=3),
    ),
    max_size=5,
).map("".join)
_LITERALS = st.builds(
    '"{}"{}'.format,
    _LITERAL_BODIES,
    st.sampled_from(["", "@en", "@en-GB", "^^<http://www.w3.org/2001/XMLSchema#string>"]),
).map(lambda literal: (literal, literal.replace("\t", "\\t")))
_COMMENT_TEXTS = st.text(max_size=8).filter(lambda text: "\r" not in text and "\n" not in text)


def _blanks(min_size: int = 0) -> st.SearchStrategy[str]:
    return st.text(" \t", min_size=min_size, max_size=3)


@st.composite
def _ntriples_lines(draw):
    """A valid line of one triple, and the names its subject, predicate and object read as."""
    s, s_name = draw(st.one_of(_IRIS, _BLANK_NODES))
    p, p_name = draw(_IRIS)
    o, o_name = draw(st.one_of(_IRIS, _BLANK_NODES, _LITERALS))
    line = f"{draw(_blanks())}{s}{draw(_blanks(1))}{p}{draw(_blanks(1))}{o}"
    dot = draw(st.booleans())
    if dot:
        line += draw(_blanks()) + "."
    if draw(st.booleans()):
        # Right after the dot a comment needs no whitespace before it.
        line += draw(_blanks(0 if dot else 1)) + "#" + draw(_COMMENT_TEXTS)
    return line + draw(_blanks()), s_name, p_name, o_name


@settings(max_examples=300, deadline=None)
@given(_ntriples_lines())
def test_ntriples_valid_line_reads_as_one_edge(case):
    line, s_name, p_name, o_name = case
    g = load_ntriples(line + "\n")
    assert g.triples == {(g.vertex_id(s_name), p_name, g.vertex_id(o_name))}
    assert g.vertex_count == len({s_name, o_name})
