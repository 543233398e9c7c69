from __future__ import annotations

import pytest

from cfpq import (
    EmptyGrammar,
    Grammar,
    MalformedRule,
    UnknownNonterminal,
    parse_grammar,
    serialize_grammar,
)

from conftest import GRAMMARS_DIR, bundled_grammar


def test_parse_nesting_grammar(nesting_grammar):
    g = nesting_grammar
    assert g.start == "S"
    assert g.nonterminals == {"S"}
    assert g.terminals == {"a", "b"}
    assert [p.rhs for p in g.productions] == [("a", "S", "b"), ()]
    assert g.max_rhs_len == 3


def test_parse_single_terminal_chain_grammar():
    g = parse_grammar("A -> A A\nA -> s\n")
    assert g.nonterminals == {"A"}
    assert g.terminals == {"s"}
    assert len(g.productions) == 2
    assert g.max_rhs_len == 2


def test_alternatives_expand_in_source_order():
    g = parse_grammar("B -> B A | A B |\nA -> s\n")
    b_rules = g.productions_of("B")
    assert [p.rhs for p in b_rules] == [
        ("B", "A"),
        ("A", "B"),
        (),
    ]
    # A is defined on a left-hand side, so it is a nonterminal, not a terminal
    assert g.nonterminals == {"A", "B"}
    assert g.terminals == {"s"}
    assert g.start == "B"


def test_comments_and_blank_lines_are_ignored():
    g = parse_grammar("# header\n\nS -> a  # trailing comment\n   \nS ->\n")
    assert len(g.productions) == 2
    assert g.productions[0].rhs == ("a",)


def test_only_cr_and_lf_end_a_line():
    # U+2028 inside a comment stays in the comment; a form feed inside a
    # rule is whitespace between two tokens.
    assert parse_grammar("S -> a # note\u2028T -> b\n").nonterminals == {"S"}
    assert parse_grammar("S -> a\x0cb\n").productions[0].rhs == ("a", "b")


def test_terminal_free_grammar_is_legal():
    g = parse_grammar("S -> S S\nS ->\n")
    assert g.terminals == frozenset()
    assert g.nonterminals == {"S"}


def test_all_epsilon_grammar_has_zero_rhs_len():
    assert parse_grammar("S ->\n").max_rhs_len == 0


def test_empty_text_raises():
    with pytest.raises(EmptyGrammar):
        parse_grammar("")
    with pytest.raises(EmptyGrammar):
        parse_grammar("# nothing but a comment\n\n")


@pytest.mark.parametrize("text", ["S\n", "S - a\n", "-> a b\n", "S -> a|b\n", "S => a\n"])
def test_malformed_rules_raise(text):
    with pytest.raises(MalformedRule):
        parse_grammar(text)


def test_productions_of_unknown_symbol(nesting_grammar):
    with pytest.raises(UnknownNonterminal):
        nesting_grammar.productions_of("a")
    with pytest.raises(UnknownNonterminal):
        nesting_grammar.productions_of("not-mentioned-anywhere")


def test_rhs_symbols_partition_into_terminals_and_nonterminals():
    paths = sorted(GRAMMARS_DIR.glob("*.cfg"))
    assert paths
    for path in paths:
        g = bundled_grammar(path.stem)
        for p in g.productions:
            for s in p.rhs:
                assert (s in g.nonterminals) != (s in g.terminals)


def test_round_trip_through_text(nesting_grammar):
    again = parse_grammar(serialize_grammar(nesting_grammar))
    assert again == nesting_grammar
    assert hash(again) == hash(nesting_grammar)


def test_serialize_writes_epsilon_as_bare_arrow():
    text = serialize_grammar(parse_grammar("S -> a S b\nS ->\n"))
    assert text == "S -> a S b\nS ->\n"


def test_grammar_requires_at_least_one_production():
    with pytest.raises(EmptyGrammar):
        Grammar([])


def test_inverse_label_spellings_are_plain_terminals():
    g = bundled_grammar("sc_t")
    assert "subClassOf^-1" in g.terminals
    assert "type^-1" in g.terminals
    assert g.max_rhs_len == 3
