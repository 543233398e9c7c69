"""Arbitrary text into every parser: each raises nothing but CfpqError."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from cfpq import CfpqError, load_ntriples, load_triples, parse_grammar, with_inverses
from cfpq.cli import _parse_query_file

# Pieces of the grammar, TSV and N-Triples formats, so that drawn text
# gets past the first checks often, mixed with arbitrary characters.
TOKENS = (
    "S", "A", "a", "b", "1", "3", "->", "|", "#", " ", "\t", "\n", "\r", "\x0b", "\x00",
    "<", ">", "<http://x.org/a#b>", '"', '"lit"@en', "^^", "\\", ".", "_:b0", "^-1", "é",
)
texts = st.one_of(st.text(), st.lists(st.one_of(st.sampled_from(TOKENS), st.text(max_size=2))).map("".join))


def _raises_only_cfpq_errors(parse, text: str) -> None:
    try:
        parse(text)
    except CfpqError:
        pass


@settings(max_examples=300, deadline=None)
@given(texts)
def test_grammar_parser_raises_only_cfpq_errors(text):
    _raises_only_cfpq_errors(parse_grammar, text)


@settings(max_examples=300, deadline=None)
@given(texts)
def test_triple_loader_raises_only_cfpq_errors(text):
    _raises_only_cfpq_errors(lambda t: with_inverses(load_triples(t)), text)


@settings(max_examples=300, deadline=None)
@given(texts)
def test_ntriples_loader_raises_only_cfpq_errors(text):
    _raises_only_cfpq_errors(lambda t: with_inverses(load_ntriples(t)), text)


GRAMMAR = parse_grammar("S -> a S b | \n")
GRAPH = load_triples("1\ta\t2\n2\tb\t3\n")


@settings(max_examples=300, deadline=None)
@given(texts)
def test_query_file_parser_raises_only_cfpq_errors(text):
    _raises_only_cfpq_errors(lambda t: _parse_query_file(t, GRAPH, GRAMMAR), text)
