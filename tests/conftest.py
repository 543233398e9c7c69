from __future__ import annotations

from pathlib import Path

import pytest

from cfpq import DataGraph, Grammar, load_triples, parse_grammar

# The standing worked example: nested a..b pairs over a 4-vertex graph
# with an a-cycle between vertices 1 and 3 and a b-tail out to 4.
NESTING_GRAMMAR_TEXT = "S -> a S b\nS ->\n"
LOOP_GRAPH_TSV = "1\ta\t2\n1\ta\t3\n2\tb\t3\n3\ta\t1\n3\tb\t4\n"

GRAMMARS_DIR = Path(__file__).resolve().parent.parent / "grammars"


def bundled_grammar(name: str) -> Grammar:
    """The grammar in the bundled file ``grammars/<name>.cfg``."""
    return parse_grammar((GRAMMARS_DIR / f"{name}.cfg").read_text(encoding="utf-8"))


@pytest.fixture
def nesting_grammar() -> Grammar:
    return parse_grammar(NESTING_GRAMMAR_TEXT)


@pytest.fixture
def loop_graph() -> DataGraph:
    return load_triples(LOOP_GRAPH_TSV)
