"""Context-free grammar model and a small text format for grammar files.

A grammar is a list of productions ``A -> x y z`` over symbols, and a
symbol is a plain ``str``, its spelling. The nonterminals are the
symbols that appear on some left-hand side; every other symbol mentioned
on a right-hand side is a terminal. The start symbol is the left-hand
side of the first rule.

Grammar file format (``.cfg`` by convention, UTF-8):

    # full-line or trailing comments start with '#'
    S -> a S b              # one rule per line, tokens split on whitespace
    S -> S S | a S b        # '|' separates alternatives of one left-hand side
    S ->                    # empty right-hand side derives the empty string

Lines end at ``\r\n``, ``\r`` or ``\n`` only (see ``split_lines``).
Symbol spellings are opaque tokens, so ``subClassOf^-1`` is a perfectly
ordinary terminal. ``#`` and ``|`` are reserved by the format and cannot
appear inside a spelling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import EmptyGrammar, MalformedRule, UnknownNonterminal

_ARROW = "->"


def split_lines(text: str) -> list[str]:
    r"""``text`` split into lines at ``\r\n``, ``\r`` and ``\n`` only.

    ``str.splitlines`` also breaks at ``\x0b``, ``\x0c``, ``\x1c``-``\x1e``,
    ``\x85``, U+2028 and U+2029, which may stand inside a field, a
    literal or a comment. Each pass runs over the whole string in C.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


@dataclass(frozen=True, slots=True)
class Production:
    """One rule ``lhs -> rhs``; an empty rhs derives the empty string."""

    lhs: str
    rhs: tuple[str, ...]

    def __repr__(self) -> str:
        return f"Production({self.lhs} -> {' '.join(self.rhs)})"


class Grammar:
    """Immutable bundle of productions plus the derived symbol partition.

    ``nonterminals`` are the left-hand sides of the productions and
    ``terminals`` every other right-hand-side symbol, so the two are
    disjoint. ``start`` is the first production's left-hand side.
    """

    __slots__ = ("productions", "start", "nonterminals", "terminals", "max_rhs_len", "_by_lhs", "_hash")

    def __init__(self, productions: Iterable[Production]):
        prods = tuple(productions)
        if not prods:
            raise EmptyGrammar("a grammar needs at least one production")
        nts = frozenset(p.lhs for p in prods)

        by_lhs: dict[str, list[Production]] = {}
        for p in prods:
            by_lhs.setdefault(p.lhs, []).append(p)

        self.productions = prods
        self.start = prods[0].lhs
        self.nonterminals = nts
        self.terminals = frozenset(s for p in prods for s in p.rhs if s not in nts)
        self.max_rhs_len = max(len(p.rhs) for p in prods)
        self._by_lhs = {a: tuple(ps) for a, ps in by_lhs.items()}
        # Hashed once: the engine looks its per-grammar tables up by grammar.
        self._hash = hash(prods)

    def productions_of(self, a: str) -> tuple[Production, ...]:
        """All productions with left-hand side ``a``, in source order."""
        if a not in self.nonterminals:
            raise UnknownNonterminal(f"{a!r} is not a nonterminal of this grammar")
        return self._by_lhs[a]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grammar):
            return NotImplemented
        return self.productions == other.productions

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"Grammar(start={self.start}, |N|={len(self.nonterminals)}, "
            f"|T|={len(self.terminals)}, |P|={len(self.productions)})"
        )


def parse_grammar(text: str) -> Grammar:
    """Parse grammar text (see the module docstring for the format).

    Raises EmptyGrammar when no rules are found and MalformedRule on a
    line that is not ``LHS -> ...``.
    """
    productions: list[Production] = []
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 2 or tokens[0] == _ARROW or tokens[1] != _ARROW:
            raise MalformedRule(f"line {lineno}: expected 'LHS -> symbols...', got {line!r}")
        for t in tokens:
            if "|" in t and t != "|":
                raise MalformedRule(f"line {lineno}: '|' may not appear inside a symbol: {t!r}")
        lhs = tokens[0]
        alternative: list[str] = []
        for t in tokens[2:]:
            if t == "|":
                productions.append(Production(lhs, tuple(alternative)))
                alternative = []
            else:
                alternative.append(t)
        productions.append(Production(lhs, tuple(alternative)))
    if not productions:
        raise EmptyGrammar("no grammar rules found")
    return Grammar(productions)


def serialize_grammar(grammar: Grammar) -> str:
    """Render a grammar back to the text format, one production per line.

    Parsing the output of ``serialize_grammar`` yields a structurally
    identical grammar (same productions in order, same start symbol).
    """
    lines = []
    for p in grammar.productions:
        lines.append(f"{p.lhs} -> {' '.join(p.rhs)}".rstrip())
    return "\n".join(lines) + "\n"
