"""Edge-labeled directed graphs stored as one label-first successor index.

Vertices are dense integers assigned in first-appearance order; the
original vertex tokens are kept in a side table so loaders and writers
can round-trip external names. A label is a plain ``str``, its spelling,
and the graph places no restriction on the label alphabet. The edges
live in one index, label -> source -> set of targets: one adjacency per
label, as the matrix formulation of CFPQ keeps one Boolean matrix per
terminal. The query engine only reads a graph: it keeps the
nonterminal-labeled edges it derives in a store of its own, so many
queries can share one loaded graph.

Also home to the synthetic generators used by ``cfpq gen`` and
perfbench, and a thin N-Triples pre-tokenizer (IRIs and literals
become opaque local-name tokens; full RDF semantics is out of scope).
"""

from __future__ import annotations

import random
import re
from typing import KeysView, Sequence

from .errors import InvalidParams, MalformedTriple, UnknownVertex
from .grammar import split_lines

Triple = tuple[int, str, int]

INVERSE_SUFFIX = "^-1"


class DataGraph:
    """Mutable store of labeled edges ``(source, label, target)`` over dense vertex ids.

    ``index`` is the only copy of the edges, label first: it maps a
    label to a dict from source vertex to the set of targets, so one
    label lookup serves every source, the way the evaluator's terminal
    steps read it. ``labels`` is a live view of the index's keys, the
    labels in use, and ``triples`` builds the edge set from the index on
    each read. Treat ``index`` as read-only and go through ``add_edge``
    so it stays consistent.
    """

    __slots__ = ("_names", "_ids", "index")

    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.index: dict[str, dict[int, set[int]]] = {}

    # -- vertices ------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._names)

    def vertices(self) -> range:
        return range(len(self._names))

    @property
    def vertex_names(self) -> Sequence[str]:
        """Every vertex name, indexed by id: the graph's own list, not a copy, so only read it."""
        return self._names

    def intern(self, name: str) -> int:
        """Return the id of ``name``, adding a new vertex on first sight."""
        vid = self._ids.get(name)
        if vid is None:
            vid = len(self._names)
            self._ids[name] = vid
            self._names.append(name)
        return vid

    def has_vertex(self, name: str) -> bool:
        return name in self._ids

    def vertex_id(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise UnknownVertex(f"no vertex named {name!r}") from None

    def vertex_name(self, vid: int) -> str:
        if not 0 <= vid < len(self._names):
            raise UnknownVertex(f"vertex id {vid} out of range")
        return self._names[vid]

    # -- edges ---------------------------------------------------------

    @property
    def labels(self) -> KeysView[str]:
        """Every label of some edge, a read-only view of the index's keys."""
        return self.index.keys()

    @property
    def triples(self) -> set[Triple]:
        """Every edge as a ``(source, label, target)`` triple, built on each read."""
        return {
            (source, label, target)
            for label, by_source in self.index.items()
            for source, targets in by_source.items()
            for target in targets
        }

    @property
    def edge_count(self) -> int:
        """Number of edges, summed over the index's target sets."""
        return sum(sum(map(len, by_source.values())) for by_source in self.index.values())

    def add_edge(self, source: int, label: str, target: int) -> bool:
        """Insert an edge; returns True iff it was not already present."""
        n = len(self._names)
        if not (0 <= source < n and 0 <= target < n):
            raise UnknownVertex(f"edge endpoint out of range: ({source}, {label}, {target})")
        by_source = self.index.get(label)
        if by_source is None:
            by_source = self.index[label] = {}
        targets = by_source.get(source)
        if targets is None:
            by_source[source] = {target}
        elif target in targets:
            return False
        else:
            targets.add(target)
        return True

    def has_edge(self, source: int, label: str, target: int) -> bool:
        by_source = self.index.get(label)
        return by_source is not None and target in by_source.get(source, ())

    def successors(self, source: int, label: str) -> list[int]:
        """Targets of ``label``-edges leaving ``source``, ascending."""
        by_source = self.index.get(label)
        return sorted(by_source.get(source, ())) if by_source else []

    def copy(self) -> DataGraph:
        g = DataGraph()
        g._names = list(self._names)
        g._ids = dict(self._ids)
        g.index = {
            label: {source: set(targets) for source, targets in by_source.items()}
            for label, by_source in self.index.items()
        }
        return g

    def __repr__(self) -> str:
        return f"DataGraph(|V|={len(self._names)}, |E|={self.edge_count})"


# -- text formats -------------------------------------------------------


def load_triples(text: str) -> DataGraph:
    """Parse tab-separated ``subject<TAB>predicate<TAB>object`` lines.

    Vertex ids are assigned in first-appearance order (subject before
    object within a line); duplicate triples collapse and an empty field
    is an error. ``with_inverses`` adds the inverse edges (o, p^-1, s).
    """
    g = DataGraph()
    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedTriple(f"line {lineno}: expected 3 tab-separated fields, got {len(fields)}")
        if "" in fields:
            raise MalformedTriple(f"line {lineno}: empty field")
        s, p, o = fields
        g.add_edge(g.intern(s), p, g.intern(o))
    return g


def _add_inverses(g: DataGraph) -> None:
    """Add (o, p^-1, s) to ``g`` in place for every edge it holds now.

    Each label's source -> targets map is inverted into a target ->
    sources map, and every map is inverted before any is written back:
    when ``g`` holds both p and p^-1 edges, writing the inverse of p into
    p^-1 must not add to the p^-1 edges still to be inverted.
    """
    inverted: dict[str, dict[int, set[int]]] = {}
    for label, by_source in g.index.items():
        by_target: dict[int, set[int]] = {}
        for source, targets in by_source.items():
            for target in targets:
                sources = by_target.get(target)
                if sources is None:
                    by_target[target] = {source}
                else:
                    sources.add(source)
        inverted[label + INVERSE_SUFFIX] = by_target
    for label, by_target in inverted.items():
        by_source = g.index.setdefault(label, {})
        for target, sources in by_target.items():
            targets = by_source.get(target)
            if targets is None:
                by_source[target] = sources
            else:
                targets |= sources


def with_inverses(g: DataGraph) -> DataGraph:
    """Copy ``g`` and add (o, p^-1, s) for every existing triple."""
    out = g.copy()
    _add_inverses(out)
    return out


def to_tsv(g: DataGraph) -> str:
    """Render every edge as sorted TSV lines with external names."""
    rows = sorted(g.triples)
    return "".join(f"{g.vertex_name(s)}\t{label}\t{g.vertex_name(t)}\n" for s, label, t in rows)


def _local_name(field: str) -> str:
    if field.startswith("<") and field.endswith(">"):
        iri = field[1:-1]
        for separator in ("#", "/"):
            idx = iri.rfind(separator)
            if idx != -1 and idx + 1 < len(iri):
                return iri[idx + 1 :]
        return iri
    return field


# A term is an IRI, a literal (with escapes and an optional language tag
# or datatype) or a token that runs, lazily, to the next whitespace, so
# the dot of "c." is not part of it. A '#' starts the comment only at the
# line's start, after whitespace or after the dot. An IRI holds any
# character but '>' above U+0020 (RDF 1.1's IRIREF), as two ranges, the
# letters' first: re tests them faster than the class [^>\x00-\x20].
_IRI = r"<[\x3f-\U0010ffff\x21-\x3d]+>"
_TERM = rf'({_IRI}|"(?:[^"\\]|\\.)*"(?:@[\w-]+|\^\^{_IRI})?|[^\s#<".]\S*?)'
_LINE = re.compile(rf"\s*(?:{_TERM}\s+{_TERM}\s+{_TERM}(?:\s*\.)?\s*)?(?:(?<![^\s.])#.*)?")


def load_ntriples(text: str) -> DataGraph:
    """Thin N-Triples reader: a line is three terms, an optional dot and an optional comment.

    Terms are separated by whitespace. A term is an IRI ``<...>``, a
    literal ``"..."`` with an optional ``@lang`` or ``^^<iri>``, or any
    other token that does not start with ``#``, ``<``, ``"`` or ``.``
    (blank nodes, bare names). An IRI holds no character from U+0000 to
    U+0020, so no space and no tab. A ``#`` starts a comment only at the
    line's start, after whitespace or right after the dot; an empty or
    comment-only line is skipped, and any other line raises
    ``MalformedTriple`` naming its line number. IRIs map to the token
    after their last '#' or '/'; other terms are kept verbatim as opaque
    names, except that a literal's raw tab is written as the escape ``\\t``.
    """
    g = DataGraph()
    for lineno, line in enumerate(split_lines(text), start=1):
        match = _LINE.fullmatch(line)
        if match is None:
            raise MalformedTriple(f"line {lineno}: expected 'subject predicate object .'")
        s, p, o = match.groups()
        if s is None:
            continue
        if "\t" in line:
            # Only a literal may hold a raw tab, the same string as its
            # escape; kept raw, it would split the name in TSV output.
            s, p, o = (term.replace("\t", "\\t") for term in (s, p, o))
        g.add_edge(g.intern(_local_name(s)), _local_name(p), g.intern(_local_name(o)))
    return g


# -- synthetic generators ------------------------------------------------


def _check_size(n: int) -> None:
    """Reject a negative generator size, naming the value the caller passed."""
    if n < 0:
        raise InvalidParams(f"n must be >= 0, got {n}")


def _fresh(n: int) -> DataGraph:
    _check_size(n)
    g = DataGraph()
    for i in range(n):
        g.intern(str(i))
    return g


def _label_list(labels: Sequence[str]) -> list[str]:
    out = list(labels)
    if not out:
        raise InvalidParams("at least one label is required")
    return out


def gen_complete(n: int, labels: Sequence[str] = ("a",)) -> DataGraph:
    """Complete graph: every ordered pair (self-loops included) under every label."""
    labs = _label_list(labels)
    g = _fresh(n)
    for s in range(n):
        for label in labs:
            for t in range(n):
                g.add_edge(s, label, t)
    return g


def gen_ablist(n: int) -> DataGraph:
    """Chain of 2n+1 vertices tracing the word a^n b^n."""
    _check_size(n)
    g = _fresh(2 * n + 1)
    for i in range(n):
        g.add_edge(i, "a", i + 1)
    for i in range(n, 2 * n):
        g.add_edge(i, "b", i + 1)
    return g


def gen_string(n: int, label: str = "s") -> DataGraph:
    """Chain of n+1 vertices connected by n same-labeled edges."""
    _check_size(n)
    g = _fresh(n + 1)
    for i in range(n):
        g.add_edge(i, label, i + 1)
    return g


def gen_cycle(n: int, label: str = "s") -> DataGraph:
    """Directed ring of n >= 1 vertices under one label."""
    if n < 1:
        raise InvalidParams(f"cycle needs at least one vertex, got {n}")
    g = _fresh(n)
    for i in range(n):
        g.add_edge(i, label, (i + 1) % n)
    return g


def gen_barabasi(
    n: int,
    k: int,
    seed: int = 0,
    labels: Sequence[str] = ("a", "b", "c", "d"),
) -> DataGraph:
    """Preferential-attachment graph with uniformly random labels.

    Starts from a directed clique on vertices 0..k-1 (every ordered pair,
    row-major, label drawn uniformly), then each vertex v in k..n-1 draws
    k edges v -> t with t chosen among 0..v-1 proportionally to current
    in+out degree over the deduplicated edge set. When every candidate
    still has degree zero (k = 1) the target is drawn uniformly. Per
    edge the target is drawn first, then the label (``rng.randrange``):
    with D the degree total of 0..v-1, the target is the first vertex
    whose cumulative degree exceeds ``rng.random() * D``. The rng is
    ``random.Random(seed)``. Identical parameters reproduce the graph
    bit-for-bit. Degrees live in a Fenwick tree (Fenwick, SP&E 1994), so
    a draw costs O(log n) and the whole graph O(nk log n).
    """
    if not 1 <= k <= n:
        raise InvalidParams(f"need 1 <= k <= n, got k={k}, n={n}")
    labs = _label_list(labels)
    rng = random.Random(seed)
    g = _fresh(n)
    # tree[i] holds the degree total of vertices i - (i & -i) .. i - 1.
    tree = [0] * (n + 1)
    top = 1 << (n.bit_length() - 1)

    def bump(vertex: int) -> None:
        i = vertex + 1
        while i <= n:
            tree[i] += 1
            i += i & -i

    def degree_total(count: int) -> int:
        """Degree total of vertices 0..count-1."""
        total = 0
        while count:
            total += tree[count]
            count &= count - 1
        return total

    def first_above(x: float) -> int:
        """First vertex whose cumulative degree exceeds ``x``, or n.

        Sums stay ints and are compared with ``x`` as they are, so ties
        break exactly as bisection over the cumulative list would.
        """
        position, below = 0, 0
        step = top
        while step:
            upper = position + step
            if upper <= n and below + tree[upper] <= x:
                position, below = upper, below + tree[upper]
            step >>= 1
        return position

    def insert(s: int, label: str, t: int) -> None:
        if g.add_edge(s, label, t):
            bump(s)
            bump(t)

    for s in range(k):
        for t in range(k):
            if s != t:
                insert(s, labs[rng.randrange(len(labs))], t)
    for v in range(k, n):
        for _ in range(k):
            total = degree_total(v)
            if total == 0:
                target = rng.randrange(v)
            else:
                # A draw that rounds up to the total lands past v - 1,
                # where bisection over 0..v-1 would have answered v.
                target = min(first_above(rng.random() * total), v)
            insert(v, labs[rng.randrange(len(labs))], target)
    return g


GENERATORS = {
    "complete": gen_complete,
    "cycle": gen_cycle,
    "string": gen_string,
    "ablist": gen_ablist,
    "barabasi": gen_barabasi,
}
