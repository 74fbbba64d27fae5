"""An indexed, in-memory RDF triple store.

The store keeps three hash indexes (SPO, POS, OSP) so that any triple pattern
with at least one constant position is answered without scanning the whole
graph -- the same reason the paper picks a triple store (Jena TDB) over
grepping plan files.

A graph only grows (the knowledge base replaces a template's whole graph
rather than edit it).  :func:`parse_ntriples` / :func:`format_ntriples` read
and write any collection of triples, so a checkpoint goes to and from the
knowledge base's per-template graphs without their union, the flat graph,
ever being built; that one is derived on demand, for verification only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.rdf.terms import IRI, BlankNode, Literal, Node, term_sort_key
from repro.errors import RdfError


@dataclass(frozen=True)
class Triple:
    """One RDF statement: subject, predicate, object."""

    subject: Node
    predicate: IRI
    object: Node

    def n3(self) -> str:
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."


class Graph:
    """A set of triples with SPO / POS / OSP indexes."""

    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples: Set[Triple] = set()
        self._spo: Dict[Node, Dict[IRI, Set[Node]]] = {}
        self._pos: Dict[IRI, Dict[Node, Set[Node]]] = {}
        self._osp: Dict[Node, Dict[Node, Set[IRI]]] = {}
        for triple in triples:
            self.add(triple)

    # -- mutation -----------------------------------------------------------

    def add(self, triple: Triple) -> None:
        subject, predicate, obj = triple.subject, triple.predicate, triple.object
        if not isinstance(predicate, IRI):
            raise RdfError("triple predicates must be IRIs")
        # One set operation, not a membership test and then an insert: hashing
        # a triple hashes its three terms in Python and is most of an add.
        known = len(self._triples)
        self._triples.add(triple)
        if len(self._triples) == known:
            return
        self._spo.setdefault(subject, {}).setdefault(predicate, set()).add(obj)
        self._pos.setdefault(predicate, {}).setdefault(obj, set()).add(subject)
        self._osp.setdefault(obj, {}).setdefault(subject, set()).add(predicate)

    def add_triple(self, subject: Node, predicate: IRI, obj: Node) -> None:
        self.add(Triple(subject, predicate, obj))

    def update(self, other: "Graph") -> None:
        """Add every triple of ``other`` into this graph."""
        for triple in other:
            self.add(triple)

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def triples(
        self,
        subject: Optional[Node] = None,
        predicate: Optional[IRI] = None,
        obj: Optional[Node] = None,
    ) -> Iterator[Triple]:
        """Iterate triples matching a pattern; ``None`` positions are wildcards."""
        if subject is not None and predicate is not None and obj is not None:
            candidate = Triple(subject, predicate, obj)
            if candidate in self._triples:
                yield candidate
            return
        if subject is not None:
            by_predicate = self._spo.get(subject, {})
            predicates = [predicate] if predicate is not None else list(by_predicate)
            for pred in predicates:
                for value in by_predicate.get(pred, ()):  # type: ignore[arg-type]
                    if obj is None or value == obj:
                        yield Triple(subject, pred, value)  # type: ignore[arg-type]
            return
        if predicate is not None:
            by_object = self._pos.get(predicate, {})
            if obj is not None:
                for subj in by_object.get(obj, ()):  # pragma: no branch
                    yield Triple(subj, predicate, obj)
                return
            for value, subjects in by_object.items():
                for subj in subjects:
                    yield Triple(subj, predicate, value)
            return
        if obj is not None:
            by_subject = self._osp.get(obj, {})
            for subj, predicates in by_subject.items():
                for pred in predicates:
                    yield Triple(subj, pred, obj)
            return
        yield from self._triples

    def objects(self, subject: Node, predicate: IRI) -> List[Node]:
        """All objects of (subject, predicate, ?)."""
        return list(self._spo.get(subject, {}).get(predicate, ()))

    def value(self, subject: Node, predicate: IRI) -> Optional[Node]:
        """A single object of (subject, predicate, ?), or None."""
        objects = self.objects(subject, predicate)
        return objects[0] if objects else None

    def subjects(self, predicate: Optional[IRI] = None, obj: Optional[Node] = None) -> List[Node]:
        """Distinct subjects matching (?, predicate, object)."""
        return sorted(
            {triple.subject for triple in self.triples(None, predicate, obj)},
            key=term_sort_key,
        )

    # -- serialization ---------------------------------------------------------

    def to_ntriples(self) -> str:
        """Serialize the graph as sorted N-Triples text."""
        return format_ntriples(self._triples)

    @classmethod
    def from_ntriples(cls, text: str) -> "Graph":
        """Parse N-Triples text produced by :meth:`to_ntriples`."""
        return cls(parse_ntriples(text))


def format_ntriples(triples: Iterable[Triple]) -> str:
    """Sorted N-Triples text of ``triples``, one line each."""
    lines = sorted(triple.n3() for triple in triples)
    return "\n".join(lines) + ("\n" if lines else "")


def parse_ntriples(text: str) -> Iterator[Triple]:
    """The triples of N-Triples text, in line order (:class:`RdfError` with
    the line number for a malformed line)."""
    # IRIs repeat (a few dozen predicates, one subject per node): building
    # each once per parse also lets the indexes find them by identity.
    iris: Dict[str, IRI] = {}
    # Split on '\n' only: escaped literals never contain a raw newline, but
    # they may contain other Unicode line-boundary characters that
    # str.splitlines() would wrongly split on.
    for line_number, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        match = _NTRIPLE_LINE.fullmatch(line)
        if match is None:
            problem = (
                "expected '<subject> <predicate> <object> .'"
                if line.endswith(".")
                else "missing terminating '.'"
            )
            raise RdfError(f"line {line_number}: {problem}")
        groups = match.groups()
        try:
            triple = Triple(
                _term(iris, *groups[0:4]),
                _term(iris, groups[4], None, None, None),
                _term(iris, *groups[5:9]),
            )
        except ValueError as exc:  # a typed literal that is not a number
            raise RdfError(f"line {line_number}: {exc}") from None
        yield triple


#: One term: ``<iri>``, ``_:label`` or ``"text"`` with an optional
#: ``^^<datatype>``; four groups.  The string body is runs of ordinary
#: characters separated by backslash pairs, so it ends at the first quote an
#: even number of backslashes precedes and matches without backtracking.
_TERM = r'<([^>]*)>|_:(\S*)|"([^"\\]*(?:\\.[^"\\]*)*)"(?:\^\^<([^>]*)>)?'
_NTRIPLE_LINE = re.compile(
    rf"(?:{_TERM})\s*<([^>]*)>\s*(?:{_TERM})\s*\.", re.DOTALL
)
_ESCAPE = re.compile(r'\\([nrt"\\])')
_ESCAPED = {"n": "\n", "r": "\r", "t": "\t", '"': '"', "\\": "\\"}


def _term(
    iris: Dict[str, IRI],
    iri: Optional[str],
    label: Optional[str],
    text: Optional[str],
    datatype: Optional[str],
) -> Node:
    """The term one ``_TERM`` match stands for (ValueError: bad number)."""
    if iri is not None:
        term = iris.get(iri)
        if term is None:
            term = iris[iri] = IRI(iri)
        return term
    if label is not None:
        return BlankNode(label)
    assert text is not None
    if datatype is None:
        # Decode the escape sequences produced by :meth:`Literal.n3`.
        if "\\" in text:
            text = _ESCAPE.sub(lambda match: _ESCAPED[match.group(1)], text)
        return Literal(text)
    # The ^^<datatype> marker distinguishes numeric literals from strings
    # that merely look numeric (e.g. "007").
    return Literal(int(text) if datatype.endswith("integer") else float(text))
