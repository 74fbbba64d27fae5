"""GALO's knowledge base.

The knowledge base stores *problem-pattern templates*: the abstracted RDF form
of a sub-plan the optimizer chooses that is known to under-perform, together
with the recommended rewrite (as an OPTGUIDELINES document over canonical
table labels) and bookkeeping (source workload, observed improvement).

Abstraction is what makes templates reusable across queries and workloads:
table and column names are replaced by canonical symbol labels
(``TABLE_1``, ``TABLE_2``, ...), node resources are anonymized with unique
identifiers, and per-node cardinalities become ``hasLowerCardinality`` /
``hasHigherCardinality`` ranges established over the predicate property ranges
sampled during learning.

Each template's triples live in that template's own graph and nowhere else:
indexed matching evaluates one candidate's graph at a time, and a checkpoint is
the sorted lines of all of them.  The single RDF graph the paper queries is
:attr:`KnowledgeBase.graph`, their union, assembled when asked for and read
only by the verification path (``match(use_index=False)``).
"""

from __future__ import annotations

import itertools
import json
import os
import re
import shutil
import threading
import uuid
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import vocabulary as voc
from repro.core.transform.sparql_gen import GeneratedSparql
from repro.engine.catalog import Catalog
from repro.engine.plan.physical import PlanNode
from repro.rdf.graph import Graph, format_ntriples, parse_ntriples
from repro.rdf.sparql.evaluator import SparqlEngine
from repro.rdf.terms import IRI, Literal, Node

#: Slack added to index-side bound comparisons so that the 4-decimal rounding
#: applied to the cardinalities a matching query compares with can never make
#: the pre-filter stricter than the SPARQL FILTERs it stands in for.
_BOUND_EPSILON = 1e-6

#: A version directory's name inside a checkpoint directory.
_VERSION_NAME = re.compile(r"v([0-9]+)")


@dataclass(frozen=True)
class CardinalityBounds:
    """Lower / upper bound for one template node's cardinality."""

    lower: float
    upper: float

    def widened(self, factor: float) -> "CardinalityBounds":
        """Widen the range multiplicatively (factor >= 1)."""
        return CardinalityBounds(self.lower / factor, self.upper * factor)


@dataclass
class ProblemPatternTemplate:
    """One knowledge-base entry: a problem pattern and its recommended rewrite."""

    template_id: str
    name: str
    source_workload: str
    source_query: str
    join_count: int
    problem_signature: str
    guideline_xml: str
    canonical_labels: Dict[str, str] = field(default_factory=dict)
    improvement: float = 0.0
    problem_summary: str = ""
    recommended_summary: str = ""
    cardinality_bounds: Dict[int, Tuple[float, float]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "template_id": self.template_id,
            "name": self.name,
            "source_workload": self.source_workload,
            "source_query": self.source_query,
            "join_count": self.join_count,
            "problem_signature": self.problem_signature,
            "guideline_xml": self.guideline_xml,
            "canonical_labels": self.canonical_labels,
            "improvement": self.improvement,
            "problem_summary": self.problem_summary,
            "recommended_summary": self.recommended_summary,
            "cardinality_bounds": {
                str(key): list(value) for key, value in self.cardinality_bounds.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ProblemPatternTemplate":
        return cls(
            template_id=payload["template_id"],
            name=payload["name"],
            source_workload=payload["source_workload"],
            source_query=payload["source_query"],
            join_count=payload["join_count"],
            problem_signature=payload["problem_signature"],
            guideline_xml=payload["guideline_xml"],
            canonical_labels=dict(payload.get("canonical_labels", {})),
            improvement=payload.get("improvement", 0.0),
            problem_summary=payload.get("problem_summary", ""),
            recommended_summary=payload.get("recommended_summary", ""),
            cardinality_bounds={
                int(key): (value[0], value[1])
                for key, value in payload.get("cardinality_bounds", {}).items()
            },
        )


@dataclass
class TemplateMatch:
    """A successful knowledge-base match for one sub-plan of an incoming query."""

    template: ProblemPatternTemplate
    #: canonical table label (e.g. ``TABLE_1``) -> table instance of the query
    label_to_alias: Dict[str, str]
    #: the sub-plan of the incoming QGM that matched the problem pattern
    subplan_root: PlanNode
    bindings: Dict[str, object] = field(default_factory=dict)


@dataclass
class SegmentProfile:
    """Shape / bound summary of one plan segment, as the index needs it.

    ``node_requirements`` holds one ``(pop type, lower needed, upper needed)``
    triple per segment node: a template can only match if, for every segment
    node, it owns at least one LOLEPOP of the same type whose learned
    cardinality range covers the node's concrete cardinality (after tolerance
    scaling -- the same comparison the generated SPARQL FILTERs perform).
    """

    join_count: int
    scan_count: int
    pop_type_counts: Dict[str, int]
    node_requirements: Tuple[Tuple[str, float, float], ...]

    @classmethod
    def from_segment_nodes(
        cls, nodes: Sequence[PlanNode], cardinality_tolerance: float = 1.0
    ) -> "SegmentProfile":
        tolerance = max(cardinality_tolerance, 1e-12)
        requirements = []
        for node in nodes:
            cardinality = float(node.estimated_cardinality)
            requirements.append(
                (
                    node.display_type,
                    round(cardinality * tolerance, 4) + _BOUND_EPSILON,
                    round(cardinality / tolerance, 4) - _BOUND_EPSILON,
                )
            )
        return cls(
            join_count=sum(1 for node in nodes if node.is_join),
            scan_count=sum(1 for node in nodes if node.is_scan),
            pop_type_counts=dict(Counter(node.display_type for node in nodes)),
            node_requirements=tuple(requirements),
        )


@dataclass
class TemplateProfile:
    """Per-template summary maintained by :class:`TemplateIndex`."""

    template_id: str
    join_count: int
    scan_count: int
    pop_type_counts: Dict[str, int]
    #: pop type -> [(lower bound, upper bound), ...] over pops of that type,
    #: with the same 4-decimal rounding the graph triples carry.
    bounds_by_type: Dict[str, List[Tuple[float, float]]]


class TemplateIndex:
    """Pre-filter over the knowledge base's templates.

    Templates are bucketed by ``(join count, scan count)`` -- both are exact
    requirements of a match -- and each bucket entry keeps the template's
    pop-type multiset and per-type cardinality ranges.  ``candidates`` returns
    only the templates that pass every *necessary* condition of a match, so
    the expensive SPARQL query-by-example runs against a small candidate set
    instead of the whole knowledge base.  Every check is conservative: a
    template the SPARQL evaluation could match is never filtered out.

    Maintenance is incremental: ``add`` and ``remove`` update the buckets in
    place (no full rebuild), and both replace bucket lists copy-on-write so a
    concurrent ``candidates`` call iterating an old list never observes a
    partially mutated bucket (the tests' own threads mutate and match at
    once; a service's learner mutates between requests on its loop).
    """

    def __init__(self) -> None:
        self._profiles: Dict[str, TemplateProfile] = {}
        self._by_shape: Dict[Tuple[int, int], List[str]] = {}

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, template_id: str) -> bool:
        return template_id in self._profiles

    def profile(self, template_id: str) -> TemplateProfile:
        return self._profiles[template_id]

    def clear(self) -> None:
        self._profiles.clear()
        self._by_shape.clear()

    def add(self, profile: TemplateProfile) -> None:
        self._profiles[profile.template_id] = profile
        key = (profile.join_count, profile.scan_count)
        self._by_shape[key] = self._by_shape.get(key, []) + [profile.template_id]

    def remove(self, template_id: str) -> bool:
        """Drop one template from the index; True when it was present."""
        profile = self._profiles.pop(template_id, None)
        if profile is None:
            return False
        key = (profile.join_count, profile.scan_count)
        remaining = [
            existing for existing in self._by_shape.get(key, []) if existing != template_id
        ]
        if remaining:
            self._by_shape[key] = remaining
        else:
            self._by_shape.pop(key, None)
        return True

    def candidates(self, segment: SegmentProfile) -> List[str]:
        """Template ids that could match a segment with the given profile."""
        bucket = self._by_shape.get((segment.join_count, segment.scan_count), ())
        out: List[str] = []
        for template_id in bucket:
            # ``get``: a concurrent eviction may have dropped the profile after
            # this thread picked up the (immutable) bucket list.
            profile = self._profiles.get(template_id)
            if profile is None:
                continue
            if not self._covers(profile, segment):
                continue
            out.append(template_id)
        return out

    @staticmethod
    def _covers(profile: TemplateProfile, segment: SegmentProfile) -> bool:
        for pop_type, count in segment.pop_type_counts.items():
            if profile.pop_type_counts.get(pop_type, 0) < count:
                return False
        for pop_type, lower_needed, upper_needed in segment.node_requirements:
            ranges = profile.bounds_by_type.get(pop_type)
            if not ranges:
                return False
            if not any(
                lower <= lower_needed and upper >= upper_needed
                for lower, upper in ranges
            ):
                return False
        return True


@dataclass
class TemplateUsage:
    """Online usage bookkeeping for one template (feeds the eviction policy)."""

    hits: int = 0
    last_used_tick: int = 0


@dataclass
class TemplateGuardRecord:
    """Per-template steering win/loss ledger and quarantine state.

    Maintained by the serving tier's regression guard: a *win* is a steered
    execution at least as fast as the statement's optimizer baseline (within
    the configured regression tolerance), a *loss* is a steered execution
    slower than that.  ``quarantined`` templates stop steering regular
    requests; while quarantined, every ``probe_interval``-th matched request
    still steers (a shadow probe) and ``probation_wins`` counts the current
    streak of consecutive probe wins toward re-arming.
    """

    wins: int = 0
    losses: int = 0
    quarantined: bool = False
    probation_wins: int = 0
    probe_counter: int = 0

    @property
    def observations(self) -> int:
        return self.wins + self.losses

    @property
    def loss_rate(self) -> float:
        total = self.observations
        return self.losses / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "wins": self.wins,
            "losses": self.losses,
            "quarantined": self.quarantined,
            "probation_wins": self.probation_wins,
            "probe_counter": self.probe_counter,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TemplateGuardRecord":
        return cls(
            wins=int(payload.get("wins", 0)),
            losses=int(payload.get("losses", 0)),
            quarantined=bool(payload.get("quarantined", False)),
            probation_wins=int(payload.get("probation_wins", 0)),
            probe_counter=int(payload.get("probe_counter", 0)),
        )


class KnowledgeBase:
    """RDF-backed store of problem-pattern templates (the paper's Fuseki/TDB)."""

    def __init__(self) -> None:
        self.templates: Dict[str, ProblemPatternTemplate] = {}
        #: Pre-filtering index over the templates; entries come and go with
        #: the templates through ``_register`` and ``evict_template``.
        self.index = TemplateIndex()
        #: template id -> the template's own triples: the only place a triple
        #: is stored.  A registered graph is never edited, only replaced
        #: (``_replace_literal``), so readers need no lock.
        self._template_graphs: Dict[str, Graph] = {}
        #: Matching observability: how much work the index saved.  Guarded by
        #: ``_stats_lock``: the serving tier calls ``match`` from several
        #: threads.  Counts SPARQL work actually performed: a verdict
        #: served from the prepared-statement lane replays its usage ticks
        #: (:meth:`replay_usage`) but adds nothing here.  ``queries`` /
        #: ``indexed_queries`` count ``match`` calls (all / through the
        #: index); ``candidates_evaluated`` / ``templates_skipped`` split the
        #: templates of every indexed call into those SPARQL then evaluated
        #: and those the index discarded; ``index_only_segments`` counts the
        #: indexed calls the index answered alone -- no candidate left, so no
        #: query was built ("index discarded" as opposed to "SPARQL
        #: rejected").
        self.match_stats = {
            "queries": 0,
            "indexed_queries": 0,
            "candidates_evaluated": 0,
            "templates_skipped": 0,
            "index_only_segments": 0,
        }
        self._stats_lock = threading.Lock()
        #: Online lifecycle observability (adds / evictions / updates /
        #: quarantine transitions).
        self.lifecycle_stats = {
            "added": 0,
            "evicted": 0,
            "updated": 0,
            "quarantined": 0,
            "rearmed": 0,
        }
        #: Per-template steering win/loss ledger + quarantine state, fed by
        #: the serving tier's regression guard.  Guarded by ``_stats_lock``
        #: (the tests' own threads record outcomes while another saves; a
        #: service does both on its loop); persisted through :meth:`save` /
        #: :meth:`load` so quarantine decisions survive checkpoints and
        #: hot-reloads.
        self._guard_records: Dict[str, TemplateGuardRecord] = {}
        #: Per-template match usage, driving the LRU half of the eviction
        #: policy.  Ticks come from a logical clock (one tick per ``match``
        #: call) so eviction order is reproducible across runs.
        self._usage: Dict[str, TemplateUsage] = {}
        self._usage_tick = 0
        #: Serializes structural mutations (add / evict / update / rebuild).
        #: Readers (``match``) deliberately do not take it: the index and the
        #: per-template subgraphs are maintained copy-on-write, so a reader
        #: always sees either the old or the new state of any one template.
        self._write_lock = threading.RLock()
        #: Monotonic count of completed structural mutations (add / evict /
        #: update / index rebuild / load), advanced *last* inside
        #: ``_write_lock``.  Caches of match verdicts stamp themselves with
        #: it: a reader that took the generation before computing a verdict
        #: can never pass a half-applied mutation off as current.
        self.generation = 0
        #: Monotonic checkpoint version: 0 until the first :meth:`save` (or a
        #: :meth:`load` of a versioned checkpoint).
        #: :meth:`repro.core.galo.Galo.maybe_reload_knowledge_base` compares
        #: it against :meth:`checkpoint_version_on_disk` to decide whether a
        #: hot-reload is due.
        self.checkpoint_version = 0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.templates)

    @property
    def graph(self) -> Graph:
        """The paper's one RDF graph: a new union of the per-template graphs
        on every call.  Read by the verification path
        (``match(use_index=False)``) and by tests only; adding to it changes
        nothing."""
        union = Graph()
        for subgraph in list(self._template_graphs.values()):
            union.update(subgraph)
        return union

    def __contains__(self, template_id: str) -> bool:
        return template_id in self.templates

    def template(self, template_id: str) -> ProblemPatternTemplate:
        return self.templates[template_id]

    def all_templates(self) -> List[ProblemPatternTemplate]:
        return sorted(self.templates.values(), key=lambda t: t.name)

    # ------------------------------------------------------------------

    def add_template(
        self,
        *,
        name: str,
        source_workload: str,
        source_query: str,
        problem_root: PlanNode,
        guideline_xml: str,
        canonical_labels: Dict[str, str],
        cardinality_bounds: Dict[int, CardinalityBounds],
        improvement: float,
        catalog: Optional[Catalog] = None,
        problem_summary: str = "",
        recommended_summary: str = "",
        fpages_widening: float = 4.0,
        row_size_slack: int = 24,
    ) -> ProblemPatternTemplate:
        """Abstract ``problem_root`` into a template and store it.

        ``canonical_labels`` maps the problem plan's table instances to the
        canonical symbol labels used in ``guideline_xml``.  ``cardinality_bounds``
        is keyed by the problem plan's operator ids.
        """
        template_id = uuid.uuid4().hex[:12]
        template = ProblemPatternTemplate(
            template_id=template_id,
            name=name,
            source_workload=source_workload,
            source_query=source_query,
            join_count=len(problem_root.joins()),
            problem_signature=problem_root.shape_signature(),
            guideline_xml=guideline_xml,
            canonical_labels=dict(canonical_labels),
            improvement=improvement,
            problem_summary=problem_summary,
            recommended_summary=recommended_summary,
            cardinality_bounds={
                key: (bounds.lower, bounds.upper)
                for key, bounds in cardinality_bounds.items()
            },
        )
        with self._write_lock:
            self._register(
                template,
                self._template_triples(
                    template,
                    problem_root,
                    cardinality_bounds,
                    catalog,
                    fpages_widening,
                    row_size_slack,
                ),
            )
            self._usage[template_id] = TemplateUsage(last_used_tick=self._usage_tick)
            self.lifecycle_stats["added"] += 1
            self.generation += 1
        return template

    @staticmethod
    def _template_triples(
        template: ProblemPatternTemplate,
        problem_root: PlanNode,
        cardinality_bounds: Dict[int, CardinalityBounds],
        catalog: Optional[Catalog],
        fpages_widening: float,
        row_size_slack: int,
    ) -> Graph:
        """The RDF form of ``template`` over ``problem_root``, as its own graph."""
        template_resource = voc.TEMPLATE[template.template_id]
        graph = Graph()
        graph.add_triple(template_resource, voc.HAS_TEMPLATE_ID, Literal(template.template_id))
        graph.add_triple(template_resource, voc.HAS_SOURCE_WORKLOAD, Literal(template.source_workload))
        graph.add_triple(template_resource, voc.HAS_SOURCE_QUERY, Literal(template.source_query))
        graph.add_triple(template_resource, voc.HAS_GUIDELINE, Literal(template.guideline_xml))
        graph.add_triple(template_resource, voc.HAS_IMPROVEMENT, Literal(round(template.improvement, 4)))
        graph.add_triple(template_resource, voc.HAS_JOIN_COUNT, Literal(template.join_count))
        graph.add_triple(
            template_resource, voc.HAS_PROBLEM_SIGNATURE, Literal(template.problem_signature)
        )

        # Anonymize node resources: each gets a unique identifier so templates
        # from different queries never collide (Section 3.2 of the paper).
        resources: Dict[int, IRI] = {}
        for node in problem_root.walk():
            resources[node.operator_id] = voc.TEMPLATE[
                f"{template.template_id}/pop/{uuid.uuid4().hex[:8]}"
            ]

        for node in problem_root.walk():
            resource = resources[node.operator_id]
            graph.add_triple(resource, voc.IN_TEMPLATE, template_resource)
            graph.add_triple(resource, voc.HAS_POP_TYPE, Literal(node.display_type))

            bounds = cardinality_bounds.get(
                node.operator_id,
                CardinalityBounds(node.estimated_cardinality, node.estimated_cardinality),
            )
            graph.add_triple(resource, voc.HAS_LOWER_CARDINALITY, Literal(round(bounds.lower, 4)))
            graph.add_triple(resource, voc.HAS_HIGHER_CARDINALITY, Literal(round(bounds.upper, 4)))

            if node.is_scan:
                alias = node.table_alias or ""
                label = template.canonical_labels.get(alias, alias)
                graph.add_triple(resource, voc.HAS_TABLE_LABEL, Literal(label))
                if catalog is not None and node.table and catalog.has_table(node.table):
                    stats = catalog.statistics(node.table)
                    schema = catalog.table_schema(node.table)
                    graph.add_triple(
                        resource,
                        voc.HAS_LOWER_FPAGES,
                        Literal(max(1, int(stats.pages / fpages_widening))),
                    )
                    graph.add_triple(
                        resource,
                        voc.HAS_HIGHER_FPAGES,
                        Literal(int(stats.pages * fpages_widening) + 1),
                    )
                    graph.add_triple(
                        resource,
                        voc.HAS_LOWER_ROW_SIZE,
                        Literal(max(1, schema.row_width - row_size_slack)),
                    )
                    graph.add_triple(
                        resource,
                        voc.HAS_HIGHER_ROW_SIZE,
                        Literal(schema.row_width + row_size_slack),
                    )

            for child in node.inputs:
                graph.add_triple(
                    resources[child.operator_id], voc.HAS_OUTPUT_STREAM, resource
                )

        return graph

    def _register(self, template: ProblemPatternTemplate, subgraph: Graph) -> None:
        """Make ``template`` with its triples part of the knowledge base.

        The one way in (a learned template, a loaded one, a copied one).
        Caller holds ``_write_lock``.  The index entry goes last: a lock-free
        ``match`` that is offered the template then finds its graph and its
        registry entry (``evict_template`` takes them away in reverse).
        """
        self.templates[template.template_id] = template
        self._template_graphs[template.template_id] = subgraph
        self.index.add(self._profile_from_subgraph(template, subgraph))

    def copy_templates_from(self, other: "KnowledgeBase") -> None:
        """Register every template of ``other`` here under the same id.

        The triples are shared, not copied (a registered graph is never
        edited); the registry entries are copies, so a later
        ``update_template`` on one side does not reach the other.
        """
        with other._write_lock:
            entries = [
                (
                    ProblemPatternTemplate.from_dict(template.to_dict()),
                    other._template_graphs[template_id],
                )
                for template_id, template in other.templates.items()
            ]
        with self._write_lock:
            for template, subgraph in entries:
                self._register(template, subgraph)
            self.lifecycle_stats["added"] += len(entries)
            self.generation += 1

    def _profile_from_subgraph(
        self, template: ProblemPatternTemplate, subgraph: Graph
    ) -> TemplateProfile:
        """Summarize a template's triples into an index entry.

        Reading the profile back from the triples (rather than from the plan
        the template was built from) keeps one code path for both freshly
        learned and reloaded templates, and guarantees the index sees exactly
        the rounded bounds the SPARQL FILTERs will compare against.
        """
        template_resource = voc.TEMPLATE[template.template_id]
        pop_type_counts: Counter = Counter()
        bounds_by_type: Dict[str, List[Tuple[float, float]]] = {}
        for triple in subgraph.triples(None, voc.IN_TEMPLATE, template_resource):
            pop = triple.subject
            pop_type_node = subgraph.value(pop, voc.HAS_POP_TYPE)
            if not isinstance(pop_type_node, Literal):
                continue
            pop_type = str(pop_type_node.value)
            pop_type_counts[pop_type] += 1
            lower_node = subgraph.value(pop, voc.HAS_LOWER_CARDINALITY)
            upper_node = subgraph.value(pop, voc.HAS_HIGHER_CARDINALITY)
            if isinstance(lower_node, Literal) and isinstance(upper_node, Literal):
                bounds_by_type.setdefault(pop_type, []).append(
                    (float(lower_node.value), float(upper_node.value))
                )
        return TemplateProfile(
            template_id=template.template_id,
            join_count=template.join_count,
            scan_count=len(template.canonical_labels),
            pop_type_counts=dict(pop_type_counts),
            bounds_by_type=bounds_by_type,
        )

    def rebuild_index(self) -> None:
        """Recompute every index entry from the templates' graphs.

        What incremental maintenance must equal; the tests compare against it.
        """
        with self._write_lock:
            self.index.clear()
            for template_id, template in self.templates.items():
                self.index.add(
                    self._profile_from_subgraph(
                        template, self._template_graphs[template_id]
                    )
                )
            self.generation += 1

    # ------------------------------------------------------------------
    # online lifecycle: evict / update / capacity enforcement
    # ------------------------------------------------------------------

    def evict_template(self, template_id: str) -> bool:
        """Remove one template as a first-class online operation.

        The index entry, the template's graph (and with it every triple of
        the template) and the registry entry are dropped in an order that
        keeps concurrent indexed matching safe: the index stops offering the
        template before its graph goes away, and ``match`` treats a missing
        graph / registry entry as a non-match.  Returns True when the
        template existed.
        """
        with self._write_lock:
            if template_id not in self.templates:
                return False
            self.index.remove(template_id)
            self._template_graphs.pop(template_id, None)
            self.templates.pop(template_id)
            self._usage.pop(template_id, None)
            with self._stats_lock:
                self._guard_records.pop(template_id, None)
            self.lifecycle_stats["evicted"] += 1
            self.generation += 1
            return True

    def update_template(
        self,
        template_id: str,
        *,
        improvement: Optional[float] = None,
        guideline_xml: Optional[str] = None,
        recommended_summary: Optional[str] = None,
    ) -> Optional[ProblemPatternTemplate]:
        """Update a stored template's recommendation in place.

        The registry entry and the template's triples (improvement, guideline)
        are kept consistent so a subsequent ``save`` / ``load`` round-trips the
        new values; the index needs no maintenance because neither field
        participates in pre-filtering.  Returns None when the template does
        not (or no longer) exist -- losing the race against a concurrent
        eviction is a normal lifecycle outcome, like ``evict_template``
        returning False.
        """
        with self._write_lock:
            template = self.templates.get(template_id)
            if template is None:
                return None
            resource = voc.TEMPLATE[template_id]
            if improvement is not None:
                self._replace_literal(
                    template_id, resource, voc.HAS_IMPROVEMENT, round(improvement, 4)
                )
                template.improvement = improvement
            if guideline_xml is not None:
                self._replace_literal(
                    template_id, resource, voc.HAS_GUIDELINE, guideline_xml
                )
                template.guideline_xml = guideline_xml
            if recommended_summary is not None:
                template.recommended_summary = recommended_summary
            self.lifecycle_stats["updated"] += 1
            self.generation += 1
            return template

    def _replace_literal(self, template_id, subject, predicate, value) -> None:
        """Swap the object of (subject, predicate, *) in the template's graph.

        The graph is replaced, not edited -- a concurrent ``match`` keeps
        reading the old (complete) one and the swap of the dict entry is
        atomic -- which is the contract that lets readers skip
        ``_write_lock``.
        """
        replacement = Graph(
            triple
            for triple in self._template_graphs[template_id]
            if not (triple.subject == subject and triple.predicate == predicate)
        )
        replacement.add_triple(subject, predicate, Literal(value))
        self._template_graphs[template_id] = replacement

    def _record_usage_locked(self, template_ids: Sequence[str]) -> None:
        """One shared tick for a batch of hits.  Caller holds ``_stats_lock``.

        Ids no longer in the registry are skipped: recording a hit for a
        concurrently evicted template would resurrect a dead usage entry.
        """
        self._usage_tick += 1
        for template_id in template_ids:
            if template_id not in self.templates:
                continue
            usage = self._usage.get(template_id)
            if usage is None:
                usage = TemplateUsage()
                self._usage[template_id] = usage
            usage.hits += 1
            usage.last_used_tick = self._usage_tick

    def replay_usage(self, batches: Sequence[Sequence[str]]) -> None:
        """Re-record the usage ticks of a cached match verdict.

        ``batches`` are the template-id lists :meth:`match` recorded while the
        verdict was computed, one per segment that matched, in order; replaying
        them advances the logical clock and the hit counts exactly as running
        the match again would, so :meth:`eviction_order` cannot tell a replayed
        verdict from a recomputed one.
        """
        with self._stats_lock:
            for batch in batches:
                self._record_usage_locked(batch)

    def template_usage(self, template_id: str) -> TemplateUsage:
        return self._usage.get(template_id, TemplateUsage())

    # ------------------------------------------------------------------
    # steering guard ledger: win/loss tallies + quarantine transitions
    # ------------------------------------------------------------------

    def guard_record(self, template_id: str) -> TemplateGuardRecord:
        """Snapshot of one template's ledger (a default record when unseen)."""
        with self._stats_lock:
            record = self._guard_records.get(template_id)
            if record is None:
                return TemplateGuardRecord()
            return TemplateGuardRecord.from_dict(record.to_dict())

    def record_steering_outcome(self, template_id: str, win: bool) -> TemplateGuardRecord:
        """Tally one steered execution's outcome against a template.

        While the template is quarantined, a recorded outcome is a *probe*
        result: wins extend the probation streak, a loss resets it.  The
        tallies ride along on whichever checkpoint is saved next.  Returns a
        snapshot of the updated record.
        """
        with self._stats_lock:
            if template_id not in self.templates:
                return TemplateGuardRecord()
            record = self._guard_records.get(template_id)
            if record is None:
                record = TemplateGuardRecord()
                self._guard_records[template_id] = record
            if win:
                record.wins += 1
                if record.quarantined:
                    record.probation_wins += 1
            else:
                record.losses += 1
                if record.quarantined:
                    record.probation_wins = 0
            return TemplateGuardRecord.from_dict(record.to_dict())

    def advance_probe_counter(self, template_id: str) -> int:
        """Bump and return a quarantined template's deterministic probe tick."""
        with self._stats_lock:
            record = self._guard_records.get(template_id)
            if record is None:
                record = TemplateGuardRecord()
                self._guard_records[template_id] = record
            record.probe_counter += 1
            return record.probe_counter

    def quarantine_template(self, template_id: str) -> bool:
        """Stop steering from ``template_id``; True on an actual transition.

        Quarantine is durable state: :meth:`save` writes it and :meth:`load`
        restores it.
        """
        with self._stats_lock:
            if template_id not in self.templates:
                return False
            record = self._guard_records.get(template_id)
            if record is None:
                record = TemplateGuardRecord()
                self._guard_records[template_id] = record
            if record.quarantined:
                return False
            record.quarantined = True
            record.probation_wins = 0
            record.probe_counter = 0
            self.lifecycle_stats["quarantined"] += 1
            return True

    def rearm_template(self, template_id: str) -> bool:
        """Lift a template's quarantine after probation; True on transition.

        The ledger resets with the quarantine: the re-armed template starts a
        fresh win/loss record rather than inheriting the losses that got it
        quarantined (otherwise one more loss would immediately re-trip the
        threshold and the template could never genuinely recover).
        """
        with self._stats_lock:
            record = self._guard_records.get(template_id)
            if record is None or not record.quarantined:
                return False
            record.quarantined = False
            record.wins = 0
            record.losses = 0
            record.probation_wins = 0
            record.probe_counter = 0
            self.lifecycle_stats["rearmed"] += 1
            return True

    def is_quarantined(self, template_id: str) -> bool:
        with self._stats_lock:
            record = self._guard_records.get(template_id)
            return record is not None and record.quarantined

    def quarantined_template_ids(self) -> List[str]:
        with self._stats_lock:
            return sorted(
                template_id
                for template_id, record in self._guard_records.items()
                if record.quarantined
            )

    def eviction_order(self) -> List[str]:
        """Template ids sorted most-evictable first.

        Chronic steering losers (more recorded losses than wins in the guard
        ledger) evict before everything else; within each bucket the policy
        evicts cold, low-benefit templates: fewest online hits, then smallest
        recorded improvement, then least recently used; name and id break the
        remaining ties so the order is fully deterministic.  Templates with no
        guard observations keep exactly the historical order.
        """
        with self._stats_lock:
            losers = {
                template_id
                for template_id, record in self._guard_records.items()
                if record.losses > record.wins
            }

        def score(template_id: str) -> Tuple:
            usage = self.template_usage(template_id)
            template = self.templates[template_id]
            return (
                0 if template_id in losers else 1,
                usage.hits,
                template.improvement,
                usage.last_used_tick,
                template.name,
                template_id,
            )

        return sorted(self.templates, key=score)

    def enforce_capacity(self, capacity: int) -> List[str]:
        """Evict templates until at most ``capacity`` remain.

        Returns the evicted template ids (possibly empty).  Eviction follows
        :meth:`eviction_order`; the index, graphs and registry stay
        consistent throughout, so matching and persistence keep working
        mid-eviction.
        """
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        evicted: List[str] = []
        with self._write_lock:
            if len(self.templates) <= capacity:
                return evicted
            for template_id in self.eviction_order():
                if len(self.templates) <= capacity:
                    break
                if self.evict_template(template_id):
                    evicted.append(template_id)
            # A match() racing an eviction can re-insert a usage entry for a
            # template that no longer exists; prune so dead entries cannot
            # accumulate over a long-lived service's lifetime.
            with self._stats_lock:
                for template_id in list(self._usage):
                    if template_id not in self.templates:
                        del self._usage[template_id]
                for template_id in list(self._guard_records):
                    if template_id not in self.templates:
                        del self._guard_records[template_id]
        return evicted

    # ------------------------------------------------------------------

    def match(
        self,
        generated: GeneratedSparql,
        subplan_root: Optional[PlanNode] = None,
        use_index: bool = True,
    ) -> List[TemplateMatch]:
        """Run a generated matching query against the knowledge base.

        With ``use_index`` (the default) the :class:`TemplateIndex` pre-filters
        the templates and the SPARQL query-by-example is evaluated against each
        surviving candidate's own graph; otherwise the query runs against
        :attr:`graph`, the union of them all, as the paper's does.  Both paths
        return the same matches -- one per matched template, with a
        deterministically chosen solution -- sorted by template name.
        """
        segment_nodes = list(generated.node_for_variable.values())

        if use_index:
            # Index before SPARQL: ``generated.query`` is built on first read,
            # and the index is conservative, so a segment it leaves no
            # candidate for is answered without building a query.
            profile = SegmentProfile.from_segment_nodes(
                segment_nodes, generated.cardinality_tolerance
            )
            candidate_ids = self.index.candidates(profile)
            with self._stats_lock:
                self.match_stats["queries"] += 1
                self.match_stats["indexed_queries"] += 1
                self.match_stats["candidates_evaluated"] += len(candidate_ids)
                self.match_stats["templates_skipped"] += len(self.templates) - len(candidate_ids)
                self.match_stats["index_only_segments"] += not candidate_ids
            if not candidate_ids:
                return []
            query_ast = generated.query
            solutions: List[dict] = []
            for template_id in candidate_ids:
                subgraph = self._template_graphs.get(template_id)
                if subgraph is None:
                    # Evicted between the candidates() snapshot and here; the
                    # template is gone, so it simply no longer matches.
                    continue
                solutions.extend(SparqlEngine(subgraph).query(query_ast))
        else:
            with self._stats_lock:
                self.match_stats["queries"] += 1
            solutions = SparqlEngine(self.graph).query(generated.query)

        segment_joins = sum(1 for node in segment_nodes if node.is_join)
        segment_scans = sum(1 for node in segment_nodes if node.is_scan)
        solutions_by_template: Dict[str, List[dict]] = {}
        for solution in solutions:
            template_node = solution.get(generated.template_variable)
            if not isinstance(template_node, IRI):
                continue
            template_id = template_node.value.rsplit("/", 1)[-1]
            template = self.templates.get(template_id)
            if template is None:
                continue
            # The segment must cover the *whole* problem pattern; binding only a
            # sub-portion of a larger template would produce a guideline that
            # references tables absent from the matched region.
            if template.join_count != segment_joins:
                continue
            if len(template.canonical_labels) != segment_scans:
                continue
            solutions_by_template.setdefault(template_id, []).append(solution)

        root = subplan_root
        if root is None and generated.node_for_variable:
            root = next(iter(generated.node_for_variable.values()))
        matches: List[TemplateMatch] = []
        for template_id, template_solutions in solutions_by_template.items():
            # A concurrent eviction may have removed the template after its
            # solutions were collected; treat it as a non-match.
            template = self.templates.get(template_id)
            if template is None:
                continue
            # The evaluator enumerates solutions in hash order, which differs
            # between the flat graph and a template subgraph; picking the
            # canonically smallest solution makes the chosen bindings identical
            # across both evaluation strategies (their solution *sets* agree).
            solution = min(template_solutions, key=_solution_sort_key)
            label_to_alias: Dict[str, str] = {}
            for label_variable, scan_node in generated.label_variables.items():
                value = solution.get(label_variable)
                if isinstance(value, Literal) and scan_node.table_alias:
                    label_to_alias[str(value.value)] = scan_node.table_alias
            matches.append(
                TemplateMatch(
                    template=template,
                    label_to_alias=label_to_alias,
                    subplan_root=root,
                    bindings=dict(solution),
                )
            )
        matches.sort(key=lambda match: (match.template.name, match.template.template_id))
        if matches:
            with self._stats_lock:
                self._record_usage_locked(
                    [match.template.template_id for match in matches]
                )
        return matches

    def match_brute_force(
        self, generated: GeneratedSparql, subplan_root: Optional[PlanNode] = None
    ) -> List[TemplateMatch]:
        """``match`` with the index disabled (one query over the whole graph)."""
        return self.match(generated, subplan_root=subplan_root, use_index=False)

    # ------------------------------------------------------------------

    #: Steering-guard state (win/loss ledger, quarantine flags, learned
    #: feature population), saved in the same version as the templates it
    #: describes.
    GUARD_STATE_FILE = "guard_state.json"

    @staticmethod
    def checkpoint_version_on_disk(directory: str) -> int:
        """Highest version directory ``v{N}/`` in ``directory`` (0 = none).

        Only directories count: a file named ``v9`` or a staging ``v9.tmp/``
        is not a version.  Cheap enough to poll: one listing, no file reads.
        """
        try:
            with os.scandir(directory) as entries:
                return max(
                    (_version_of(entry.name) for entry in entries if entry.is_dir()),
                    default=0,
                )
        except OSError:
            return 0

    @staticmethod
    def _write_atomic(path: Path, text: str) -> None:
        """Write ``text`` to ``path`` via a temp file + atomic rename.

        A crash never leaves a half-written file under ``path``'s name: it
        holds either its previous content or the complete new one.
        """
        temp_path = path.with_name(path.name + ".tmp")
        temp_path.write_text(text, encoding="utf-8")
        os.replace(temp_path, path)

    def save(self, directory: str) -> int:
        """Publish the knowledge base as version directory ``v{N}/``.

        The three files (N-Triples graph, JSON template registry, guard
        state) are written into a private ``v{N}.tmp/``; renaming it to
        ``v{N}/`` is the commit.  A version directory is never rewritten, so
        a reader that loads the newest one reads one save's files and no
        other's.  ``N`` is one past this KB's version and every ``v{N}``
        name on disk (a stray file of that name only raises ``N``), and
        leftover ``*.tmp`` directories are removed first: a crash at any
        step leaves the previous version current and the next save
        unblocked.  After the commit every version but the new one and its
        predecessor is deleted.
        One writer per directory at a time.  Returns the published version.
        """
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        # Under the write lock: an online learner adding or evicting templates
        # mid-save would otherwise leave the checkpoint files mutually
        # inconsistent.
        with self._write_lock:
            for leftover in root.glob("v*.tmp"):
                shutil.rmtree(leftover)
            previous = self.checkpoint_version_on_disk(directory)
            version = 1 + max(
                [self.checkpoint_version]
                + [_version_of(entry.name) for entry in root.iterdir()]
            )
            registry = {
                template_id: template.to_dict()
                for template_id, template in self.templates.items()
            }
            with self._stats_lock:
                guard_payload = {
                    "records": {
                        template_id: record.to_dict()
                        for template_id, record in self._guard_records.items()
                        if template_id in self.templates
                    },
                }
            files = {
                "knowledge_base.nt": format_ntriples(
                    itertools.chain.from_iterable(self._template_graphs.values())
                ),
                "templates.json": json.dumps(registry, indent=2, sort_keys=True),
                self.GUARD_STATE_FILE: json.dumps(guard_payload, indent=2, sort_keys=True),
            }
            staging = root / f"v{version}.tmp"
            staging.mkdir()
            for name, text in files.items():
                self._write_atomic(staging / name, text)
            os.rename(staging, root / f"v{version}")
            self.checkpoint_version = version
            # The predecessor stays: a reader that listed the directory before
            # the rename may still be reading it.
            for entry in root.iterdir():
                if _version_of(entry.name) not in (0, previous, version):
                    shutil.rmtree(entry, ignore_errors=True)
        return version

    @classmethod
    def load(cls, directory: str) -> "KnowledgeBase":
        """Load the newest version directory ``v{N}/``.

        The directory is listed once, then only files under that version's
        directory are read, so the result is exactly what one :meth:`save`
        wrote.  No version, or a version directory a newer save pruned
        mid-read, raises :class:`OSError`.

        The registry says which templates exist; a node belongs to the
        template its ``inTemplate`` triple names, and each triple of the file
        goes straight to the graph of its subject's template.  Triples of a
        template the registry does not list are dropped; a listed template
        without triples is registered with none and matches nothing.  Index
        entries are computed from the graphs, never read from disk.
        """
        kb = cls()
        kb.checkpoint_version = cls.checkpoint_version_on_disk(directory)
        # Version 0 (nothing saved) names a directory no save creates, so the
        # first read raises FileNotFoundError.
        path = Path(directory) / f"v{kb.checkpoint_version}"
        triples = list(
            parse_ntriples((path / "knowledge_base.nt").read_text(encoding="utf-8"))
        )
        registry = json.loads((path / "templates.json").read_text(encoding="utf-8"))
        templates = [
            ProblemPatternTemplate.from_dict(payload) for payload in registry.values()
        ]
        by_resource: Dict[Node, Graph] = {
            voc.TEMPLATE[template.template_id]: Graph() for template in templates
        }
        by_subject = dict(by_resource)
        for triple in triples:
            if triple.predicate == voc.IN_TEMPLATE and triple.object in by_resource:
                by_subject[triple.subject] = by_resource[triple.object]
        for triple in triples:
            subgraph = by_subject.get(triple.subject)
            if subgraph is not None:
                subgraph.add(triple)
        with kb._write_lock:
            for template in templates:
                kb._register(template, by_resource[voc.TEMPLATE[template.template_id]])
            kb.generation += 1
        guard_payload = json.loads(
            (path / cls.GUARD_STATE_FILE).read_text(encoding="utf-8")
        )
        kb._guard_records = {
            template_id: TemplateGuardRecord.from_dict(entry)
            for template_id, entry in guard_payload["records"].items()
            if template_id in kb.templates
        }
        return kb


def _version_of(name: str) -> int:
    """``N`` for a version directory name ``v{N}``, 0 for any other name."""
    found = _VERSION_NAME.fullmatch(name)
    return int(found.group(1)) if found else 0


def _solution_sort_key(solution: dict) -> Tuple[Tuple[str, str], ...]:
    """Canonical, hash-independent ordering key for one SPARQL solution."""
    return tuple(sorted((name, value.n3()) for name, value in solution.items()))


def abstract_template_from_plan(
    knowledge_base: KnowledgeBase,
    problem_root: PlanNode,
    *,
    name: str,
    source_workload: str = "adhoc",
    source_query: str = "",
    widen: float = 2.0,
    improvement: float = 0.0,
    catalog: Optional[Catalog] = None,
    recommend_root: Optional[PlanNode] = None,
) -> ProblemPatternTemplate:
    """Abstract a plan into a stored template, recommending the plan itself.

    This is the learning engine's abstraction step without the benchmarking
    phase: canonical table labels, per-node cardinality bounds widened by
    ``widen``, and the plan's own guideline remapped onto the labels.  Used to
    seed knowledge bases directly from plans (tests, benchmarks, expert-given
    rewrites).

    ``recommend_root`` stores a *different* plan (over the same tables) as the
    recommendation while the problem pattern is still abstracted from
    ``problem_root`` -- i.e. "when you see the optimizer's plan, steer to this
    one instead".  Passing a deliberately slower plan produces a known-bad
    template, which is exactly what the regression-guard benchmarks need.
    """
    from repro.core.planutils import canonical_label_map, remap_guideline_document
    from repro.engine.optimizer.guidelines import GuidelineDocument, guideline_from_plan

    labels = canonical_label_map(problem_root)
    bounds = {
        node.operator_id: CardinalityBounds(
            node.estimated_cardinality / widen, node.estimated_cardinality * widen
        )
        for node in problem_root.walk()
    }
    recommended = recommend_root if recommend_root is not None else problem_root
    guideline = remap_guideline_document(
        GuidelineDocument(elements=[guideline_from_plan(recommended)]), labels
    )
    return knowledge_base.add_template(
        name=name,
        source_workload=source_workload,
        source_query=source_query,
        problem_root=problem_root.copy(),
        guideline_xml=guideline.to_xml(),
        canonical_labels=labels,
        cardinality_bounds=bounds,
        improvement=improvement,
        catalog=catalog,
    )
