"""Checkpoint versioning: save, publish and hot-reload of a knowledge base.

An owner saves knowledge-base checkpoints as version directories ``v{N}/``;
``Galo.maybe_reload_knowledge_base`` lists the checkpoint directory and
hot-reloads when its newest version directory is newer than the live
knowledge base's.  These tests pin what that rests on: monotonic
version assignment on save, only directories counting as versions, the
rename of ``v{N}.tmp/`` to ``v{N}/`` being the only commit point (crash at
any step of a save), pruning to two versions, ``maybe_reload`` semantics
(no-op / bump / force / pruned mid-read), and a reload racing saves --
interleaved deterministically -- adopting only a knowledge base that one
save wrote.
"""

import os
from pathlib import Path

import pytest

from repro.core import vocabulary as voc
from repro.core.galo import Galo
from repro.core.knowledge_base import KnowledgeBase, abstract_template_from_plan
from repro.core.learning.engine import LearningConfig
from repro.core.matching.segmenter import segment_plan
from repro.rdf.terms import Literal
from repro.service import ServiceConfig, serve_workload
from tests.conftest import build_mini_database
from tests.prepared_support import build_system


def seeded_kb(db, queries, name_prefix="ckpt"):
    kb = KnowledgeBase()
    for number, sql in enumerate(queries):
        for segment in segment_plan(db.explain(sql), max_joins=3):
            abstract_template_from_plan(
                kb,
                segment,
                name=f"{name_prefix}{number}-{len(kb)}",
                source_workload="unit",
                source_query=f"q{number}",
                widen=2.0,
                improvement=0.25,
                catalog=db.catalog,
            )
    assert len(kb) > 0
    return kb


@pytest.fixture()
def kb(mini_db, mini_queries):
    return seeded_kb(mini_db, [sql for _, sql in mini_queries[:2]])


class TestCheckpointVersion:
    def test_fresh_kb_is_version_zero(self):
        assert KnowledgeBase().checkpoint_version == 0

    def test_save_bumps_monotonically(self, kb, tmp_path):
        directory = str(tmp_path)
        assert kb.save(directory) == 1
        assert kb.checkpoint_version == 1
        assert kb.save(directory) == 2
        assert KnowledgeBase.checkpoint_version_on_disk(directory) == 2

    def test_save_respects_foreign_stamp_on_disk(self, kb, tmp_path):
        """Two publishers writing the same directory never reuse a version."""
        directory = str(tmp_path)
        kb.save(directory)
        other = KnowledgeBase.load(directory)
        other.save(directory)  # v2 from the second publisher
        # The first publisher's in-memory version is stale (1), but its next
        # save must still advance past what is on disk.
        assert kb.save(directory) == 3

    def test_only_version_directories_count(self, tmp_path):
        directory = str(tmp_path)
        assert KnowledgeBase.checkpoint_version_on_disk(str(tmp_path / "missing")) == 0
        assert KnowledgeBase.checkpoint_version_on_disk(directory) == 0
        for name in ("v", "v-1", "3", "v3.tmp"):
            (tmp_path / name).mkdir()
        (tmp_path / "CURRENT").write_text("v12\n", encoding="utf-8")
        (tmp_path / "v9").write_text("", encoding="utf-8")
        assert KnowledgeBase.checkpoint_version_on_disk(directory) == 0
        (tmp_path / "v12").mkdir()
        assert KnowledgeBase.checkpoint_version_on_disk(directory) == 12

    def test_a_file_named_like_a_version_never_blocks_a_save(self, kb, tmp_path):
        directory = str(tmp_path)
        kb.save(directory)
        (tmp_path / "v2").write_text("", encoding="utf-8")
        assert KnowledgeBase.checkpoint_version_on_disk(directory) == 1
        assert KnowledgeBase.load(directory).checkpoint_version == 1
        assert kb.save(directory) == 3
        assert KnowledgeBase.load(directory).checkpoint_version == 3

    def test_load_without_a_checkpoint_raises(self, tmp_path):
        with pytest.raises(OSError):
            KnowledgeBase.load(str(tmp_path))

    def test_load_adopts_disk_version(self, kb, tmp_path):
        directory = str(tmp_path)
        kb.save(directory)
        kb.save(directory)
        loaded = KnowledgeBase.load(directory)
        assert loaded.checkpoint_version == 2
        assert len(loaded) == len(kb)

    def test_save_writes_one_version_directory(self, kb, tmp_path):
        kb.save(str(tmp_path))
        assert sorted(path.name for path in tmp_path.iterdir()) == ["v1"]
        assert sorted(path.name for path in (tmp_path / "v1").iterdir()) == [
            "guard_state.json",
            "knowledge_base.nt",
            "templates.json",
        ]

    def test_a_directory_with_a_pointer_and_stamps_still_loads(self, kb, tmp_path):
        """Checkpoints once also held a ``CURRENT`` pointer file and a
        ``checkpoint.json`` stamp per version: both are ignored, never
        deleted."""
        directory = str(tmp_path)
        kb.save(directory)
        (tmp_path / "CURRENT").write_text("v1\n", encoding="utf-8")
        (tmp_path / "v1" / "checkpoint.json").write_text(
            '{"templates": %d, "version": 1}' % len(kb), encoding="utf-8"
        )
        loaded = KnowledgeBase.load(directory)
        assert loaded.checkpoint_version == 1
        assert published_state(loaded) == published_state(kb)
        assert loaded.save(directory) == 2
        assert sorted(path.name for path in tmp_path.iterdir()) == ["CURRENT", "v1", "v2"]
        assert KnowledgeBase.load(directory).checkpoint_version == 2


class TestMaybeReload:
    def test_noop_when_disk_is_not_newer(self, mini_db, kb, tmp_path):
        directory = str(tmp_path)
        galo = Galo(mini_db, knowledge_base=kb)
        galo.save_knowledge_base(directory)
        assert galo.maybe_reload_knowledge_base(directory) is None
        assert galo.knowledge_base is kb  # untouched, matching stays warm

    def test_noop_when_no_checkpoint(self, mini_db, tmp_path):
        galo = Galo(mini_db)
        assert galo.maybe_reload_knowledge_base(str(tmp_path)) is None

    def test_reload_on_version_bump(self, mini_db, mini_queries, kb, tmp_path):
        directory = str(tmp_path)
        publisher = Galo(mini_db, knowledge_base=kb)
        publisher.save_knowledge_base(directory)

        follower = Galo(mini_db)
        assert follower.maybe_reload_knowledge_base(directory, force=True) == 1
        assert len(follower.knowledge_base) == len(kb)

        # Publisher learns more and republishes; the follower picks it up.
        before = len(publisher.knowledge_base)
        for segment in segment_plan(mini_db.explain(mini_queries[2][1]), max_joins=3):
            abstract_template_from_plan(
                publisher.knowledge_base,
                segment,
                name=f"extra-{len(publisher.knowledge_base)}",
                source_workload="unit",
                source_query="q-extra",
                widen=2.0,
                improvement=0.25,
                catalog=mini_db.catalog,
            )
        assert len(publisher.knowledge_base) > before
        publisher.save_knowledge_base(directory)
        assert follower.maybe_reload_knowledge_base(directory) == 2
        assert len(follower.knowledge_base) == len(publisher.knowledge_base)
        # The reloaded KB is wired into both engines, not just swapped in.
        assert follower.matching_engine.knowledge_base is follower.knowledge_base
        assert follower.learning_engine.knowledge_base is follower.knowledge_base

    def test_force_reload_same_version(self, mini_db, kb, tmp_path):
        directory = str(tmp_path)
        galo = Galo(mini_db, knowledge_base=kb)
        galo.save_knowledge_base(directory)
        assert galo.maybe_reload_knowledge_base(directory, force=True) == 1

    def test_serving_between_reloads_drops_no_request(self, mini_queries, tmp_path):
        # Its own database: serving a statement twice keeps its outcome in
        # the database's workload memo, which the session-wide mini_db must
        # not carry into later tests.
        db = build_mini_database(sales_rows=1500)
        directory = str(tmp_path)
        sqls = [sql for _, sql in mini_queries]
        galo = Galo(db, knowledge_base=seeded_kb(db, sqls[:2]))
        galo.save_knowledge_base(directory)
        config = ServiceConfig(learning_enabled=False)
        before, _ = serve_workload(galo, mini_queries, config)

        # Another owner publishes a larger knowledge base as v2.
        publisher = KnowledgeBase.load(directory)
        published = seeded_kb(db, sqls[2:3], name_prefix="extra")
        publisher.copy_templates_from(published)
        assert publisher.save(directory) == 2

        assert galo.maybe_reload_knowledge_base(directory) == 2
        after, snapshot = serve_workload(galo, mini_queries, config)
        assert len(galo.knowledge_base) == len(publisher)
        assert all(response.ok for response in before + after)
        assert [r.rows for r in before] == [r.rows for r in after]
        # The swap invalidated what the prepared lane held for the old KB.
        assert snapshot["prepared_invalidations"] > 0


class TestOwnerSave:
    """Serving never writes the knowledge base: its owner saves after stop()."""

    def test_stop_writes_nothing_and_a_save_after_it_keeps_what_was_learned(
        self, mini_db, mini_queries, kb, tmp_path
    ):
        directory = str(tmp_path)
        galo = Galo(
            mini_db,
            knowledge_base=kb,
            learning_config=LearningConfig(
                max_joins=2, random_plans_per_subquery=2, max_variants=1
            ),
        )
        assert galo.save_knowledge_base(directory) == 1
        saved = sorted(kb.templates)
        # serve_workload drains the learner and stops the service.
        _, snapshot = serve_workload(
            galo, mini_queries, ServiceConfig(steering_enabled=False)
        )
        assert snapshot["templates_learned"] > 0
        assert sorted(galo.knowledge_base.templates) != saved
        assert KnowledgeBase.checkpoint_version_on_disk(directory) == 1
        assert sorted(KnowledgeBase.load(directory).templates) == saved

        assert galo.save_knowledge_base(directory) == 2
        restored = KnowledgeBase.load(directory)
        assert sorted(restored.templates) == sorted(galo.knowledge_base.templates)


# ---------------------------------------------------------------------------
# A reload racing saves
# ---------------------------------------------------------------------------


def published_state(kb):
    """Template id -> registry ``improvement``: what a save of ``kb`` holds."""
    return {
        template_id: template.improvement for template_id, template in kb.templates.items()
    }


def assert_published_whole(kb, published):
    """``kb`` is what one save wrote: registry and triples agree template by
    template, and both equal the writer's state at ``kb``'s version."""
    for template_id, template in kb.templates.items():
        literals = [
            triple.object
            for triple in kb._template_graphs[template_id]
            if triple.predicate == voc.HAS_IMPROVEMENT
        ]
        assert literals == [Literal(round(template.improvement, 4))], template_id
    assert published_state(kb) == published[kb.checkpoint_version]


class ChurningWriter:
    """The learner side of the race.

    Each :meth:`step` updates three templates' ``improvement``, evicts three
    more and saves, recording the state each version was saved from.  Below
    six templates it starts over from a copy of ``seed``.
    """

    def __init__(self, seed, directory):
        self.seed = seed
        self.directory = directory
        self.kb = self._fresh()
        self.steps = 0
        self.published = {}

    def _fresh(self):
        kb = KnowledgeBase()
        kb.copy_templates_from(self.seed)
        return kb

    def publish(self):
        state = published_state(self.kb)
        self.published[self.kb.save(self.directory)] = state

    def step(self):
        self.steps += 1
        if len(self.kb) < 6:
            self.kb = self._fresh()
        template_ids = sorted(self.kb.templates)
        for template_id in template_ids[:3]:
            self.kb.update_template(template_id, improvement=round(0.9 + self.steps / 100, 4))
        for template_id in template_ids[3:6]:
            assert self.kb.evict_template(template_id)
        self.publish()


def after_each_graph_read(monkeypatch, action):
    """Run ``action`` after every read of a ``knowledge_base.nt``; returns
    the list of directories those reads were from."""
    directories = []
    real_read_text = Path.read_text

    def read_text(self, *args, **kwargs):
        text = real_read_text(self, *args, **kwargs)
        if self.name == "knowledge_base.nt":
            directories.append(self.parent)
            action()
        return text

    monkeypatch.setattr(Path, "read_text", read_text)
    return directories


@pytest.fixture(scope="module")
def system():
    return build_system()


class TestReloadRacingSave:
    def test_reload_adopts_what_one_save_wrote(self, system, tmp_path, monkeypatch):
        """Every read of the graph file lets the learner update three
        templates, evict three more and save.  The follower still adopts one
        save's registry, triples and version, read from that version's
        directory."""
        directory = str(tmp_path)
        writer = ChurningWriter(system.knowledge_base, directory)
        writer.publish()
        follower = Galo(system.database)
        reads = after_each_graph_read(monkeypatch, writer.step)
        version = follower.maybe_reload_knowledge_base(directory, force=True)
        monkeypatch.undo()
        assert writer.steps > 0
        assert version == follower.knowledge_base.checkpoint_version
        assert_published_whole(follower.knowledge_base, writer.published)
        assert reads == [tmp_path / f"v{version}"]

    def test_reader_of_a_pruned_version_retries_on_the_next_poll(
        self, system, tmp_path, monkeypatch
    ):
        directory = str(tmp_path)
        writer = ChurningWriter(system.knowledge_base, directory)
        writer.publish()
        follower = Galo(system.database)

        def two_saves():
            writer.step()
            writer.step()  # prunes v1, the version being read

        after_each_graph_read(monkeypatch, two_saves)
        assert follower.maybe_reload_knowledge_base(directory) is None
        monkeypatch.undo()
        assert follower.knowledge_base.checkpoint_version == 0
        assert follower.maybe_reload_knowledge_base(directory) == 3
        assert_published_whole(follower.knowledge_base, writer.published)


# ---------------------------------------------------------------------------
# Crashes and pruning
# ---------------------------------------------------------------------------


def version_files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


class TestCrashMatrix:
    @pytest.mark.parametrize(
        "call, nth",
        [
            ("replace", 1),  # first file inside v2.tmp/
            ("replace", 3),  # last file inside v2.tmp/
            ("rename", 1),  # v2.tmp/ -> v2/, the commit
        ],
        ids=["tmp-first-file", "tmp-last-file", "directory-rename"],
    )
    def test_crash_leaves_the_previous_version_current(
        self, kb, tmp_path, monkeypatch, call, nth
    ):
        directory = str(tmp_path)
        kb.save(directory)
        before = version_files(tmp_path / "v1")
        template_id = sorted(kb.templates)[0]
        original = kb.template(template_id).improvement
        kb.update_template(template_id, improvement=0.77)

        calls = []
        real = getattr(os, call)

        def crashing(source, target):
            calls.append(target)
            if len(calls) == nth:
                raise OSError("injected crash")
            return real(source, target)

        monkeypatch.setattr(os, call, crashing)
        with pytest.raises(OSError, match="injected crash"):
            kb.save(directory)
        monkeypatch.undo()

        # The failed save committed nothing: the KB's version did not move.
        assert kb.checkpoint_version == 1
        assert KnowledgeBase.checkpoint_version_on_disk(directory) == 1
        previous = KnowledgeBase.load(directory)
        assert previous.checkpoint_version == 1
        assert previous.template(template_id).improvement == original
        assert version_files(tmp_path / "v1") == before

        assert not (tmp_path / "v2").exists()
        assert (tmp_path / "v2.tmp").is_dir()
        assert kb.save(directory) == 2
        assert kb.checkpoint_version == 2
        assert sorted(path.name for path in tmp_path.iterdir()) == ["v1", "v2"]
        current = KnowledgeBase.load(directory)
        assert current.checkpoint_version == 2
        assert current.template(template_id).improvement == 0.77


class TestPruning:
    def test_five_saves_keep_the_newest_two_versions(self, kb, tmp_path):
        for _ in range(5):
            kb.save(str(tmp_path))
        assert sorted(path.name for path in tmp_path.iterdir()) == ["v4", "v5"]
        assert KnowledgeBase.load(str(tmp_path)).checkpoint_version == 5
