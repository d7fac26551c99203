"""Satellite: crash-point recovery property battery.

The core durability claim, as a hypothesis property: tear the persisted
log at a *random byte* (a crash mid-write), recover, and what comes back
is a contiguous committed prefix of the history — never a half-applied
record, never a reordering — and that prefix conforms to the §5
reference model via the offline oracle.  Plus the dead-letter side: a
journal written around a real crash folds back into exactly the letters
the live queue was holding.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.logcheck import check_recovered
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem
from repro.store import NodeStore
from repro.store.node_store import load_data_dir, segment_paths
from repro.store.recovery import restore_node

from .workload import (
    attach_stores,
    close_stores,
    each_plane,
    load_shard_ops,
    log_signature,
    run_persisted_workload,
)


class TestTornWriteRecovery:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n_ops=st.integers(5, 40),
           cut=st.floats(0.0, 1.0))
    def test_recovers_contiguous_committed_prefix(self, seed, n_ops, cut):
        with tempfile.TemporaryDirectory() as tmp:
            system, store = run_persisted_workload(tmp, seed=seed, n_ops=n_ops)
            store.close()
            expected = log_signature(system.bus.shards[0].log)
            segments = segment_paths(tmp)
            assert segments, "workload persisted nothing"
            # The crash: tear the newest segment at an arbitrary byte.
            last = segments[-1]
            size = os.path.getsize(last)
            with open(last, "r+b") as fh:
                fh.truncate(int(size * cut))

            recovered = load_data_dir(tmp)
            got = log_signature(recovered.ops)
            # Contiguous prefix of the committed history: no hole, no
            # reorder, no half-applied record surviving the tear.
            assert got == expected[: len(got)]
            if recovered.ops:
                seqs = sorted(recovered.ops)
                assert seqs == list(range(seqs[0], seqs[-1] + 1))
            # The §5 oracle accepts the recovered history as-is.
            assert check_recovered(recovered) == []

    def test_untorn_log_recovers_everything(self, tmp_path):
        system, store = run_persisted_workload(str(tmp_path), seed=7, n_ops=30)
        store.close()
        recovered = load_data_dir(str(tmp_path))
        assert recovered.report.clean
        assert log_signature(recovered.ops) == \
            log_signature(system.bus.shards[0].log)
        assert check_recovered(recovered) == []


class TestDeadLetterRecovery:
    @each_plane
    def test_journal_folds_back_to_live_queue(self, tmp_path, shards):
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=1,
                                  shards=shards)
        store = NodeStore(str(tmp_path))
        attach_stores(system, store)
        system.dead_letters.store = store
        victim = system.create_actor(lambda ctx, m: None, node=1)
        system.make_visible(victim, "svc/victim")
        homed = system.create_space(attributes="late0/home")  # not shard 0
        system.make_visible(victim, "svc/homed", homed)
        system.run()
        system.crash_node(1)
        for i in range(4):
            system.send("svc/victim", ("probe", i))
        system.run()
        assert system.dead_letters.pending(1) == 4
        close_stores(system, store)

        # A fresh incarnation folds journal + (absent) snapshot back.
        system2 = ActorSpaceSystem(topology=Topology.lan(2), seed=1,
                                   shards=shards)
        store2 = NodeStore(str(tmp_path))
        recovered = store2.load()
        assert len(recovered.dlq_events) == 4
        summary = restore_node(
            0, system2.coordinators[0], system2.dead_letters, recovered,
            store=store2, shard_ops=load_shard_ops(str(tmp_path), shards))
        assert summary["dlq_recovered"] == 4
        assert system2.dead_letters.recovered_total == 4

        def shape(dlq):
            return {
                letter.envelope.envelope_id:
                    (letter.dst_node, letter.reason, letter.attempts,
                     letter.envelope.message.payload)
                for letter in dlq.letters()
            }

        assert shape(system2.dead_letters) == shape(system.dead_letters)
        assert system2.dead_letters.queued_total == \
            system.dead_letters.queued_total
        # The replayed ops also rebuilt the node-0 directory replica.
        assert system2.directory_of(0).snapshot() == \
            system.directory_of(0).snapshot()
        # ...and resynced the address factory: a freshly minted address
        # collides with nothing the previous incarnation persisted.
        assert system2.coordinators[0].addresses.new_space_address() \
            not in {r.address for r in system.directory_of(0).spaces()}
        store2.close()

    @each_plane
    def test_resolved_letters_are_not_readopted(self, tmp_path, shards):
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=2,
                                  shards=shards)
        store = NodeStore(str(tmp_path))
        attach_stores(system, store)
        system.dead_letters.store = store
        hits = []
        victim = system.create_actor(lambda ctx, m: hits.append(m.payload),
                                     node=1)
        system.make_visible(victim, "svc/victim")
        system.run()
        system.crash_node(1)
        for i in range(3):
            system.send("svc/victim", ("probe", i))
        system.run()
        system.recover_node(1)
        system.run()
        assert len(hits) == 3  # redelivered to the recovered node
        assert system.dead_letters.pending() == 0
        close_stores(system, store)

        recovered = load_data_dir(str(tmp_path))
        captures = [e for e in recovered.dlq_events if e["kind"] == "capture"]
        resolves = [e for e in recovered.dlq_events if e["kind"] == "resolve"]
        assert len(captures) == 3 and len(resolves) == 3
        system2 = ActorSpaceSystem(topology=Topology.lan(2), seed=2,
                                   shards=shards)
        summary = restore_node(
            0, system2.coordinators[0], system2.dead_letters, recovered,
            shard_ops=load_shard_ops(str(tmp_path), shards))
        assert summary["dlq_recovered"] == 0
        assert system2.dead_letters.pending() == 0
        assert system2.dead_letters.redelivered_total == \
            system.dead_letters.redelivered_total
