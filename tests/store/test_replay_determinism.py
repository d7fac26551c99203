"""Satellite: the replay debugger is deterministic, byte for byte.

Replaying the same persisted bytes must always land on the same state:
same digest, same event stream, same exported files.  That property is
what makes a data directory a *repro artifact* rather than just a
backup.  Also covers the CLI surface: ``--until``, ``--diff``,
``--state-out``/``--events-out``/``--trace-out``, ``--check``.  Every
plane replays the way it recovers: through every shard's log, to the
live directory.
"""

import json

from repro.check.logcheck import check_recovered
from repro.runtime.bus import OpKind
from repro.runtime.eventlog import EventLog, validate_chrome_trace
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem
from repro.shard.merge import shard_dir
from repro.store import NodeStore
from repro.store.node_store import load_data_dir, load_node_dir
from repro.store.recovery import restore_node
from repro.store.replay import (
    canonical_state,
    replay_main,
    replay_recovered,
    state_digest,
)

from .workload import (
    attach_stores,
    close_stores,
    each_plane,
    last_shard_atom,
    noop,
    run_persisted_workload,
)

SEED, N_OPS = 11, 25


def persisted(tmp_path):
    _system, store = run_persisted_workload(str(tmp_path), seed=SEED,
                                            n_ops=N_OPS)
    store.close()
    return str(tmp_path)


class TestDeterminism:
    def test_two_replays_agree_exactly(self, tmp_path):
        data = persisted(tmp_path)

        def one_replay():
            log = EventLog(capacity=1 << 16, enabled=True)
            replayer, summary = replay_recovered(load_data_dir(data),
                                                 event_log=log)
            return (summary, canonical_state(replayer.directory),
                    [e.to_dict() for e in log])

        first, second = one_replay(), one_replay()
        assert first == second
        assert first[0]["digest"] == second[0]["digest"]
        assert first[0]["ops_applied"] > 0

    def test_exported_files_are_byte_identical(self, tmp_path):
        data = persisted(tmp_path / "data")
        paths = {}
        for run in ("a", "b"):
            state = tmp_path / f"state-{run}.json"
            events = tmp_path / f"events-{run}.jsonl"
            rc = replay_main([data, "--state-out", str(state),
                              "--events-out", str(events), "--quiet"])
            assert rc == 0
            paths[run] = (state.read_bytes(), events.read_bytes())
        assert paths["a"] == paths["b"]
        assert len(paths["a"][0]) > 2  # actually exported something

    def test_until_truncates_history(self, tmp_path):
        data = persisted(tmp_path)
        recovered = load_data_dir(data)
        full, full_summary = replay_recovered(recovered)
        partial, part_summary = replay_recovered(recovered, until=2)
        assert part_summary["last_seq"] == 2
        assert part_summary["ops_applied"] + part_summary["ops_rejected"] == 3
        assert full_summary["last_seq"] > 2
        # Time travel is real: the directory at seq 2 differs from final.
        assert state_digest(partial.directory) != \
            state_digest(full.directory)

    def test_diff_between_two_points(self, tmp_path, capsys):
        data = persisted(tmp_path)
        rc = replay_main([data, "--diff", "2:8", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "diff @2 -> @8:" in out
        # Diffing a point against itself is empty.
        rc = replay_main([data, "--diff", "5:5", "--quiet"])
        assert rc == 0
        assert "no change(s)" in capsys.readouterr().out

    def test_check_runs_the_oracle(self, tmp_path, capsys):
        data = persisted(tmp_path)
        assert replay_main([data, "--check"]) == 0
        assert "conforms" in capsys.readouterr().out

    def test_trace_export_is_valid_chrome_trace(self, tmp_path):
        data = persisted(tmp_path / "data")
        trace_path = tmp_path / "replay.trace.json"
        assert replay_main([data, "--trace-out", str(trace_path),
                            "--quiet"]) == 0
        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []

    def test_empty_directory_exits_2(self, tmp_path):
        assert replay_main([str(tmp_path)]) == 2


def collected_in_last_shard_space(tmp_path, shards):
    """A persisted run whose garbage collection purges an actor
    registered in a space homed on the plane's last shard."""
    system = ActorSpaceSystem(topology=Topology.lan(2), seed=SEED,
                              shards=shards)
    store = NodeStore(str(tmp_path))
    attach_stores(system, store)
    home = system.create_space(
        node=1, attributes=f"{last_shard_atom(shards, 'gc')}/home")
    kept = system.create_actor(noop, node=0)
    system.make_visible(kept, "gc/kept", node=0)
    doomed = system.create_actor(noop, node=1)
    system.make_visible(doomed, "gc/doomed", home, node=1)
    system.run()
    assert system.directory_of(0).space(home).shard == shards - 1
    system.make_invisible(home, node=1)  # created visible in the root
    system.run()
    system.release(doomed)
    system.release(home)
    assert doomed in system.collect_garbage().collected_actors
    system.run()
    close_stores(system, store)
    return system


class TestEveryPlane:
    @each_plane
    def test_a_purge_on_a_last_shard_space_replays(self, tmp_path, shards):
        system = collected_in_last_shard_space(tmp_path, shards)
        recovered, shard_ops = load_node_dir(str(tmp_path))
        purged = {k for k, ops in shard_ops.items()
                  for op in ops.values() if op.kind is OpKind.PURGE}
        assert purged == set(range(shards))  # one slice on every shard
        replayed, summary = replay_recovered(recovered, shard_ops)
        restarted = ActorSpaceSystem(topology=Topology.lan(2), shards=shards)
        restore_node(0, restarted.coordinators[0], restarted.dead_letters,
                     recovered, shard_ops=shard_ops)
        live = system.directory_of(0).snapshot()
        assert replayed.directory.snapshot() == live
        assert restarted.directory_of(0).snapshot() == live
        assert summary["gap"] is None
        assert check_recovered(recovered, shard_ops) == []

    def test_check_reports_a_duplicate_in_shard_1(self, tmp_path, capsys):
        collected_in_last_shard_space(tmp_path, 2)
        ops = load_node_dir(str(tmp_path))[1][1]
        last = max(ops)
        planted = NodeStore(shard_dir(str(tmp_path), 2, 1))
        planted.append_op(last + 1, ops[last])
        planted.commit()
        planted.close()
        problems = check_recovered(*load_node_dir(str(tmp_path)))
        key = (ops[last].origin_node, ops[last].origin_seq)
        assert f"shard 1: duplicate origin pair {key} sequenced at both " \
            f"{last} and {last + 1}" in problems
        assert all(problem.startswith("shard 1: ") for problem in problems)
        assert replay_main([str(tmp_path), "--check", "--quiet"]) == 1
        assert "shard 1: duplicate origin pair" in capsys.readouterr().err
