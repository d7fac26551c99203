"""Tests: monitoring daemons (the section-8 manager extension)."""

import pytest

from repro.core.daemons import (
    AttributeDaemon,
    ConstraintRule,
    install_daemon,
    predicate_rule,
    queue_depth_observation,
    threshold_rule,
)
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem


class TestRules:
    def test_threshold_two_band(self):
        rule = threshold_rule("load", "queue", low_max=2)
        assert str(rule.derived({"queue": 0})) == "load/low"
        assert str(rule.derived({"queue": 2})) == "load/low"
        assert str(rule.derived({"queue": 3})) == "load/high"

    def test_threshold_three_band(self):
        rule = threshold_rule("load", "queue", low_max=1, high_min=5)
        assert str(rule.derived({"queue": 3})) == "load/mid"
        assert str(rule.derived({"queue": 9})) == "load/high"

    def test_missing_metric_publishes_nothing(self):
        rule = threshold_rule("load", "queue", low_max=2)
        assert rule.derived({}) is None

    def test_predicate_rule(self):
        rule = predicate_rule("state", "veteran",
                              lambda obs: obs.get("processed", 0) >= 3)
        assert rule.derived({"processed": 5}) is not None
        assert rule.derived({"processed": 1}) is None


def build(period=0.5):
    system = ActorSpaceSystem(topology=Topology.lan(2), seed=0)
    key = system.new_capability()
    space = system.create_space(capability=key)
    system.run()
    workers = []
    for i in range(3):
        addr = system.create_actor(lambda ctx, m: None, node=i % 2)
        system.make_visible(addr, f"w/n{i}", space, capability=key)
        workers.append(addr)
    system.run()
    return system, key, space, workers


class TestDaemon:
    def test_daemon_publishes_derived_attributes(self):
        system, key, space, workers = build()
        install_daemon(system, space,
                       [threshold_rule("load", "queue", low_max=2)],
                       capability=key, period=0.5)
        system.run(until=1.2)
        rec = system.directory_of(0).space(space)
        for w in workers:
            attrs = {str(a) for a in rec.lookup(w).attributes}
            assert "load/low" in attrs, attrs

    def test_identity_attributes_preserved(self):
        system, key, space, workers = build()
        install_daemon(system, space,
                       [threshold_rule("load", "queue", low_max=2)],
                       capability=key, period=0.5)
        system.run(until=1.2)
        rec = system.directory_of(0).space(space)
        attrs = {str(a) for a in rec.lookup(workers[0]).attributes}
        assert "w/n0" in attrs

    def test_attributes_track_observation_changes(self):
        system, key, space, workers = build()
        install_daemon(
            system, space,
            [predicate_rule("state", "veteran",
                            lambda obs: obs.get("processed", 0) >= 2)],
            capability=key, period=0.5,
        )
        system.run(until=1.2)
        rec = system.directory_of(0).space(space)
        attrs = {str(a) for a in rec.lookup(workers[0]).attributes}
        assert "state/veteran" not in attrs
        # Give worker 0 some processed messages, then sweep again.
        for _ in range(3):
            system.send_to(workers[0], "work")
        system.run(until=2.5)
        attrs = {str(a) for a in rec.lookup(workers[0]).attributes}
        assert "state/veteran" in attrs

    def test_patterns_can_target_derived_attributes(self):
        """The point of it all: constraints become destination patterns."""
        system, key, space, _workers = build()
        busy_got, idle_got = [], []
        busy = system.create_actor(lambda ctx, m: busy_got.append(m.payload),
                                   node=0)
        idle = system.create_actor(lambda ctx, m: idle_got.append(m.payload),
                                   node=1)
        system.make_visible(busy, "srv/busy", space, capability=key)
        system.make_visible(idle, "srv/idle", space, capability=key)
        system.run()
        observations = {busy: {"queue": 9}, idle: {"queue": 0}}
        install_daemon(
            system, space,
            [threshold_rule("load", "queue", low_max=2)],
            capability=key, period=0.3,
            observe=lambda sys_, addr: observations.get(addr, {}),
        )
        system.run(until=1.0)
        from repro.core.messages import Destination

        system.send(Destination("load/low", space), "prefer-idle")
        system.run(until=2.0)
        assert idle_got == ["prefer-idle"]
        assert busy_got == []

    def test_daemon_counts_work(self):
        system, key, space, _workers = build()
        addr = install_daemon(system, space,
                              [threshold_rule("load", "queue", low_max=2)],
                              capability=key, period=0.4)
        system.run(until=2.0)
        daemon = system.actor_record(addr).behavior
        assert daemon.sweeps >= 3
        assert daemon.updates >= 3  # first sweep adds load/low to 3 workers

    def test_daemon_stop(self):
        system, key, space, _workers = build()
        addr = install_daemon(system, space,
                              [threshold_rule("load", "queue", low_max=2)],
                              capability=key, period=0.4)
        system.run(until=1.0)
        daemon = system.actor_record(addr).behavior
        system.send_to(addr, "stop")
        system.run(until=1.6)
        sweeps = daemon.sweeps
        system.run(until=5.0)
        assert daemon.sweeps == sweeps  # no sweeps after stop
        assert system.actor_record(addr) is None

    def test_daemon_dies_with_its_space(self):
        system, key, space, _workers = build()
        addr = install_daemon(system, space,
                              [threshold_rule("load", "queue", low_max=2)],
                              capability=key, period=0.4)
        system.run(until=1.0)
        system.destroy_space(space)
        system.run(until=3.0)
        assert system.actor_record(addr) is None

    def test_uninstalled_daemon_asserts(self):
        daemon = AttributeDaemon(None, [], lambda s, a: {})
        with pytest.raises(AssertionError):
            daemon._sweep(None)
