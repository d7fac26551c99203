"""Tests: one Host, three doors.

The simulator and a node process subclass one
:class:`~repro.runtime.host.Host`, and the node's control plane is a
table over the same inherited verbs — so one script driven through
method calls on an ``ActorSpaceSystem``, method calls on an in-process
``NodeRuntime`` and control requests to that ``NodeRuntime`` (no
sockets: replies are captured, due events pumped by hand) has to leave
the same directory, the same resolutions and the same deliveries.
"""

import pytest

from repro.check.scenario import run_visibility
from repro.core.messages import Destination
from repro.net.peer import PeerLink
from repro.net.runtime import NodeRuntime
from repro.runtime.host import Host
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem

#: All six visibility commands, then a probe per space still alive.
SCRIPT = [
    {"op": "actor", "name": "a0", "node": 0},
    {"op": "actor", "name": "a1", "node": 0},
    {"op": "space", "name": "s0", "node": 0, "attrs": ["svc/db"],
     "parent": None},
    {"op": "space", "name": "s1", "node": 0, "attrs": ["svc/web"],
     "parent": "s0"},
    {"op": "vis", "target": "a0", "attrs": ["job/one"], "space": "s0",
     "node": 0},
    {"op": "vis", "target": "a1", "attrs": ["job/two", "aux"], "space": "s1",
     "node": 0},
    {"op": "vis", "target": "a1", "attrs": ["img"], "space": "ROOT",
     "node": 0},
    {"op": "chattr", "target": "a0", "attrs": ["job/renamed"], "space": "s0",
     "node": 0},
    {"op": "invis", "target": "a1", "space": "ROOT", "node": 0},
    {"op": "destroy", "target": "s1", "node": 0},
    {"op": "probe", "pattern": "**", "space": "ROOT", "node": 0},
    {"op": "probe", "pattern": "job/*", "space": "s0", "node": 0},
]


def sink(ctx, message):
    pass


def pump(runtime):
    """What ``serve`` does between reads: commit, run what is due."""
    runtime._commit_turn()
    while (popped := runtime.events.pop()) is not None:
        popped[1]()
        runtime._commit_turn()


def control_door(runtime):
    """``call`` as the launcher sees it: a request in, a reply back."""
    replies = []
    runtime.hub.send_link = \
        lambda link, kind, payload: replies.append(payload) or True

    def request(payload):
        runtime._on_control(payload, None)
        return replies.pop()

    def call(node, verb, **args):
        reply = request({"id": 7, "cmd": verb, "args": {"node": node, **args}})
        assert reply["ok"] and reply["id"] == 7, reply
        value = reply["value"]
        return value["address"] if verb.startswith("create_") else value

    return request, call


def door(kind):
    """``(host, call, settle, behavior)`` for one way in."""
    if kind == "simulator":
        host = ActorSpaceSystem(topology=Topology.single(), seed=3)
        settle = host.run
    else:
        host = NodeRuntime(0, {0: 1}, seed=3, trace=False)
        settle = lambda: pump(host)  # noqa: E731
    if kind == "node-control":
        return host, control_door(host)[1], settle, "counter"
    return (host, lambda node, verb, **args:
            getattr(host, verb)(node=node, **args), settle, sink)


def drive(kind):
    host, call, settle, behavior = door(kind)
    assert isinstance(host, Host)
    names = {"ROOT": host.root_space}
    probes = []
    for cmd in SCRIPT:
        if cmd["op"] == "probe":
            settle()
        probes.append(run_visibility(cmd, names, call, behavior))
    call(0, "send", destination=Destination("job/*", names["s0"]),
         payload={"n": 1})
    call(0, "broadcast", destination="nobody/home", payload={"n": 2})
    call(0, "send_to", target=names["a1"], payload={"n": 3})
    settle()
    return {
        "directory": host.directory_of().snapshot(),
        "probes": [p for p in probes if p is not None],
        "attributes": call(0, "visible_attributes", target=names["a0"],
                           space=names["s0"]),
        "delivered": {mode.value: n
                      for mode, n in host.tracer.delivered.items()},
        "parked": host.parked(),
        "queue_depth": host.queue_depth(),
    }


@pytest.mark.parametrize("kind", ["node", "node-control"])
def test_one_script_ends_the_same_through_every_door(kind):
    expected, got = drive("simulator"), drive(kind)
    assert got == expected
    # ... and the script did something: a0 renamed, a1 left with s1.
    assert [str(p) for p in expected["attributes"]] == ["job/renamed"]
    assert [len(p) for p in expected["probes"]] == [1, 1]
    assert expected["delivered"] == {"send": 1, "direct": 1}
    assert (expected["parked"], expected["queue_depth"]) == (1, 0)


def test_reply_shapes_the_launcher_reads():
    """``{"address": ...}`` from the two creates, ``True`` from a verb
    that returns nothing, the value itself from a query."""
    request, _call = control_door(NodeRuntime(0, {0: 1}, trace=False))

    def value(cmd, **args):
        return request({"id": 1, "cmd": cmd, "args": args})["value"]

    space = value("create_space", attributes="svc/db")
    actor = value("create_actor", behavior="counter",
                  visible={"attributes": "w/0", "space": space["address"]})
    assert set(space) == set(actor) == {"address"}
    for verb, args in [
            ("change_attributes", {"target": actor["address"],
                                   "attributes": "w/1",
                                   "space": space["address"]}),
            ("send", {"destination": "w/*", "payload": 1}),
            ("destroy_space", {"address": space["address"]})]:
        assert value(verb, **args) is True
    assert value("resolve", pattern="**") == []


class TestControlRefusals:
    def refusal(self, payload):
        request, _call = control_door(NodeRuntime(0, {0: 1, 1: 2}, trace=False))
        reply = request(payload)
        assert reply["ok"] is False and "value" not in reply
        return reply

    def test_a_payload_that_is_not_a_mapping(self):
        reply = self.refusal(["make_visible"])
        assert reply["id"] is None
        assert "control payload must be a mapping" in reply["error"]

    def test_an_unknown_verb(self):
        reply = self.refusal({"id": 4, "cmd": "make_tea", "args": {}})
        assert reply["id"] == 4
        assert "unknown control command 'make_tea'" in reply["error"]

    def test_a_missing_argument(self):
        reply = self.refusal({"id": 5, "cmd": "make_visible",
                              "args": {"attributes": "a/b"}})
        assert reply["error"].startswith("TypeError")
        assert "target" in reply["error"]

    @pytest.mark.parametrize("verb, args", [
        ("make_visible", {"target": None, "attributes": "a/b"}),
        ("destroy_space", {"address": None}),
        ("create_actor", {"behavior": "counter"}),
        ("resolve", {"pattern": "**"}),
    ])
    def test_a_verb_aimed_at_a_node_that_is_not_local(self, verb, args):
        reply = self.refusal({"id": 6, "cmd": verb,
                              "args": {**args, "node": 1}})
        assert reply["error"].startswith("ValueError")
        assert "node 1 is not local" in reply["error"]


class TestScrape:
    """One scrape verb, one dump: every number in a reply is read when
    the reply is built, from the one place it lives."""

    def scraper(self, **kw):
        runtime = NodeRuntime(0, {0: 1, 1: 2}, trace=False, **kw)
        request, _call = control_door(runtime)

        def ask(cmd, **args):
            reply = request({"id": 2, "cmd": cmd, "args": args})
            assert reply["ok"], reply
            return reply["value"]

        return runtime, ask

    def test_the_first_scrape_and_the_very_next_one_are_current(self):
        runtime, ask = self.scraper()
        first = ask("snapshot", events=False)
        # The hub's numbers are in a reply once: its section *is* the
        # registry's ``hub`` source, and no gauge mirrors it.
        assert "hub" not in first["metrics"]
        assert not [k for k in first["metrics"] if k.startswith("wire_")]
        live = runtime.metrics.snapshot()["hub"]
        for key in ("send_buffer_bytes", "queue_peak_bytes",
                    "ctrl_buffer_bytes", "credit"):
            assert first["hub"][key] == live[key], key
        assert first["hub"]["send_buffer_bytes"] == 0
        assert first["status"]["credit_stalls"] \
            == first["hub"]["credit"]["stalls"] == 0

        # Queue a frame on a link to node 1 that nothing drains, count a
        # stall and a suppressed beacon: the very next scrape shows all.
        class Writer:
            def is_closing(self):
                return False

        link = PeerLink(1, "node", None, Writer())
        runtime.hub.links[1] = link
        assert runtime.hub._enqueue(link, b"x" * 100)
        runtime.hub.credit_stalls += 1
        runtime.heartbeats_suppressed += 3
        runtime.send_to(runtime.create_actor(sink), "queued, not run")
        nxt = ask("snapshot", events=False)
        assert nxt["hub"]["send_buffer_bytes"] == 100
        assert nxt["hub"]["queue_peak_bytes"] == 100
        assert nxt["hub"]["credit"]["stalls"] == 1
        assert nxt["hub"]["links_up"] == 1
        assert nxt["metrics"]["heartbeats_suppressed"] == 3
        assert nxt["metrics"]["in_flight"] == 1
        for view in (nxt["status"], ask("status")):
            assert view["credit_stalls"] == 1
            assert view["heartbeats_suppressed"] == 3
            assert view["in_flight"] == 1
            assert view["links"] == [1]
        assert not hasattr(runtime, "metrics_snapshot")

    def test_the_event_window_of_the_one_verb(self):
        runtime = NodeRuntime(0, {0: 1}, trace=True)
        request, _call = control_door(runtime)

        def scrape(**args):
            return request({"id": 3, "cmd": "snapshot", "args": args})["value"]

        for i in range(6):
            runtime.send_to(runtime.create_actor(sink), i)
        pump(runtime)
        total = runtime.event_log.emitted_count
        assert total > 6
        everything = scrape()
        assert len(everything["events"]) == everything["next_seq"] == total
        assert everything["events_missed"] == 0
        assert everything["events_total"] == total
        page = scrape(since_seq=2, max_events=3)
        assert [e["seq"] for e in page["events"]] == [2, 3, 4]
        assert page["next_seq"] == 5
        assert scrape(since_seq=total)["events"] == []
        assert scrape(since_seq=total)["next_seq"] == total
        none = scrape(events=False, since_seq=4)
        assert (none["events"], none["next_seq"], none["events_missed"]) \
            == ([], 4, 0)
        # Exactly one verb hands out events; the second one is gone.
        assert "telemetry" not in runtime._control_handlers
        refused = request({"id": 3, "cmd": "telemetry", "args": {}})
        assert not refused["ok"] and "unknown control command" in refused["error"]

    def test_the_keys_the_benchmark_binds(self, tmp_path):
        """``benchmarks/perf`` reads these by name over the control
        plane and off the simulator; an observability change that moves
        one must fail here, not in the benchmark."""
        runtime, ask = self.scraper(breaker_threshold=64,
                                    data_dir=str(tmp_path))
        status = ask("status")
        assert set(status) >= {
            "applied_seq", "mailbox_shed", "frames_shed", "admission",
            "heartbeats_suppressed", "shards", "links", "confirmed_down",
            "store"}
        assert {k for k in status["admission"] if "rejected" in k} \
            == {"rejected_rate", "rejected_breaker"}
        assert set(status["store"]) >= {"fsyncs", "ops_appended",
                                        "bytes_written", "ops_per_fsync"}
        scrape = ask("snapshot", events=False)
        assert set(scrape["metrics"]) >= {"resolution_cache_hits_total",
                                          "resolution_cache_misses_total"}
        assert scrape["metrics"]["store"] == status["store"]
        assert scrape["status"].keys() == status.keys()
        hub = scrape["hub"]
        assert set(hub) >= {"frames_in", "frames_out", "bytes_out", "writes",
                            "frames_shed", "queue_peak_bytes"}
        assert "stalls" in hub["credit"]
        assert set(hub["stage_latency"]["send_queue"]) >= {"count", "p50",
                                                           "p95"}
        assert "queued" in ask("dlq")
        for store in runtime._stores:
            store.close()

        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0,
                                  trace=False, shards=2, admission_rate=5.0)
        assert set(system.resolution_cache_stats()) >= {"hits", "misses"}
        assert {k for k in system.admission.metrics() if "rejected" in k}
        assert system.dead_letters.queued_total == 0
        assert system.replicas_coherent()

    def test_a_terminated_actor_is_forgotten_and_its_sheds_still_count(self):
        """``actors`` counts live actors, ``mailbox_shed`` is cumulative
        (it must not drop when an actor that shed mail dies), and
        ``actor_state`` on a dead actor answers as for an unknown one."""
        runtime, ask = self.scraper(mailbox_capacity=1,
                                    mailbox_policy="drop-newest")

        def quits(ctx, message):
            if message.payload == "quit":
                ctx.terminate()

        live = ask("status")["actors"]
        actor = runtime.create_actor(quits)
        for n in range(4):
            runtime.send_to(actor, n)
        pump(runtime)
        status = ask("status")
        shed = status["mailbox_shed"]
        assert shed > 0 and status["actors"] == live + 1
        assert runtime.dead_letters.queued_total >= shed
        runtime.send_to(actor, "quit")
        pump(runtime)
        status = ask("status")
        assert status["actors"] == live
        assert status["mailbox_shed"] == shed
        request, _call = control_door(runtime)
        reply = request({"id": 3, "cmd": "actor_state",
                         "args": {"address": actor, "attrs": []}})
        assert not reply["ok"] and "no such actor" in reply["error"]
