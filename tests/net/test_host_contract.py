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
