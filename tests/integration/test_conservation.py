"""Conservation laws: no message is silently lost.

Every envelope entering the system must be accounted for at quiescence:
delivered, still parked (suspended/persistent), or dropped with a counted
reason.  The property test drives random workloads — including pattern
traffic with partial registration, terminations, and crashes — and
checks the books balance.  This is the strongest statement of "delivery
is guaranteed to eventually happen" (section 5.6) the tracer can make.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import Mode
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem

N_NODES = 3


def _parked(system):
    suspended = sum(len(c.suspended) for c in system.coordinators)
    persistent = sum(len(c.persistent) for c in system.coordinators)
    return suspended, persistent


actions = st.lists(
    st.tuples(
        st.sampled_from(
            ["spawn", "show", "direct", "send", "broadcast", "kill", "run"]
        ),
        st.integers(0, 9),
        st.integers(0, N_NODES - 1),
    ),
    min_size=5,
    max_size=50,
)


@given(actions, st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_direct_sends_fully_accounted(schedule, seed):
    system = ActorSpaceSystem(topology=Topology.lan(N_NODES), seed=seed)
    actors = []
    for kind, idx, node in schedule:
        if kind == "spawn":
            actors.append(system.create_actor(lambda ctx, m: None, node=node))
        elif kind == "show" and actors:
            system.make_visible(actors[idx % len(actors)], f"g/a{idx}")
        elif kind == "direct" and actors:
            system.send_to(actors[idx % len(actors)], ("m", idx))
        elif kind == "send":
            system.send(f"g/a{idx}", ("p", idx))
        elif kind == "broadcast":
            system.broadcast("g/**", ("b", idx))
        elif kind == "kill" and actors:
            target = actors[idx % len(actors)]
            system.coordinators[target.node].terminate_actor(target)
        elif kind == "run":
            system.run(max_events=40)
    system.run()
    tracer = system.tracer

    # DIRECT conservation: every direct send was delivered or dropped for
    # a counted reason (dead letter; no crashes in this workload).
    direct_out = tracer.delivered[Mode.DIRECT] + tracer.dropped["dead_letter"]
    assert tracer.sent[Mode.DIRECT] <= direct_out + tracer.dropped["node_down"]

    # SEND conservation: one delivery per send, except those still parked.
    suspended_now, _persistent_now = _parked(system)
    sends_settled = tracer.sent[Mode.SEND] + tracer.sent[Mode.BROADCAST]
    # Parked messages were counted suspended exactly once each.
    assert tracer.count("messages_suspended_total") >= suspended_now
    # Every released suspension ended in >= 1 delivery or a drop.
    assert tracer.count("messages_released_total") \
        <= tracer.count("messages_suspended_total")

    # Global sanity: nothing remains in flight at quiescence.
    assert not system.in_flight
    assert system.idle


@given(st.integers(1, 30), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_broadcast_delivers_to_every_visible_member(n_messages, seed):
    """With a fully registered group and no failures, broadcast delivery
    count is exactly members x messages."""
    system = ActorSpaceSystem(topology=Topology.lan(N_NODES), seed=seed)
    members = 4
    for i in range(members):
        addr = system.create_actor(lambda ctx, m: None, node=i % N_NODES)
        system.make_visible(addr, f"grp/m{i}")
    system.run()
    for i in range(n_messages):
        system.broadcast("grp/*", i)
    system.run()
    assert system.tracer.delivered[Mode.BROADCAST] == members * n_messages
    assert system.tracer.dropped.total() == 0


@given(st.integers(1, 40), st.floats(0.0, 0.6), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_lossy_transport_still_delivers_everything(n, loss, seed):
    """Eventual delivery survives any sub-unity loss rate."""
    system = ActorSpaceSystem(topology=Topology.lan(2), seed=seed, loss=loss)
    got = []
    addr = system.create_actor(lambda ctx, m: got.append(m.payload), node=1)
    for i in range(n):
        system.send_to(addr, i)
    system.run()
    assert sorted(got) == list(range(n))
