"""E6 — section 5.6: the semantics of unmatched pattern messages.

The paper enumerates the options — suspend (its default), discard, raise
an error, or (for broadcasts) persist so future matches receive the
message exactly once.  The experiment drives a late-binding workload
under every policy and reports delivery counts, and sweeps the arrival
delay to show suspension cost is independent of how late the match is.
"""

import pytest

from repro.core.errors import NoMatchError
from repro.core.manager import SpaceManager, UnmatchedPolicy
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem
from repro.util import TextTable

from .common import emit

SEED = 6


def _run_policy(policy, senders=10, waves=2):
    """Send before any receiver exists; receivers arrive in waves."""
    system = ActorSpaceSystem(
        topology=Topology.lan(2), seed=SEED,
        root_manager_factory=lambda: SpaceManager(unmatched=policy),
    )
    errors = 0
    for i in range(senders):
        try:
            system.broadcast("late/**", ("msg", i))
        except NoMatchError:
            errors += 1
    system.run()
    received = []
    for wave in range(waves):
        got = []
        addr = system.create_actor(lambda ctx, m, g=got: g.append(m.payload))
        system.make_visible(addr, f"late/w{wave}")
        system.run()
        received.append(len(got))
    return {
        "suspended": system.tracer.count("messages_suspended_total"),
        "released": system.tracer.count("messages_released_total"),
        "discarded": system.tracer.dropped.get("unmatched_discarded", 0),
        "errors": errors,
        "wave_deliveries": received,
        "persistent": system.tracer.count("persistent_deliveries_total"),
    }


def test_bench_e6_suspension(benchmark):
    policies = TextTable(
        ["policy", "parked", "wave-1 got", "wave-2 got", "discarded",
         "errors", "late deliveries"],
        title="E6a: 10 broadcasts before any receiver; two receiver waves",
    )
    for policy in (UnmatchedPolicy.SUSPEND, UnmatchedPolicy.DISCARD,
                   UnmatchedPolicy.ERROR, UnmatchedPolicy.PERSISTENT):
        r = _run_policy(policy)
        policies.add_row([
            policy.value, r["suspended"], r["wave_deliveries"][0],
            r["wave_deliveries"][1], r["discarded"], r["errors"],
            r["persistent"],
        ])

    delay = TextTable(
        ["arrival delay", "messages parked", "delivered", "delivery time"],
        title="E6b: suspension cost vs receiver lateness (default policy)",
    )
    for arrival in (0.5, 5.0, 50.0):
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=SEED)
        got = []
        system.send("svc/late", "hello")
        system.run()

        def arrive():
            addr = system.create_actor(
                lambda ctx, m: got.append(ctx.now), node=1)
            system.make_visible(addr, "svc/late")

        system.events.schedule(arrival, arrive)
        system.run()
        delay.add_row([
            arrival, system.tracer.count("messages_suspended_total"), len(got),
            got[0] if got else "-",
        ])
    emit("e6_suspension", policies, delay)
    benchmark(lambda: _run_policy(UnmatchedPolicy.SUSPEND))
