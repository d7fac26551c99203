"""E13 — Figure 2 / section 7.2: the single-node interpreter pipeline.

Claims regenerated:
* interpreted behaviors run the same coordination primitives as native
  ones (a ping-pong rally and a counter in both);
* the port discipline matches Figure 2 (invocations on the
  Invocation-port, ``become`` on the Behavior-port, ``create`` replies on
  the RPC-port) — reported as counted traffic;
* interpretation overhead: host-time per invocation, interpreted vs
  native Python behaviors.
"""

import time

from repro.core.actor import Behavior
from repro.interp import BehaviorLibrary, InterpretedBehavior
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem
from repro.util import TextTable

from .common import emit

SCRIPTS = """
(behavior s-counter (count)
  (method incr (by) (become s-counter (+ count by)))
  (method query () (send-to (reply-addr) count)))

(behavior s-ponger ()
  (method ping (n from) (send-to from (list "pong" n))))

(behavior s-pinger (peer remaining)
  (method start () (send-to peer (list "ping" remaining (self))))
  (method pong (n)
    (if (> remaining 1)
        (begin
          (become s-pinger peer (- remaining 1))
          (send-to peer (list "ping" (- remaining 1) (self))))
        nil)))

(behavior s-spawner ()
  (method go (n)
    (for i (range n)
      (create s-ponger))))

(behavior s-cruncher ()
  (method spin (n)
    (define total 0)
    (define i 0)
    (while (< i n)
      (set! total (+ total (* i i)))
      (set! i (+ i 1)))
    total))
"""


class NativeCruncher(Behavior):
    def receive(self, ctx, message):
        _kind, n = message.payload
        total = 0
        for i in range(n):
            total += i * i


class NativeCounter(Behavior):
    def __init__(self, count=0):
        self.count = count

    def receive(self, ctx, message):
        kind, *rest = message.payload
        if kind == "incr":
            self.count += rest[0]
        elif kind == "query":
            ctx.send_to(message.reply_to, self.count)


def _counter_run(kind, n_messages):
    system = ActorSpaceSystem(topology=Topology.single(), seed=0)
    if kind == "native":
        actor = system.create_actor(NativeCounter())
        payloads = [("incr", 1)] * n_messages
    else:
        lib = BehaviorLibrary()
        lib.load(SCRIPTS)
        engine = "bytecode" if kind == "bytecode" else "tree"
        actor = system.create_actor(
            InterpretedBehavior(lib, lib.get("s-counter"), [0], engine=engine))
        payloads = [["incr", 1]] * n_messages
    t0 = time.perf_counter()
    for p in payloads:
        system.send_to(actor, p)
    system.run()
    elapsed = time.perf_counter() - t0
    return elapsed / n_messages * 1e6  # host microseconds per invocation


def test_bench_e13_interp(benchmark):
    overhead = TextTable(
        ["behavior kind", "host us/invocation", "vs native"],
        title="E13a: interpretation overhead — counter, 2000 invocations "
              "(tree walker vs the §7 'future' byte-compiler)",
    )
    native = _counter_run("native", 2000)
    tree = _counter_run("tree", 2000)
    compiled = _counter_run("bytecode", 2000)
    overhead.add_row(["native (Python)", native, 1.0])
    overhead.add_row(["interpreted (tree walker)", tree, tree / native])
    overhead.add_row(["compiled (closures)", compiled, compiled / native])

    crunch = TextTable(
        ["behavior kind", "host ms for spin(3000)", "vs tree walker"],
        title="E13a': compute-heavy method — where the byte-compiler pays off",
    )
    results = {}
    for kind in ("native", "tree", "bytecode"):
        system = ActorSpaceSystem(topology=Topology.single(), seed=0)
        if kind == "native":
            actor = system.create_actor(NativeCruncher())
        else:
            lib = BehaviorLibrary()
            lib.load(SCRIPTS)
            actor = system.create_actor(
                InterpretedBehavior(lib, lib.get("s-cruncher"), [],
                                    engine=kind))
        t0 = time.perf_counter()
        system.send_to(actor, ["spin", 3000])
        system.run()
        results[kind] = (time.perf_counter() - t0) * 1e3
    for kind, label in (("native", "native (Python)"),
                        ("tree", "interpreted (tree walker)"),
                        ("bytecode", "compiled (closures)")):
        crunch.add_row([label, results[kind],
                        results[kind] / results["tree"]])

    # Port discipline on a rally + spawner.
    system = ActorSpaceSystem(topology=Topology.lan(2), seed=0)
    lib = BehaviorLibrary()
    lib.load(SCRIPTS)
    ponger = system.create_actor(
        InterpretedBehavior(lib, lib.get("s-ponger"), []), node=1)
    pinger = system.create_actor(
        InterpretedBehavior(lib, lib.get("s-pinger"), [ponger, 5]))
    spawner = system.create_actor(
        InterpretedBehavior(lib, lib.get("s-spawner"), []))
    system.send_to(pinger, ["start"])
    system.run()
    system.send_to(spawner, ["go", 3])
    system.run()

    ports = TextTable(
        ["actor", "invocation port", "behavior port", "rpc port"],
        title="E13b: Figure-2 port traffic",
    )
    for name, addr in (("pinger (5-rally)", pinger),
                       ("ponger", ponger),
                       ("spawner (3 creates)", spawner)):
        pc = system.actor_record(addr).behavior.ports
        ports.add_row([name, pc.invocation, pc.behavior, pc.rpc])
    emit("e13_interp", overhead, crunch, ports)
    benchmark(lambda: _counter_run(True, 200))
