#!/usr/bin/env python
"""Quickstart: the ActorSpace paradigm in five small scenes.

Run:  python examples/quickstart.py

Covers, in order:
  1. actors and point-to-point sends (the classic actor model);
  2. visibility + pattern-directed send/broadcast (the paper's additions);
  3. nondeterministic choice over a replicated group;
  4. suspension: a message sent before any receiver exists is parked and
     delivered once a matching actor appears (section 5.6);
  5. capabilities: visibility changes need the right key (section 5.4).
"""

from repro import ActorSpaceSystem, CapabilityError, Topology


def main() -> None:
    system = ActorSpaceSystem(topology=Topology.lan(3), seed=2026)
    log: list[str] = []

    # -- 1. plain actors ---------------------------------------------------
    def echo(ctx, message):
        log.append(f"[echo] got {message.payload!r}")
        if message.reply_to is not None:
            ctx.send_to(message.reply_to, ("echoed", message.payload))

    echo_addr = system.create_actor(echo, node=1)
    sink = system.create_actor(lambda ctx, m: log.append(f"[sink] {m.payload!r}"))
    system.send_to(echo_addr, "hello", reply_to=sink)
    system.run()

    # -- 2. visibility and patterns -----------------------------------------
    def printer(name):
        def behavior(ctx, message):
            log.append(f"[{name}] prints {message.payload!r}")
        return behavior

    color = system.create_actor(printer("color"), node=1)
    mono = system.create_actor(printer("mono"), node=2)
    system.make_visible(color, "services/printer/color")
    system.make_visible(mono, "services/printer/mono")
    system.run()

    system.send("services/printer/color", "one page, in color")
    system.broadcast("services/printer/*", "test sheet for every printer")
    system.run()

    # -- 3. replicated group, client oblivious to membership ----------------
    hits = {"a": 0, "b": 0, "c": 0}

    def replica(tag):
        def behavior(ctx, message):
            hits[tag] += 1
        return behavior

    for tag in hits:
        addr = system.create_actor(replica(tag))
        system.make_visible(addr, f"services/kv/{tag}")
    system.run()
    for i in range(60):
        system.send("services/kv/*", ("get", i))
    system.run()
    log.append(f"[group] 60 sends split across replicas as {hits}")

    # -- 4. suspension: send before the receiver exists ---------------------
    system.send("services/translator", "bonjour")  # nobody matches yet
    system.run()
    suspended = system.tracer.count("messages_suspended_total")
    log.append(f"[suspend] message parked: {suspended} suspended so far")
    translator = system.create_actor(
        lambda ctx, m: log.append(f"[translator] late delivery of {m.payload!r}"))
    system.make_visible(translator, "services/translator")
    system.run()

    # -- 5. capabilities -----------------------------------------------------
    key = system.new_capability()
    vault = system.create_space(capability=key)
    system.run()  # the new space's record propagates to every replica
    secret = system.create_actor(lambda ctx, m: None)
    try:
        system.make_visible(secret, "agents/secret", vault)  # no key!
    except CapabilityError:
        log.append("[caps] visibility without the key: refused")
    system.make_visible(secret, "agents/secret", vault, capability=key)
    system.run()
    entry = system.directory_of(0).space(vault).lookup(secret)
    log.append(f"[caps] with the key: accepted ({sorted(map(str, entry.attributes))})")

    print("\n".join(log))
    print(f"\nreplicas coherent across nodes: {system.replicas_coherent()}")
    print(f"virtual time elapsed: {system.clock.now:.3f}")


if __name__ == "__main__":
    main()
