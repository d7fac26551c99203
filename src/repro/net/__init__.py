"""Real wire transport: multi-process ActorSpace nodes over TCP.

The simulator models section 7.3's inter-node coordinator bus as latency
draws inside one process.  This package is the bridge from simulator to
system: each Node runs as its own OS process and exchanges real bytes
over loopback (or LAN) TCP, while reusing the exact same coordinator,
directory, failure-detector, and dead-letter machinery the simulation
exercises.  The in-process simulated transports remain the default
everywhere; nothing here is imported unless a cluster is requested.

Modules
-------
``codec``
    Versioned, length-prefixed binary framing plus deterministic
    serialization for every on-the-wire type (envelopes, patterns,
    attribute atoms, addresses, capability tokens, visibility ops, bus
    frames, heartbeats, control requests).
``peer``
    One asyncio TCP server plus per-peer dialers with handshake
    (protocol + schema version check), capped-backoff reconnect, and
    graceful drain on shutdown.
``remote``
    ``TcpTransport`` (the :class:`~repro.runtime.transport.Transport`
    interface over real sockets; the simulator's failure detector runs
    over it, driven by real missed heartbeats) and ``RemoteSequencerBus``
    (the driver of ``runtime.sequencer.SequencerCore`` that speaks frames).
``runtime``
    ``NodeRuntime`` — the per-process :class:`~repro.runtime.host.Host`
    of one real :class:`~repro.runtime.coordinator.Coordinator`, with
    proxies standing in for every remote node.
``cluster``
    The ``python -m repro serve`` / ``python -m repro cluster`` entry
    points: spawn N node processes on localhost, drive an example
    across them, inject failures, and collect per-node metrics and
    eventlog snapshots back to the launcher.
"""

from .codec import (  # noqa: F401
    PROTOCOL_VERSION,
    SCHEMA_VERSION,
    FrameDecoder,
    FrameKind,
    WireError,
    decode_value,
    encode_frame,
    encode_value,
    register_manager_factory,
    register_wire_type,
)
from .remote import RemoteSequencerBus, TcpTransport  # noqa: F401
