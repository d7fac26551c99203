"""Execution substrate: deterministic simulation of the section-7 design."""

from .bus import Bus, OpKind, SequencerBus, TokenRingBus, VisibilityOp
from .clock import VirtualClock
from .context import RuntimeContext
from .coordinator import Coordinator
from .eventlog import (
    EventLog,
    JsonlSink,
    TraceEvent,
    chrome_trace,
    export_chrome_trace,
    validate_chrome_trace,
)
from .events import EventQueue
from .failure import DeadLetter, DeadLetterQueue, FailureDetector
from .host import Host
from .metrics import (
    CounterMetric,
    HistogramMetric,
    LabeledCounter,
    MetricsRegistry,
)
from .network import LatencyModel, LinkKind, Network, Topology
from .rng import RngHub
from .system import ActorSpaceSystem
from .tracing import Tracer
from .transport import (
    InstantTransport,
    LossyTransport,
    NetworkTransport,
    Transport,
)

__all__ = [
    "ActorSpaceSystem",
    "Bus",
    "Coordinator",
    "CounterMetric",
    "DeadLetter",
    "DeadLetterQueue",
    "EventLog",
    "EventQueue",
    "FailureDetector",
    "HistogramMetric",
    "Host",
    "JsonlSink",
    "LabeledCounter",
    "MetricsRegistry",
    "TraceEvent",
    "InstantTransport",
    "LatencyModel",
    "LinkKind",
    "LossyTransport",
    "Network",
    "NetworkTransport",
    "OpKind",
    "RngHub",
    "RuntimeContext",
    "SequencerBus",
    "TokenRingBus",
    "Topology",
    "Tracer",
    "Transport",
    "chrome_trace",
    "export_chrome_trace",
    "validate_chrome_trace",
    "VirtualClock",
    "VisibilityOp",
]
