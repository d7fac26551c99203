"""Wire codec: deterministic binary serialization + length-prefixed frames.

Everything that crosses a socket between two node processes goes through
this module: envelopes and their messages, patterns, attribute paths,
mail addresses, capability tokens, visibility ops, bus protocol payloads,
heartbeats, and control requests.

Design rules
------------
* **Deterministic** — encoding the same value always yields the same
  bytes.  Sets are sorted by their encoded form, dict insertion order is
  preserved (both sides use the same construction order), floats are
  IEEE-754 big-endian.  Determinism is what lets the conformance sweep
  compare a TCP cluster against the single-process oracle byte-for-byte.
* **Versioned** — every connection handshake carries
  (:data:`PROTOCOL_VERSION`, :data:`SCHEMA_VERSION`).  The protocol
  version covers framing; the schema version covers the tag table below.
  A peer that disagrees on either is rejected before any payload flows.
* **Closed-world** — only the tag table below is decodable.  Unknown
  Python objects raise :class:`WireError` at *encode* time (never pickle,
  never eval), and unknown tags raise at decode time.  Application
  payload types opt in explicitly via :func:`register_wire_type`.

Frame layout: ``u32 length | u8 frame-kind | body`` where ``length``
counts the kind byte plus the body.  Frames above :data:`MAX_FRAME_BYTES`
are refused on both sides (a corrupt length prefix must not make a
receiver allocate gigabytes).

Value layout: one tag byte followed by tag-specific content.  Containers
nest recursively.  Integers are arbitrary-precision (length-prefixed
big-endian two's complement), so op ids rebased to ``node << 44`` and
ids of any width in payloads ride the same path.

The one exception is the unit of transmission.  An ``Envelope`` (tag
``V``, its ``Message`` inlined) is a *packed record*: a fixed head, the
optional fixed-width fields its presence flags announce, and only the
open-ended fields — destination, payload, headers (flagged: omitted when
empty) — as ordinary tagged values.  In wire order::

    head          u16 flags | u8 mode | u8 port | u16 hop count | f64 sent_at
                  | i64 envelope_id | i64 trace_id | i64 parent_id | i64 message_id
    delivered_at  f64
    sender, target, message.reply_to, origin_space
                  u32 node | u64 serial each (a flag holds the target's kind,
                  actor or space; the other three have one type)
    hops          u32 each

A field that does not fit its width or type is a :class:`WireError` at
encode time, never a wrap; an unknown flag bit, a bad mode or port index
or a record cut short is one at decode time.

Decode-only tags: ``E``, the schema-2 envelope (every field a tagged
value).  Stores and snapshots written before schema 3 hold dead-letter
captures in it, so it is still read; nothing writes it.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
from typing import Any, Callable

from repro.core.addresses import ActorAddress, MailAddress, SpaceAddress
from repro.core.atoms import AttributePath
from repro.core.capabilities import Capability
from repro.core.messages import Destination, Envelope, Message, Mode, Port
from repro.core.patterns import Pattern, parse_pattern
from repro.runtime.bus import OpKind, VisibilityOp

PROTOCOL_VERSION = 7  # v7: SYNC_REQ/SYNC_DONE carry the asker's adoption round
SCHEMA_VERSION = 3    # v3: Envelope is one packed record (tag ``V``); ``E`` is decode-only

#: Hard ceiling on a single frame (length prefix included payload).
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Handshake magic: the first field of every HELLO payload.
WIRE_MAGIC = "actorspace"

_U8 = struct.Struct("!B")
_U32 = struct.Struct("!I")
_F64 = struct.Struct("!d")
#: The packed envelope's fixed head and its mail-address slot (see "Value layout").
_ENV_HEAD = struct.Struct("!HBBHdqqqq")
_ENV_ADDR = struct.Struct("!IQ")
_ENV_BLANK_HEAD = bytes(_ENV_HEAD.size)


class WireError(Exception):
    """Raised on any encode/decode failure (unknown type, corrupt bytes)."""


class FrameKind(enum.IntEnum):
    """Every frame that may appear on a node-to-node or control link."""

    HELLO = 1        #: handshake request: versions + identity
    WELCOME = 2      #: handshake accepted
    REJECT = 3       #: handshake refused (version/cluster mismatch)
    BYE = 4          #: graceful drain: no more frames will follow
    HEARTBEAT = 5    #: liveness beacon, feeds the failure detector
    ENVELOPE = 6     #: a routed application envelope
    BUS_OP = 8       #: sequencer -> all: globally sequenced visibility op
    SYNC_REQ = 10    #: replica -> replica: replay your log from seq
    CONTROL = 11     #: launcher -> node: control-plane request
    REPLY = 12       #: node -> launcher: control-plane response
    BATCH = 13       #: N coalesced frames in one length-prefixed envelope
    CREDIT = 14      #: receiver -> sender: data-frame flow-control grant
    SHARD_FWD = 15   #: origin -> sequencer: order this op (credit-controlled data)
    SYNC_DONE = 16   #: end of a SYNC_REQ replay: how far the replier's order goes


# -- enum index tables (wire-stable: append-only) -------------------------------

_MODES = (Mode.DIRECT, Mode.SEND, Mode.BROADCAST)
_PORTS = (Port.BEHAVIOR, Port.INVOCATION, Port.RPC)
_OP_KINDS = (
    OpKind.ADD_SPACE,
    OpKind.DESTROY_SPACE,
    OpKind.MAKE_VISIBLE,
    OpKind.MAKE_INVISIBLE,
    OpKind.CHANGE_ATTRIBUTES,
    OpKind.BIND_CAPABILITY,
    OpKind.PURGE,
)
_OP_KIND_INDEX = {k: i for i, k in enumerate(_OP_KINDS)}

#: Presence flags of the packed envelope record (wire-stable: append-only).
_ENV_FLAGS = (_ENV_DELIVERED_AT, _ENV_SENDER, _ENV_TARGET, _ENV_TARGET_IS_SPACE,
              _ENV_REPLY_TO, _ENV_ORIGIN_SPACE, _ENV_PARENT_ID,
              _ENV_HEADERS) = tuple(1 << bit for bit in range(8))
_ENV_KNOWN_FLAGS = sum(_ENV_FLAGS)


# -- registries -----------------------------------------------------------------

#: Application dataclasses allowed in payloads, by wire name.
_WIRE_TYPES: dict[str, type] = {}
_WIRE_TYPE_NAMES: dict[type, str] = {}

#: Space-manager factories referenced by ADD_SPACE ops, by wire name.
_MANAGER_FACTORIES: dict[str, Callable] = {}
_MANAGER_FACTORY_NAMES: dict[Callable, str] = {}


def register_wire_type(cls: type, name: str | None = None) -> type:
    """Allow instances of dataclass ``cls`` inside wire payloads.

    The registration must happen on *both* sides of the connection (node
    processes and the launcher import the same registry module, so this
    is automatic for shipped behaviors).  Returns ``cls`` so it can be
    used as a decorator.
    """
    if not dataclasses.is_dataclass(cls):
        raise WireError(f"wire types must be dataclasses: {cls!r}")
    wire_name = name or cls.__name__
    existing = _WIRE_TYPES.get(wire_name)
    if existing is not None and existing is not cls:
        raise WireError(f"wire type name {wire_name!r} already registered")
    _WIRE_TYPES[wire_name] = cls
    _WIRE_TYPE_NAMES[cls] = wire_name
    return cls


def register_manager_factory(name: str, factory: Callable) -> None:
    """Name a space-manager factory so ADD_SPACE ops can reference it."""
    _MANAGER_FACTORIES[name] = factory
    _MANAGER_FACTORY_NAMES[factory] = name


def _register_default_factories() -> None:
    from repro.core.manager import SpaceManager, default_manager

    register_manager_factory("default", default_manager)
    register_manager_factory("space-manager", SpaceManager)


_register_default_factories()


# -- value encoding -------------------------------------------------------------

def _enc_int(out: bytearray, value: int) -> None:
    data = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
    out += _U32.pack(len(data))
    out += data


def _enc_str(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    out += _U32.pack(len(data))
    out += data


def _enc_float(out: bytearray, obj: float) -> None:
    out += b"f"
    out += _F64.pack(obj)


def _enc_text(out: bytearray, obj: str) -> None:
    out += b"s"
    _enc_str(out, obj)


def _enc_bytes(out: bytearray, obj: bytes) -> None:
    out += b"y"
    out += _U32.pack(len(obj))
    out += obj


def _enc_list(out: bytearray, obj: list) -> None:
    out += b"l"
    out += _U32.pack(len(obj))
    for item in obj:
        _enc(out, item)


def _enc_tuple(out: bytearray, obj: tuple) -> None:
    out += b"t"
    out += _U32.pack(len(obj))
    for item in obj:
        _enc(out, item)


def _enc_set(out: bytearray, obj: "set | frozenset") -> None:
    # Deterministic: members sorted by their own encoding.
    out += b"S"
    encoded = sorted(encode_value(item) for item in obj)
    out += _U32.pack(len(encoded))
    for item in encoded:
        out += item


def _enc_dict(out: bytearray, obj: dict) -> None:
    out += b"d"
    out += _U32.pack(len(obj))
    for key, value in obj.items():
        _enc(out, key)
        _enc(out, value)


def _enc_space_address(out: bytearray, obj: SpaceAddress) -> None:
    out += b"z"
    _enc_int(out, obj.node)
    _enc_int(out, obj.serial)


def _enc_actor_address(out: bytearray, obj: ActorAddress) -> None:
    out += b"a"
    _enc_int(out, obj.node)
    _enc_int(out, obj.serial)


def _enc_attribute_path(out: bytearray, obj: AttributePath) -> None:
    out += b"p"
    out += _U32.pack(len(obj.atoms))
    for atom in obj.atoms:
        _enc_str(out, atom)


def _enc_pattern(out: bytearray, obj: Pattern) -> None:
    # Canonical text form; ``parse_pattern(str(p)) == p`` by design.
    out += b"P"
    _enc_str(out, str(obj))


def _enc_destination(out: bytearray, obj: Destination) -> None:
    out += b"D"
    _enc(out, obj.pattern)
    _enc(out, obj.space)


def _enc_capability(out: bytearray, obj: Capability) -> None:
    out += b"c"
    out += obj.token.to_bytes(16, "big")


def _enc_message(out: bytearray, obj: Message) -> None:
    out += b"M"
    _enc(out, obj.payload)
    _enc(out, obj.reply_to)
    _enc(out, obj.headers)
    _enc_int(out, obj.message_id)


def _enc_envelope(out: bytearray, obj: Envelope) -> None:
    """The packed record (tag ``V``); the only writer of an envelope tag."""
    message, target = obj.message, obj.target
    flags = _ENV_TARGET_IS_SPACE if isinstance(target, SpaceAddress) else 0
    if obj.parent_id is not None:
        flags |= _ENV_PARENT_ID
    if message.headers != {}:
        flags |= _ENV_HEADERS
    out += b"V"
    head = len(out)
    out += _ENV_BLANK_HEAD  # backpatched once the presence flags are known
    try:
        if obj.delivered_at is not None:
            flags |= _ENV_DELIVERED_AT
            out += _F64.pack(obj.delivered_at)
        for flag, kinds, address in (
                (_ENV_SENDER, ActorAddress, obj.sender),
                (_ENV_TARGET, (ActorAddress, SpaceAddress), target),
                (_ENV_REPLY_TO, ActorAddress, message.reply_to),
                (_ENV_ORIGIN_SPACE, SpaceAddress, obj.origin_space)):
            if address is not None:
                if not isinstance(address, kinds):
                    raise WireError(f"envelope field holds {address!r}, "
                                    f"which its packed slot cannot carry")
                flags |= flag
                out += _ENV_ADDR.pack(address.node, address.serial)
        out += struct.pack(f"!{len(obj.trace)}I", *obj.trace)
        _ENV_HEAD.pack_into(
            out, head, flags, _MODES.index(obj.mode), _PORTS.index(obj.port),
            len(obj.trace), obj.sent_at, obj.envelope_id, obj.trace_id,
            obj.parent_id or 0, message.message_id)
    except (struct.error, ValueError) as exc:
        raise WireError(f"envelope #{obj.envelope_id!r}: a field does not "
                        f"fit its wire width ({exc})") from exc
    _enc(out, obj.destination)
    _enc(out, message.payload)
    if flags & _ENV_HEADERS:
        _enc(out, message.headers)


def _enc_visibility_op(out: bytearray, obj: VisibilityOp) -> None:
    out += b"O"
    out += _U8.pack(_OP_KIND_INDEX[obj.kind])
    _enc_int(out, obj.origin_node)
    _enc_int(out, obj.origin_seq)
    _enc_int(out, obj.op_id)
    _enc_int(out, obj.shard)
    _enc(out, obj.tick)
    _enc(out, obj.fan_of)
    _enc(out, obj.args)


def _enc_tagged_int(out: bytearray, obj: int) -> None:
    out += b"i"
    _enc_int(out, obj)


#: Exact-type fast dispatch for the hot path.  ``bool`` is absent on
#: purpose (True/False are identity-checked in :func:`_enc`), and enum
#: ``int`` subclasses never hit the ``int`` entry because dispatch is by
#: ``type(obj)``, not ``isinstance`` — subclasses and registered
#: dataclasses fall through to :func:`_enc_other`.
_ENC_BY_TYPE: dict[type, Callable] = {
    int: _enc_tagged_int,
    float: _enc_float,
    str: _enc_text,
    bytes: _enc_bytes,
    bytearray: _enc_bytes,
    list: _enc_list,
    tuple: _enc_tuple,
    set: _enc_set,
    frozenset: _enc_set,
    dict: _enc_dict,
    SpaceAddress: _enc_space_address,
    ActorAddress: _enc_actor_address,
    AttributePath: _enc_attribute_path,
    Destination: _enc_destination,
    Capability: _enc_capability,
    Message: _enc_message,
    Envelope: _enc_envelope,
    VisibilityOp: _enc_visibility_op,
    Pattern: _enc_pattern,
}


def _enc(out: bytearray, obj: Any) -> None:
    if obj is None:
        out += b"N"
        return
    if obj is True:
        out += b"T"
        return
    if obj is False:
        out += b"F"
        return
    handler = _ENC_BY_TYPE.get(type(obj))
    if handler is not None:
        handler(out, obj)
        return
    _enc_other(out, obj)


def _enc_other(out: bytearray, obj: Any) -> None:
    """Slow path: subclasses of a table type (found by walking the MRO
    through :data:`_ENC_BY_TYPE`), manager factories, and late-registered
    wire dataclasses.  An enum that is also an ``int`` is not an int on
    the wire; ``bool`` never gets here (:func:`_enc` checks identity)."""
    for base in type(obj).__mro__[1:]:
        handler = _ENC_BY_TYPE.get(base)
        if handler is not None and not (base is int
                                        and isinstance(obj, enum.Enum)):
            handler(out, obj)
            return
    if callable(obj) and obj in _MANAGER_FACTORY_NAMES:
        out += b"g"
        _enc_str(out, _MANAGER_FACTORY_NAMES[obj])
    elif type(obj) in _WIRE_TYPE_NAMES:
        out += b"X"
        _enc_str(out, _WIRE_TYPE_NAMES[type(obj)])
        fields = dataclasses.fields(obj)
        out += _U32.pack(len(fields))
        for f in fields:
            _enc_str(out, f.name)
            _enc(out, getattr(obj, f.name))
    else:
        raise WireError(
            f"type not encodable for the wire: {type(obj).__name__} "
            f"({obj!r}); register it with register_wire_type()"
        )


def encode_value(obj: Any) -> bytes:
    """Encode one value to its deterministic byte form."""
    out = bytearray()
    _enc(out, obj)
    return bytes(out)


# -- value decoding -------------------------------------------------------------

def _need(buf: bytes, pos: int, count: int) -> None:
    if pos + count > len(buf):
        raise WireError(f"truncated value: need {count} bytes at offset {pos}")


def _dec_u32(buf: bytes, pos: int) -> tuple[int, int]:
    if pos + 4 > len(buf):
        raise WireError(f"truncated value: need 4 bytes at offset {pos}")
    return _U32.unpack_from(buf, pos)[0], pos + 4


def _dec_int(buf: bytes, pos: int) -> tuple[int, int]:
    body = pos + 4
    if body > len(buf):
        raise WireError(f"truncated value: need 4 bytes at offset {pos}")
    end = body + _U32.unpack_from(buf, pos)[0]
    if end > len(buf):
        raise WireError(f"truncated value: need {end - body} bytes "
                        f"at offset {body}")
    return int.from_bytes(buf[body:end], "big", signed=True), end


def _dec_str(buf: bytes, pos: int) -> tuple[str, int]:
    body = pos + 4
    if body > len(buf):
        raise WireError(f"truncated value: need 4 bytes at offset {pos}")
    end = body + _U32.unpack_from(buf, pos)[0]
    if end > len(buf):
        raise WireError(f"truncated value: need {end - body} bytes "
                        f"at offset {body}")
    try:
        return buf[body:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise WireError(f"invalid utf-8 in string at offset {body}") from exc


def _dec_enum(buf: bytes, pos: int, table: tuple, what: str):
    _need(buf, pos, 1)
    index = buf[pos]
    if index >= len(table):
        raise WireError(f"unknown {what} index {index}")
    return table[index], pos + 1


def _dec_none(buf: bytes, pos: int) -> tuple[None, int]:
    return None, pos


def _dec_true(buf: bytes, pos: int) -> tuple[bool, int]:
    return True, pos


def _dec_false(buf: bytes, pos: int) -> tuple[bool, int]:
    return False, pos


def _dec_float(buf: bytes, pos: int) -> tuple[float, int]:
    _need(buf, pos, 8)
    return _F64.unpack_from(buf, pos)[0], pos + 8


def _dec_bytes(buf: bytes, pos: int) -> tuple[bytes, int]:
    length, pos = _dec_u32(buf, pos)
    _need(buf, pos, length)
    return bytes(buf[pos:pos + length]), pos + length


def _dec_list(buf: bytes, pos: int) -> tuple[list, int]:
    count, pos = _dec_u32(buf, pos)
    items = []
    for _ in range(count):
        item, pos = _dec(buf, pos)
        items.append(item)
    return items, pos


def _dec_tuple(buf: bytes, pos: int) -> tuple[tuple, int]:
    items, pos = _dec_list(buf, pos)
    return tuple(items), pos


def _dec_set(buf: bytes, pos: int) -> tuple[frozenset, int]:
    members, pos = _dec_list(buf, pos)
    return frozenset(members), pos


def _dec_dict(buf: bytes, pos: int) -> tuple[dict, int]:
    count, pos = _dec_u32(buf, pos)
    result = {}
    for _ in range(count):
        key, pos = _dec(buf, pos)
        value, pos = _dec(buf, pos)
        result[key] = value
    return result, pos


def _dec_actor_address(buf: bytes, pos: int) -> tuple[ActorAddress, int]:
    node, pos = _dec_int(buf, pos)
    serial, pos = _dec_int(buf, pos)
    return ActorAddress(node, serial), pos


def _dec_space_address(buf: bytes, pos: int) -> tuple[SpaceAddress, int]:
    node, pos = _dec_int(buf, pos)
    serial, pos = _dec_int(buf, pos)
    return SpaceAddress(node, serial), pos


def _dec_attribute_path(buf: bytes, pos: int) -> tuple[AttributePath, int]:
    count, pos = _dec_u32(buf, pos)
    atoms = []
    for _ in range(count):
        atom, pos = _dec_str(buf, pos)
        atoms.append(atom)
    return AttributePath(atoms), pos


def _dec_pattern(buf: bytes, pos: int) -> tuple[Pattern, int]:
    text, pos = _dec_str(buf, pos)
    try:
        return parse_pattern(text), pos
    except Exception as exc:
        raise WireError(f"invalid pattern on wire: {text!r}") from exc


def _dec_destination(buf: bytes, pos: int) -> tuple[Destination, int]:
    pattern, pos = _dec(buf, pos)
    space, pos = _dec(buf, pos)
    destination = Destination.__new__(Destination)
    destination.pattern = pattern
    destination.space = space
    return destination, pos


def _dec_capability(buf: bytes, pos: int) -> tuple[Capability, int]:
    _need(buf, pos, 16)
    token = int.from_bytes(buf[pos:pos + 16], "big")
    return Capability(token), pos + 16


def _dec_message(buf: bytes, pos: int) -> tuple[Message, int]:
    payload, pos = _dec(buf, pos)
    reply_to, pos = _dec(buf, pos)
    headers, pos = _dec(buf, pos)
    message_id, pos = _dec_int(buf, pos)
    return Message(payload, reply_to=reply_to, headers=headers,
                   message_id=message_id), pos


def _dec_schema2_envelope(buf: bytes, pos: int) -> tuple[Envelope, int]:
    """Tag ``E``, decode-only: schema-2 data dirs and snapshots hold
    dead-letter captures in this layout; nothing writes it any more."""
    message, pos = _dec(buf, pos)
    sender, pos = _dec(buf, pos)
    mode, pos = _dec_enum(buf, pos, _MODES, "mode")
    target, pos = _dec(buf, pos)
    destination, pos = _dec(buf, pos)
    port, pos = _dec_enum(buf, pos, _PORTS, "port")
    sent_at, pos = _dec_float(buf, pos)
    delivered_at, pos = _dec(buf, pos)
    hop_count, pos = _dec_u32(buf, pos)
    trace = []
    for _ in range(hop_count):
        hop, pos = _dec_int(buf, pos)
        trace.append(hop)
    origin_space, pos = _dec(buf, pos)
    envelope_id, pos = _dec_int(buf, pos)
    trace_id, pos = _dec_int(buf, pos)
    parent_id, pos = _dec(buf, pos)
    return Envelope(
        message=message, sender=sender, mode=mode, target=target,
        destination=destination, port=port, sent_at=sent_at,
        delivered_at=delivered_at, trace=trace, origin_space=origin_space,
        envelope_id=envelope_id, trace_id=trace_id, parent_id=parent_id,
    ), pos


def _dec_envelope(buf: bytes, pos: int) -> tuple[Envelope, int]:
    try:
        (flags, mode, port, hops, sent_at, envelope_id, trace_id, parent_id,
         message_id) = _ENV_HEAD.unpack_from(buf, pos)
        pos += _ENV_HEAD.size
        if flags & ~_ENV_KNOWN_FLAGS or mode >= len(_MODES) or port >= len(_PORTS):
            raise WireError(f"envelope record with unknown flags {flags:#x}, "
                            f"mode index {mode} or port index {port}")
        delivered_at = sender = target = reply_to = origin_space = None
        if flags & _ENV_DELIVERED_AT:
            delivered_at = _F64.unpack_from(buf, pos)[0]
            pos += 8
        if flags & _ENV_SENDER:
            sender = ActorAddress(*_ENV_ADDR.unpack_from(buf, pos))
            pos += 12
        if flags & _ENV_TARGET:
            kind = SpaceAddress if flags & _ENV_TARGET_IS_SPACE else ActorAddress
            target = kind(*_ENV_ADDR.unpack_from(buf, pos))
            pos += 12
        if flags & _ENV_REPLY_TO:
            reply_to = ActorAddress(*_ENV_ADDR.unpack_from(buf, pos))
            pos += 12
        if flags & _ENV_ORIGIN_SPACE:
            origin_space = SpaceAddress(*_ENV_ADDR.unpack_from(buf, pos))
            pos += 12
        trace = list(struct.unpack_from(f"!{hops}I", buf, pos))
        pos += 4 * hops
    except struct.error as exc:
        raise WireError(f"truncated envelope record at offset {pos}") from exc
    destination, pos = _dec(buf, pos)
    payload, pos = _dec(buf, pos)
    headers, pos = _dec(buf, pos) if flags & _ENV_HEADERS else ({}, pos)
    # Positional, in dataclass field order: half the constructor's cost
    # is keyword matching, and this runs once per inbound envelope.
    return Envelope(
        Message(payload, reply_to, headers, message_id), sender, _MODES[mode],
        target, destination, _PORTS[port], sent_at, delivered_at, trace,
        origin_space, envelope_id, trace_id,
        parent_id if flags & _ENV_PARENT_ID else None), pos


def _dec_visibility_op(buf: bytes, pos: int) -> tuple[VisibilityOp, int]:
    kind, pos = _dec_enum(buf, pos, _OP_KINDS, "op kind")
    origin_node, pos = _dec_int(buf, pos)
    origin_seq, pos = _dec_int(buf, pos)
    op_id, pos = _dec_int(buf, pos)
    shard, pos = _dec_int(buf, pos)
    tick, pos = _dec(buf, pos)
    fan_of, pos = _dec(buf, pos)
    args, pos = _dec(buf, pos)
    return VisibilityOp(kind=kind, args=args, origin_node=origin_node,
                        origin_seq=origin_seq, op_id=op_id, shard=shard,
                        tick=tick, fan_of=fan_of), pos


def _dec_manager_factory(buf: bytes, pos: int) -> tuple[Callable, int]:
    name, pos = _dec_str(buf, pos)
    factory = _MANAGER_FACTORIES.get(name)
    if factory is None:
        raise WireError(f"unknown manager factory on wire: {name!r}")
    return factory, pos


def _dec_wire_type(buf: bytes, pos: int) -> tuple[Any, int]:
    name, pos = _dec_str(buf, pos)
    cls = _WIRE_TYPES.get(name)
    if cls is None:
        raise WireError(f"unknown wire type: {name!r}")
    field_count, pos = _dec_u32(buf, pos)
    kwargs = {}
    for _ in range(field_count):
        field_name, pos = _dec_str(buf, pos)
        value, pos = _dec(buf, pos)
        kwargs[field_name] = value
    try:
        return cls(**kwargs), pos
    except TypeError as exc:
        raise WireError(f"wire type {name!r} rejected fields: {exc}") from exc


#: Tag byte -> decoder; the mirror of :data:`_ENC_BY_TYPE`.  Keyed on the
#: integer byte so dispatch is one dict probe instead of a comparison
#: chain — the codec sits on the per-envelope hot path of every link.
_DEC_BY_TAG: dict[int, Callable] = {
    ord("N"): _dec_none,
    ord("T"): _dec_true,
    ord("F"): _dec_false,
    ord("i"): _dec_int,
    ord("f"): _dec_float,
    ord("s"): _dec_str,
    ord("y"): _dec_bytes,
    ord("l"): _dec_list,
    ord("t"): _dec_tuple,
    ord("S"): _dec_set,
    ord("d"): _dec_dict,
    ord("a"): _dec_actor_address,
    ord("z"): _dec_space_address,
    ord("p"): _dec_attribute_path,
    ord("P"): _dec_pattern,
    ord("D"): _dec_destination,
    ord("c"): _dec_capability,
    ord("M"): _dec_message,
    ord("E"): _dec_schema2_envelope,
    ord("V"): _dec_envelope,
    ord("O"): _dec_visibility_op,
    ord("g"): _dec_manager_factory,
    ord("X"): _dec_wire_type,
}


def _dec(buf: bytes, pos: int) -> tuple[Any, int]:
    if pos >= len(buf):
        raise WireError(f"truncated value: need 1 bytes at offset {pos}")
    handler = _DEC_BY_TAG.get(buf[pos])
    if handler is None:
        raise WireError(f"unknown wire tag {buf[pos:pos + 1]!r} at offset {pos}")
    return handler(buf, pos + 1)


def decode_value(data: bytes) -> Any:
    """Decode one value; the buffer must contain exactly one value."""
    value, pos = _dec(data, 0)
    if pos != len(data):
        raise WireError(f"trailing garbage after value: {len(data) - pos} bytes")
    return value


# -- framing --------------------------------------------------------------------

def encode_frame(kind: FrameKind, payload: Any = None) -> bytes:
    """One complete frame: ``u32 length | u8 kind | encoded payload``."""
    if kind == FrameKind.BATCH:
        raise WireError("BATCH frames are built with wrap_batch(), "
                        "not encode_frame()")
    out = bytearray(b"\x00\x00\x00\x00")  # length placeholder, backpatched below
    out += _U8.pack(int(kind))
    _enc(out, payload)
    length = len(out) - 4
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame too large: {length} > {MAX_FRAME_BYTES}")
    _U32.pack_into(out, 0, length)
    return bytes(out)


def wrap_batch(chunks: list[bytes]) -> bytes:
    """Coalesce already-encoded frames into one BATCH frame.

    Layout: ``u32 length | u8 BATCH | u32 count | frame*`` where each
    inner frame keeps its ordinary ``u32 length | u8 kind | body`` form,
    so the sender just concatenates bytes it already has (no re-encode)
    and the receiver walks the same frame parser over the body.  Inner
    BATCH frames are refused on both sides: one level of nesting only.
    """
    if not chunks:
        raise WireError("empty batch")
    total = 1 + 4 + sum(len(c) for c in chunks)
    if total > MAX_FRAME_BYTES:
        raise WireError(f"batch too large: {total} > {MAX_FRAME_BYTES}")
    out = bytearray(_U32.pack(total))
    out += _U8.pack(int(FrameKind.BATCH))
    out += _U32.pack(len(chunks))
    for chunk in chunks:
        if chunk[4:5] == _BATCH_KIND_BYTE:
            raise WireError("nested BATCH frames are not allowed")
        out += chunk
    return bytes(out)


_BATCH_KIND_BYTE = bytes([13])


def _decode_batch_body(buf: bytes, offset: int,
                       end: int) -> list[tuple["FrameKind", Any]]:
    """Parse the inner frames of a BATCH frame body (``buf[offset:end]``)."""
    count = _U32.unpack_from(buf, offset)[0]
    offset += 4
    frames: list[tuple[FrameKind, Any]] = []
    for _ in range(count):
        decoded = try_decode_frame(buf, offset, end=end)
        if decoded is None:
            raise WireError("truncated frame inside batch")
        kind, payload, consumed = decoded
        if kind == FrameKind.BATCH:
            raise WireError("nested BATCH frames are not allowed")
        frames.append((kind, payload))
        offset += consumed
    if offset != end:
        raise WireError(f"trailing garbage in batch: {end - offset} bytes")
    return frames


def try_decode_frame(buf: bytes, offset: int = 0, *,
                     end: int | None = None) -> tuple[FrameKind, Any, int] | None:
    """Decode one frame from ``buf[offset:end]``.

    Returns ``(kind, payload, bytes_consumed)`` or ``None`` when the
    buffer does not yet hold a complete frame.  For BATCH frames the
    payload is the list of inner ``(kind, payload)`` pairs, in order.
    Raises :class:`WireError` on an oversized length prefix or corrupt
    body — callers must drop the connection, since stream sync is lost.
    """
    if end is None:
        end = len(buf)
    if end - offset < 4:
        return None
    length = _U32.unpack_from(buf, offset)[0]
    if length > MAX_FRAME_BYTES:
        raise WireError(f"incoming frame too large: {length} bytes")
    if length < 1:
        raise WireError("incoming frame has empty body")
    if end - offset < 4 + length:
        return None
    kind_byte = buf[offset + 4]
    try:
        kind = FrameKind(kind_byte)
    except ValueError as exc:
        raise WireError(f"unknown frame kind {kind_byte}") from exc
    if kind == FrameKind.BATCH:
        if length < 5:
            raise WireError("batch frame too short for its count")
        inner = _decode_batch_body(buf, offset + 5, offset + 4 + length)
        return kind, inner, 4 + length
    body = bytes(buf[offset + 5:offset + 4 + length])
    return kind, decode_value(body), 4 + length


class FrameDecoder:
    """Incremental frame reassembly over a byte stream.

    BATCH frames are expanded transparently: ``feed`` returns the inner
    frames in their original order, so consumers never see the batching
    layer (``batches_in`` counts how many arrived, for telemetry).
    """

    __slots__ = ("_buffer", "batches_in")

    def __init__(self):
        self._buffer = bytearray()
        self.batches_in = 0

    def feed(self, data: bytes) -> list[tuple[FrameKind, Any]]:
        """Absorb ``data``; return every frame completed by it, in order."""
        self._buffer += data
        frames: list[tuple[FrameKind, Any]] = []
        offset = 0
        while True:
            decoded = try_decode_frame(self._buffer, offset)
            if decoded is None:
                break
            kind, payload, consumed = decoded
            if kind == FrameKind.BATCH:
                self.batches_in += 1
                frames.extend(payload)
            else:
                frames.append((kind, payload))
            offset += consumed
        if offset:
            del self._buffer[:offset]
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)


# -- handshake ------------------------------------------------------------------

def hello_payload(node: int, role: str, cluster_id: str) -> dict:
    """The HELLO body a connecting peer announces itself with."""
    return {
        "magic": WIRE_MAGIC,
        "protocol": PROTOCOL_VERSION,
        "schema": SCHEMA_VERSION,
        "node": node,
        "role": role,
        "cluster": cluster_id,
    }


def hello_problem(payload: Any, cluster_id: str) -> str | None:
    """Validate a HELLO body; a string describes why it must be rejected."""
    if not isinstance(payload, dict):
        return "handshake payload is not a mapping"
    if payload.get("magic") != WIRE_MAGIC:
        return "bad magic (not an actorspace peer)"
    if payload.get("protocol") != PROTOCOL_VERSION:
        return (f"protocol version mismatch: theirs="
                f"{payload.get('protocol')!r} ours={PROTOCOL_VERSION}")
    if payload.get("schema") != SCHEMA_VERSION:
        return (f"schema version mismatch: theirs="
                f"{payload.get('schema')!r} ours={SCHEMA_VERSION}")
    if payload.get("cluster") != cluster_id:
        return (f"cluster id mismatch: theirs={payload.get('cluster')!r} "
                f"ours={cluster_id!r}")
    node = payload.get("node")
    if not isinstance(node, int) or isinstance(node, bool) or node < 0:
        return f"missing or invalid node id {node!r}"
    if payload.get("role") not in ("node", "control"):
        return f"unknown role {payload.get('role')!r}"
    return None
