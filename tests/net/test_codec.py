"""Property and rejection tests for the wire codec.

Round-trips are hypothesis-driven: any value built from the wire type
universe must decode back equal, including when the encoded frames are
resegmented arbitrarily (TCP gives no message boundaries).  Rejection
paths get explicit tests: truncated values, oversized length prefixes,
unknown tags/kinds, trailing garbage, and version-mismatched handshakes
must all raise :class:`WireError` (or reject) rather than misparse.
"""

import dataclasses
import string
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.addresses import ActorAddress, MailAddress, SpaceAddress
from repro.core.atoms import AttributePath
from repro.core.capabilities import Capability
from repro.core.messages import (
    Destination,
    Envelope,
    Message,
    Mode,
    Port,
    parse_destination,
)
from repro.core.patterns import parse_pattern
from repro.net.codec import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SCHEMA_VERSION,
    FrameDecoder,
    FrameKind,
    WireError,
    decode_value,
    encode_frame,
    encode_value,
    hello_payload,
    hello_problem,
    register_wire_type,
    try_decode_frame,
)
from repro.runtime.bus import OpKind, VisibilityOp

# -- value strategies ------------------------------------------------------------

atoms = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=5)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 130), max_value=2 ** 130),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
    st.builds(ActorAddress, st.integers(0, 7), st.integers(0, 1 << 50)),
    st.builds(SpaceAddress, st.integers(0, 7), st.integers(0, 1 << 50)),
    st.builds(AttributePath, st.lists(atoms, min_size=1, max_size=4)),
    st.builds(Capability, st.integers(min_value=1, max_value=(1 << 128) - 1)),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=8), st.integers()),
                        children, max_size=4),
        st.frozensets(st.one_of(st.integers(), st.text(max_size=8)),
                      max_size=4),
    ),
    max_leaves=12,
)


actor_addresses = st.builds(ActorAddress, st.integers(0, 2 ** 32 - 1),
                            st.integers(0, 2 ** 64 - 1))
space_addresses = st.builds(SpaceAddress, st.integers(0, 7),
                            st.integers(0, 1 << 50))
#: Ids as the runtime mints them (``node << 44 | n``) and up to the
#: widest the packed record carries.
ids = st.one_of(
    st.integers(0, 2 ** 63 - 1),
    st.builds(lambda node, n: (node << 44) | n,
              st.integers(0, 1 << 18), st.integers(0, (1 << 44) - 1)))
destinations = st.builds(
    Destination,
    st.sampled_from(["svc/*", "w3/r1", "**", "a/?/c"]),
    st.one_of(st.none(), space_addresses, st.sampled_from(["pools/*", "p"])))
envelopes = st.builds(
    Envelope,
    message=st.builds(
        Message, values, reply_to=st.one_of(st.none(), actor_addresses),
        headers=st.dictionaries(st.text(max_size=6), scalars, max_size=3),
        message_id=ids),
    sender=st.one_of(st.none(), actor_addresses),
    mode=st.sampled_from(list(Mode)),
    target=st.one_of(st.none(), actor_addresses, space_addresses),
    destination=st.one_of(st.none(), destinations),
    port=st.sampled_from(list(Port)),
    sent_at=st.floats(allow_nan=False),
    delivered_at=st.one_of(st.none(), st.floats(allow_nan=False)),
    trace=st.lists(st.integers(0, 2 ** 32 - 1), max_size=6),
    origin_space=st.one_of(st.none(), space_addresses),
    envelope_id=ids, trace_id=ids, parent_id=st.one_of(st.none(), ids),
)
#: Everything a frame or a store record may hold: generic values, and
#: envelopes bare (an ENVELOPE frame) or nested (a dead-letter capture).
wire_values = st.one_of(
    values, envelopes,
    st.fixed_dictionaries({"rec": st.just("dlq"), "envelope": envelopes}))


@given(wire_values)
@settings(max_examples=400)
def test_value_round_trip(value):
    assert decode_value(encode_value(value)) == value


@given(wire_values)
@settings(max_examples=200)
def test_encoding_is_deterministic(value):
    encoded = encode_value(value)
    assert encode_value(value) == encoded
    assert encode_value(decode_value(encoded)) == encoded


def test_set_encoding_ignores_construction_order():
    assert encode_value({3, 1, 2}) == encode_value({2, 3, 1})
    assert decode_value(encode_value({3, 1, 2})) == frozenset({1, 2, 3})


#: Every frame kind whose body is one encoded value (BATCH's body is a
#: sequence of inner frames instead; it has its own strategy below).
VALUE_KINDS = [k for k in FrameKind if k != FrameKind.BATCH]


@given(st.lists(st.tuples(st.sampled_from(VALUE_KINDS), wire_values),
                min_size=1, max_size=5),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=150)
def test_frame_stream_survives_resegmentation(frames, chunk):
    """A frame sequence split at arbitrary byte offsets decodes intact."""
    stream = b"".join(encode_frame(kind, payload) for kind, payload in frames)
    decoder = FrameDecoder()
    out = []
    for start in range(0, len(stream), chunk):
        out.extend(decoder.feed(stream[start:start + chunk]))
    assert out == frames
    assert decoder.pending_bytes == 0


@given(st.lists(st.tuples(st.sampled_from(VALUE_KINDS), values),
                min_size=1, max_size=8),
       st.data())
@settings(max_examples=150)
def test_batch_round_trip_survives_resegmentation(frames, data):
    """BATCH frames flatten back to their members, however the stream is
    grouped into batches and split at arbitrary byte offsets."""
    from repro.net.codec import wrap_batch

    encoded = [encode_frame(kind, payload) for kind, payload in frames]
    stream = b""
    index = 0
    while index < len(encoded):
        take = data.draw(st.integers(min_value=1,
                                     max_value=len(encoded) - index))
        group = encoded[index:index + take]
        # Singletons sometimes ride bare, sometimes batched — both legal.
        if len(group) == 1 and data.draw(st.booleans()):
            stream += group[0]
        else:
            stream += wrap_batch(group)
        index += take
    chunk = data.draw(st.integers(min_value=1, max_value=64))
    decoder = FrameDecoder()
    out = []
    for start in range(0, len(stream), chunk):
        out.extend(decoder.feed(stream[start:start + chunk]))
    assert out == frames
    assert decoder.pending_bytes == 0


def test_wrap_batch_rejects_empty_and_nested():
    from repro.net.codec import wrap_batch

    with pytest.raises(WireError):
        wrap_batch([])
    inner = encode_frame(FrameKind.HEARTBEAT, {"n": 1})
    nested = wrap_batch([inner])
    with pytest.raises(WireError):
        wrap_batch([inner, nested])


def test_encode_frame_refuses_batch_kind():
    with pytest.raises(WireError):
        encode_frame(FrameKind.BATCH, [("x", 1)])


def test_truncated_batch_body_rejected():
    """A batch whose count promises more inner frames than it carries."""
    import struct

    from repro.net.codec import wrap_batch

    inner = encode_frame(FrameKind.HEARTBEAT, {"n": 1})
    good = wrap_batch([inner, inner])
    # Patch the inner count from 2 up to 3: same bytes, broken promise.
    bad = bytearray(good)
    bad[5:9] = struct.pack("!I", 3)
    with pytest.raises(WireError):
        try_decode_frame(bytes(bad))


def test_batch_trailing_garbage_rejected():
    import struct

    from repro.net.codec import wrap_batch

    inner = encode_frame(FrameKind.HEARTBEAT, {"n": 1})
    good = wrap_batch([inner, inner])
    # Claim only one member: the second becomes trailing garbage.
    bad = bytearray(good)
    bad[5:9] = struct.pack("!I", 1)
    with pytest.raises(WireError):
        try_decode_frame(bytes(bad))


def test_frame_decoder_counts_batches():
    from repro.net.codec import wrap_batch

    inner = encode_frame(FrameKind.HEARTBEAT, {"n": 1})
    decoder = FrameDecoder()
    frames = decoder.feed(wrap_batch([inner, inner]) + inner)
    assert len(frames) == 3
    assert decoder.batches_in == 1


def test_wire_domain_round_trips():
    """The actual protocol payloads: envelopes, ops, destinations."""
    capability = Capability((1 << 127) | 99)
    destination = Destination(parse_pattern("proc/*"), SpaceAddress(0, 4))
    message = Message(("job", 7), reply_to=ActorAddress(1, 2),
                      headers={"hop": 1}, message_id=9)
    envelope = Envelope(
        message=message, sender=ActorAddress(2, 5), mode=Mode.BROADCAST,
        target=ActorAddress(0, 1), destination=destination, port=Port.RPC,
        sent_at=1.5, delivered_at=None, trace=[3, 1],
        origin_space=SpaceAddress(0, 0), envelope_id=(3 << 44) | 17,
        trace_id=12, parent_id=None,
    )
    op = VisibilityOp(kind=OpKind.MAKE_VISIBLE,
                      args={"target": ActorAddress(1, 1),
                            "attributes": AttributePath(["proc", "p1"]),
                            "capability": capability},
                      origin_node=1, origin_seq=3, op_id=(1 << 44) | 2)
    for value in (capability, destination, message, envelope, op):
        decoded = decode_value(encode_value(value))
        assert type(decoded) is type(value)
    back = decode_value(encode_value(envelope))
    assert back.message.payload == ("job", 7)
    assert back.mode is Mode.BROADCAST and back.port is Port.RPC
    assert str(back.destination.pattern) == str(destination.pattern)
    back_op = decode_value(encode_value(op))
    assert back_op.kind is OpKind.MAKE_VISIBLE
    assert back_op.args["capability"].token == capability.token
    assert (back_op.origin_node, back_op.origin_seq, back_op.op_id) == (
        op.origin_node, op.origin_seq, op.op_id)


def test_destination_round_trips_with_a_warm_parse_memo():
    """Decoding goes through the memoised ``parse_pattern``: equal text
    decodes to equal patterns, and every decode fills a fresh destination."""
    destination = parse_destination("warm/*@pools/main")
    assert parse_destination("warm/*@pools/main") is destination  # memo is warm
    wire = encode_value(destination)
    first, second = decode_value(wire), decode_value(wire)
    assert first == second == destination
    assert first is not destination and first is not second
    assert encode_value(first) == wire


def test_registered_dataclass_round_trips():
    @dataclasses.dataclass
    class Probe:
        label: str
        weight: float

    register_wire_type(Probe, name="test-probe")
    back = decode_value(encode_value(Probe("x", 2.5)))
    assert back == Probe("x", 2.5)


# -- rejection paths -------------------------------------------------------------

def test_unencodable_type_raises_at_encode_time():
    with pytest.raises(WireError):
        encode_value(object())


def test_subclasses_encode_through_the_one_type_table():
    """The slow path walks the MRO through the table the fast path uses."""
    import collections
    import enum

    from repro.core.manager import default_manager

    class Serial(int):
        pass

    class Tone(str, enum.Enum):
        LOW = "low"

    point = collections.namedtuple("point", "x y")(1, 2)
    assert encode_value(Serial(7)) == encode_value(7)
    assert encode_value(point) == encode_value((1, 2))
    assert encode_value(Tone.LOW) == encode_value("low")
    assert decode_value(encode_value(default_manager)) is default_manager
    # An enum that is also an int is not an int on the wire, and a plain
    # enum is nothing the wire knows.
    for unencodable in (FrameKind.HELLO, OpKind.PURGE, Mode.SEND):
        with pytest.raises(WireError, match="not encodable"):
            encode_value(unencodable)


# -- the packed envelope record ---------------------------------------------------

def sample_envelope(**overrides):
    fields = dict(
        message=Message(("job", 7), reply_to=ActorAddress(1, 2), message_id=9),
        sender=ActorAddress(2, 5), mode=Mode.SEND, target=ActorAddress(0, 1),
        destination=Destination("proc/*", SpaceAddress(0, 4)), sent_at=1.5,
        trace=[3, 1], origin_space=SpaceAddress(0, 0),
        envelope_id=(3 << 44) | 17, trace_id=12, parent_id=11)
    fields.update(overrides)
    return Envelope(**fields)


@pytest.mark.parametrize("overrides", [
    {"envelope_id": 2 ** 63},
    {"trace_id": -(2 ** 63) - 1},
    {"parent_id": 2 ** 63},
    {"message": Message("m", message_id=2 ** 63)},
    {"sender": ActorAddress(2 ** 32, 1)},
    {"sender": ActorAddress(-1, 1)},
    {"target": SpaceAddress(0, 2 ** 64)},
    {"target": MailAddress(0, 1)},
    {"sender": SpaceAddress(0, 1)},
    {"message": Message("m", reply_to=SpaceAddress(0, 1))},
    {"origin_space": ActorAddress(0, 1)},
    {"trace": [2 ** 32]},
    {"trace": [0] * (2 ** 16)},
    {"mode": "send"},
    {"sent_at": "now"},
], ids=lambda o: "-".join(o))
def test_envelope_field_beyond_its_slot_is_refused_at_encode(overrides):
    """Never a wrap, a truncation or a silent change of address kind —
    and always ``WireError``, the one exception ``send_link`` catches."""
    with pytest.raises(WireError):
        encode_value(sample_envelope(**overrides))
    with pytest.raises(WireError):
        encode_frame(FrameKind.ENVELOPE, sample_envelope(**overrides))


def test_envelope_fields_at_the_edge_of_their_slots_round_trip():
    edge = sample_envelope(
        message=Message(None, reply_to=ActorAddress(2 ** 32 - 1, 2 ** 64 - 1),
                        message_id=2 ** 63 - 1),
        target=SpaceAddress(2 ** 32 - 1, 2 ** 64 - 1), envelope_id=2 ** 63 - 1,
        trace_id=-(2 ** 63), parent_id=0, trace=[2 ** 32 - 1] * 6,
        delivered_at=float("inf"))
    back = decode_value(encode_value(edge))
    assert back == edge
    assert type(back.target) is SpaceAddress and back.parent_id == 0


def test_empty_headers_are_omitted_and_any_others_survive():
    bare = sample_envelope()
    assert decode_value(encode_value(bare)).message.headers == {}
    for headers in ({"k": 1}, None, ()):
        message = Message(("job", 7), reply_to=ActorAddress(1, 2),
                          headers=headers, message_id=9)
        encoded = encode_value(sample_envelope(message=message))
        assert decode_value(encoded).message.headers == headers
        assert len(encoded) > len(encode_value(bare))


@pytest.mark.parametrize("offset, value", [
    (1, 0x80),  # high byte of the u16 flags: bit 15
    (1, 0x01),  # bit 8, the first unassigned one
    (3, 3),     # mode index past the table
    (4, 3),     # port index past the table
])
def test_corrupt_envelope_head_rejected(offset, value):
    encoded = bytearray(encode_value(sample_envelope()))
    assert encoded[:1] == b"V"
    encoded[offset] |= value
    with pytest.raises(WireError, match="unknown flags"):
        decode_value(bytes(encoded))


def schema2_bytes(envelope):
    """``envelope`` the way schema 2 wrote it under tag ``E``: every
    field a tagged value, bare ints (hops, ids) without their tag."""
    def bare_int(value):
        return encode_value(value)[1:]

    message = envelope.message
    return b"".join([
        b"E", b"M", encode_value(message.payload),
        encode_value(message.reply_to), encode_value(message.headers),
        bare_int(message.message_id), encode_value(envelope.sender),
        bytes([list(Mode).index(envelope.mode)]), encode_value(envelope.target),
        encode_value(envelope.destination),
        bytes([list(Port).index(envelope.port)]),
        struct.pack("!d", envelope.sent_at), encode_value(envelope.delivered_at),
        struct.pack("!I", len(envelope.trace)),
        *(bare_int(hop) for hop in envelope.trace),
        encode_value(envelope.origin_space), bare_int(envelope.envelope_id),
        bare_int(envelope.trace_id), encode_value(envelope.parent_id)])


@given(envelopes)
def test_schema2_envelope_still_decodes_and_is_never_written(envelope):
    old = schema2_bytes(envelope)
    assert decode_value(old) == envelope
    assert encode_value(decode_value(old))[:1] == b"V"
    for cut in range(len(old)):
        with pytest.raises(WireError):
            decode_value(old[:cut])


def test_schema2_bytes_match_a_recorded_schema2_journal_record():
    """The reference writer above against bytes schema 2 really wrote:
    the first capture in the recorded fixture store."""
    import os

    from repro.store.segment import ReadReport, pack_record, scan_segment

    segment = os.path.join(os.path.dirname(__file__), os.pardir, "store",
                           "fixtures", "schema2", "data", "log",
                           "seg-00000001.log")
    with open(segment, "rb") as fh:
        raw = fh.read()
    capture = next(rec for rec in scan_segment(segment, ReadReport())
                   if rec.get("kind") == "capture")
    assert schema2_bytes(capture["envelope"]) in raw
    assert pack_record(capture) not in raw  # today's bytes differ


def test_envelope_frame_without_an_envelope_is_dropped(capsys):
    """``_on_frame`` hands the coordinator envelopes only: a peer that
    speaks the schema but sends the retired ``{"envelope": ...}`` wrapper
    (or anything else) is logged and dropped."""
    from repro.net.peer import PeerLink
    from repro.net.runtime import NodeRuntime

    runtime = NodeRuntime(0, {0: 1, 1: 2}, trace=False, quiet=False)
    delivered = []
    runtime.coordinator._deliver = delivered.append
    link = PeerLink(1, "node", None, None)
    for payload in ({"envelope": sample_envelope()}, None, [sample_envelope()]):
        runtime._on_frame(1, FrameKind.ENVELOPE, payload, link)
    assert delivered == []
    assert capsys.readouterr().err.count("dropped ENVELOPE frame from node 1") == 3
    runtime._on_frame(1, FrameKind.ENVELOPE, sample_envelope(), link)
    assert delivered == [sample_envelope()]


def test_unknown_tag_rejected():
    with pytest.raises(WireError):
        decode_value(b"Q")


def test_trailing_garbage_rejected():
    with pytest.raises(WireError):
        decode_value(encode_value(3) + b"\x00")


@given(st.one_of(st.sampled_from([None, True, [1, "x"], {"k": 2.0}]),
                 envelopes))
def test_truncated_value_rejected(value):
    """Cut short at *every* offset: always ``WireError``, never a
    ``struct.error`` or ``IndexError`` from a fixed-width read."""
    encoded = encode_value(value)
    for cut in range(len(encoded)):
        with pytest.raises(WireError):
            decode_value(encoded[:cut])


def test_incomplete_frame_returns_none_not_error():
    frame = encode_frame(FrameKind.HEARTBEAT, {"n": 1})
    for cut in range(len(frame)):
        assert try_decode_frame(frame[:cut]) is None


def test_oversized_length_prefix_rejected():
    import struct
    bogus = struct.pack("!I", MAX_FRAME_BYTES + 1) + b"\x05"
    with pytest.raises(WireError):
        try_decode_frame(bogus)
    with pytest.raises(WireError):
        encode_frame(FrameKind.ENVELOPE, b"x" * MAX_FRAME_BYTES)


def test_empty_frame_body_rejected():
    import struct
    with pytest.raises(WireError):
        try_decode_frame(struct.pack("!I", 0) + b"\x00\x00\x00\x00\x01")


def test_unknown_frame_kind_rejected():
    import struct
    with pytest.raises(WireError):
        try_decode_frame(struct.pack("!I", 2) + b"\xee" + b"N")


def test_corrupt_stream_poisons_decoder():
    decoder = FrameDecoder()
    with pytest.raises(WireError):
        decoder.feed(b"\xff\xff\xff\xff\x00")


# -- handshake validation --------------------------------------------------------

def test_matching_hello_accepted():
    assert hello_problem(hello_payload(2, "node", "c1"), "c1") is None


@pytest.mark.parametrize("mutation, fragment", [
    ({"protocol": PROTOCOL_VERSION + 1}, "protocol version"),
    ({"schema": SCHEMA_VERSION + 1}, "schema version"),
    ({"magic": "not-actorspace"}, "magic"),
    ({"cluster": "other"}, "cluster id"),
    ({"node": "zero"}, "node id"),
    ({"role": "admin"}, "role"),
    ({"node": True}, "node id"),  # isinstance(True, int): would key as node 1
    ({"node": -1}, "node id"),
])
def test_mismatched_hello_rejected(mutation, fragment):
    payload = hello_payload(0, "node", "c1")
    payload.update(mutation)
    problem = hello_problem(payload, "c1")
    assert problem is not None and fragment in problem


def test_non_mapping_hello_rejected():
    assert hello_problem(["not", "a", "dict"], "c1") is not None
