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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.addresses import ActorAddress, SpaceAddress
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


@given(values)
@settings(max_examples=400)
def test_value_round_trip(value):
    assert decode_value(encode_value(value)) == value


@given(values)
@settings(max_examples=200)
def test_encoding_is_deterministic(value):
    assert encode_value(value) == encode_value(value)


def test_set_encoding_ignores_construction_order():
    assert encode_value({3, 1, 2}) == encode_value({2, 3, 1})
    assert decode_value(encode_value({3, 1, 2})) == frozenset({1, 2, 3})


#: Every frame kind whose body is one encoded value (BATCH's body is a
#: sequence of inner frames instead; it has its own strategy below).
VALUE_KINDS = [k for k in FrameKind if k != FrameKind.BATCH]


@given(st.lists(st.tuples(st.sampled_from(VALUE_KINDS), values),
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


def test_unknown_tag_rejected():
    with pytest.raises(WireError):
        decode_value(b"Q")


def test_trailing_garbage_rejected():
    with pytest.raises(WireError):
        decode_value(encode_value(3) + b"\x00")


@given(st.sampled_from([None, True, [1, "x"], {"k": 2.0}]),
       st.data())
def test_truncated_value_rejected(value, data):
    encoded = encode_value(value)
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
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
])
def test_mismatched_hello_rejected(mutation, fragment):
    payload = hello_payload(0, "node", "c1")
    payload.update(mutation)
    problem = hello_problem(payload, "c1")
    assert problem is not None and fragment in problem


def test_non_mapping_hello_rejected():
    assert hello_problem(["not", "a", "dict"], "c1") is not None
