"""Unit tests: messages, destinations, envelopes."""

import dataclasses
import itertools

import pytest

from repro.core import messages
from repro.core.addresses import ActorAddress, SpaceAddress
from repro.core.atoms import AttributePath
from repro.core.errors import PatternSyntaxError
from repro.core.messages import (
    Destination,
    Envelope,
    Message,
    Mode,
    Port,
    _parse_destination_text,
    parse_destination,
)
from repro.core.patterns import Pattern, _parse_pattern_text, parse_pattern


class TestDestination:
    def test_pattern_with_explicit_space_address(self):
        space = SpaceAddress(0, 7)
        d = Destination("a/*", space)
        assert d.pattern == parse_pattern("a/*")
        assert d.space == space

    def test_space_defaults_to_none(self):
        assert Destination("a").space is None

    def test_space_as_pattern_text(self):
        d = Destination("a", "pools/*")
        assert isinstance(d.space, Pattern)
        assert d.space.matches("pools/p1")

    def test_rejects_garbage_space(self):
        with pytest.raises(PatternSyntaxError):
            Destination("a", 3.14)

    def test_equality(self):
        s = SpaceAddress(0, 1)
        assert Destination("a/*", s) == Destination("a/*", s)
        assert Destination("a/*", s) != Destination("a/*", SpaceAddress(0, 2))
        assert Destination("a") == Destination("a")


class TestParseDestination:
    def test_plain_pattern(self):
        d = parse_destination("services/*")
        assert d.space is None
        assert d.pattern.matches("services/x")

    def test_pattern_at_space(self):
        d = parse_destination("workers/**@pools/main")
        assert isinstance(d.space, Pattern)
        assert d.space.matches("pools/main")

    def test_rejects_empty_sides(self):
        for bad in ("@x", "x@", "@", ""):
            with pytest.raises(PatternSyntaxError):
                parse_destination(bad)

    def test_rejects_non_strings(self):
        with pytest.raises(PatternSyntaxError):
            parse_destination(None)


class TestParseMemo:
    """Destination and pattern text is parsed once; only text is memoised."""

    def test_equal_text_gives_equal_and_shared_values(self):
        first = parse_destination("memo/*@pools/m1")
        again = parse_destination("memo/*" + "@pools/m1")  # equal, not the same str
        assert again == first == Destination("memo/*", "pools/m1")
        assert again is first  # values are shared, which is safe: nothing mutates one
        assert parse_pattern("memo/x/*") is parse_pattern("memo/x/*")

    def test_memo_is_bounded(self):
        for prefix in range(10):
            for k in range(256):
                parse_destination(f"bound{prefix}/a{k}@space{k}")
        assert _parse_destination_text.cache_info().currsize <= 256
        assert _parse_pattern_text.cache_info().currsize <= 256

    @pytest.mark.parametrize("parse, bad", [
        (parse_destination, ""), (parse_destination, "@x"),
        (parse_destination, "x@"), (parse_destination, "a//b@s"),
        (parse_destination, "a@s/"), (parse_pattern, ""),
        (parse_pattern, "/a"), (parse_pattern, "a/"), (parse_pattern, "a//b"),
    ])
    def test_malformed_text_raises_on_every_call(self, parse, bad):
        for _ in range(3):  # an error is never cached
            with pytest.raises(PatternSyntaxError):
                parse(bad)

    def test_non_text_inputs_never_enter_the_memo(self):
        pattern = Pattern(parse_pattern("by/pass").matchers)
        path = AttributePath(["by", "pass"])
        destination = Destination(pattern, SpaceAddress(0, 3))
        before = (_parse_pattern_text.cache_info().misses,
                  _parse_destination_text.cache_info().misses)
        assert parse_pattern(pattern) is pattern
        assert parse_pattern(path) == pattern
        assert parse_destination(destination) is destination
        assert Destination(pattern, pattern).space is pattern
        for junk in (None, 7, ["a"]):
            with pytest.raises(PatternSyntaxError):
                parse_pattern(junk)
            with pytest.raises(PatternSyntaxError):
                parse_destination(junk)
        assert before == (_parse_pattern_text.cache_info().misses,
                          _parse_destination_text.cache_info().misses)


class TestMessage:
    def test_ids_are_unique(self):
        a, b = Message(1), Message(2)
        assert a.message_id != b.message_id

    def test_defaults(self):
        m = Message("payload")
        assert m.reply_to is None
        assert m.headers == {}


class TestEnvelope:
    def _envelope(self, **kw):
        defaults = dict(
            message=Message("x"),
            sender=ActorAddress(0, 0),
            mode=Mode.BROADCAST,
            destination=Destination("a/*"),
            sent_at=1.0,
        )
        defaults.update(kw)
        return Envelope(**defaults)

    def test_defaults(self):
        e = self._envelope()
        assert e.port is Port.INVOCATION
        assert e.delivered_at is None
        assert e.trace == []

    def test_hop_records_nodes(self):
        e = self._envelope()
        e.hop(0)
        e.hop(3)
        assert e.trace == [0, 3]

    def test_clone_for_is_independent(self):
        e = self._envelope()
        e.hop(1)
        target = ActorAddress(2, 5)
        c = e.clone_for(target)
        assert c.target == target
        assert c.message is e.message  # payload shared, not copied
        assert c.trace == [1]
        c.hop(9)
        assert e.trace == [1]  # original unaffected
        assert c.envelope_id != e.envelope_id

    def test_envelope_ids_unique(self):
        assert self._envelope().envelope_id != self._envelope().envelope_id


class TestIdentitySurvivesSlots:
    """``Envelope`` / ``Message`` are slotted and built positionally; what
    the codec and a TCP node rely on must not have moved."""

    def test_rebound_id_counters_are_honoured(self, monkeypatch):
        # What ``net/runtime.py`` does per node: a later draw must read the
        # module global, not a counter bound when the class was created.
        monkeypatch.setattr(messages, "_envelope_ids", itertools.count(7000))
        monkeypatch.setattr(messages, "_message_ids", itertools.count(9000))
        assert Message("x").message_id == 9000
        envelope = Envelope(Message("y"), None, Mode.DIRECT)
        assert (envelope.envelope_id, envelope.message.message_id) == (7000, 9001)
        assert envelope.clone_for(ActorAddress(1, 1)).envelope_id == 7001
        fresh = messages.new_envelope(Mode.SEND, "z", None, None, 0.5,
                                      destination=Destination("a/*"))
        assert (fresh.envelope_id, fresh.message.message_id) == (7002, 9002)
        assert fresh.trace_id == 7002 and fresh.parent_id is None
        child = messages.new_envelope(Mode.DIRECT, "r", ActorAddress(0, 0),
                                      None, 0.6, target=ActorAddress(1, 1),
                                      cause=fresh)
        assert (child.trace_id, child.parent_id) == (7002, 7002)
        assert child.envelope_id == 7003

    def test_field_names_and_order_are_the_codecs(self):
        assert [f.name for f in dataclasses.fields(Envelope)] == [
            "message", "sender", "mode", "target", "destination", "port",
            "sent_at", "delivered_at", "trace", "origin_space",
            "envelope_id", "trace_id", "parent_id"]
        assert [f.name for f in dataclasses.fields(Message)] == [
            "payload", "reply_to", "headers", "message_id"]

    def test_no_stray_attributes_and_message_stays_frozen(self):
        envelope = Envelope(Message("x"), None, Mode.DIRECT)
        with pytest.raises(AttributeError):
            envelope.retries = 3
        # (TypeError on 3.10/3.11: a frozen+slots dataclass refuses a
        # non-field name through a stale ``super()`` — it refuses, though.)
        with pytest.raises((AttributeError, TypeError)):
            envelope.message.colour = "red"
        with pytest.raises(dataclasses.FrozenInstanceError):
            envelope.message.payload = "y"
        envelope.delivered_at = 2.0  # an envelope's own fields stay writable

    def test_trace_id_defaults_to_envelope_id(self):
        root = Envelope(Message("x"), None, Mode.DIRECT)
        assert root.trace_id == root.envelope_id and root.parent_id is None
        clone = root.clone_for(ActorAddress(0, 1))
        assert (clone.trace_id, clone.parent_id) == (root.trace_id,
                                                     root.envelope_id)
        assert Envelope(Message("x"), None, Mode.DIRECT, trace_id=5).trace_id == 5

    def test_enum_members_hash_by_identity_and_still_round_trip(self):
        import pickle

        from repro.runtime.network import LinkKind

        for member in [*Mode, *LinkKind]:
            assert type(member)(member.value) is member
            assert pickle.loads(pickle.dumps(member)) is member
            assert {member: 1}[type(member)(member.value)] == 1
            assert hash(member) == object.__hash__(member)
            assert not isinstance(member, str)  # the codec dispatches on it
