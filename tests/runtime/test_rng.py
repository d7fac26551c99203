"""Unit tests: the seeded RNG hub and its pure-Python PCG64 streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.rng import RngHub, default_rng


class TestRngHub:
    def test_same_name_same_stream_object(self):
        hub = RngHub(1)
        assert hub.stream("latency") is hub.stream("latency")

    def test_streams_are_deterministic_per_seed(self):
        a = RngHub(42).stream("x").random(5)
        b = RngHub(42).stream("x").random(5)
        assert (a == b).all()

    def test_different_names_are_independent(self):
        hub = RngHub(0)
        a = hub.stream("a").random(5)
        b = hub.stream("b").random(5)
        assert not (a == b).all()

    def test_different_seeds_differ(self):
        a = RngHub(1).stream("x").random(5)
        b = RngHub(2).stream("x").random(5)
        assert not (a == b).all()

    def test_draw_in_one_stream_does_not_shift_another(self):
        """The isolation property the experiments rely on."""
        hub1 = RngHub(3)
        hub1.stream("noise").random(100)  # extra draws...
        a = hub1.stream("arbitration").random(5)
        hub2 = RngHub(3)
        b = hub2.stream("arbitration").random(5)  # ...don't affect this
        assert (a == b).all()


#: One draw, as ``(kind, low, span)``: ``integers`` over a range that fits
#: 32-bit words, one that ends at or crosses 2**32, and the capability
#: range; ``uniform`` on [-1, 1) (the jitter draw); ``random``.
DRAWS = st.one_of(
    st.tuples(st.just("integers"), st.integers(-1000, 0), st.integers(1, 70)),
    st.tuples(st.just("integers"), st.integers(-1000, 0),
              st.integers(71, 2**32)),
    st.tuples(st.just("integers"), st.integers(-1000, 0),
              st.integers(2**32 + 1, 2**40) | st.just(2**63)),
    st.tuples(st.sampled_from(["uniform", "random"]), st.just(0), st.just(0)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**128), name=st.text(max_size=12) | st.none(),
       draws=st.lists(DRAWS, max_size=60))
def test_a_stream_is_numpys_default_rng_draw_for_draw(seed, name, draws):
    """``RngHub(seed).stream(name)`` is numpy's ``default_rng`` seeded by
    ``SeedSequence(seed, spawn_key=<name's UTF-8 bytes>)``, and
    ``default_rng(seed)`` is numpy's own: so no seeded run moves."""
    if name is None:
        ours, theirs = default_rng(seed), np.random.default_rng(seed)
    else:
        ours = RngHub(seed).stream(name)
        theirs = np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=tuple(name.encode("utf-8"))))
    for kind, low, span in draws:
        if kind == "integers":
            assert ours.integers(low, low + span) == \
                theirs.integers(low, low + span)
        elif kind == "uniform":
            assert ours.uniform(-1.0, 1.0) == theirs.uniform(-1.0, 1.0)
        else:
            assert ours.random() == theirs.random()


def test_a_one_value_range_draws_nothing_and_an_empty_one_raises():
    stream, twin = default_rng(5), default_rng(5)
    assert stream.integers(3, 4) == 3
    assert stream.random() == twin.random()
    with pytest.raises(ValueError):
        stream.integers(4, 4)


def test_a_negative_seed_is_refused_when_the_hub_is_built():
    with pytest.raises(ValueError):
        RngHub(-1)
