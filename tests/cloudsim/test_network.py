"""Tests for the latency model and load meters."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cloudsim.network import Endpoint, LatencyModel, LoadMeter


class TestEndpoint:
    def test_same_domain(self):
        a = Endpoint("cloud-0", "replica-1")
        b = Endpoint("cloud-0", "replica-2")
        c = Endpoint("cloud-1", "replica-3")
        assert a.same_domain(b)
        assert not a.same_domain(c)

    def test_hashable_identity(self):
        a = Endpoint("cloud-0", "replica-1")
        assert a == Endpoint("cloud-0", "replica-1")
        assert len({a, Endpoint("cloud-0", "replica-1")}) == 1


class TestLatencyModel:
    def test_positive_latencies(self, rng):
        model = LatencyModel()
        a = Endpoint("cloud-0", "x")
        b = Endpoint("internet", "y")
        for _ in range(100):
            assert model.one_way(a, b, rng) > 0

    def test_intra_domain_faster_than_inter(self, rng):
        model = LatencyModel()
        local = Endpoint("cloud-0", "x"), Endpoint("cloud-0", "y")
        remote = Endpoint("cloud-0", "x"), Endpoint("internet", "y")
        local_mean = np.mean(
            [model.one_way(*local, rng) for _ in range(300)]
        )
        remote_mean = np.mean(
            [model.one_way(*remote, rng) for _ in range(300)]
        )
        assert local_mean < remote_mean / 5

    def test_round_trip_roughly_double(self, rng):
        model = LatencyModel(sigma=0.01)
        a, b = Endpoint("cloud-0", "x"), Endpoint("internet", "y")
        one = np.mean([model.one_way(a, b, rng) for _ in range(500)])
        rtts = np.mean([model.round_trip(a, b, rng) for _ in range(500)])
        assert rtts == pytest.approx(2 * one, rel=0.1)


class TestLoadMeter:
    def test_rate_after_burst(self):
        meter = LoadMeter(half_life=2.0)
        meter.add(0.0, 100.0)
        # Immediately after, rate ~ amount / (half_life / ln 2).
        expected = 100.0 / (2.0 / np.log(2))
        assert meter.rate(0.0) == pytest.approx(expected)

    def test_decay_halves_per_half_life(self):
        meter = LoadMeter(half_life=2.0)
        meter.add(0.0, 100.0)
        early = meter.rate(0.0)
        late = meter.rate(2.0)
        assert late == pytest.approx(early / 2)

    def test_steady_stream_estimates_rate(self):
        meter = LoadMeter(half_life=1.0)
        # 50 units per 0.1 s = 500 units/s steady state.
        for step in range(200):
            meter.add(step * 0.1, 50.0)
        assert meter.rate(19.9) == pytest.approx(500.0, rel=0.1)

    def test_time_backwards_rejected(self):
        meter = LoadMeter()
        meter.add(5.0, 1.0)
        with pytest.raises(ValueError):
            meter.add(4.0, 1.0)

    def test_reset(self):
        meter = LoadMeter()
        meter.add(0.0, 10.0)
        meter.reset()
        assert meter.rate(0.0) == 0.0


class _ReferenceMeter:
    """``LoadMeter`` as it stood at commit 20cf6db, kept verbatim as the
    scalar reference: ``_decay`` on every touch, ``math.log(2)`` on every
    ``rate()``."""

    def __init__(self, half_life: float = 2.0) -> None:
        self.half_life = half_life
        self._value = 0.0
        self._last = 0.0

    def _decay(self, now: float) -> None:
        if now < self._last - 1e-9:
            raise ValueError(
                f"LoadMeter time went backwards: {now} < {self._last}"
            )
        now = max(now, self._last)
        if now > self._last:
            factor = 0.5 ** ((now - self._last) / self.half_life)
            self._value *= factor
            self._last = now

    def add(self, now: float, amount: float) -> None:
        self._decay(now)
        self._value += amount

    def rate(self, now: float) -> float:
        self._decay(now)
        horizon = self.half_life / math.log(2)
        return self._value / horizon

    def reset(self) -> None:
        self._value = 0.0


#: Clock steps: standing still, forward, back within the 1e-9 tolerance
#: (no decay, no error) and back beyond it (``ValueError``).
_STEPS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 20.0),
    st.floats(0.0, 1e-6),
    st.floats(-1e-9, 0.0),
    st.floats(-3e-9, -3e-10),  # straddles the tolerance
    st.floats(-5.0, -1e-8),
)
_OPS = st.lists(
    st.tuples(
        _STEPS,
        st.sampled_from(["add", "add", "rate", "rate", "reset"]),
        st.floats(0.0, 1e6),
    ),
    max_size=60,
)


def _assert_replays_identically(half_life, ops) -> None:
    """Drive both meters through ``(step, op, amount)`` triples and
    require ``==`` on every return value, error message and the state."""
    meter = LoadMeter(half_life=half_life)
    reference = _ReferenceMeter(half_life=half_life)
    clock = 0.0
    for step, op, amount in ops:
        now = clock + step
        args = {"add": (now, amount), "rate": (now,), "reset": ()}[op]
        try:
            expected = getattr(reference, op)(*args)
        except ValueError as error:
            with pytest.raises(ValueError) as caught:
                getattr(meter, op)(*args)
            assert str(caught.value) == str(error)
        else:
            assert getattr(meter, op)(*args) == expected
            if op != "reset":
                clock = now
        assert (meter._value, meter._last) == (
            reference._value,
            reference._last,
        )


class TestLoadMeterMatchesReference:
    @given(st.floats(0.05, 50.0), _OPS)
    def test_every_reading_is_bit_identical(self, half_life, ops):
        _assert_replays_identically(half_life, ops)

    def test_dense_seeded_sweep_is_bit_identical(self):
        # Hypothesis favours round numbers, where a reordered float
        # expression often still agrees; 20k arbitrary doubles do not.
        draw = random.Random(20)
        steps = [0.0, 0.0, -1e-9, -1e-3]
        for half_life in (0.3, 2.0, 7.5):
            ops = [
                (
                    draw.choice(steps) if draw.random() < 0.3
                    else draw.uniform(0.0, 3.0),
                    draw.choice(["add", "add", "rate", "rate", "reset"]),
                    draw.uniform(0.0, 500.0),
                )
                for _ in range(7_000)
            ]
            _assert_replays_identically(half_life, ops)

    def test_step_back_within_tolerance_does_not_decay(self):
        meter = LoadMeter(half_life=1.0)
        meter.add(5.0, 8.0)
        before = meter.rate(5.0)
        assert meter.rate(5.0 - 1e-9) == before
        meter.add(5.0 - 5e-10, 0.0)
        assert meter.rate(5.0) == before
        with pytest.raises(ValueError, match="time went backwards"):
            meter.rate(5.0 - 1e-8)
        with pytest.raises(ValueError, match="time went backwards"):
            meter.add(5.0 - 1e-8, 1.0)
        assert meter.rate(5.0) == before
