"""Tests for stratum bookkeeping and Equation-1 weights."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import approximate_sum
from repro.core.strata import (
    StratumSample,
    WeightedSample,
    combine_worker_samples,
    stratum_weight,
)


class TestStratumWeight:
    def test_overflowed_stratum_scales(self):
        assert stratum_weight(count=6, sample_size=3) == pytest.approx(2.0)

    def test_underfull_stratum_weight_one(self):
        assert stratum_weight(count=2, sample_size=3) == 1.0
        assert stratum_weight(count=3, sample_size=3) == 1.0

    def test_empty_stratum(self):
        assert stratum_weight(0, 0) == 1.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            stratum_weight(-1, 3)
        with pytest.raises(ValueError):
            stratum_weight(3, -1)

    @settings(max_examples=100)
    @given(c=st.integers(0, 10**6), y=st.integers(1, 10**4))
    def test_weight_reconstructs_population(self, c, y):
        """y * W == max(c, y): kept items stand for the whole stratum."""
        w = stratum_weight(c, y)
        assert y * w == pytest.approx(max(c, y))


class TestStratumSample:
    def test_paper_figure2_weights(self):
        """Figure 2: reservoirs of size 3, C = (6, 4, 2) → W = (2, 4/3, 1)."""
        s1 = StratumSample("S1", tuple(range(3)), 6, stratum_weight(6, 3))
        s2 = StratumSample("S2", tuple(range(3)), 4, stratum_weight(4, 3))
        s3 = StratumSample("S3", tuple(range(2)), 2, stratum_weight(2, 2))
        assert s1.weight == pytest.approx(2.0)
        assert s2.weight == pytest.approx(4.0 / 3.0)
        assert s3.weight == 1.0

    def test_count_below_sample_rejected(self):
        with pytest.raises(ValueError):
            StratumSample("x", (1, 2, 3), 2, 1.0)

    def test_estimated_count(self):
        s = StratumSample("x", (1.0, 2.0), 10, 5.0)
        assert s.estimated_count == pytest.approx(10.0)

    def test_values_with_fn(self):
        s = StratumSample("x", (("a", 2.0), ("a", 4.0)), 2, 1.0)
        assert s.values(lambda kv: kv[1]) == [2.0, 4.0]


class TestWeightedSample:
    def _make(self):
        ws = WeightedSample()
        ws.add(StratumSample("a", (1.0, 2.0, 3.0), 6, 2.0))
        ws.add(StratumSample("b", (10.0,), 1, 1.0))
        return ws

    def test_duplicate_stratum_rejected(self):
        ws = self._make()
        with pytest.raises(KeyError):
            ws.add(StratumSample("a", (5.0,), 1, 1.0))

    def test_totals(self):
        ws = self._make()
        assert ws.total_items == 4
        assert ws.total_count == 7
        assert ws.sampling_fraction == pytest.approx(4 / 7)

    def test_container_protocol(self):
        ws = self._make()
        assert "a" in ws and "c" not in ws
        assert len(ws) == 2
        assert ws["b"].count == 1
        assert sorted(ws.keys) == ["a", "b"]

    def test_all_and_weighted_items(self):
        ws = self._make()
        assert sorted(ws.all_items()) == [1.0, 2.0, 3.0, 10.0]
        assert ws["a"].weight == 2.0 and ws["b"].weight == 1.0

    def test_all_items_of_a_value_mode_sample_stay_columns(self):
        """Same items, order and types as the flat list — without building it."""
        from repro.core.oasrs import FixedPerStratum, OASRSSampler
        from repro.core.records import ColumnSlice, RecordBatch, item_key
        from repro.engine.batched.rdd import _split

        rng = random.Random(4)
        items = [(rng.choice(["a", "b", 7]), rng.gauss(0.0, 1.0)) for _ in range(900)]
        batch = RecordBatch([(float(i), item) for i, item in enumerate(items)])
        sampler = OASRSSampler(FixedPerStratum(40), item_key, random.Random(1))
        sampler.process_chunk(batch.item_slice(0, len(items)))
        ws = sampler.close_interval()
        flat = [item for stratum in ws for item in stratum.items]  # the list form
        kept = ws.all_items()
        assert type(kept) is ColumnSlice and len(kept) == len(flat) == 120
        assert list(kept) == flat and [kept[i] for i in range(len(kept))] == flat
        assert {type(item) for item in kept} == {tuple}
        assert {type(value) for _key, value in kept} == {float}
        for parts in (1, 8, 13):
            assert [list(part) for part in _split(kept, parts)] == _split(flat, parts)

        # One tuple-backed stratum and the whole sample is the list it was.
        ws.add(StratumSample("t", (("t", 1.0), ("t", 2.0)), 2, 1.0))
        assert ws.all_items() == flat + [("t", 1.0), ("t", 2.0)]
        assert WeightedSample().all_items() == []

    def test_scaled_total(self):
        ws = self._make()
        # (1+2+3)*2 + 10*1 = 22
        assert approximate_sum(ws).value == pytest.approx(22.0)

    def test_empty_sample_fraction_zero(self):
        assert WeightedSample().sampling_fraction == 0.0


class TestMerge:
    def test_merge_disjoint_strata(self):
        left = WeightedSample()
        left.add(StratumSample("a", (1.0,), 1, 1.0))
        right = WeightedSample()
        right.add(StratumSample("b", (2.0,), 5, 5.0))
        merged = left.merge(right)
        assert sorted(merged.keys) == ["a", "b"]
        assert merged["b"].weight == 5.0

    def test_merge_same_stratum_rederives_weight(self):
        """Worker merge: counts add, reservoirs concatenate, W from Eq. 1."""
        w1 = WeightedSample()
        w1.add(StratumSample("s", (1.0, 2.0), 10, 5.0))
        w2 = WeightedSample()
        w2.add(StratumSample("s", (3.0, 4.0), 14, 7.0))
        merged = w1.merge(w2)
        s = merged["s"]
        assert s.count == 24
        assert s.sample_size == 4
        assert s.weight == pytest.approx(6.0)

    def test_merge_keeps_first_appearance_order(self):
        """Stratum order is self's keys then the other's new keys — never set
        order, which would tie the error bounds' last bits to PYTHONHASHSEED."""
        left = WeightedSample()
        for key in ("zeta", "alpha"):
            left.add(StratumSample(key, (1.0,), 1, 1.0))
        right = WeightedSample()
        for key in ("mid", "alpha", "beta"):
            right.add(StratumSample(key, (2.0,), 1, 1.0))
        assert left.merge(right).keys == ["zeta", "alpha", "mid", "beta"]
        assert combine_worker_samples([right, left]).keys == [
            "mid", "alpha", "beta", "zeta",
        ]

    def test_combine_worker_samples_empty(self):
        assert len(combine_worker_samples([])) == 0

    def test_combine_many_workers(self):
        parts = []
        for i in range(4):
            ws = WeightedSample()
            ws.add(StratumSample("s", (float(i),), 3, 3.0))
            parts.append(ws)
        merged = combine_worker_samples(parts)
        assert merged["s"].count == 12
        assert merged["s"].sample_size == 4
        assert merged["s"].weight == pytest.approx(3.0)

    @settings(max_examples=50)
    @given(
        counts=st.lists(st.integers(1, 50), min_size=1, max_size=6),
        kept=st.data(),
    )
    def test_merge_preserves_population(self, counts, kept):
        """Σ estimated populations is invariant under worker merge."""
        parts = []
        for i, c in enumerate(counts):
            y = kept.draw(st.integers(1, c))
            ws = WeightedSample()
            ws.add(StratumSample("s", tuple(float(j) for j in range(y)), c, stratum_weight(c, y)))
            parts.append(ws)
        merged = combine_worker_samples(parts)
        assert merged["s"].count == sum(counts)
