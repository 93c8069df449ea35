"""End-to-end statistical validation of the §3.3 error-estimation claims.

These tests treat the whole stack as a statistical instrument and check it
against sampling theory: estimator unbiasedness, CI coverage at the
68/95/99.7 levels, variance shrinkage laws, and the coverage of the
systems' per-pane bounds on live streams.  They are slower than unit tests
(hundreds of repeated sampling runs) but deterministic.
"""

import math
import random
import statistics

import pytest

from repro.core.error import estimate_error
from repro.core.oasrs import FixedPerStratum, OASRSSampler, oasrs_sample
from repro.core.query import approximate_mean, approximate_sum
from repro.core.records import item_key
from repro.core.reservoir import Reservoir
from repro.metrics.accuracy import coverage_rate
from repro.runtime import ListSource, build_plan, execute_plan
from repro.runtime.report import exact_panes, join_ground_truth
from repro.system import (
    FlinkStreamApproxSystem,
    SparkStreamApproxSystem,
    StreamQuery,
    SystemConfig,
    WindowConfig,
)
from repro.workloads.synthetic import SubStreamSpec, make_stream, stream_by_rates

KEY = lambda it: it[0]  # noqa: E731
VAL = lambda it: it[1]  # noqa: E731


def population(seed=0, sizes=((("a"), 3000, 50, 10), (("b"), 600, 500, 60))):
    rng = random.Random(seed)
    items = []
    for key, n, mu, sigma in sizes:
        items.extend((key, rng.gauss(mu, sigma)) for _ in range(n))
    rng.shuffle(items)
    return items


class TestUnbiasedness:
    def test_sum_estimator_unbiased(self):
        items = population(seed=1)
        truth = sum(VAL(it) for it in items)
        estimates = [
            approximate_sum(
                oasrs_sample(items, 150, key_fn=KEY, rng=random.Random(s)), VAL
            ).value
            for s in range(400)
        ]
        mean_est = statistics.fmean(estimates)
        # Standard error of the mean of 400 estimates is small; 1% margin
        # comfortably detects real bias while tolerating noise.
        assert abs(mean_est - truth) / truth < 0.01

    def test_mean_estimator_unbiased(self):
        items = population(seed=2)
        truth = statistics.fmean(VAL(it) for it in items)
        estimates = [
            approximate_mean(
                oasrs_sample(items, 150, key_fn=KEY, rng=random.Random(s)), VAL
            ).value
            for s in range(400)
        ]
        assert abs(statistics.fmean(estimates) - truth) / truth < 0.01


class TestVarianceLaws:
    def test_variance_estimate_tracks_empirical_variance(self):
        """The Eq.-6 estimate should match the spread of repeated estimates."""
        items = population(seed=3)
        estimates, predicted = [], []
        for s in range(300):
            sample = oasrs_sample(items, 120, key_fn=KEY, rng=random.Random(s))
            result = approximate_sum(sample, VAL)
            estimates.append(result.value)
            predicted.append(estimate_error(result).variance)
        empirical = statistics.pvariance(estimates)
        mean_predicted = statistics.fmean(predicted)
        assert 0.5 < mean_predicted / empirical < 2.0

    def test_variance_shrinks_as_one_over_y(self):
        """Doubling the sample size ≈ halves the variance (C ≫ Y regime)."""
        items = population(seed=4, sizes=[("a", 20_000, 100, 20)])
        def var_at(y):
            sample = oasrs_sample(items, y, key_fn=KEY, rng=random.Random(1))
            return estimate_error(approximate_sum(sample, VAL)).variance

        ratio = var_at(100) / var_at(200)
        assert 1.6 < ratio < 2.6


class TestCoverageLevels:
    @pytest.mark.parametrize(
        "confidence,z,minimum",
        [(0.68, 1.0, 0.55), (0.95, 2.0, 0.88), (0.997, 3.0, 0.97)],
    )
    def test_cis_cover_at_nominal_rates(self, confidence, z, minimum):
        """The 68-95-99.7 rule holds end to end for the SUM estimator."""
        items = population(seed=5)
        truth = sum(VAL(it) for it in items)
        covered = 0
        trials = 250
        for s in range(trials):
            sample = oasrs_sample(items, 150, key_fn=KEY, rng=random.Random(s))
            bound = estimate_error(approximate_sum(sample, VAL), confidence=confidence)
            covered += bound.covers(truth)
        assert covered / trials >= minimum

    def test_coverage_ordering_across_levels(self):
        items = population(seed=6)
        truth = sum(VAL(it) for it in items)
        rates = {}
        for confidence in (0.68, 0.95, 0.997):
            covered = 0
            for s in range(150):
                sample = oasrs_sample(items, 100, key_fn=KEY, rng=random.Random(s))
                bound = estimate_error(
                    approximate_sum(sample, VAL), confidence=confidence
                )
                covered += bound.covers(truth)
            rates[confidence] = covered / 150
        assert rates[0.68] <= rates[0.95] <= rates[0.997]


class TestSystemLevelCoverage:
    @pytest.mark.parametrize(
        "cls", [SparkStreamApproxSystem, FlinkStreamApproxSystem]
    )
    def test_pane_bounds_cover_truth(self, cls):
        """Across many panes, the per-pane 95% bounds cover ≈95% of truths."""
        stream = stream_by_rates(
            {"A": 3000, "B": 800, "C": 40}, duration=60, seed=7
        )
        query = StreamQuery(key_fn=KEY, value_fn=VAL, kind="mean")
        report = cls(
            query, WindowConfig(10.0, 5.0), SystemConfig(sampling_fraction=0.2)
        ).run(stream)
        assert len(report.results) >= 10
        assert coverage_rate(report) >= 0.8

    def test_margin_scales_with_z(self):
        items = population(seed=8)
        sample = oasrs_sample(items, 100, key_fn=KEY, rng=random.Random(0))
        result = approximate_sum(sample, VAL)
        m68 = estimate_error(result, confidence=0.68).margin
        m95 = estimate_error(result, confidence=0.95).margin
        m997 = estimate_error(result, confidence=0.997).margin
        assert m95 == pytest.approx(2 * m68)
        assert m997 == pytest.approx(3 * m68)

    def test_relative_error_improves_with_fraction_on_live_system(self):
        stream = stream_by_rates({"A": 4000, "B": 1000}, duration=20, seed=9)
        query = StreamQuery(key_fn=KEY, value_fn=VAL, kind="mean")
        margins = {}
        for fraction in (0.05, 0.4):
            report = SparkStreamApproxSystem(
                query, WindowConfig(10.0, 5.0), SystemConfig(sampling_fraction=fraction)
            ).run(stream)
            margins[fraction] = statistics.fmean(
                r.error.relative_margin for r in report.results if r.error
            )
        assert margins[0.4] < margins[0.05]


class TestManyStrataChunkedCoverage:
    """The one draw rule is *right*, not merely unchanged.

    200 equal-rate strata through the default ``chunk_size`` 0 and through
    ``chunk_size=256`` on every engine: over 200 sampler seeds the reported
    95 % intervals must cover the exact pane answer at the nominal rate.  Three binomial standard deviations
    over the 200 independent runs are 0.046; the mean/sum band below is
    tighter, and two-sided — an interval that is too wide is as wrong as
    one that is too narrow.  The p90 DKW bracket is conservative by
    construction (it treats the weighted sample as ``n_eff`` i.i.d. draws
    and brackets with sampled support values), so its floor is one-sided:
    0.95 minus those three σ.  Achieved rates are recorded in
    docs/benchmarks.md.
    """

    WINDOW = WindowConfig(6.0, 3.0)
    SEEDS = 200
    DKW_FLOOR = 0.95 - 3 * math.sqrt(0.95 * 0.05 / SEEDS)

    @pytest.fixture(scope="class")
    def stream(self):
        specs = [
            SubStreamSpec(f"s{i:03d}", "gaussian", mu=10.0 * (i + 1), sigma=1.0 + i % 7)
            for i in range(200)
        ]
        return make_stream(specs, {spec.source: 6.0 for spec in specs}, 9.0, seed=5)

    @pytest.mark.parametrize("kind", ["mean", "sum", "quantile"])
    @pytest.mark.parametrize("engine", ["direct", "pipelined", "batched"])
    @pytest.mark.parametrize("chunk", [0, 256])
    def test_intervals_cover_at_the_nominal_rate(self, stream, chunk, engine, kind):
        query = StreamQuery(kind=kind, q=0.9, name=kind)
        truth = exact_panes(stream, query, self.WINDOW)
        covered = panes = 0
        for seed in range(self.SEEDS):
            plan = build_plan(
                query, self.WINDOW,
                SystemConfig(sampling_fraction=0.3, seed=seed, chunk_size=chunk),
                engine=engine, strategy="oasrs", source=ListSource(stream), name=kind,
            )
            results, _cluster = execute_plan(plan)
            for pane in join_ground_truth(results, truth):
                panes += 1
                covered += pane.error.covers(pane.exact)
        assert panes >= 3 * self.SEEDS
        if kind == "quantile":
            assert covered / panes >= self.DKW_FLOOR, (chunk, engine, covered, panes)
        else:
            assert 0.92 <= covered / panes <= 0.98, (chunk, engine, kind, covered, panes)


class TestSegmentedRuleMatchesTheItemRule:
    """Two-sample test: the segmented rule keeps what the item rule kept.

    The item rule is the per-item Algorithm R that the default
    ``chunk_size`` used to run — one ``random()`` and, on acceptance, one
    ``randrange(N)`` per steady arrival on the sampler's shared
    ``random.Random``, in stream order; a `Reservoir` per stratum on one
    shared generator makes exactly those calls.  Both rules keep
    ``min(C, N)`` items per stratum, so what is compared is *which*
    arrivals they keep: per stratum, the kept counts in ten arrival-order
    deciles over 400 seeds, as a 2 × 10 chi-square homogeneity test.  Its
    critical value at the 0.1 % level (9 degrees of freedom) is 27.88; a
    rule that favoured early or late arrivals fails it.
    """

    SEEDS = 400
    SIZES = {"a": 900, "b": 300, "c": 120}
    CAPACITY = 40
    DECILES = 10
    CRITICAL = 27.88  # chi-square, 9 degrees of freedom, upper 0.1 %

    @pytest.fixture(scope="class")
    def items(self):
        """One interval; an item's value is its arrival index in its stratum."""
        keys = [key for key, size in self.SIZES.items() for _ in range(size)]
        random.Random(3).shuffle(keys)
        arrivals = dict.fromkeys(self.SIZES, 0)
        items = []
        for key in keys:
            items.append((key, float(arrivals[key])))
            arrivals[key] += 1
        return items

    def kept_by_decile(self, items, keep):
        table = {key: [0] * self.DECILES for key in self.SIZES}
        for seed in range(self.SEEDS):
            for key, arrival in keep(items, seed):
                table[key][int(arrival) * self.DECILES // self.SIZES[key]] += 1
        return table

    def segmented(self, items, seed):
        sampler = OASRSSampler(
            FixedPerStratum(self.CAPACITY), item_key, random.Random(seed)
        )
        sampler.offer_many(items)
        return sampler.close_interval().all_items()

    def item_rule(self, items, seed):
        rng = random.Random(seed)
        reservoirs = {key: Reservoir(self.CAPACITY, rng=rng) for key in self.SIZES}
        for item in items:
            reservoirs[item[0]].offer(item)
        return [item for reservoir in reservoirs.values() for item in reservoir]

    def test_kept_arrivals_are_homogeneous_per_stratum(self, items):
        segmented = self.kept_by_decile(items, self.segmented)
        item_rule = self.kept_by_decile(items, self.item_rule)
        for key, size in self.SIZES.items():
            rows = (segmented[key], item_rule[key])
            kept = self.SEEDS * min(size, self.CAPACITY)
            assert sum(rows[0]) == sum(rows[1]) == kept
            statistic = 0.0
            for column in zip(*rows):
                expected = sum(column) / 2  # the two rows have equal totals
                statistic += sum((seen - expected) ** 2 / expected for seen in column)
            assert statistic < self.CRITICAL, (key, statistic, rows)
