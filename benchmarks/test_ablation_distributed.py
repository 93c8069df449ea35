"""Ablation: distributed OASRS — w local reservoirs of N/w vs one of N.

§3.2 claims OASRS parallelises without synchronization: each worker keeps a
local reservoir of capacity N/w plus a local counter, and the coordinator
merge is a concatenation + counter sum.  This bench verifies the two
halves of that claim:

* **statistics**: the merged estimate's accuracy is indistinguishable from
  a single global reservoir of size N, for any worker count, and
* **cost**: the distributed path crosses zero synchronization barriers,
  in contrast to an STS-style groupBy at the same sample size.

The sharded side is `ShardedExecutor`, the executor behind
``SystemConfig(parallelism=N)``.
"""

import random
import statistics

from repro.core.distributed import ShardedExecutor
from repro.core.oasrs import FixedPerStratum, oasrs_sample
from repro.core.query import approximate_sum
from repro.engine.batched.rdd import MiniRDD
from repro.engine.cluster import SimulatedCluster
from repro.system.base import accuracy_loss

from conftest import KEY, RESULTS_DIR, VAL

WORKER_COUNTS = (1, 2, 4, 8)
CAPACITY = 240  # divisible by every worker count
TRIALS = 40


def make_stream(seed=51):
    rng = random.Random(seed)
    items = [("A", rng.gauss(100, 10)) for _ in range(20_000)] + [
        ("B", rng.gauss(5000, 500)) for _ in range(2_000)
    ]
    rng.shuffle(items)
    return items


def mean_loss_distributed(stream, workers, truth):
    losses = []
    for seed in range(TRIALS):
        executor = ShardedExecutor(
            workers, FixedPerStratum(CAPACITY), key_fn=KEY, seed=seed
        )
        est = approximate_sum(executor.run(stream), VAL).value
        losses.append(accuracy_loss(est, truth))
    return statistics.fmean(losses)


def sweep():
    stream = make_stream()
    truth = sum(VAL(item) for item in stream)
    single = statistics.fmean(
        accuracy_loss(
            approximate_sum(
                oasrs_sample(stream, CAPACITY, key_fn=KEY, rng=random.Random(seed)), VAL
            ).value,
            truth,
        )
        for seed in range(TRIALS)
    )
    distributed = {w: mean_loss_distributed(stream, w, truth) for w in WORKER_COUNTS}
    return single, distributed, stream


def test_ablation_distributed(benchmark):
    single, distributed, stream = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [
        "ablation_distributed — mean relative error of the SUM estimate",
        f"single global reservoir (N={CAPACITY})      loss={single:.5f}",
    ]
    for workers, loss in distributed.items():
        lines.append(f"{workers} workers × N/{workers} local reservoirs   loss={loss:.5f}")
        benchmark.extra_info[f"loss/workers={workers}"] = round(loss, 6)
        # Statistically indistinguishable from the single reservoir: same
        # order of magnitude, no systematic blow-up with worker count.
        assert loss < max(3.0 * single, 0.02)

    # Zero synchronization on the distributed-OASRS path...
    cluster = SimulatedCluster()
    cluster.sample_items(len(stream), "oasrs")
    assert cluster.stats.barriers == 0

    # ...whereas an STS-style groupBy at the same budget must synchronise.
    sts_cluster = SimulatedCluster()
    rdd = MiniRDD.parallelize(sts_cluster, stream)
    rdd.sample_by_key(CAPACITY * 2 / len(stream), rng=random.Random(0)).collect()
    assert sts_cluster.stats.barriers > 0
    lines.append(
        f"barriers: distributed OASRS = 0, STS groupBy = {sts_cluster.stats.barriers}"
    )

    text = "\n".join(lines)
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_distributed.txt").write_text(text + "\n")
