"""Figure 8: kernel latency breakdown for the 1-GPU-per-node validation
setup (4 nodes x 1 GPU, GPT3-13B and Mixtral-4x7B).

Paper shape: with uniform inter-node bandwidth and no NIC sharing,
PP-heavy communication time drops significantly, but TP-heavy setups
still pay over 10x more communication than PP-only; Mixtral communication
exceeds 50% of total kernel latency.
"""

from paper import comm_seconds, print_table

from repro.core.sweep import cached_run
from repro.hardware.cluster import H200_X32, one_gpu_per_node
from repro.parallelism.strategy import OptimizationConfig

CLUSTER = one_gpu_per_node(H200_X32, num_nodes=4)
GRID = [
    ("gpt3-13b", "TP4-PP1"),
    ("gpt3-13b", "TP2-PP2"),
    ("gpt3-13b", "TP1-PP4"),
    ("mixtral-4x7b", "EP4-TP1-PP1"),
]


def _train(model, strategy):
    return cached_run(
        "train",
        model=model,
        cluster=CLUSTER,
        parallelism=strategy,
        optimizations=OptimizationConfig(),
        microbatch_size=1,
        global_batch_size=32,
    )


def test_fig08_one_gpu_per_node(benchmark):
    def build():
        return {
            (model, strategy): _train(model, strategy)
            for model, strategy in GRID
        }

    results = benchmark.pedantic(build, rounds=1, iterations=1)

    rows = []
    for (model, strategy), result in results.items():
        total = result.kernel_breakdown().total()
        comm = comm_seconds(result)
        rows.append(
            (model, strategy, comm, total, 100.0 * comm / total)
        )
    print_table(
        "Figure 8: 1-GPU-per-node kernel latency breakdown",
        ["Model", "Strategy", "Comm s", "Total s", "Comm %"],
        rows,
    )

    # TP spanning nodes is catastrophically communication-bound: >10x the
    # PP-only communication time.
    tp_comm = comm_seconds(results[("gpt3-13b", "TP4-PP1")])
    pp_comm = comm_seconds(results[("gpt3-13b", "TP1-PP4")])
    assert tp_comm > 10 * pp_comm

    # Mixtral's cross-node all-to-all approaches the paper's ">50% of
    # total latency" (we measure ~half).
    moe = results[("mixtral-4x7b", "EP4-TP1-PP1")]
    moe_fraction = comm_seconds(moe) / moe.kernel_breakdown().total()
    assert moe_fraction > 0.40
