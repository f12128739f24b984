"""Section V-A: predictor latency (~70 us/layer, 3.66x vs PowerInfer) and
predictor memory (337.5 MB vs 1480 MB, 4.38x)."""

import pytest

from repro.eval.memusage import compare_predictor_memory, format_comparison
from repro.eval.overhead import predictor_overhead

from .conftest import write_result


@pytest.mark.benchmark(group="sec5a")
def test_predictor_latency(benchmark, cfg13, orin, results_dir):
    rep = benchmark(predictor_overhead, cfg13, orin)
    assert 50 < rep.sparseinfer_us < 90          # paper: ~70 us
    assert 3.0 < rep.speedup < 4.5               # paper: 3.66x
    text = (
        f"SparseInfer predictor: {rep.sparseinfer_us:.1f} us/token/layer "
        f"(paper ~70 us)\n"
        f"PowerInfer predictor:  {rep.powerinfer_us:.1f} us/token/layer\n"
        f"speedup: {rep.speedup:.2f}x (paper 3.66x)"
    )
    write_result(results_dir, "sec5a_predictor_latency.txt", text)
    print("\n" + text)


@pytest.mark.benchmark(group="sec5a")
def test_predictor_memory(benchmark, cfg13, results_dir):
    cmp = benchmark(compare_predictor_memory, cfg13)
    assert cmp.powerinfer_mib == pytest.approx(1480, rel=1e-3)
    assert cmp.sparseinfer_mib == pytest.approx(337.5, rel=1e-3)
    assert cmp.reduction_factor == pytest.approx(4.38, abs=0.05)
    text = format_comparison(cmp)
    write_result(results_dir, "sec5a_predictor_memory.txt", text)
    print("\n" + text)


@pytest.mark.benchmark(group="sec5a")
@pytest.mark.parametrize("batch", [1, 8])
def test_predictor_kernel_throughput(benchmark, cfg13, results_dir, batch):
    """Microbenchmark of the numpy XOR+popcount the serving engine runs
    (``PackedSigns.negative_counts_packed``, the kernel the 70 us figure
    models) at one layer's true dimensions, beside the reference
    ``xor_popcount`` it is tested against."""
    import timeit

    import numpy as np

    from repro.core.signpack import PackedSigns, pack_signs, xor_popcount

    def best_us(fn, *args):
        return min(timeit.repeat(lambda: fn(*args), number=1, repeat=5)) * 1e6

    rng = np.random.default_rng(0)
    w = rng.standard_normal((cfg13.d_ff, cfg13.d_model)).astype(np.float32)
    packed = PackedSigns.from_matrix(w)
    words = packed.words
    xs = rng.standard_normal((batch, cfg13.d_model)).astype(np.float32)
    packed_xs = pack_signs(xs)

    counts = benchmark(packed.negative_counts_packed, packed_xs)
    assert counts.shape == (batch, cfg13.d_ff)
    assert np.array_equal(counts, xor_popcount(words, packed_xs))
    engine_us = best_us(packed.negative_counts_packed, packed_xs)
    reference_us = best_us(xor_popcount, words, packed_xs)
    text = (
        f"B={batch}: negative_counts_packed {engine_us:.0f} us/layer, "
        f"reference xor_popcount {reference_us:.0f} us/layer, "
        f"ratio {reference_us / engine_us:.2f}x"
    )
    write_result(results_dir, f"sec5a_predictor_kernel_b{batch}.txt", text)
    print("\n" + text)


@pytest.mark.benchmark(group="sec5a")
@pytest.mark.parametrize("d_model,d_ff", [(256, 1024), (1024, 4096)])
def test_batch1_executor_vs_dense(benchmark, results_dir, d_model, d_ff):
    """Batch-1 MLP time per layer-token on the host: the sparse executor
    (``SparseInferMLP.run_with_skip``, with and without +AS) beside
    ``DenseMLP.run``, on ``random_weights(seed=13)`` at alpha 1.0 (the
    serving benchmark's ~0.48 predicted skip) and at the alpha whose skip
    is nearest 0.9 (the paper's ProSparse regime).  The predictor's own
    time is printed apart.  No ratio gate: these are the numbers
    ``docs/serving.md`` quotes, and the sparse-vs-dense verdict there
    is read off them."""
    import timeit

    import numpy as np

    from repro.core.sparse_mlp import SparseInferMLP
    from repro.model.config import ModelConfig
    from repro.model.mlp import DenseMLP
    from repro.model.weights import random_weights

    n_inputs = 64
    cfg = ModelConfig(name=f"mlp-{d_model}x{d_ff}", vocab_size=64,
                      d_model=d_model, n_layers=1, n_heads=4, d_ff=d_ff,
                      dtype_bytes=4)
    weights = random_weights(cfg, seed=13)
    xs = np.random.default_rng(0).standard_normal(
        (n_inputs, d_model)).astype(np.float32)
    dense = DenseMLP(weights)
    with_as = SparseInferMLP(weights)
    without_as = SparseInferMLP(weights, use_actual_sparsity=False)
    predictor = with_as.predictor

    def skip_at(alpha):
        return predictor.predict_batch(0, xs, alpha=alpha)

    tuned = min(np.arange(0.50, 1.00, 0.01),
                key=lambda a: abs(skip_at(a).mean() - 0.9))

    def per_token_us(fn):
        best = min(timeit.repeat(fn, number=1, repeat=5))
        return best / n_inputs * 1e6

    def sweep(mlp, skips):
        return lambda: [mlp.run_with_skip(0, x, s) for x, s in zip(xs, skips)]

    benchmark(with_as.run_with_skip, 0, xs[0], skip_at(1.0)[0])
    dense_us = per_token_us(lambda: [dense.run(0, x) for x in xs])
    lines = [f"d={d_model} d_ff={d_ff}: DenseMLP.run {dense_us:.0f} us"]
    for alpha in (1.0, round(float(tuned), 2)):
        skips = skip_at(alpha)
        with_as.reset_stats()
        sweep(with_as, skips)()
        predict_us = per_token_us(
            lambda: [predictor.predict(0, x, alpha=alpha) for x in xs])
        lines.append(
            f"  alpha {alpha:.2f} skip {skips.mean():.3f} "
            f"(+AS up/down skip {with_as.stats.up_skip_fraction:.3f}): "
            f"run_with_skip +AS {per_token_us(sweep(with_as, skips)):.0f} us, "
            f"-AS {per_token_us(sweep(without_as, skips)):.0f} us; "
            f"predictor {predict_us:.0f} us"
        )
    text = "\n".join(lines)
    write_result(results_dir, f"sec5a_batch1_executor_{d_model}.txt", text)
    print("\n" + text)
