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
