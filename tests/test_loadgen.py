"""Statistical + determinism tests for the seeded load generator.

The arrival processes are the foundation the *strict*
(non-statistical) overload goodput gates at the end of this suite stand
on: those gates only make sense if the same seed always produces the
same trace.  So the suite locks bit-identical determinism first, then
sanity-checks each process's statistics (empirical mean rate near the
configured rate, on/off dwell structure, diurnal rate modulation) with
generous tolerances -- they guard against "wrong process" bugs (rate inverted,
thinning backwards), not against sampling noise.
"""

import numpy as np
import pytest

from repro.model.config import ModelConfig
from repro.model.weights import random_weights
from repro.core.predictor import SparseInferPredictor
from repro.serving import (
    BatchedEngine,
    ContinuousBatchingScheduler,
    DiurnalProcess,
    LoadGenerator,
    OnOffProcess,
    PoissonProcess,
    Request,
    SLOSpec,
    TimedRequest,
    run_trace,
)
from repro.workloads.scenarios import (
    ScenarioMix,
    chat_style,
    default_mix,
    fewshot_fleet,
    scenario_tokenizer,
    summarise_style,
)

ALL_PROCESSES = [
    PoissonProcess(rate=2.0),
    OnOffProcess(burst_rate=8.0, mean_on=1.0, mean_off=3.0),
    DiurnalProcess(low_rate=0.5, high_rate=4.0, period=25.0),
]


def simple_factory(rng, request_id):
    prompt_len = int(rng.integers(2, 6))
    prompt = tuple(int(t) for t in rng.integers(3, 10, size=prompt_len))
    return Request(
        request_id=request_id, prompt_ids=prompt,
        max_new_tokens=int(rng.integers(1, 5)),
    )


# -- determinism -----------------------------------------------------------


@pytest.mark.parametrize("process", ALL_PROCESSES,
                         ids=lambda p: type(p).__name__)
def test_same_seed_bit_identical_arrivals(process):
    a = process.arrival_times(300, np.random.default_rng(42))
    b = process.arrival_times(300, np.random.default_rng(42))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("process", ALL_PROCESSES,
                         ids=lambda p: type(p).__name__)
def test_different_seeds_differ(process):
    a = process.arrival_times(100, np.random.default_rng(1))
    b = process.arrival_times(100, np.random.default_rng(2))
    assert not np.array_equal(a, b)


def test_same_seed_bit_identical_trace():
    gen = LoadGenerator(PoissonProcess(1.5), simple_factory, seed=9)
    first = gen.trace(50)
    second = gen.trace(50)
    assert [
        (e.time, e.request.request_id, e.request.prompt_ids,
         e.request.max_new_tokens)
        for e in first
    ] == [
        (e.time, e.request.request_id, e.request.prompt_ids,
         e.request.max_new_tokens)
        for e in second
    ]


def test_arrival_and_shape_streams_independent():
    """Changing the shape factory must not move arrival times."""
    def other_factory(rng, request_id):
        rng.integers(0, 100, size=17)   # consume extra shape draws
        return simple_factory(rng, request_id)

    base = LoadGenerator(PoissonProcess(1.5), simple_factory, seed=9)
    other = LoadGenerator(PoissonProcess(1.5), other_factory, seed=9)
    assert [e.time for e in base.trace(40)] == \
        [e.time for e in other.trace(40)]


def test_request_ids_sequential_from_start_id():
    gen = LoadGenerator(PoissonProcess(3.0), simple_factory, seed=0)
    trace = gen.trace(10, start_id=100)
    assert sorted(e.request.request_id for e in trace) == list(range(100, 110))


# -- monotonicity + mean rate ---------------------------------------------


@pytest.mark.parametrize("process", ALL_PROCESSES,
                         ids=lambda p: type(p).__name__)
def test_arrivals_monotone_nonneg(process):
    times = process.arrival_times(500, np.random.default_rng(7))
    assert len(times) == 500
    assert times[0] >= 0.0
    assert np.all(np.diff(times) >= 0)


@pytest.mark.parametrize("process,expected_rate", [
    (PoissonProcess(rate=2.0), 2.0),
    (OnOffProcess(burst_rate=8.0, mean_on=1.0, mean_off=3.0), 2.0),
    # Diurnal mean rate over whole periods is (low + high) / 2.
    (DiurnalProcess(low_rate=1.0, high_rate=3.0, period=10.0), 2.0),
], ids=["poisson", "onoff", "diurnal"])
def test_empirical_mean_rate_within_tolerance(process, expected_rate):
    """Averaged over several seeds, arrivals/second ~= configured rate."""
    rates = []
    for seed in range(8):
        times = process.arrival_times(400, np.random.default_rng(seed))
        rates.append(400 / times[-1])
    mean = float(np.mean(rates))
    assert expected_rate * 0.7 < mean < expected_rate * 1.3, mean


def test_onoff_mean_rate_property():
    proc = OnOffProcess(burst_rate=10.0, mean_on=2.0, mean_off=3.0)
    assert proc.mean_rate == pytest.approx(10.0 * 2.0 / 5.0)


# -- process-shape sanity --------------------------------------------------


def test_onoff_burstier_than_poisson():
    """On/off gaps are bimodal: more tight gaps AND more huge gaps.

    Within a burst, gaps are ~Exp(burst_rate) (much tighter than the
    mean rate suggests); between bursts they include an OFF dwell.  A
    Poisson process at the same mean rate has neither excess.  The
    dispersion index (var/mean^2 of inter-arrival gaps, = 1 for
    exponential) separates the two cleanly.
    """
    onoff = OnOffProcess(burst_rate=16.0, mean_on=0.5, mean_off=3.5)
    poisson = PoissonProcess(rate=onoff.mean_rate)
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    gaps_onoff = np.diff(onoff.arrival_times(2000, rng_a))
    gaps_poisson = np.diff(poisson.arrival_times(2000, rng_b))
    cv2_onoff = np.var(gaps_onoff) / np.mean(gaps_onoff) ** 2
    cv2_poisson = np.var(gaps_poisson) / np.mean(gaps_poisson) ** 2
    assert cv2_poisson < 2.0          # exponential gaps: CV^2 ~= 1
    assert cv2_onoff > 2.0 * cv2_poisson


def test_onoff_dwell_times_sane():
    """Bursts actually cluster: the median gap is a burst-internal gap."""
    proc = OnOffProcess(burst_rate=16.0, mean_on=0.5, mean_off=3.5)
    gaps = np.diff(proc.arrival_times(2000, np.random.default_rng(11)))
    # Median gap should look like Exp(burst_rate), far below the mean
    # inter-arrival time at the long-run rate (1 / 2 = 0.5s here).
    assert np.median(gaps) < 1.0 / proc.mean_rate
    # And the tail must contain genuine idle dwells.
    assert np.max(gaps) > proc.mean_off / 2


def test_diurnal_peak_vs_trough_density():
    """More arrivals land near the rate peak than near the trough."""
    proc = DiurnalProcess(low_rate=0.5, high_rate=8.0, period=20.0)
    times = proc.arrival_times(3000, np.random.default_rng(5))
    phase = np.mod(times, proc.period) / proc.period
    # Trough at phase 0/1, peak at phase 0.5.
    near_peak = np.sum((phase > 0.35) & (phase < 0.65))
    near_trough = np.sum((phase < 0.15) | (phase > 0.85))
    assert near_peak > 2 * near_trough


def test_diurnal_rate_at_endpoints():
    proc = DiurnalProcess(low_rate=1.0, high_rate=5.0, period=12.0)
    assert proc.rate_at(0.0) == pytest.approx(1.0)
    assert proc.rate_at(6.0) == pytest.approx(5.0)
    assert proc.rate_at(12.0) == pytest.approx(1.0)


# -- validation ------------------------------------------------------------


def test_process_validation():
    with pytest.raises(ValueError):
        PoissonProcess(rate=0.0)
    with pytest.raises(ValueError):
        OnOffProcess(burst_rate=-1.0, mean_on=1.0, mean_off=1.0)
    with pytest.raises(ValueError):
        OnOffProcess(burst_rate=1.0, mean_on=0.0, mean_off=1.0)
    with pytest.raises(ValueError):
        DiurnalProcess(low_rate=2.0, high_rate=1.0, period=10.0)
    with pytest.raises(ValueError):
        DiurnalProcess(low_rate=1.0, high_rate=2.0, period=0.0)
    with pytest.raises(ValueError):
        PoissonProcess(1.0).arrival_times(-1, np.random.default_rng(0))


def test_loadgen_validation():
    with pytest.raises(ValueError):
        LoadGenerator(object(), simple_factory)
    with pytest.raises(ValueError):
        LoadGenerator(PoissonProcess(1.0), "not callable")
    gen = LoadGenerator(PoissonProcess(1.0), simple_factory)
    with pytest.raises(ValueError):
        gen.trace(-1)
    with pytest.raises(ValueError):
        run_trace(None, [], ticks_per_second=0.0)


# -- scenarios -------------------------------------------------------------


def test_scenario_shapes():
    tok = scenario_tokenizer()
    rng = np.random.default_rng(0)
    fleet = fewshot_fleet(n_shots=4)
    summarise = summarise_style(n_documents=6)
    chat = chat_style()
    fleet_reqs = [fleet.build(rng, i, tok) for i in range(10)]
    summ_reqs = [summarise.build(rng, i, tok) for i in range(10)]
    chat_reqs = [chat.build(rng, i, tok) for i in range(10)]
    # Fleet requests share the full exemplar prefix.
    shared = fleet_reqs[0].common_prefix_len(fleet_reqs[1].prompt_ids)
    assert shared > fleet_reqs[0].prompt_len // 2
    # Summarise: long prompt, short output.  Chat: the opposite balance.
    assert min(r.prompt_len for r in summ_reqs) > \
        max(r.prompt_len for r in chat_reqs)
    assert min(r.max_new_tokens for r in chat_reqs) > \
        max(r.max_new_tokens for r in summ_reqs)
    # SLO class tags ride along.
    assert {r.slo.slo_class for r in fleet_reqs} == {"fleet"}
    assert {r.slo.slo_class for r in chat_reqs} == {"interactive"}


def test_scenario_mix_weights_and_determinism():
    mix = ScenarioMix(
        [chat_style(), summarise_style()], weights=[0.9, 0.1]
    )
    rng = np.random.default_rng(1)
    names = [mix.draw(rng).name for _ in range(300)]
    assert names.count("chat_style") > names.count("summarise_style") * 3
    factory = mix.factory()
    a = LoadGenerator(PoissonProcess(2.0), factory, seed=4).trace(30)
    b = LoadGenerator(PoissonProcess(2.0), factory, seed=4).trace(30)
    assert [e.request.prompt_ids for e in a] == \
        [e.request.prompt_ids for e in b]


def test_scenario_mix_validation():
    with pytest.raises(ValueError):
        ScenarioMix([])
    with pytest.raises(ValueError):
        ScenarioMix([chat_style()], weights=[1.0, 2.0])
    with pytest.raises(ValueError):
        ScenarioMix([chat_style()], weights=[-1.0])
    with pytest.raises(ValueError):
        chat_style(min_turn_tokens=9, max_turn_tokens=3)


# -- run_trace integration -------------------------------------------------


def _scenario_engine(max_batch_size=4):
    tok = scenario_tokenizer()
    config = ModelConfig(
        name="micro-scenario", vocab_size=tok.vocab_size, d_model=32,
        n_layers=2, n_heads=2, d_ff=64, max_seq_len=192, dtype_bytes=4,
    )
    weights = random_weights(config, seed=11)
    predictor = SparseInferPredictor.from_gate_weights(
        weights.gate_matrices()
    )
    return BatchedEngine(
        weights, predictor=predictor,
        max_batch_size=max_batch_size, n_pages=96, page_size=16,
    )


def test_run_trace_drains_and_respects_arrival_order():
    submitted = []
    trace = LoadGenerator(
        PoissonProcess(1.0), default_mix().factory(), seed=7
    ).trace(12)
    scheduler = ContinuousBatchingScheduler(_scenario_engine())
    original_submit = scheduler.submit

    def spy(request):
        submitted.append((scheduler.step_count, request.request_id))
        original_submit(request)

    scheduler.submit = spy
    report = run_trace(scheduler, trace, ticks_per_second=2.0)
    assert len(report.completions) == 12
    assert scheduler.idle
    # Submissions happen in trace order, at non-decreasing ticks, and
    # no earlier than each arrival time allows.
    ticks = [t for t, _ in submitted]
    assert ticks == sorted(ticks)
    by_id = {e.request.request_id: e.time for e in trace}
    for tick, rid in submitted:
        assert tick / 2.0 >= by_id[rid] or tick == 0


def test_run_trace_submitted_step_matches_virtual_clock():
    trace = LoadGenerator(
        PoissonProcess(0.5), default_mix().factory(), seed=3
    ).trace(8)
    scheduler = ContinuousBatchingScheduler(_scenario_engine())
    report = run_trace(scheduler, trace, ticks_per_second=1.0)
    by_id = {e.request.request_id: e.time for e in trace}
    for completion in report.completions:
        arrival = by_id[completion.request.request_id]
        # Submitted at the first tick whose virtual time covers the
        # arrival -- never before it.
        assert completion.submitted_step >= arrival - 1
        assert completion.submitted_step <= arrival + 1 + 1


@pytest.fixture(scope="module")
def overload_rate():
    """1.5x the service rate, in requests per tick, of a 40-request drain."""
    scheduler = ContinuousBatchingScheduler(_scenario_engine())
    factory = default_mix().factory()
    rng = np.random.default_rng(0)
    for i in range(40):
        scheduler.submit(factory(rng, i))
    scheduler.run()
    return 1.5 * 40 / scheduler.step_count


@pytest.mark.parametrize("shape", ["poisson", "onoff"])
def test_deadline_beats_fifo_on_seeded_overload_traces(overload_rate, shape):
    """On one seeded scenario-mix trace at 1.5x measured capacity,
    deadline admission sheds hopeless requests and strictly out-goodputs
    fifo.  The on/off trace has the Poisson trace's mean rate, delivered
    in bursts at 6x it (duty cycle 1/6)."""
    if shape == "poisson":
        process = PoissonProcess(rate=overload_rate)
    else:
        process = OnOffProcess(burst_rate=6 * overload_rate,
                               mean_on=8.0, mean_off=40.0)
    trace = LoadGenerator(process, default_mix().factory(), seed=7).trace(60)
    reports = {}
    for admission in ("fifo", "deadline"):
        scheduler = ContinuousBatchingScheduler(_scenario_engine(),
                                                admission=admission)
        report = run_trace(scheduler, trace, ticks_per_second=1.0)
        assert scheduler.engine.cache.n_pages_in_use == 0
        assert report.slo_met_requests + report.slo_missed_requests \
            + report.shed_requests == len(report.completions) == 60
        reports[admission] = report
    assert reports["fifo"].shed_requests == 0
    assert reports["deadline"].shed_requests > 0
    assert reports["deadline"].goodput_tokens > reports["fifo"].goodput_tokens


def test_run_trace_max_steps_guard():
    # One request arriving far in the future forces tick spinning.
    request = Request(request_id=0, prompt_ids=(3, 4), max_new_tokens=1)
    trace = [TimedRequest(time=10_000.0, request=request)]
    scheduler = ContinuousBatchingScheduler(_scenario_engine())
    with pytest.raises(RuntimeError):
        run_trace(scheduler, trace, ticks_per_second=1.0, max_steps=50)


def test_slospec_validation():
    with pytest.raises(ValueError):
        SLOSpec(slo_class="")
    with pytest.raises(ValueError):
        SLOSpec(ttft_steps=0)
    with pytest.raises(ValueError):
        SLOSpec(itl_steps=-2)
    spec = SLOSpec("x", ttft_steps=3, itl_steps=2)
    assert spec.met(0, [3]) and not spec.met(0, [4])
    assert spec.met(5, [6, 8]) and not spec.met(5, [6, 9])
    assert spec.met(0, [])   # vacuous: no token ever owed... emitted
