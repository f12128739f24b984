"""The program surface: signature filter, seeded requests, tolerant adapters."""

import surface
import tracing
from workloads import WORKLOADS


def test_signature_filter_drops_knobs_the_constructor_lost():
    def constructor(self, weights, paged=False, page_size=16):
        pass

    kept, dropped = surface.accepted_kwargs(
        constructor, dict(paged=True, page_size=16, batched_attention=True)
    )
    assert kept == dict(paged=True, page_size=16)
    assert dropped == ["batched_attention"]


def test_signature_filter_passes_everything_to_var_keyword():
    def constructor(self, weights, **knobs):
        pass

    wanted = dict(paged=True, anything=1)
    assert surface.accepted_kwargs(constructor, wanted) == (wanted, [])


def test_every_serve_all_on_knob_is_still_accepted_at_landing():
    config = surface.resolved_config()
    assert config["engine_knobs"] == surface.ENGINE_KNOBS
    assert config["scheduler_knobs"] == surface.SCHEDULER_KNOBS
    assert config["engine_knobs_dropped"] == []
    assert config["scheduler_knobs_dropped"] == []


def _fingerprint(arrivals):
    return [
        (offset, r.request_id, r.prompt_ids, r.max_new_tokens)
        for offset, r in arrivals
    ]


def test_same_seed_gives_bit_identical_requests():
    for workload in WORKLOADS:
        args = (workload.scenario, workload.scenario_args, 12)
        first = surface.timed_requests(*args, seed=7, rate=workload.rate or 1.0)
        again = surface.timed_requests(*args, seed=7, rate=workload.rate or 1.0)
        other = surface.timed_requests(*args, seed=8, rate=workload.rate or 1.0)
        assert _fingerprint(first) == _fingerprint(again)
        assert _fingerprint(first) != _fingerprint(other)


def test_rate_moves_arrivals_but_not_shapes():
    slow = surface.timed_requests("default_mix", (), 12, seed=7, rate=16.0)
    fast = surface.timed_requests("default_mix", (), 12, seed=7, rate=32.0)
    assert [r.prompt_ids for _, r in slow] == [r.prompt_ids for _, r in fast]
    assert [t for t, _ in slow] != [t for t, _ in fast]
    assert all(a < b for a, b in zip([t for t, _ in slow], [t for t, _ in slow][1:]))


def test_missing_counter_reads_as_none_and_is_listed():
    class Report:
        peak_tick_prefill_tokens = 32

    class Scheduler:
        report = Report()

    values, missing = surface.read_counters(Scheduler(), engine=object())
    assert values["peak_tick_prefill_tokens"] == 32.0
    assert values["intersection_skip"] is None
    assert "intersection_skip" in missing and "gate_rows_read" in missing
    assert "peak_tick_prefill_tokens" not in missing
    assert set(values) == set(surface.COUNTER_PATHS)


def test_tracing_tolerates_a_target_that_moved_away(monkeypatch):
    monkeypatch.setattr(surface, "TRACE_TARGETS", surface.TRACE_TARGETS + (
        ("model.gone.function", "repro.model.mlp", "no_such_function", {}),
        ("model.gone.module", "repro.no_such_module", "anything", {}),
    ))
    from repro.model.mlp import DenseMLP
    original = DenseMLP.run_tokens
    tracer = tracing.Tracer()
    patches, missing = surface.install_tracing(tracer)
    try:
        assert missing == ["model.gone.function", "model.gone.module"]
        assert DenseMLP.run_tokens is not original
        assert "model.gone.module" in tracer.names      # a zero-call row
    finally:
        patches.remove()
    assert DenseMLP.run_tokens is original


def test_every_trace_target_resolves_at_landing():
    patches, missing = surface.install_tracing(tracing.Tracer())
    patches.remove()
    assert missing == []
