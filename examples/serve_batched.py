"""Serve a queue of requests through the batched sparse-decode engine.

Builds a small ReLU-fied model, submits a mixed-length request workload,
and drains it twice: through a batch-1 scheduler (token-identical to the
classic one-request-at-a-time engine) and through a batch-4 scheduler
exploiting the cross-sequence intersection of predicted skip sets.
Prints per-request completions, then throughput and intersection skip
for both, read from each run's ``ServeReport``.

Run:  python examples/serve_batched.py
"""

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

from repro import (
    SparseInferSettings,
    build_batched_engine,
    build_predictor,
    random_weights,
    tiny_7b_role,
)
from repro.gpu.batching import batch_skip_fraction
from repro.model.tokenizer import CharTokenizer
from repro.serving import ContinuousBatchingScheduler, Request
from repro.workloads import gsm8k_like


def build_workload(tokenizer, n_requests: int = 8) -> list:
    """Mixed-length greedy-decode requests over GSM8K-like prompts.

    Prompts are clipped so the workload is decode-dominated -- prefill
    runs per sequence in every engine, so long prompts only dilute the
    batching effect this demo is about.
    """
    samples = gsm8k_like.generate(n_requests, seed=21)
    requests = []
    for i, sample in enumerate(samples):
        prompt = tokenizer.encode(sample.prompt, add_bos=True)[:8]
        requests.append(
            Request(
                request_id=i,
                prompt_ids=tuple(prompt),
                max_new_tokens=24 + 8 * (i % 3),   # mixed lengths
            )
        )
    return requests


def main() -> None:
    tokenizer = CharTokenizer(gsm8k_like.ALPHABET)
    config = tiny_7b_role(vocab_size=tokenizer.vocab_size)
    weights = random_weights(config, seed=0)
    settings = SparseInferSettings(alpha=1.0, alpha_early=1.03,
                                   n_early_layers=2)
    requests = build_workload(tokenizer)
    print(f"model: {config.name}  d={config.d_model} k={config.d_ff} "
          f"layers={config.n_layers};  {len(requests)} queued requests\n")

    predictor = build_predictor(weights, settings)   # pack signs once

    def drain_batch(max_batch_size):
        scheduler = ContinuousBatchingScheduler(build_batched_engine(
            weights, settings, predictor=predictor,
            max_batch_size=max_batch_size,
        ))
        for request in requests:
            scheduler.submit(request)
        return scheduler.run()

    solo = drain_batch(1)
    report = drain_batch(4)

    # Show a few completions from the batched run (same tokens as the
    # batch-1 run produces -- the scheduler only changes *when* a
    # sequence decodes, not *what* it decodes).
    for completion in sorted(report.completions,
                             key=lambda c: c.request_id)[:3]:
        text = tokenizer.decode(completion.generated_ids)
        print(f"request {completion.request_id}: admitted step "
              f"{completion.admitted_step}, finished step "
              f"{completion.finished_step}, {completion.n_generated} tokens "
              f"-> {text!r}")
    print(f"\nmean batch occupancy: {report.mean_batch_occupancy:.2f} over "
          f"{report.decode_steps} decode steps")

    expected = batch_skip_fraction(solo.mean_sequence_skip,
                                   round(report.mean_batch_occupancy))
    print(f"\nbatch 4 vs batch 1: {report.tokens_per_second:.1f} vs "
          f"{solo.tokens_per_second:.1f} tokens/sec; intersection skip "
          f"{report.intersection_skip:.1%} vs {solo.intersection_skip:.1%} "
          f"(skip^B predicts {expected:.1%})")

    # Same workload at half the default KV page budget (the default
    # covers every slot's worst case at once): short requests only hold
    # the pages they touch, so the batch still fills and the tokens are
    # identical.
    page_size = 16
    worst_case_pages = 4 * -(-config.max_seq_len // page_size)
    paged = build_batched_engine(weights, settings, predictor=predictor,
                                 max_batch_size=4,
                                 page_size=page_size,
                                 n_pages=worst_case_pages // 2)
    paged_scheduler = ContinuousBatchingScheduler(paged)
    for request in requests:
        paged_scheduler.submit(request)
    paged_report = paged_scheduler.run()
    same = all(
        a.generated_ids == b.generated_ids
        for a, b in zip(sorted(report.completions, key=lambda c: c.request_id),
                        sorted(paged_report.completions,
                               key=lambda c: c.request_id))
    )
    print(f"\npaged KV at half budget ({paged.cache.n_pages} pages of "
          f"{page_size}): peak {paged_report.peak_pages_in_use} pages in "
          f"use ({paged_report.mean_page_utilisation:.0%} mean "
          f"utilisation), tokens identical to the full budget: {same}")

    # Few-shot style workload: every prompt carries the same solved
    # exemplars, so a request admitted after its prefix twin finished
    # prefilling forks the resident prefix pages (refcounted,
    # copy-on-write) instead of re-prefilling them, and the
    # correlation-aware window keeps the batch's skip intersection above
    # the independent skip^B decay.
    from repro.workloads import fewshot

    shots = fewshot.fewshot_set(gsm8k_like.generate, 6, n_shots=2, seed=5)
    shared_requests = [
        Request(request_id=i, prompt_ids=tuple(tokenizer.encode(s.prompt)),
                max_new_tokens=8)
        for i, s in enumerate(shots)
    ]
    sharing = build_batched_engine(weights, settings, predictor=predictor,
                                   max_batch_size=4, page_size=page_size)
    sharing_scheduler = ContinuousBatchingScheduler(
        sharing, admission="prefix", admission_window=4)
    for request in shared_requests:
        sharing_scheduler.submit(request)
    sharing_report = sharing_scheduler.run()
    total_prompt = sharing_report.prefill_tokens + \
        sharing_report.prefill_tokens_saved
    print(f"\nprefix sharing on a 2-shot workload: "
          f"{sharing_report.forked_admissions} forked admissions, "
          f"{sharing_report.prefill_tokens_saved}/{total_prompt} prompt "
          f"tokens served from shared KV, peak "
          f"{sharing_report.peak_shared_pages} shared pages; intersection "
          f"skip {sharing_report.intersection_skip:.3f} vs skip^B "
          f"{sharing_report.expected_uncorrelated_skip:.3f}")

    # Cross-request prefix cache: the same few-shot workload, but
    # *bursty* -- each request fully drains before the next arrives, so
    # no donor is ever resident and plain prefix sharing saves nothing.
    # With cache_pages > 0 a retiring sequence's prompt-prefix pages are
    # parked in an LRU (refcount 0, reclaimable) and the next burst
    # revives them, prefilling only the suffix.
    def drain_bursty(cache_pages):
        engine = build_batched_engine(weights, settings,
                                      predictor=predictor,
                                      max_batch_size=4,
                                      page_size=page_size,
                                      cache_pages=cache_pages)
        scheduler = ContinuousBatchingScheduler(engine)
        for request in shared_requests:
            scheduler.submit(request)
            scheduler.run()         # fully drained: lifetimes never overlap
        return scheduler.report

    bursty_cold = drain_bursty(cache_pages=0)
    bursty_hot = drain_bursty(cache_pages=8)
    same_bursty = all(
        a.generated_ids == b.generated_ids
        for a, b in zip(sorted(bursty_cold.completions,
                               key=lambda c: c.request_id),
                        sorted(bursty_hot.completions,
                               key=lambda c: c.request_id))
    )
    print(f"\nprefix cache on bursty (non-overlapping) traffic: "
          f"resident-only reuses "
          f"{bursty_cold.prefill_reuse_fraction:.0%} of prompt tokens; "
          f"cache_pages=8 revives {bursty_hot.revived_admissions} "
          f"admissions, {bursty_hot.revived_tokens} prompt tokens "
          f"({bursty_hot.prefill_cache_fraction:.0%} served from cache, "
          f"peak {bursty_hot.peak_cached_pages} cached pages, "
          f"{bursty_hot.cache_evictions} evictions); tokens identical "
          f"to cold prefill: {same_bursty}")

    # Budgeted ticks + preemption: a long prompt arrives while short
    # requests are decoding.  step_budget piggybacks its prefill in
    # bounded per-tick pieces, so a small budget bounds every
    # resident's stall and a large one finishes the prompt sooner; and
    # preemption=True lets a higher-priority head evict a lower-priority
    # resident (prompt prefix parked, generated tokens replayed on
    # resume) rather than wait for a seat.  Tokens stay identical.
    long_prompt = tuple(tokenizer.encode(shots[0].prompt * 3))[:96]
    mixed = [
        Request(request_id=i, prompt_ids=tuple(tokenizer.encode(s.prompt)),
                max_new_tokens=16)
        for i, s in enumerate(shots[:3])
    ] + [Request(request_id=3, prompt_ids=long_prompt,
                 max_new_tokens=8, priority=1)]

    def drain_mixed(step_budget, preemption, max_batch_size=4):
        engine = build_batched_engine(weights, settings,
                                      predictor=predictor,
                                      max_batch_size=max_batch_size,
                                      page_size=page_size, cache_pages=8)
        scheduler = ContinuousBatchingScheduler(
            engine, step_budget=step_budget, preemption=preemption)
        for request in mixed:
            scheduler.submit(request)
        return scheduler.run()

    small_report = drain_mixed(step_budget=2, preemption=False)
    budget_report = drain_mixed(step_budget=24, preemption=True,
                                max_batch_size=3)
    same_budget = (
        {c.request_id: c.generated_ids for c in small_report.completions}
        == {c.request_id: c.generated_ids for c in budget_report.completions}
    )
    print(f"\nbudgeted ticks (one priority-1 arrival): step_budget 2 vs "
          f"24 with 3 seats + preemption: worst tick prefill feed "
          f"{small_report.peak_tick_prefill_tokens} vs "
          f"{budget_report.peak_tick_prefill_tokens} tokens, "
          f"{small_report.decode_steps} vs {budget_report.decode_steps} "
          f"decode ticks, max ITL "
          f"{small_report.max_itl_seconds * 1e3:.2f} vs "
          f"{budget_report.max_itl_seconds * 1e3:.2f}ms; the budget-24 "
          f"run piggybacked {budget_report.piggybacked_chunks} chunks, "
          f"preempted {budget_report.preemptions} time(s) and replayed "
          f"{budget_report.replayed_tokens} tokens on "
          f"{budget_report.resumed_admissions} resume(s); tokens "
          f"identical: {same_budget}")

    # Per-request sampling: each Request can carry its own SamplerConfig
    # (temperature / top-k / top-p / seed); the scheduler samples the
    # whole batch in one vectorised BatchedSampler call, drawing from a
    # per-request RNG stream keyed by (seed, request_id).  Two requests
    # sharing a prompt but holding different seeds diverge; re-running
    # the same seeds at a different batch size reproduces every token,
    # because the streams are independent of batch composition.  The
    # on_token callback observes tokens as they are emitted.
    from repro.serving import SamplerConfig

    shared_prompt = tuple(tokenizer.encode(shots[0].prompt))[:12]
    sampled_requests = [
        Request(request_id=i, prompt_ids=shared_prompt, max_new_tokens=12,
                sampling=SamplerConfig(temperature=0.9, top_k=16,
                                       top_p=0.95, seed=seed))
        for i, seed in enumerate((11, 12, 11))   # 0 and 2 share a seed
    ]

    def drain_sampled(max_batch_size):
        engine = build_batched_engine(weights, settings,
                                      predictor=predictor,
                                      max_batch_size=max_batch_size,
                                      page_size=page_size)
        streamed = []
        scheduler = ContinuousBatchingScheduler(
            engine,
            on_token=lambda rid, tok, step: streamed.append((rid, tok)))
        for request in sampled_requests:
            scheduler.submit(request)
        report = scheduler.run()
        return {c.request_id: c.generated_ids
                for c in report.completions}, streamed, report

    solo_out, _, _ = drain_sampled(max_batch_size=1)
    batch_out, streamed, sampled_report = drain_sampled(max_batch_size=3)
    print(f"\nper-request sampling (T=0.9, top_k=16, top_p=0.95, shared "
          f"prompt): seeds 11/12 diverge: "
          f"{solo_out[0] != solo_out[1]}; same seed, distinct streams "
          f"still decorrelate (ids 0 vs 2): {solo_out[0] != solo_out[2]}; "
          f"batch 3 reproduces batch 1 token-for-token: "
          f"{batch_out == solo_out}; on_token streamed "
          f"{len(streamed)}/{sampled_report.tokens_generated} tokens, "
          f"sampler {sampled_report.sampler_seconds * 1e3:.1f}ms "
          f"({sampled_report.sampled_tokens} sampled / "
          f"{sampled_report.greedy_tokens} greedy)")

    # Speculative self-drafting: each drafting sequence runs k cheap
    # draft steps through a second, aggressive-alpha view over the same
    # weights and sign-bit predictor (no extra model memory), then one
    # chunked causal GEMM verifies all k positions plus a bonus token;
    # the accepted prefix commits and the KV rolls back past the first
    # mismatch (refcount-safe truncate).  Acceptance drives an EMA that
    # adapts each sequence's draft depth.  Tokens are identical to plain
    # decode by construction -- only how many passes produce them
    # changes.
    from repro.serving import SpecConfig

    def drain_spec(speculation):
        engine = build_batched_engine(weights, settings,
                                      predictor=predictor,
                                      max_batch_size=4,
                                      page_size=page_size)
        scheduler = ContinuousBatchingScheduler(engine,
                                                speculation=speculation)
        for request in requests:
            scheduler.submit(request)
        report = scheduler.run()
        return {c.request_id: c.generated_ids
                for c in report.completions}, report

    plain_out, plain_report = drain_spec(None)
    spec_out, spec_report = drain_spec(
        SpecConfig(k=4, draft_alpha=0.5))
    print(f"\nspeculative self-drafting (k=4, draft_alpha=0.5, adaptive): "
          f"{spec_report.drafted_tokens} drafted, "
          f"{spec_report.accepted_tokens} accepted "
          f"({spec_report.acceptance_rate:.0%}); "
          f"{plain_report.decode_steps} -> {spec_report.decode_steps} "
          f"decode ticks "
          f"({spec_report.tokens_generated / spec_report.decode_steps:.2f} "
          f"tokens/tick); draft {spec_report.draft_seconds * 1e3:.1f}ms, "
          f"verify {spec_report.verify_seconds * 1e3:.1f}ms; tokens "
          f"identical to plain decode: {spec_out == plain_out}")

    # Traffic realism: instead of a pre-drained queue, a seeded Poisson
    # arrival trace runs the scheduler into overload -- every request
    # carries a tight interactive SLO (deadlines in deterministic
    # scheduler ticks).  Under admission="fifo" the backlog grows and
    # late requests miss TTFT but still burn decode capacity; under
    # admission="deadline" (EDF over the queue window) hopeless requests
    # are shed and the freed capacity serves still-feasible arrivals --
    # same trace, strictly more goodput.
    from repro.serving import (LoadGenerator, PoissonProcess, SLOSpec,
                               run_trace)

    chat_slo = SLOSpec("interactive", ttft_steps=6, itl_steps=8)

    def chat_factory(rng, request_id):
        sample = gsm8k_like.make_problem(rng, n_terms=3)
        return Request(
            request_id=request_id,
            prompt_ids=tuple(tokenizer.encode(sample.prompt, add_bos=True)),
            max_new_tokens=int(rng.integers(8, 20)),
            slo=chat_slo,
        )

    def drain_traffic(admission):
        engine = build_batched_engine(weights, settings,
                                      predictor=predictor,
                                      max_batch_size=4,
                                      page_size=page_size)
        scheduler = ContinuousBatchingScheduler(engine, admission=admission)
        trace = LoadGenerator(PoissonProcess(rate=1.2), chat_factory,
                              seed=3).trace(24)
        return run_trace(scheduler, trace, ticks_per_second=1.0)

    fifo_report = drain_traffic("fifo")
    edf_report = drain_traffic("deadline")
    print(f"\noverloaded Poisson traffic (24 requests, tight interactive "
          f"SLO), fifo vs deadline admission:")
    for admission, traffic in (("fifo", fifo_report),
                               ("deadline", edf_report)):
        print(f"  {admission:>8}: {traffic.slo_met_requests} met, "
              f"{traffic.slo_missed_requests} missed, "
              f"{traffic.shed_requests} shed; goodput "
              f"{traffic.goodput_tokens}/{traffic.tokens_generated} tokens")


if __name__ == "__main__":
    main()
