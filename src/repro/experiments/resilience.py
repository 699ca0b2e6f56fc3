"""Resilience experiment: goodput under faults and recovery time.

A FlexGen long-prompt consumer offloads its context to an idle LLM
producer over NVLink (the Figure 7/10 rig), then a deterministic
:class:`~repro.faults.FaultSchedule` breaks things under it:

1. a DMA stall on the fetch link — AQUA-LIB retries with capped
   exponential backoff until the engine unfreezes;
2. a severe NVLink degradation — the coordinator fails the consumer
   over to the PCIe/DRAM path (goodput drops to the baseline level,
   but requests keep flowing);
3. a producer GPU failure — the in-flight context is lost, the engine
   re-queues (never drops) the request and recomputes on DRAM until
   the GPU returns, after which opportunistic upgrades restore the
   fast path.

Because a FlexGen consumer's goodput naturally declines as its context
grows (every token re-reads the whole KV cache), "recovered" is judged
against a *fault-free control run* of the identical rig, not against
the raw pre-fault level: recovery is the first time after all faults
clear where goodput is back within ``RECOVERY_THRESHOLD`` of the
control's goodput over the same window.  Everything is deterministic:
same schedule, same numbers.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.harness import build_consumer_rig
from repro.experiments.pool import RunSpec, run_specs
from repro.faults import DmaStall, FaultInjector, FaultSchedule, GpuFailure, LinkDegradation
from repro.models import LLAMA2_13B, OPT_30B
from repro.workloads.arrivals import submit_all
from repro.workloads.longprompt import long_prompt_requests

#: When the long-prompt request arrives (after the producer has donated
#: its spare memory).
WORKLOAD_START = 2.0

#: Goodput sampling interval (simulated seconds).
SAMPLE_DT = 1.0

#: Seconds immediately before the first fault (and at the end of the
#: run) used for the pre/post goodput levels.
PRE_WINDOW = 8.0

#: Recovery is the first time after the last fault clears where the
#: faulted run's mean goodput over ``RECOVERY_WINDOW`` seconds reaches
#: ``RECOVERY_THRESHOLD`` of the control's over the same window.
RECOVERY_WINDOW = 8.0
RECOVERY_THRESHOLD = 0.95


def default_fault_schedule() -> FaultSchedule:
    """The documented deterministic scenario (see ``docs/resilience.md``).

    A 4 s DMA stall on the producer->consumer NVLink at t=20, a 25 s
    degradation of every NVLink to 2% of peak at t=40 (2% of NVLink is
    slower than PCIe, so the coordinator fails over to DRAM), and a
    20 s producer GPU failure at t=90.  All faults have cleared by
    t=110.
    """
    return FaultSchedule(
        [
            DmaStall(at=20.0, channel="nvlink:gpu1->gpu0", duration=4.0),
            LinkDegradation(at=40.0, channel="nvlink", factor=0.02, duration=25.0),
            GpuFailure(at=90.0, gpu="gpu1", duration=20.0),
        ]
    )


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _window_mean(series: list[tuple[float, float]], start: float, end: float) -> float:
    """Mean of the (t, value) samples falling in ``[start, end)``."""
    return _mean([v for t, v in series if start <= t < end])


def _run_rig(
    schedule: FaultSchedule,
    duration: float,
    audit: bool = False,
    scrape_interval: Optional[float] = None,
    slo_policy: Optional[dict] = None,
    postmortem_dir: Optional[str] = None,
) -> dict:
    """One rig run under ``schedule``; returns raw series and counters."""
    observability = scrape_interval is not None
    policy = None
    if observability:
        from repro.telemetry.slo import SLOPolicy, default_slo_policy

        policy = (
            SLOPolicy.from_dict(slo_policy)
            if slo_policy is not None
            else default_slo_policy()
        )
    rig = build_consumer_rig(
        "flexgen", OPT_30B, producer_model=LLAMA2_13B, use_aqua=True, audit=audit,
        scrape_interval=scrape_interval,
        slo_policy=policy,
        postmortem_dir=postmortem_dir,
    )
    env = rig.env
    consumer = rig.consumer_engine

    injector = FaultInjector(rig.server, coordinator=rig.coordinator)
    injector.install(schedule)
    rig.start()

    goodput: list[tuple[float, float]] = []

    def sampler(env):
        last = 0
        while True:
            tokens = consumer.metrics.tokens_generated
            goodput.append((env.now, (tokens - last) / SAMPLE_DT))
            last = tokens
            yield env.timeout(SAMPLE_DT)

    env.process(sampler(env))

    requests = long_prompt_requests(start=WORKLOAD_START)
    submit_all(env, consumer, requests)
    env.run(until=duration)

    audit_report = None
    if rig.auditor is not None:
        rig.auditor.check(checkpoint="final")
        audit_report = rig.auditor.report()

    dropped = [
        r
        for r in requests
        if not r.done and r not in consumer.waiting and r not in consumer.running
    ]
    result = {
        "goodput": goodput,
        "retries": rig.consumer_lib.retries,
        "requeues": consumer.metrics.requeues,
        "lost_tensors": rig.consumer_lib.lost_tensors,
        "dropped": len(dropped),
        "tokens_total": consumer.metrics.tokens_generated,
        "fault_log": injector.log,
        "audit": audit_report,
    }
    if observability:
        # Plain dicts only: this result pickles back from pooled workers.
        result["observability"] = rig.telemetry.observability_report()
    return result


def _rig_cell(
    schedule: list[dict],
    duration: float,
    audit: bool,
    scrape_interval: Optional[float] = None,
    slo_policy: Optional[dict] = None,
    postmortem_dir: Optional[str] = None,
) -> dict:
    """Pool-safe wrapper around :func:`_run_rig`.

    The schedule travels as its plain-dict JSON form (the SLO policy
    likewise) and the result — goodput series, counters, audit report,
    observability exports — pickles back to the parent, so the
    faulted and control runs can occupy two cores.
    """
    return _run_rig(
        FaultSchedule.from_dicts(schedule),
        duration,
        audit=audit,
        scrape_interval=scrape_interval,
        slo_policy=slo_policy,
        postmortem_dir=postmortem_dir,
    )


def resilience_experiment(
    schedule: Optional[FaultSchedule] = None,
    duration: float = 160.0,
    audit: bool = False,
    jobs: Optional[int] = 1,
    scrape_interval: Optional[float] = None,
    slo_policy=None,
    postmortem_dir: Optional[str] = None,
) -> dict:
    """Run the fault schedule against the FlexGen/NVLink rig.

    Two identical rigs run the same workload — one under ``schedule``
    (default: :func:`default_fault_schedule`), one fault-free as the
    control — and their goodput series are compared.  Traced under
    :func:`~repro.telemetry.observing`, each rig shows its retries and
    faults as instants.

    Parameters
    ----------
    schedule:
        Faults to inject into the faulted run.
    duration:
        Total simulated seconds (per run).
    audit:
        Run both rigs under a :class:`~repro.audit.ConservationAuditor`
        and include the reports (and determinism digests) in the result
        under ``"audit"``.
    jobs:
        ``jobs >= 2`` runs the faulted and control rigs on two worker
        processes concurrently (they are fully independent simulations);
        ``jobs=1`` keeps the historical serial order.  Results are
        identical either way.
    scrape_interval:
        When set, both rigs run with the time-resolved observability
        layer (scraper + SLO tracker + flight recorder) at this cadence.
        Both runs' SLO alerts and post-mortem bundles are returned under
        ``"observability"`` / ``"control_observability"``.
        Observation-only: the goodput series and audit digests are
        unchanged.  (The CLI observes through
        :func:`~repro.telemetry.observing` instead.)
    slo_policy:
        :class:`~repro.telemetry.SLOPolicy` (or its dict form) to
        evaluate; defaults to
        :func:`~repro.telemetry.default_slo_policy`.
    postmortem_dir:
        Directory where the faulted run's flight recorder writes
        post-mortem bundles (the control run records in memory only).

    Returns a dict with the goodput series of both runs (tokens/s),
    the fault log, ``pre_fault_goodput`` / ``post_fault_goodput`` /
    ``post_fault_goodput_ratio`` (vs. control) / ``recovery_time_s``
    (seconds after all faults cleared), and the ``retries`` /
    ``requeues`` / ``lost_tensors`` / ``dropped_requests`` counters.
    """
    schedule = schedule if schedule is not None else default_fault_schedule()
    if slo_policy is not None and not isinstance(slo_policy, dict):
        slo_policy = slo_policy.to_dict()
    specs = [
        RunSpec(
            task=f"{__name__}:_rig_cell",
            kwargs={
                "schedule": sched.to_dicts(),
                "duration": duration,
                "audit": audit,
                "scrape_interval": scrape_interval,
                "slo_policy": slo_policy,
                # Only the faulted run dumps bundles to disk — the
                # control is healthy by construction and two workers
                # must not race on the same postmortem-NNN.json names.
                "postmortem_dir": postmortem_dir if label == "faulted" else None,
            },
            label=label,
        )
        for label, sched in (("faulted", schedule), ("control", FaultSchedule()))
    ]
    faulted, control = (r.value for r in run_specs(specs, jobs=jobs))

    goodput = faulted["goodput"]
    baseline = control["goodput"]
    first_fault = min((f.at for f in schedule), default=duration)
    all_clear = schedule.horizon  # 0.0 for an empty schedule
    pre = _window_mean(goodput, first_fault - PRE_WINDOW, first_fault)
    post = _window_mean(goodput, duration - PRE_WINDOW, duration)
    post_control = _window_mean(baseline, duration - PRE_WINDOW, duration)

    recovery_time = None
    t = all_clear
    while t + RECOVERY_WINDOW <= duration:
        reference = _window_mean(baseline, t, t + RECOVERY_WINDOW)
        if reference > 0 and (
            _window_mean(goodput, t, t + RECOVERY_WINDOW)
            >= RECOVERY_THRESHOLD * reference
        ):
            recovery_time = t - all_clear
            break
        t += SAMPLE_DT

    return {
        "goodput_tokens_per_s": goodput,
        "control_goodput_tokens_per_s": baseline,
        "pre_fault_goodput": pre,
        "post_fault_goodput": post,
        "post_fault_goodput_ratio": post / post_control if post_control else None,
        "recovery_time_s": recovery_time,
        "first_fault_at": first_fault,
        "all_faults_cleared_at": all_clear,
        "retries": faulted["retries"],
        "requeues": faulted["requeues"],
        "lost_tensors": faulted["lost_tensors"],
        "dropped_requests": faulted["dropped"],
        "tokens_total": faulted["tokens_total"],
        "control_tokens_total": control["tokens_total"],
        "fault_log": faulted["fault_log"],
        "observability": faulted.get("observability"),
        "control_observability": control.get("observability"),
        "audit": (
            {
                "faulted": faulted["audit"].to_dict(),
                "control": control["audit"].to_dict(),
            }
            if audit
            else None
        ),
    }
