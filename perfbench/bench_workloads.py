"""The timed loops: serving prompts through run(), and training the gates.

Load model: one thread in a closed loop. Each call completes, and its
output is checked, before the next input is sent.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

from bench_check import Tally, check_answer
from bench_env import reference_ns, speed_factor
from bench_trace import Tracer

# Unit latencies kept for percentiles. The buffer is allocated whole up
# front so its memory does not grow with the number of calls, which
# would tie peak RSS to speed; past this many units the oldest are
# overwritten.
LATENCY_SLOTS = 1 << 18
# Serving alternates slices of at least this much work with one run of the
# reference, so each call is scaled by the machine speed measured on both
# sides of its slice.
SLICE_NS = 10_000_000


def package_api(tracer: Tracer | None = None) -> SimpleNamespace:
    """The package entry points the benchmark calls, wrapped in spans when
    tracing."""
    from gatecalc import conversion, gates, pipeline, tokenizer

    api = SimpleNamespace(
        run=pipeline.run,
        make_echo_responder=pipeline.make_echo_responder,
        PipelineConfig=pipeline.PipelineConfig,
        encode=tokenizer.encode,
        convert=conversion.convert,
        rule_gates=gates.rule_gates,
        TrainConfig=gates.TrainConfig,
        events_from_lines=gates.events_from_lines,
        train_gates=gates.train_gates,
        make_learned_policy=gates.make_learned_policy,
        agreement_table=gates.agreement_table,
    )
    if tracer is not None:
        for name, attr in (
            ("pipeline.run", "run"),
            ("tokenizer.encode", "encode"),
            ("conversion.convert", "convert"),
            ("gates.label", "events_from_lines"),
            ("gates.train", "train_gates"),
            ("gates.policy_build", "make_learned_policy"),
            ("gates.agreement", "agreement_table"),
        ):
            setattr(api, attr, tracer.wrap(name, getattr(api, attr)))
    return api


@dataclass
class Phase:
    """What one timed phase measured.

    Serving latencies and work time are scaled to reference speed
    (bench_env.speed_factor) slice by slice; training ones are wall time
    (factor 1). wall_s and cpu_s are always raw.
    """

    units: int = 0
    unit_ns: array = field(default_factory=lambda: array("d", [0.0]) * LATENCY_SLOTS)
    work_s: float = 0.0
    outcomes: Counter = field(default_factory=Counter)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    steps: int = 0
    factors: list[float] = field(default_factory=list)
    _open: list[tuple[int, int]] = field(default_factory=list)

    def latencies(self) -> list[float]:
        return sorted(self.unit_ns[: min(self.units, LATENCY_SLOTS)])

    def start_unit(self) -> int:
        slot = self.units % LATENCY_SLOTS
        self.unit_ns[slot] = 0.0
        return slot

    def record(self, slot: int, raw_ns: int) -> None:
        """A call of the unit in slot took raw_ns, to be scaled when its slice closes."""
        self._open.append((slot, raw_ns))

    def close_slice(self, wall_ns: int, factor: float) -> None:
        """Scale the calls recorded since the last slice, and the slice's wall time, by factor."""
        for slot, raw_ns in self._open:
            self.unit_ns[slot] += raw_ns * factor
        self._open.clear()
        self.work_s += wall_ns * factor / 1e9
        self.factors.append(factor)

    def rate(self) -> float:
        """Units (or gradient steps, when training) per second of work time."""
        return (self.steps or self.units) / self.work_s


def outcome_of(result) -> str:
    if result.injected:
        return "injected"
    if result.diagnostic is None:
        return "declined"
    return result.diagnostic.split(":", 1)[0]


def serve(units, api, seconds: float, tally: Tally, tracer: Tracer | None = None,
          max_units: int | None = None) -> Phase:
    """Send units of prompts through run() until seconds have passed, or
    max_units units have.

    A unit is a list of items whose run() times add up to one latency
    sample: one question, or one set of long programs.
    """
    configs = [[api.PipelineConfig(capacity=it.capacity) if it.capacity else None for it in unit]
               for unit in units]
    echo = api.make_echo_responder()
    seen = [None]

    def responder(prompt: str) -> str:
        seen[0] = prompt
        return echo(prompt)

    if tracer is not None:
        responder = tracer.wrap("pipeline.responder", responder)
    run = api.run
    phase = Phase()
    start = perf_counter()
    cpu0 = time.process_time()
    deadline_ns = perf_counter_ns() + int(seconds * 1e9)
    ref_before = reference_ns()
    slice_start = perf_counter_ns()

    def close_slice(now: int) -> None:
        nonlocal ref_before, slice_start
        ref_after = reference_ns()
        phase.close_slice(now - slice_start, speed_factor(ref_before, ref_after))
        ref_before, slice_start = ref_after, perf_counter_ns()

    while True:
        i = phase.units % len(units)
        slot = phase.start_unit()
        for item, config in zip(units[i], configs[i]):
            if tracer is not None:
                tracer.begin_item(item.kind)
            seen[0] = None
            t0 = perf_counter_ns()
            try:
                result = run(item.text, responder=responder, config=config)
            except Exception as exc:  # counted as failed; the run goes on
                phase.record(slot, perf_counter_ns() - t0)
                tally.record(item.text, f"raised {type(exc).__name__}: {exc}")
                phase.outcomes["raised"] += 1
            else:
                phase.record(slot, perf_counter_ns() - t0)
                tally.record(item.text, check_answer(item, result, seen[0]))
                phase.outcomes[outcome_of(result)] += 1
            now = perf_counter_ns()
            if now - slice_start >= SLICE_NS:
                close_slice(now)
        phase.units += 1
        if now >= deadline_ns or phase.units == max_units:
            if now > slice_start:
                close_slice(now)
            break
    phase.wall_s = perf_counter() - start
    phase.cpu_s = time.process_time() - cpu0
    return phase


def train_round(api, corpora, tally: Tally, tracer: Tracer | None = None) -> tuple[int, int]:
    """Label and train in two stages, as the staged walkthrough does, then
    check the learned policy. Returns (training ns, gradient steps)."""
    dot_lines, ops_lines, heldout = corpora
    if tracer is not None:
        tracer.begin_item("train")
    t0 = perf_counter_ns()
    try:
        params, trace1 = api.train_gates(api.events_from_lines(dot_lines), api.TrainConfig())
        params, trace2 = api.train_gates(api.events_from_lines(ops_lines), api.TrainConfig(), init=params)
    except Exception as exc:  # counted as failed; the run goes on
        tally.record("training", f"raised {type(exc).__name__}: {exc}")
        return perf_counter_ns() - t0, 0
    train_ns = perf_counter_ns() - t0
    steps = len(trace1.events) + len(trace2.events)

    if tracer is not None:
        tracer.begin_item("check")
    try:
        rows = api.agreement_table(params)
        bad = [f"{r.char!r}/{r.decimal_started}" for r in rows if not r.ok]
        tally.record("agreement table", f"disagrees on {', '.join(bad)}" if bad else None)
        policy = api.make_learned_policy(params)
    except Exception as exc:  # counted as failed; the run goes on
        tally.record("agreement table", f"raised {type(exc).__name__}: {exc}")
        return train_ns, steps
    for line in heldout:
        programs = []
        for kind, gate_policy in (("learned", policy), ("rule", api.rule_gates)):
            if tracer is not None:
                tracer.begin_item(kind)
            try:
                programs.append(api.convert(api.encode(line), gate_policy))
            except Exception as exc:  # counted as failed; the run goes on
                programs.append(f"raised {type(exc).__name__}")
        tally.record(line, None if programs[0] == programs[1] else
                     f"learned policy gives {programs[0]}, rule policy {programs[1]}")
    return train_ns, steps


def train(corpora, api, seconds: float, tally: Tally, tracer: Tracer | None = None) -> Phase:
    """Train rounds until seconds have passed; at least one round runs.

    Training time is wall time. The pure-Python reference swings far more
    than this numpy-bound loop does (its speed factor ranged 0.54 to 0.77
    over six consecutive rounds whose wall times stayed within 6.2 to
    7.4 s), so scaling by it widened the spread instead of narrowing it.
    """
    phase = Phase()
    start = perf_counter()
    cpu0 = time.process_time()
    while True:
        slot = phase.start_unit()
        train_ns, steps = train_round(api, corpora, tally, tracer)
        phase.record(slot, train_ns)
        phase.close_slice(train_ns, 1.0)
        phase.units += 1
        phase.steps += steps
        if perf_counter() - start >= seconds:
            break
    phase.wall_s = perf_counter() - start
    phase.cpu_s = time.process_time() - cpu0
    return phase


def timed(workload: str, inputs, api, seconds: float, tally: Tally, tracer: Tracer | None = None,
          max_units: int | None = None) -> Phase:
    if workload == "train-gates":
        return train(inputs, api, seconds, tally, tracer)
    return serve(inputs, api, seconds, tally, tracer, max_units)
