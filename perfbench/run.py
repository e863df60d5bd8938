#!/usr/bin/env python3
"""Seeded benchmark for gatecalc: end-to-end metrics, or per-layer ones from a traced run.

    python3 perfbench/run.py --workload questions --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Workloads (BENCHMARK.json says why each exists):
  questions      ~20k prompts through run() with the default PipelineConfig:
                 arithmetic, prose the predictor declines, and questions
                 that must end in a diagnostic.
  long-programs  sets of four integer chains of 8, 32, 128 and 512 operands,
                 each run with exactly the slots its postfix needs.
  train-gates    label two corpora and train the gate heads in two stages,
                 then check 36/36 agreement and 2,000 held-out conversions
                 under the learned and the rule policy.

An item is one run() call (questions), one set of four programs
(long-programs) or one training (train-gates). With --trace 0 the run
reports, with tracing off:
  setup_s           median over fresh processes of the time from importing
                    gatecalc to the first checked result (bench_setup.py)
  throughput_per_s  items per second of the timed phase; gradient steps
                    per second of training on train-gates
  latency_p50_us    median time of one item
  peak_rss_mb       peak resident memory of a fresh process that sets up
                    and makes one pass over the workload's inputs (one
                    training on train-gates), so it does not grow with
                    the number of items a faster program fits in the run
Serving and set-up times are scaled to reference speed (bench_env.
speed_factor): serving alternates 10 ms slices of work with one run of a
fixed pure-Python reference and scales each slice by the reference time
on both sides of it; each set-up is scaled by the mean of a window of
reference runs on each side. Training time is wall time. The raw wall and
CPU time of every phase, and the raw set-up times, are in the report.

With --trace 1 the timed phase is split in two halves, untraced then
traced, and the run reports the per-layer metrics: per wrapped function
its mean wall time per call, call count, mean self time and share of the
traced time, plus the counts and ratios mapped in perfbench/interactions.json.
Spans are written to .perfbench_out/ when the run ends.

Every output is checked against the expectation bench_inputs.py derives
on its own. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a human
summary and a JSON report with the input digest, the environment and
the first failing inputs. The run fails, printing no result, when the
gatecalc sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import bench_env
import bench_inputs
from bench_check import Tally
from bench_trace import SPAN_NAMES, Tracer, bound_in_pipeline
from bench_workloads import Phase, package_api, serve, timed

WORKLOADS = ("questions", "long-programs", "train-gates")
SETUP_PROBES = 7
OUT_DIR = bench_env.ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent


def percentile(values: list, q: float) -> float:
    """Linear interpolation between closest ranks of sorted values."""
    if not values:
        return 0.0
    pos = (len(values) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def probe(workload: str, seed: int, *flags: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench_setup.py"), "--workload", workload, "--seed", str(seed), *flags],
        capture_output=True, text=True, timeout=170, cwd=bench_env.ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int, tally: Tally) -> tuple[list[tuple[float, float]], float]:
    """(scaled, wall) set-up times of SETUP_PROBES fresh processes, run one
    after another, and the peak RSS of one more that then makes one pass
    over the workload's inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        result = probe(workload, seed)
        tally.record(f"set-up of {workload}", result["failure"])
        times.append((result["setup_s"], result["wall_s"]))
    result = probe(workload, seed, "--memory")
    tally.record(f"set-up of {workload}", result["failure"])
    tally.add(result["pass"])
    return times, result["peak_rss_mb"]


def warm_up(workload, inputs, api, tally) -> None:
    """Let lazy set-up and caches settle before anything is timed."""
    if workload == "train-gates":
        api.train_gates(api.events_from_lines(inputs[0][:10]), api.TrainConfig())
    else:
        serve(inputs[:200], api, 0.5, tally)


def end_to_end(phase: Phase, setup: list[tuple[float, float]], peak_rss: float) -> dict:
    lat = phase.latencies()
    return {
        "setup_s": (statistics.median(scaled for scaled, _ in setup), "s"),
        "throughput_per_s": (phase.rate(), "1/s"),
        "latency_p50_us": (percentile(lat, 50) / 1e3, "us"),
        "peak_rss_mb": (peak_rss, "MB"),
    }


def _us(ns: int, calls: int) -> float:
    return ns / calls / 1e3 if calls else 0.0


def per_layer(tracer: Tracer, untraced: Phase, traced: Phase, outcomes: Counter, tally: Tally,
              workload: str) -> dict:
    s = tracer.summary()
    empty = [0, 0, 0, 0]

    def row(name, kind="*"):
        return s.get((name, kind), empty)

    root_ns = tracer.root_ns()
    m = {}
    for name in SPAN_NAMES:
        calls, total, own, _ = row(name)
        m[f"{name}_us"] = (_us(total, calls), "us")
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_us"] = (_us(own, calls), "us")
        m[f"{name}.share"] = (total / root_ns if root_ns else 0.0, "frac")

    def kind_us(name, kind):
        calls, total, _, _ = row(name, kind)
        return _us(total, calls)

    def mean_size(name):
        calls, _, _, size = row(name)
        return size / calls if calls else 0.0

    m["tokenizer.chars"] = (mean_size("tokenizer.encode"), "count")
    m["conversion.slots"] = (mean_size("conversion.convert"), "count")
    m["evaluator.folds"] = (mean_size("evaluator.evaluate"), "count")
    m["infix.parse_us.declined"] = (kind_us("infix.parse", "declined"), "us")
    for kind in ("n512", "learned", "rule"):
        m[f"conversion.convert_us.{kind}"] = (kind_us("conversion.convert", kind), "us")
    for n in bench_inputs.CHAIN_LENGTHS:
        m[f"evaluator.evaluate_us.n{n}"] = (kind_us("evaluator.evaluate", f"n{n}"), "us")
        m[f"pipeline.run_us.n{n}"] = (kind_us("pipeline.run", f"n{n}"), "us")
    e128, e512 = kind_us("evaluator.evaluate", "n128"), kind_us("evaluator.evaluate", "n512")
    m["evaluator.scaling_exponent"] = (math.log(e512 / e128, 4) if e128 and e512 else 0.0, "1")
    run512 = row("pipeline.run", "n512")[1]
    m["evaluator.evaluate.share.n512"] = (row("evaluator.evaluate", "n512")[1] / run512 if run512 else 0.0, "frac")

    prompts = sum(outcomes.values())
    enabled = prompts - outcomes["declined"]

    def frac(n, base):
        return n / base if base else 0.0

    m["pipeline.injected_frac"] = (frac(outcomes["injected"], prompts), "frac")
    m["pipeline.declined_frac"] = (frac(outcomes["declined"], prompts), "frac")
    for cls in ("DivisionByZero", "PayloadTooLong"):
        m[f"pipeline.diagnostic_frac.{cls}"] = (frac(outcomes[cls], prompts), "frac")
    m["pipeline.useful_ratio"] = (frac(outcomes["injected"], enabled), "frac")

    rounds = traced.units if workload == "train-gates" else 0
    _, label_ns, _, events = row("gates.label")
    _, train_ns, _, steps = row("gates.train")
    agree_calls, _, _, cases = row("gates.agreement")
    m["gates.events"] = (frac(events, rounds), "count")
    m["gates.steps"] = (frac(steps, rounds), "count")
    m["gates.label_us_per_event"] = (_us(label_ns, events), "us")
    m["gates.train_us_per_step"] = (_us(train_ns, steps), "us")
    m["gates.agreement_cases"] = (frac(cases, agree_calls), "count")

    lat = untraced.latencies()
    m["latency_p99_us"] = (percentile(lat, 99) / 1e3, "us")
    m["latency_samples"] = (len(lat), "count")
    m["trace.overhead_frac"] = (untraced.rate() / traced.rate() - 1, "frac")
    m["failed_frac"] = (tally.failed_frac(), "frac")
    return m


def phase_record(name: str, phase: Phase) -> dict:
    return {"phase": name, "items": phase.units, "wall_s": phase.wall_s, "cpu_s": phase.cpu_s,
            "scaled_work_s": phase.work_s, "speed_factor_quartiles": statistics.quantiles(phase.factors, n=4)
            if len(phase.factors) > 1 else phase.factors, "outcomes": dict(phase.outcomes)}


def run_one(args) -> int:
    bench_env.use_checkout_package()
    load_start = bench_env.loadavg()
    tally = Tally()
    setup, peak_rss = ([], 0.0) if args.trace else measure_setup(args.workload, args.seed, tally)
    inputs, digest = bench_inputs.workload_inputs(args.workload, args.seed)

    import gatecalc

    bench_env.check_imported(gatecalc)
    api = package_api()
    warm_up(args.workload, inputs, api, tally)
    if not args.trace:
        phase = timed(args.workload, inputs, api, args.seconds, tally)
        metrics = end_to_end(phase, setup, peak_rss)
        phases = [phase_record("timed", phase)]
    else:
        untraced = timed(args.workload, inputs, api, args.seconds / 2, tally)
        tracer = Tracer()
        with bound_in_pipeline(tracer):
            traced = timed(args.workload, inputs, package_api(tracer), args.seconds / 2, tally, tracer)
        metrics = per_layer(tracer, untraced, traced, untraced.outcomes + traced.outcomes, tally, args.workload)
        phases = [phase_record("untraced", untraced), phase_record("traced", traced)]

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "input_digest": digest, "environment": bench_env.environment(),
        "loadavg_start": load_start, "loadavg_end": bench_env.loadavg(),
        "setup_s_samples": [scaled for scaled, _ in setup], "setup_wall_s_samples": [wall for _, wall in setup],
        "phases": phases,
        "failed_frac": tally.failed_frac(),
        "first_failures": tally.first_failures,
    }
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
        tracer.write_tsv(stem.with_suffix(".spans.tsv.gz"))
        rows = [{"span": n, "kind": k, "calls": r[0], "total_ns": r[1], "self_ns": r[2], "size": r[3]}
                for (n, k), r in sorted(tracer.summary().items())]
        summary = {"report": report, "root_ns": tracer.root_ns(), "spans": rows,
                   "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
        stem.with_suffix(".summary.json").write_text(json.dumps(summary, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for failure in tally.first_failures:
        print(f"FAILED seed={args.seed} {failure['input']!r}: {failure['reason']}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except bench_env.MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
