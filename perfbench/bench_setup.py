"""One set-up measurement, in a fresh process.

Times from importing gatecalc to the workload's first checked result:
a checked answer from run() for the serving workloads; for train-gates,
a labelled corpus line checked for one event per character and a
learned policy built from zero parameters, which is all the trainer
needs before its first step. The time is scaled to reference speed by
the mean of WINDOW reference runs on each side (bench_env.speed_factor).
With --memory the process then makes one pass over the workload's
inputs (one training on train-gates), checking every output, and reports
its peak RSS. Prints one JSON object.

    python3 perfbench/bench_setup.py --workload questions --seed 0 [--memory]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from time import perf_counter

import bench_env
import bench_inputs
from bench_check import Tally, check_answer
from bench_workloads import package_api, timed

# Reference runs averaged on each side of the measurement (about 30 ms).
WINDOW = 20


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--memory", action="store_true",
                        help="then make one pass over the inputs and report peak RSS")
    args = parser.parse_args()
    bench_env.use_checkout_package()

    if args.workload == "questions":
        item = next(i for i in bench_inputs.gen_questions(args.seed, count=50) if i.outcome == "answer")
    elif args.workload == "long-programs":
        item = bench_inputs.gen_chain_sets(args.seed, count=1)[0][0]
    else:
        line = bench_inputs.gen_dot_lines(args.seed, count=1)[0]

    bench_env.reference_work()
    ref_before = bench_env.reference_ns(WINDOW)
    t0 = perf_counter()
    import gatecalc

    if args.workload == "train-gates":
        from gatecalc.gates import GateParams, events_from_lines, make_learned_policy

        events = events_from_lines([line])
        make_learned_policy(GateParams.zeros())
        reason = None if len(events) == len(line) else f"{len(events)} events for {line!r}"
    else:
        from gatecalc.pipeline import PipelineConfig, make_echo_responder, run

        echo = make_echo_responder()
        seen = []
        config = PipelineConfig(capacity=item.capacity) if item.capacity else None
        result = run(item.text, responder=lambda p: seen.append(p) or echo(p), config=config)
        reason = check_answer(item, result, seen[-1] if seen else None)
    wall_s = perf_counter() - t0
    setup_s = wall_s * bench_env.speed_factor(ref_before, bench_env.reference_ns(WINDOW))

    bench_env.check_imported(gatecalc)
    out = {"setup_s": setup_s, "wall_s": wall_s, "failure": reason}
    if args.memory:
        inputs, _ = bench_inputs.workload_inputs(args.workload, args.seed)
        tally = Tally()
        # serving stops after one pass; training after its first round
        timed(args.workload, inputs, package_api(), 0.0 if args.workload == "train-gates" else 3600.0,
              tally, max_units=len(inputs))
        out["pass"] = dataclasses.asdict(tally)
        out["peak_rss_mb"] = bench_env.peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
