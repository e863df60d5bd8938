#!/usr/bin/env python3
"""Staged gate-training walkthrough at desk scale.

Stage one fits the gates on decimal literals alone and shows which
decisions that already pins down. Stage two continues from those
parameters on mixed numbers-and-ops lines and reaches the full 36-case
decision table. Each stage stops once every case it holds agrees with
the rule policy, as each file does in `gatecalc train-gates --data
dot.txt ops.txt`, where --steps-max bounds each stage. Stage three replays
question-record postfix text with frozen parameters to show the loss
stays low without further updates, then verifies the learned policy
against the rule policy: its compiled actions, and real conversions.
"""

import argparse
import textwrap

from gatecalc.conversion import convert
from gatecalc.datagen import GenConfig, gen_arith_qa, gen_dot_place, gen_numbers_ops
from gatecalc.gates import (
    TrainConfig,
    agreement_table,
    events_from_lines,
    make_learned_policy,
    rule_gates,
    save_params,
    stop_report,
    train_gates,
)
from gatecalc.tokenizer import encode


def agreement_summary(params) -> str:
    rows = agreement_table(params)
    good = sum(1 for r in rows if r.ok)
    bad = [f"{r.char!r}/{r.decimal_started}" for r in rows if not r.ok][:6]
    suffix = f" (first misses: {', '.join(bad)})" if bad else ""
    return f"{good}/{len(rows)}{suffix}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="write final params to this file")
    args = parser.parse_args()

    config, params = TrainConfig(), None
    for stage, (title, lines) in enumerate([
        ("decimal literals only", gen_dot_place(100, args.seed)),
        ("numbers and operators, continuing from stage 1", gen_numbers_ops(500, args.seed)),
    ], 1):
        print(f"stage {stage}: {title}")
        events = events_from_lines(lines)
        params, trace = train_gates(events, config, init=params)
        print(textwrap.indent(stop_report(trace, events, config), "  "))
        print(f"  agreement after stage {stage}: {agreement_summary(params)}")

    print("stage 3: question postfix replay with frozen parameters")
    qa = gen_arith_qa(GenConfig(count=200, seed=args.seed))
    qa_events = events_from_lines([r.swift_express for r in qa])
    _, trace = train_gates(qa_events, TrainConfig(lr=0.0, repeats=1), init=params)
    mean = sum(e.weighted for e in trace.events) / len(trace.events)
    print(f"  {len(trace.events)} events scored, mean loss {mean:.4f}, no updates")

    print("swap check: learned policy inside the converter")
    # Equal actions in every case the machine reads mean equal conversions
    # of every input; the held-out lines show it on real text.
    rows = agreement_table(params)
    actions = sum(1 for r in rows if r.action_ok)
    print(f"  actions {actions}/{len(rows)}")
    policy = make_learned_policy(params)
    mismatches = sum(convert(encode(line), policy) != convert(encode(line), rule_gates)
                     for line in gen_numbers_ops(300, args.seed + 99))
    print(f"  {mismatches} mismatching conversions out of 300")

    if args.out:
        save_params(params, args.out)
        print(f"params written to {args.out}")
    return 0 if mismatches == 0 and actions == len(rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
