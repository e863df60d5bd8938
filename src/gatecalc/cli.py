"""Command line surface. Every stage of the machine is reachable as a verb.

Success output is machine-parseable: a bare value, JSON, or loss lines.
Anticipated failures (parse errors, malformed programs, division by
zero, bad files) print one diagnostic line on stderr and exit 1; usage
errors exit 2 through the argument parser.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .conversion import (
    ACTION_NAMES,
    DECISION_FIELDS,
    ConversionError,
    convert,
    convert_with_trace,
)
from .datagen import (
    DataError,
    GenConfig,
    Stage,
    gen_arith_qa,
    gen_dot_place,
    gen_numbers_ops,
    load_training_lines,
    mix_datasets,
    read_records,
    write_json_array,
    write_jsonl,
    write_lines,
)
from .evaluator import EvalError, evaluate_with_trace
from .gates import (
    EmptyCorpus,
    GateError,
    TrainConfig,
    agreement_table,
    events_from_lines,
    load_params,
    make_learned_policy,
    rule_gates,
    save_params,
    stop_report,
    train_gates,
)
from .infix import ParseError, parse_infix, to_postfix
from .pipeline import (
    DEFAULT_INJECT_LEN,
    MAX_INJECT_LEN,
    PayloadTooLong,
    PipelineConfig,
    run,
)
from .render import NonFinite, render
from .tokenizer import encode


class BadArgument(Exception):
    """A command line value the verb cannot use."""


_ERRORS = (
    ConversionError,
    EvalError,
    ParseError,
    NonFinite,
    PayloadTooLong,
    GateError,
    DataError,
    BadArgument,
    OSError,
    json.JSONDecodeError,
    UnicodeDecodeError,
)


def _policy_from_args(args: argparse.Namespace):
    gates_path = getattr(args, "gates", None)
    if gates_path:
        return make_learned_policy(load_params(gates_path))
    return rule_gates


def cmd_eval(args: argparse.Namespace) -> int:
    program = convert(encode(args.expression), _policy_from_args(args))
    trace = evaluate_with_trace(program)
    if args.trace:
        print(json.dumps({"result": render(trace.final), "trace": trace.to_json_dict()}))
    else:
        print(render(trace.final))
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    table = _policy_from_args(args)
    ids = encode(args.expression)
    program, flags = convert_with_trace(ids, table)
    if not args.trace:
        print(json.dumps(program.to_json_dict()))
        return 0
    tokens = []
    for char, token_id, flag in zip(args.expression, ids, flags):
        decision = table[token_id][flag]
        action, arg = decision.action
        tokens.append({
            "char": char, "flag": flag,
            "decision": dict(zip(DECISION_FIELDS, map(int, decision))),
            "action": ACTION_NAMES[action], "arg": int(arg),
        })
    print(json.dumps({"program": program.to_json_dict(), "tokens": tokens}))
    return 0


def cmd_to_postfix(args: argparse.Namespace) -> int:
    print(to_postfix(parse_infix(args.expression)))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    try:
        value = float(args.value)
    except ValueError:
        raise BadArgument(f"not a number: {args.value!r}") from None
    print(render(value))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "dot-place":
        rows = gen_dot_place(args.count, args.seed)
    elif args.kind == "numbers-ops":
        rows = gen_numbers_ops(args.count, args.seed)
    elif args.kind == "qa":
        rows = gen_arith_qa(GenConfig(count=args.count, seed=args.seed, stage=Stage(args.stage)))
    else:
        rows = mix_datasets(
            read_records(args.arith), read_records(args.other), args.fraction, args.seed
        )
    if args.kind in ("dot-place", "numbers-ops"):
        write_lines(args.out, rows)
    else:
        (write_json_array if args.array else write_jsonl)(args.out, rows)
    print(json.dumps({"written": len(rows), "path": args.out}))
    return 0


def cmd_train_gates(args: argparse.Namespace) -> int:
    config = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    # Every file is read and labelled before the first stage trains.
    stages = [events_from_lines(load_training_lines(path)) for path in args.data]
    for path, events in zip(args.data, stages):
        if not events:
            raise EmptyCorpus(f"{path}: no training events")
    params, out = None, []
    for k, events in enumerate(stages, 1):
        params, trace = train_gates(events, config, init=params)
        out += [f"epoch {i} mean_loss {mean:.6f}" for i, mean in enumerate(trace.epoch_mean)]
        written = f", params written to {args.out}" if k == len(stages) else ""
        out += [f"trained {len(trace.events)} steps{written}", stop_report(trace, events, config)]
    save_params(params, args.out)
    print(*out, sep="\n")
    return 0


def cmd_verify_gates(args: argparse.Namespace) -> int:
    rows = agreement_table(load_params(args.gates))
    header = ["token", "flag"] + list(DECISION_FIELDS) + ["all"]
    print(" ".join(f"{h:>13}" for h in header))
    for row in rows:
        cells = [repr(row.char), str(row.decimal_started)]
        cells += ["ok" if row.matches[f] else "MISMATCH" for f in DECISION_FIELDS]
        cells.append("ok" if row.ok else "MISMATCH")
        print(" ".join(f"{c:>13}" for c in cells))
    good = sum(1 for r in rows if r.ok)
    print(f"agreement {good}/{len(rows)}")
    # Tables whose actions agree convert every input alike.
    print(f"actions {sum(1 for r in rows if r.action_ok)}/{len(rows)}")
    return 0 if good == len(rows) else 1


def cmd_run(args: argparse.Namespace) -> int:
    config = PipelineConfig(inject_len=args.inject_len, policy=_policy_from_args(args))
    result = run(args.question, config=config)
    print(json.dumps(result.to_json_dict()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatecalc",
        description="Character-gated arithmetic: convert, reduce, render, and serve.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("eval", help="evaluate a postfix expression")
    p.add_argument("expression")
    p.add_argument("--trace", action="store_true", help="emit reduction steps as JSON")
    p.add_argument("--gates", help="gate parameter file (default: rule policy)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("convert", help="convert text to a dense program")
    p.add_argument("expression")
    p.add_argument("--trace", action="store_true",
                   help="also emit each token read, its decimal flag, its gate decision "
                        "and the action the machine ran")
    p.add_argument("--gates", help="gate parameter file (default: rule policy)")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("to-postfix", help="translate an infix question to postfix")
    p.add_argument("expression")
    p.set_defaults(func=cmd_to_postfix)

    p = sub.add_parser("render", help="render a float as answer text")
    p.add_argument("value")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("gen", help="generate corpora")
    gen_sub = p.add_subparsers(dest="kind", required=True)

    for kind, count, text in (("dot-place", 100, "decimal literal lines"),
                              ("numbers-ops", 500, "mixed literal and operator lines")):
        g = gen_sub.add_parser(kind, help=text)
        g.add_argument("--count", type=int, default=count)
        g.add_argument("--seed", type=int, default=0)
        g.add_argument("--out", required=True)
        g.set_defaults(func=cmd_gen)

    g = gen_sub.add_parser("qa", help="question records with postfix expressions")
    g.add_argument("--count", type=int, default=1000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--stage", choices=[s.value for s in Stage], default="easy")
    g.add_argument("--array", action="store_true", help="write one JSON array instead of JSONL")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    g = gen_sub.add_parser("mix", help="interleave two record files at a fraction")
    g.add_argument("--arith", required=True)
    g.add_argument("--other", required=True)
    g.add_argument("--fraction", type=float, default=0.6)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--array", action="store_true", help="write one JSON array instead of JSONL")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    p = sub.add_parser("train-gates", help="fit gate heads on corpus files")
    p.add_argument("--data", nargs="+", required=True,
                   help="text or record files, one stage each; records give their postfix field")
    p.add_argument("--out", required=True)
    train = TrainConfig()
    p.add_argument("--epoch-size", type=int, default=train.epoch_size)
    p.add_argument("--repeats", type=int, default=train.repeats)
    p.add_argument("--lr", type=float, default=train.lr,
                   help="learning rate; 0 scores the corpus without moving the params")
    p.add_argument("--steps-max", type=int, default=train.steps_max,
                   help="bounds each stage, which stops sooner once every case it holds agrees")
    p.add_argument("--dot-weight", type=float, default=train.dot_weight)
    p.add_argument("--op-weight", type=float, default=train.op_weight)
    p.set_defaults(func=cmd_train_gates)

    p = sub.add_parser("verify-gates", help="compare learned gates to the rule policy")
    p.add_argument("--gates", required=True)
    p.set_defaults(func=cmd_verify_gates)

    p = sub.add_parser("run", help="answer one prompt through the full pipeline")
    p.add_argument("question")
    p.add_argument("--gates", help="gate parameter file (default: rule policy)")
    p.add_argument("--inject-len", type=int, default=DEFAULT_INJECT_LEN,
                   help=f"injected segment length, at most {MAX_INJECT_LEN}")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
