"""End-to-end wiring: question in, answer out.

A predictor looks at the prompt and either declines, leaving the prompt
for the responder as-is, or produces a postfix expression. The
expression runs through conversion and reduction, and the rendered
result is appended to the prompt as a fixed-length terminated segment.
The responder then answers from the augmented prompt. Reference
implementations of both seams live here; anything with the same call
shape plugs in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .conversion import (
    DEFAULT_CAPACITY,
    ConversionError,
    GateTable,
    check_capacity,
    convert,
    rule_gates,
)
from .evaluator import EvalError, EvalTrace, evaluate_with_trace
from .infix import ParseError, parse_infix, to_postfix
from .render import NonFinite, render
from .tokenizer import TERMINATOR_CHAR, encode

DEFAULT_INJECT_LEN = 16
# Longest injection segment a PipelineConfig or make_segment accepts; the
# segment is built as a string of that many characters.
MAX_INJECT_LEN = 1024

Predictor = Callable[[str], "PredictorOutput"]
Responder = Callable[[str], str]


class PayloadTooLong(ValueError):
    pass


class PredictorOutput(NamedTuple):
    """Expression head output: an enable flag and a postfix expression."""

    enable: int
    expression: str


class InjectionSegment(NamedTuple):
    payload: str
    text: str


def _check_inject_len(inject_len: int) -> None:
    if type(inject_len) is not int:
        raise PayloadTooLong(
            f"inject_len must be an int, got {type(inject_len).__name__} {inject_len!r}"
        )
    if inject_len < 1:
        raise PayloadTooLong(f"inject_len must be at least 1, got {inject_len}")
    if inject_len > MAX_INJECT_LEN:
        raise PayloadTooLong(f"inject_len must be at most {MAX_INJECT_LEN}, got {inject_len}")


@dataclass(frozen=True)
class PipelineConfig:
    inject_len: int = DEFAULT_INJECT_LEN
    capacity: int = DEFAULT_CAPACITY
    policy: GateTable = rule_gates

    def __post_init__(self) -> None:
        _check_inject_len(self.inject_len)
        check_capacity(self.capacity)
        if type(self.policy) is not GateTable:
            object.__setattr__(self, "policy", GateTable(self.policy))


_DEFAULT_CONFIG = PipelineConfig()


@dataclass
class PipelineResult:
    answer: str
    injected: bool
    expression: str
    trace: EvalTrace | None = None
    diagnostic: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "answer": self.answer,
            "injected": self.injected,
            "expression": self.expression,
            "trace": self.trace.to_json_dict() if self.trace is not None else None,
        }
        if self.diagnostic is not None:
            out["diagnostic"] = self.diagnostic
        return out


def reference_predictor(question: str) -> PredictorOutput:
    """Deterministic stand-in for a trained expression head.

    A prompt that parses as an infix question enables the machine and
    carries its postfix translation; anything else disables it.
    """
    try:
        postfix = parse_infix(question)
    except ParseError:
        return PredictorOutput(0, "")
    return PredictorOutput(1, to_postfix(postfix))


def make_segment(result: float, inject_len: int = DEFAULT_INJECT_LEN) -> InjectionSegment:
    """Fixed-length segment: rendered payload, one terminator, space padding."""
    _check_inject_len(inject_len)
    payload = render(result)
    if len(payload) + 1 > inject_len:
        raise PayloadTooLong(
            f"payload {payload!r} does not fit a segment of length {inject_len}"
        )
    text = payload + TERMINATOR_CHAR + " " * (inject_len - len(payload) - 1)
    return InjectionSegment(payload=payload, text=text)


def extract_segment_payload(prompt: str, inject_len: int = DEFAULT_INJECT_LEN) -> str | None:
    """Payload of a trailing injected segment, or None if the tail is not one."""
    _check_inject_len(inject_len)
    if len(prompt) < inject_len:
        return None
    tail = prompt[-inject_len:]
    payload, terminator, pad = tail.partition(TERMINATOR_CHAR)
    if terminator != TERMINATOR_CHAR:
        return None
    if not payload or " " in payload or pad != " " * len(pad):
        return None
    return payload


def make_echo_responder(inject_len: int = DEFAULT_INJECT_LEN) -> Responder:
    """Reference responder: reads an injected answer back when one is
    present, otherwise echoes the prompt byte for byte."""
    _check_inject_len(inject_len)

    def respond(prompt: str) -> str:
        payload = extract_segment_payload(prompt, inject_len)
        return payload if payload is not None else prompt

    return respond


def run(
    question: str,
    predictor: Predictor | None = None,
    responder: Responder | None = None,
    config: PipelineConfig | None = None,
) -> PipelineResult:
    """Full pass over one prompt.

    Arithmetic failures inside the machine (malformed expression,
    division by zero, an unrepresentable result) never escape: the
    prompt falls through to the responder untouched and the failure is
    reported in the diagnostic field.
    """
    config = config or _DEFAULT_CONFIG
    if predictor is None:
        predictor = reference_predictor
    if responder is None:
        responder = make_echo_responder(config.inject_len)

    predicted = predictor(question)
    if not predicted.enable:
        return PipelineResult(
            answer=responder(question), injected=False, expression=predicted.expression
        )
    try:
        program = convert(encode(predicted.expression), config.policy, config.capacity)
        trace = evaluate_with_trace(program)
        prompt = question + make_segment(trace.final, config.inject_len).text
    except (ConversionError, EvalError, NonFinite, PayloadTooLong) as exc:
        return PipelineResult(
            answer=responder(question),
            injected=False,
            expression=predicted.expression,
            diagnostic=f"{type(exc).__name__}: {exc}",
        )
    return PipelineResult(
        answer=responder(prompt),
        injected=True,
        expression=predicted.expression,
        trace=trace,
    )
