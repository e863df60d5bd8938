"""The learned gate policy for the conversion machine, and its trainer.

A decision depends on nothing but the token id and the decimal flag,
18 x 2 = 36 cases, so a policy is a GateTable of 36 decisions indexed
by the case id 2 * token_id + decimal_flag. rule_gates, the exact
hand-written table, lives in conversion beside the machine, so serving
never loads this module. The learned table comes from one linear head
per gate over the one-hot token; the decimal flag joins the input only
for the dense-mode head, the one gate whose answer depends on it. A
one-hot input only selects a column, so a head keeps its weights as a
list of input columns. A head predicts the first argmax of its outputs,
and one reader, an argmax per token column (two for the dense-mode
head), serves both the learned table and the stop check.

Training is per-event gradient descent in scalar Python, since the heads
are at most 10 x 19: a sigmoid unit per class with binary cross entropy
for the two-way gates, softmax cross entropy for the wider ones. An
event is the case id a token was read in under rule_gates, so the
trainer needs only lines of text, and a stream of events is bytes; it
reads each case's token, flag and targets from tables by case id. The
stream runs in chunks, each repeated several times before the next,
which keeps early material fresh. Dots and operators carry extra loss
weight, since a miss there corrupts a whole number, not one digit.

Each head trains to its own agreement, not to a step budget. A head
moves only under its own loss, so the heads are independent, and each
stops at the first chunk boundary where it decides every case the
stream holds as rule_gates does. Its loss then depends on the case id
alone, so it becomes a table, computed once by the head's own training
code at scale zero. The stage stops when no head is left training;
steps_max is only an upper bound. At a learning rate of zero every head
stops at step 0: the stream is scored and the init comes back untouched.

The trainer runs head-major over blocks: a block is one chunk's repeated
passes, clipped to the step budget, and each head still training takes
all of its steps before the next head starts. Since the heads are
independent, this is exact: params and trace match the event-major loop
bit for bit, each step's raw loss summing the heads' losses in
HEAD_SHAPES order. The block boundary is where the trace is recorded, a
non-finite loss is reported and the heads are checked.

The loss trace keeps per step only the token id, one byte, and the raw
loss, one double; the stage's 18 token weights are kept once, and its
events are a read-only view whose EventLoss rows are built on read. It
also keeps each pass's mean loss, the agreement curve (the cases no
head misses at each boundary) and the step at which each head stopped.
"""

from __future__ import annotations

import json
import math
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from math import exp, log, log1p
from operator import add, mul, sub
from pathlib import Path
from typing import NamedTuple

from .conversion import (
    CASES,
    DECISION_FIELDS,
    DenseOpMode,
    GateDecision,
    GateTable,
    convert_with_trace,
    rule_gates,
)
from .tokenizer import (
    DOT_ID,
    ID_TO_CHAR,
    OP_ID_TO_OP,
    OTHER_PLACEHOLDER,
    VOCAB_SIZE,
    Op,
    encode,
)

FORMAT_VERSION = 1

# name, classes, input width; one head per GateDecision field, in field
# order. A two-class head is binary; the head one column wider than the
# vocabulary also reads the decimal flag, in its last column.
HEAD_SHAPES: tuple[tuple[str, int, int], ...] = (
    ("ignore", 2, VOCAB_SIZE),
    ("move", 2, VOCAB_SIZE),
    ("decimal", 2, VOCAB_SIZE),
    ("denseop", 4, VOCAB_SIZE + 1),
    ("digit", 10, VOCAB_SIZE),
    ("op", 5, VOCAB_SIZE),
)


class GateError(ValueError):
    """Bad training settings, an unusable corpus, or a bad gate file."""


class EmptyCorpus(GateError):
    pass


@dataclass
class GateParams:
    """One (weights, bias) pair per gate head, by head name. The weights
    are a list of n_in input columns of n_out floats each, since a one-hot
    input reads and moves only whole columns; the bias is n_out floats."""

    heads: dict[str, tuple[list[list[float]], list[float]]]

    @classmethod
    def zeros(cls) -> "GateParams":
        return cls({
            name: ([[0.0] * n_out for _ in range(n_in)], [0.0] * n_out)
            for name, n_out, n_in in HEAD_SHAPES
        })

    def clone(self) -> "GateParams":
        return GateParams({
            name: ([col[:] for col in w], b[:]) for name, (w, b) in self.heads.items()
        })


def _logits(params: GateParams, name: str, token_id: int, decimal_started: int) -> list[float]:
    """w @ x + b for the one-hot input x: the token's column of w, plus the
    flag column when the flag is on (dense-mode head only), plus b."""
    w, b = params.heads[name]
    column = w[token_id]
    if decimal_started and len(w) > VOCAB_SIZE:
        column = map(add, column, w[VOCAB_SIZE])
    return list(map(add, column, b))


def _argmax(z: list[float]) -> int:
    """Index of the first maximum."""
    return z.index(max(z))


def _classes(params: GateParams, name: str, n_in: int, tokens: Iterable[int]) -> dict[int, int]:
    """The head's class for each case id of the given token ids. It takes
    one argmax per token column, which serves both flags, and the
    dense-mode head a second one with its flag column added."""
    got = {}
    for t in tokens:
        got[2 * t] = got[2 * t + 1] = _argmax(_logits(params, name, t, 0))
        if n_in > VOCAB_SIZE:
            got[2 * t + 1] = _argmax(_logits(params, name, t, 1))
    return got


def make_learned_policy(params: GateParams) -> GateTable:
    """The 36-case table of learned decisions, computed once up front in
    126 argmaxes. Params check_params refuses raise GateError."""
    check_params(params)
    ignore, move, decimal, mode, digit, op = (
        _classes(params, name, n_in, range(VOCAB_SIZE)) for name, _, n_in in HEAD_SHAPES
    )
    return GateTable([
        GateDecision(ignore[c], move[c], decimal[c], DenseOpMode(mode[c]), digit[c], Op(op[c]))
        for c in range(CASES)
    ])


# ---------------------------------------------------------------------------
# Supervision


# bytes.translate tables from a case id to its token id, its decimal flag
# and each head's reference class, in HEAD_SHAPES order. Ids past the 36
# cases map to 0, so train_gates refuses them before it translates.
_CASE_TOKEN, _CASE_FLAG, *_CASE_TARGETS = (
    bytes(column).ljust(256, b"\0")
    for column in zip(*[(case >> 1, case & 1, *rule_gates[case]) for case in range(CASES)])
)


def label_events(text: str) -> bytes:
    """The rule_gates conversion trace of one line: per token read, its
    case id, the context a policy sees. A terminator is recorded and ends
    the line; a malformed number raises as it does in the converter."""
    return convert_with_trace(encode(text), rule_gates, len(text) + 1)[1]


def events_from_lines(lines: Iterable[str]) -> bytes:
    return b"".join(map(label_events, lines))


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class TrainConfig:
    epoch_size: int = 50
    repeats: int = 5
    lr: float = 0.1
    steps_max: int | None = None
    dot_weight: float = 5.0
    op_weight: float = 5.0

    def __post_init__(self) -> None:
        for name in ("lr", "dot_weight", "op_weight"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise GateError(f"{name} must be finite, got {value}")
        for name in ("epoch_size", "repeats", "steps_max"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "steps_max" and value is None):
                raise GateError(f"{name} must be an int, got {value!r}")
            if value is not None and value < 1:
                raise GateError(f"{name} must be positive, got {value}")


class EventLoss(NamedTuple):
    """A gradient step as LossTrace.events reads it: raw sums the heads'
    losses in HEAD_SHAPES order, and weighted is the token's weight * raw."""

    step: int
    token_id: int
    weight: float
    raw: float
    weighted: float


class _EventView(Sequence):
    """A trace's steps as read-only EventLoss rows, each built on read."""

    def __init__(self, trace: LossTrace) -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.raws)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        trace = self._trace
        step = range(len(trace.raws))[i]
        token_id = trace.token_ids[step]
        weight, raw = trace.weight_of[token_id], trace.raws[step]
        return EventLoss(step, token_id, weight, raw, weight * raw)


@dataclass
class LossTrace:
    """A stage's loss trace. Per gradient step it keeps the token id, one
    byte of token_ids, and the raw loss, one double of raws; the loss
    weight of each token id is kept once, in weight_of, and events reads
    the three as EventLoss rows. epoch_mean holds each chunk pass's mean
    weighted loss, agreement the count of the stream's cases decided as
    rule_gates does at each block's end, stopped each head's stop step."""

    token_ids: bytearray = field(default_factory=bytearray)
    raws: array = field(default_factory=lambda: array("d"))
    weight_of: tuple[float, ...] = ()
    epoch_mean: list[float] = field(default_factory=list)
    agreement: list[int] = field(default_factory=list)
    stopped: dict[str, int] = field(default_factory=dict)

    @property
    def events(self) -> Sequence[EventLoss]:
        return _EventView(self)


def stop_report(trace: LossTrace, events: bytes, config: TrainConfig) -> str:
    """A stage's stop lines: how many of its stream's cases agree at its
    last step, whether steps_max cut it first, and where each head stopped."""
    steps, agreeing, cases = len(trace.events), trace.agreement[-1], len(set(events))
    cut = ", steps_max cut the run first" if steps == config.steps_max and agreeing < cases else ""
    stops = ", ".join(f"{name} {trace.stopped.get(name, '-')}" for name, _, _ in HEAD_SHAPES)
    return (f"agreement {agreeing}/{cases} cases at step {steps}{cut}\n"
            f"heads stopped at step: {stops}")


# Each head below runs over a whole block of steps and returns its loss at
# every step. Every exp takes an argument of at most zero (or NaN), so none
# can overflow; a diverged logit gives an infinite or NaN loss, and training
# goes on to the block's end on whatever the params hold. The gradient with
# respect to a one-hot input's weights is dz in the token's column (and the
# flag column when the flag is on) and zero elsewhere, so a step moves only
# those columns and the bias, each by delta = scale * dz.


def _train_binary_head(w, b, tokens, targets, scales) -> list[float]:
    """Summed BCE over one sigmoid unit per class, stable for any logit:
    per unit, softplus(x) = log(1 + e**x) and sigmoid(x) share one exp,
    taken of -|x|. The two units are unrolled and the bias is held in
    locals."""
    b0, b1 = b
    losses = []
    for t, target, scale in zip(tokens, targets, scales):
        column = w[t]
        x0 = column[0] + b0
        x1 = column[1] + b1
        y0 = 1.0 if target == 0 else 0.0
        y1 = 1.0 if target == 1 else 0.0
        if x0 > 0:
            e = exp(-x0)
            loss0 = x0 + log1p(e) - y0 * x0
            g0 = 1.0 / (1.0 + e) - y0
        else:
            e = exp(x0)
            loss0 = log1p(e) - y0 * x0
            g0 = e / (1.0 + e) - y0
        if x1 > 0:
            e = exp(-x1)
            loss1 = x1 + log1p(e) - y1 * x1
            g1 = 1.0 / (1.0 + e) - y1
        else:
            e = exp(x1)
            loss1 = log1p(e) - y1 * x1
            g1 = e / (1.0 + e) - y1
        losses.append(0.0 + loss0 + loss1)
        d0 = scale * g0
        d1 = scale * g1
        column[0] -= d0
        column[1] -= d1
        b0 -= d0
        b1 -= d1
    b[:] = b0, b1
    return losses


def _train_softmax_head(w, b, tokens, flags, targets, scales) -> list[float]:
    """Softmax cross entropy. A head one column wider than the vocabulary
    reads and moves its flag column too at steps whose flag is on.

    dz is the softmax minus the one-hot target, so delta is built from
    the probabilities directly and the target's entry is set apart."""
    flag_column = w[VOCAB_SIZE] if len(w) > VOCAB_SIZE else None
    losses = []
    for t, flag, target, scale in zip(tokens, flags, targets, scales):
        column = w[t]
        if flag and flag_column is not None:
            z = list(map(add, map(add, column, flag_column), b))
        else:
            z = list(map(add, column, b))
        zmax = max(z)
        lse = zmax + log(sum([exp(x - zmax) for x in z]))
        x = z[target]
        losses.append(lse - x)
        delta = [scale * exp(x - lse) for x in z]
        delta[target] = scale * (exp(x - lse) - 1.0)
        column[:] = map(sub, column, delta)
        if flag and flag_column is not None:
            flag_column[:] = map(sub, flag_column, delta)
        b[:] = map(sub, b, delta)
    return losses


def _train_head(w, b, n_out, block, targets, scales) -> list[float]:
    """One head's steps over a block of case ids, its reference classes
    read through targets. Returns its loss at every step."""
    tokens = block.translate(_CASE_TOKEN)
    if n_out == 2:
        return _train_binary_head(w, b, tokens, block.translate(targets), scales)
    flags = block.translate(_CASE_FLAG)
    return _train_softmax_head(w, b, tokens, flags, block.translate(targets), scales)


def _loss_table(w, b, n_out, targets, cases: set[int]) -> dict[int, float]:
    """A stopped head's loss at each of the case ids: its own training code
    run over them at scale 0.0, on a copy, since even a zero step turns
    -0.0 into 0.0. A loss that is not finite may leave a NaN in the copy
    for the cases after it, so then each case runs on its own copy."""
    block = bytes(cases)
    losses = _train_head([c[:] for c in w], b[:], n_out, block, targets, [0.0] * len(block))
    if not all(map(math.isfinite, losses)):
        losses = [
            _train_head([c[:] for c in w], b[:], n_out, bytes([case]), targets, [0.0])[0]
            for case in block
        ]
    return dict(zip(block, losses))


def train_gates(
    events: bytes,
    config: TrainConfig | None = None,
    init: GateParams | None = None,
) -> tuple[GateParams, LossTrace]:
    """Fit the gate heads to a bytes stream of case ids, as label_events makes.

    Chunks of epoch_size events each run repeats times, one gradient step
    per event, until no head is left training (see the module docstring)
    or at steps_max. At lr 0 the stream is scored and the init comes back
    bit for bit, which is how a later corpus is scored against fixed
    gates. A stream that is not bytes, a case id outside the 36 cases and
    an init that check_params refuses raise GateError, and so does the
    first step whose weighted loss is not finite, since every later step
    would run on diverged params.
    """
    if not isinstance(events, bytes):
        raise GateError(f"events must be bytes of case ids, got {type(events).__name__}")
    if not events:
        raise EmptyCorpus("no training events")
    if max(events) >= CASES:
        bad = next(i for i in events if i >= CASES)
        raise GateError(f"case id {bad} is outside 0-{CASES - 1}")
    cases = set(events)
    config = config or TrainConfig()
    weight_of = tuple(
        config.dot_weight if t == DOT_ID else config.op_weight if t in OP_ID_TO_OP else 1.0
        for t in range(VOCAB_SIZE)
    )
    steps_max = config.steps_max or math.inf
    if init is not None:
        check_params(init)
    params = GateParams.zeros() if init is None else init.clone()
    trace = LossTrace(weight_of=weight_of)
    # A stopped head's loss is a table by case id. missed keeps each head's
    # missed cases as last checked; a stopped head is never checked again.
    tables: dict[str, dict[int, float]] = {}
    missed: dict[str, set[int]] = {}

    def check_heads(stop_all: bool) -> None:
        for (name, n_out, n_in), targets in zip(HEAD_SHAPES, _CASE_TARGETS):
            if name in tables:
                continue
            got = _classes(params, name, n_in, {case >> 1 for case in cases})
            missed[name] = {case for case in cases if got[case] != targets[case]}
            if stop_all or not missed[name]:
                tables[name] = _loss_table(*params.heads[name], n_out, targets, cases)
                trace.stopped[name] = step

    step = 0
    if not config.lr:
        check_heads(stop_all=True)
    for start in range(0, len(events), config.epoch_size):
        chunk = events[start : start + config.epoch_size]
        # Only the passes the step budget leaves are built.
        size = min(len(chunk) * config.repeats, steps_max - step)
        block = (chunk * -(-size // len(chunk)))[:size]
        tokens = block.translate(_CASE_TOKEN)
        weights = [weight_of[t] for t in tokens]
        scales = [config.lr * w for w in weights]
        # Each step's raw loss sums its heads' losses in HEAD_SHAPES order,
        # the order one event-major step adds them in.
        raws = [0.0] * size
        for (name, n_out, _), targets in zip(HEAD_SHAPES, _CASE_TARGETS):
            if name in tables:
                losses = map(tables[name].__getitem__, block)
            else:
                losses = _train_head(*params.heads[name], n_out, block, targets, scales)
            raws = list(map(add, raws, losses))
        weighted = list(map(mul, weights, raws))
        for i, loss in enumerate(weighted):
            if not math.isfinite(loss):
                raise GateError(f"training diverged at step {step + i}: weighted loss is {loss}")
        trace.token_ids += tokens
        trace.raws.extend(raws)
        for p in range(0, size, len(chunk)):
            pass_losses = weighted[p : p + len(chunk)]
            trace.epoch_mean.append(sum(pass_losses) / len(pass_losses))
        step += size
        check_heads(stop_all=False)
        trace.agreement.append(len(cases) - len(set().union(*missed.values())))
        if step == steps_max or (config.lr and len(tables) == len(HEAD_SHAPES)):
            break
    return params, trace


# ---------------------------------------------------------------------------
# Agreement with the reference


@dataclass(frozen=True)
class AgreementRow:
    """One (token, flag) case: which decision fields match the reference,
    whether all do, and whether the compiled action does. Equal actions
    are what conversion needs."""

    token_id: int
    char: str
    decimal_started: int
    matches: dict[str, bool]
    ok: bool
    action_ok: bool


def agreement_table(params: GateParams) -> list[AgreementRow]:
    """Learned versus reference decisions across all 36 (token, flag) cases."""
    rows: list[AgreementRow] = []
    learned = make_learned_policy(params)
    for case, (want, got) in enumerate(zip(rule_gates, learned)):
        token_id = case >> 1
        matches = {f: x == y for f, x, y in zip(DECISION_FIELDS, want, got)}
        action_ok = rule_gates.actions[case] == learned.actions[case]
        char = ID_TO_CHAR.get(token_id, OTHER_PLACEHOLDER)
        rows.append(AgreementRow(token_id, char, case & 1, matches, all(matches.values()), action_ok))
    return rows


# ---------------------------------------------------------------------------
# Serialization


def _read_head(name: str, n_out: int, n_in: int, w_rows, b
               ) -> tuple[list[list[float]], list[float]]:
    """A head's (w, b) as GateParams holds them, read from its weights as
    n_out rows of n_in numbers and its n_out biases. Raises GateError for
    arrays that are not numeric, of the wrong shape or not finite."""
    try:
        w_flat, w_shape = _read_array(w_rows)
        b, b_shape = _read_array(b)
    except (TypeError, ValueError, OverflowError):
        raise GateError(f"head {name!r} is missing or not numeric") from None
    if w_shape != (n_out, n_in) or b_shape != (n_out,):
        raise GateError(f"head {name!r} has wrong shape {w_shape} / {b_shape}")
    if not all(map(math.isfinite, w_flat + b)):
        raise GateError(f"head {name!r} contains non-finite values")
    return [w_flat[col::n_in] for col in range(n_in)], b


def check_params(params: GateParams) -> None:
    """Refuse params that load_params would refuse as a file, with its
    messages: a head missing, not numeric, of the wrong shape or not
    finite. Shapes read as the file holds them, n_out rows of n_in."""
    for name, n_out, n_in in HEAD_SHAPES:
        try:
            w, b = params.heads[name]
            rows = list(zip(*w, strict=True))
        except (KeyError, TypeError, ValueError):
            raise GateError(f"head {name!r} is missing or not numeric") from None
        _read_head(name, n_out, n_in, rows, b)


def save_params(params: GateParams, path: str | Path) -> None:
    """Flat JSON, each head's weights as n_out rows of n_in numbers (the
    columns transposed back) and its bias as a list. Round trips bit
    exactly. Params that load_params would reject are refused before any
    file is written."""
    check_params(params)
    payload: dict = {"format_version": FORMAT_VERSION}
    for name, _, _ in HEAD_SHAPES:
        w, b = params.heads[name]
        payload[f"{name}_w"] = [list(row) for row in zip(*w)]
        payload[f"{name}_b"] = list(b)
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def load_params(path: str | Path) -> GateParams:
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise GateError(f"{path}: JSON nested too deeply") from None
    except ValueError:  # int() refuses a literal past Python's digit limit
        raise GateError(f"{path}: JSON integer has too many digits") from None
    if not isinstance(payload, dict):
        raise GateError(f"{path}: expected a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise GateError(f"unsupported gate file version {version!r}")
    heads = {}
    for name, n_out, n_in in HEAD_SHAPES:
        try:
            w_rows, b = payload[f"{name}_w"], payload[f"{name}_b"]
        except KeyError:
            raise GateError(f"head {name!r} is missing or not numeric") from None
        heads[name] = _read_head(name, n_out, n_in, w_rows, b)
    return GateParams(heads)


def _read_array(value) -> tuple[list[float], tuple[int, ...]]:
    """A JSON value, or nested lists and tuples, read as an array: its
    numbers in row-major order as floats, and its shape (a number has
    shape ()). Raises ValueError for ragged nesting, and TypeError,
    ValueError or OverflowError for an element float() refuses (null, an
    object, a non-numeric string, an int past float range)."""
    shape = []
    level = [value]
    while level and all(isinstance(v, (list, tuple)) for v in level):
        sizes = {len(v) for v in level}
        if len(sizes) > 1:
            raise ValueError("ragged array")
        shape.append(sizes.pop())
        level = [x for v in level for x in v]
    return [float(x) for x in level], tuple(shape)
