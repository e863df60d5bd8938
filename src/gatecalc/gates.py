"""Gate policies for the conversion machine, and the trainer behind them.

A decision depends on nothing but the token id and the decimal flag,
18 x 2 = 36 cases, so a policy is a GateTable indexed
[token_id][decimal_flag]. Two interchangeable tables drive the
converter. rule_gates is the exact hand-written reference. The learned
table comes from one small linear head per gate over the one-hot token;
the decimal flag joins the input only for the dense-mode head, the one
gate whose answer depends on it. A one-hot input only selects a column,
so a head keeps its weights as a list of input columns, and its outputs
are the token's column plus the flag column (dense-mode head, flag on)
plus the bias. Prediction always takes the argmax of a head's outputs,
ties breaking toward the lowest class.

Training is plain per-event gradient descent in scalar Python: the
heads are at most 10 x 19, too small for array calls to pay for
themselves. The two-way gates use a sigmoid unit per class with binary
cross entropy; the wider heads use softmax cross entropy. Supervision
comes from the reference policy's conversion trace over corpus text, so
the trainer needs nothing but lines of characters. Events step through
the corpus in small chunks, each chunk repeated several times before
the next one starts, which keeps early material fresh while later
material arrives. Decimal dots and operator characters carry extra loss
weight because a miss there corrupts a whole number rather than one
digit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from operator import add, sub
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .conversion import DenseOpMode, convert_with_trace
from .tokenizer import (
    DOT_ID,
    ID_TO_CHAR,
    OP_ID_TO_OP,
    OTHER_ID,
    OTHER_PLACEHOLDER,
    SPACE_ID,
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


@dataclass(frozen=True, slots=True)
class GateDecision:
    """Everything the conversion machine needs to know about one token."""

    ignore: int
    move: int
    decimal_start: int
    dense_mode: DenseOpMode
    digit: int
    op: Op

    def __iter__(self):
        """Field values in declaration order, which is HEAD_SHAPES order."""
        return (getattr(self, name) for name in self.__slots__)


# A gate policy: VOCAB_SIZE rows of (decision at flag 0, decision at flag 1).
GateTable = tuple[tuple[GateDecision, GateDecision], ...]


def _tabulate(decide: Callable[[int, int], GateDecision]) -> GateTable:
    return tuple((decide(t, 0), decide(t, 1)) for t in range(VOCAB_SIZE))


def _rule_decision(token_id: int, decimal_started: int) -> GateDecision:
    """Reference decision for one (token id, decimal flag) case."""
    if token_id == OTHER_ID:
        return GateDecision(1, 0, 0, DenseOpMode.IGNORE, 0, Op.NONE)
    if token_id <= 9:
        mode = (
            DenseOpMode.BASE_MUL_ADD if decimal_started else DenseOpMode.TIMES_TEN_ADD
        )
        return GateDecision(0, 0, 0, mode, token_id, Op.NONE)
    if token_id == DOT_ID:
        return GateDecision(0, 0, 1, DenseOpMode.IGNORE, 0, Op.NONE)
    if token_id == SPACE_ID:
        return GateDecision(0, 1, 0, DenseOpMode.IGNORE, 0, Op.NONE)
    if token_id in OP_ID_TO_OP:
        return GateDecision(0, 1, 0, DenseOpMode.IGNORE, 0, OP_ID_TO_OP[token_id])
    # Terminator: every gate stays quiet, the machine stops on the token itself.
    return GateDecision(0, 0, 0, DenseOpMode.IGNORE, 0, Op.NONE)


rule_gates: GateTable = _tabulate(_rule_decision)


@dataclass
class GateParams:
    """One (weights, bias) pair per gate head, by head name.

    The weights are a list of n_in input columns, each a list of n_out
    floats, because a one-hot input reads and moves only whole columns;
    the bias is a list of n_out floats.
    """

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


def learned_gates(params: GateParams, token_id: int, decimal_started: int) -> GateDecision:
    """Argmax of every head. All-zero params answer class 0 everywhere."""

    ignore, move, decimal_start, dense_mode, digit, op = (
        _argmax(_logits(params, name, token_id, decimal_started))
        for name, _, _ in HEAD_SHAPES
    )
    return GateDecision(ignore, move, decimal_start, DenseOpMode(dense_mode), digit, Op(op))


def make_learned_policy(params: GateParams) -> GateTable:
    """The 36-case table of learned decisions, computed once up front."""
    return _tabulate(lambda token_id, ds: learned_gates(params, token_id, ds))


# ---------------------------------------------------------------------------
# Supervision


@dataclass(frozen=True)
class GateEvent:
    """One token in context: the decimal flag it arrived under plus the
    reference decision for it."""

    token_id: int
    decimal_started: int
    target: GateDecision


def label_events(text: str) -> list[GateEvent]:
    """The reference conversion of one line, as one event per token read.

    Each token is paired with the decimal flag it was read under, which
    is exactly the context a policy sees. A terminator is recorded and
    ends the line, the same way it stops the converter; a malformed
    number raises as it does there.
    """
    ids = encode(text)
    flags = convert_with_trace(ids, rule_gates, len(ids) + 1)[1]
    return [GateEvent(t, f, rule_gates[t][f]) for t, f in zip(ids, flags)]


def events_from_lines(lines: Iterable[str]) -> list[GateEvent]:
    events: list[GateEvent] = []
    for line in lines:
        events.extend(label_events(line))
    return events


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainConfig:
    epoch_size: int = 50
    repeats: int = 5
    lr: float = 0.1
    steps_max: int | None = None
    dot_weight: float = 5.0
    op_weight: float = 5.0
    freeze: bool = False

    def __post_init__(self) -> None:
        for name in ("lr", "dot_weight", "op_weight"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise GateError(f"{name} must be finite, got {value}")
        if self.steps_max is not None and self.steps_max < 1:
            raise GateError(f"steps_max must be positive, got {self.steps_max}")


@dataclass(frozen=True)
class EventLoss:
    step: int
    token_id: int
    weight: float
    raw: float
    weighted: float


@dataclass
class LossTrace:
    events: list[EventLoss] = field(default_factory=list)
    epoch_mean: list[float] = field(default_factory=list)


def _event_weight(event: GateEvent, config: TrainConfig) -> float:
    if event.token_id == DOT_ID:
        return config.dot_weight
    if event.token_id in OP_ID_TO_OP:
        return config.op_weight
    return 1.0


# Every exp below takes an argument of at most zero (or NaN), so none can
# overflow and raise; a diverged logit gives an infinite or NaN loss.


def _binary_loss_grad(z: list[float], target: int) -> tuple[float, list[float]]:
    """Summed BCE over one sigmoid unit per class, stable for any logit.

    Per unit, softplus(x) = log(1 + e**x) and sigmoid(x) share one exp,
    taken of -|x|.
    """
    loss = 0.0
    grad = []
    for j, x in enumerate(z):
        y = 1.0 if j == target else 0.0
        if x > 0:
            e = math.exp(-x)
            loss += x + math.log1p(e) - y * x
            grad.append(1.0 / (1.0 + e) - y)
        else:
            e = math.exp(x)
            loss += math.log1p(e) - y * x
            grad.append(e / (1.0 + e) - y)
    return loss, grad


def _softmax_loss_grad(z: list[float], target: int) -> tuple[float, list[float]]:
    zmax = max(z)
    lse = zmax + math.log(sum([math.exp(x - zmax) for x in z]))
    p = [math.exp(x - lse) for x in z]
    p[target] -= 1.0
    return lse - z[target], p


def _train_step(
    params: GateParams, event: GateEvent, config: TrainConfig
) -> tuple[float, float]:
    """One gradient step over all heads. Returns (raw, weighted) loss."""
    weight = _event_weight(event, config)
    token_id, flag = event.token_id, event.decimal_started
    scale = config.lr * weight
    raw = 0.0
    for (name, n_out, n_in), target in zip(HEAD_SHAPES, event.target):
        z = _logits(params, name, token_id, flag)
        if n_out == 2:
            loss, dz = _binary_loss_grad(z, target)
        else:
            loss, dz = _softmax_loss_grad(z, target)
        raw += loss
        if not config.freeze:
            # The outer product of dz with a one-hot input is dz in the
            # token's column (and the flag column when the flag is on) and
            # zero everywhere else, so only those columns move.
            w, b = params.heads[name]
            delta = [scale * g for g in dz]
            if flag and n_in > VOCAB_SIZE:
                moved = (w[token_id], w[VOCAB_SIZE], b)
            else:
                moved = (w[token_id], b)
            for v in moved:
                v[:] = map(sub, v, delta)
    return raw, weight * raw


def train_gates(
    events: Sequence[GateEvent],
    config: TrainConfig | None = None,
    init: GateParams | None = None,
) -> tuple[GateParams, LossTrace]:
    """Fit the gate heads to a labeled event stream.

    The stream is cut into chunks of epoch_size events; each chunk runs
    repeats times before the next chunk starts. The trace keeps one
    entry per gradient step plus the mean weighted loss of every chunk
    pass. With freeze set, losses are recorded but nothing updates,
    which is how a later corpus can be scored against frozen gates.
    Training stops with a GateError at the first step whose weighted
    loss is not finite, since every later step would run on diverged
    params.
    """
    events = list(events)
    if not events:
        raise EmptyCorpus("no training events")
    config = config or TrainConfig()
    if config.epoch_size < 1:
        raise GateError(f"epoch_size must be positive, got {config.epoch_size}")
    if config.repeats < 1:
        raise GateError(f"repeats must be positive, got {config.repeats}")

    params = init.clone() if init is not None else GateParams.zeros()
    trace = LossTrace()
    step_idx = 0
    budget_spent = False

    for start in range(0, len(events), config.epoch_size):
        chunk = events[start : start + config.epoch_size]
        for _ in range(config.repeats):
            pass_losses: list[float] = []
            for event in chunk:
                if config.steps_max is not None and step_idx >= config.steps_max:
                    budget_spent = True
                    break
                raw, weighted = _train_step(params, event, config)
                if not math.isfinite(weighted):
                    raise GateError(
                        f"training diverged at step {step_idx}: weighted loss is {weighted}"
                    )
                trace.events.append(
                    EventLoss(step_idx, event.token_id, _event_weight(event, config), raw, weighted)
                )
                pass_losses.append(weighted)
                step_idx += 1
            if pass_losses:
                trace.epoch_mean.append(sum(pass_losses) / len(pass_losses))
            if budget_spent:
                break
        if budget_spent:
            break
    return params, trace


# ---------------------------------------------------------------------------
# Agreement with the reference


@dataclass(frozen=True)
class AgreementRow:
    token_id: int
    char: str
    decimal_started: int
    matches: dict[str, bool]
    ok: bool


def agreement_table(params: GateParams) -> list[AgreementRow]:
    """Learned versus reference decisions across all 36 (token, flag) cases."""
    learned = make_learned_policy(params)
    rows: list[AgreementRow] = []
    for token_id in range(VOCAB_SIZE):
        char = ID_TO_CHAR.get(token_id, OTHER_PLACEHOLDER)
        for ds in (0, 1):
            want, got = rule_gates[token_id][ds], learned[token_id][ds]
            matches = {f: x == y for f, x, y in zip(GateDecision.__slots__, want, got)}
            rows.append(AgreementRow(token_id, char, ds, matches, all(matches.values())))
    return rows


# ---------------------------------------------------------------------------
# Serialization


def _check_finite(name: str, w: list[list[float]], b: list[float]) -> None:
    if not all(map(math.isfinite, chain(b, *w))):
        raise GateError(f"head {name!r} contains non-finite values")


def save_params(params: GateParams, path: str | Path) -> None:
    """Flat JSON, each head's weights as n_out rows of n_in numbers (the
    columns transposed back) and its bias as a list. Round trips bit
    exactly.

    Params that load_params would reject are refused before any file is
    written.
    """
    payload: dict = {"format_version": FORMAT_VERSION}
    for name, _, _ in HEAD_SHAPES:
        w, b = params.heads[name]
        _check_finite(name, w, b)
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
            w_flat, w_shape = _read_array(payload[f"{name}_w"])
            b, b_shape = _read_array(payload[f"{name}_b"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise GateError(f"head {name!r} is missing or not numeric") from None
        if w_shape != (n_out, n_in) or b_shape != (n_out,):
            raise GateError(f"head {name!r} has wrong shape {w_shape} / {b_shape}")
        w = [w_flat[col::n_in] for col in range(n_in)]
        _check_finite(name, w, b)
        heads[name] = (w, b)
    return GateParams(heads)


def _read_array(value) -> tuple[list[float], tuple[int, ...]]:
    """A JSON value read as an array: its numbers in row-major order as
    floats, and its shape (a number has shape ()).

    Raises ValueError for ragged nesting, and TypeError, ValueError or
    OverflowError for an element float() refuses (null, an object, a
    non-numeric string, an int past float range).
    """
    shape = []
    level = [value]
    while level and all(isinstance(v, list) for v in level):
        sizes = {len(v) for v in level}
        if len(sizes) > 1:
            raise ValueError("ragged array")
        shape.append(sizes.pop())
        level = [x for v in level for x in v]
    return [float(x) for x in level], tuple(shape)
