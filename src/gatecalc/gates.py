"""Gate policies for the conversion machine, and the trainer behind them.

A decision depends on nothing but the token id and the decimal flag,
18 x 2 = 36 cases, so a policy is a GateTable indexed
[token_id][decimal_flag]. Two interchangeable tables drive the
converter. rule_gates is the exact hand-written reference. The learned
table comes from one small linear head per gate over the one-hot token;
the decimal flag joins the input only for the dense-mode head, the one
gate whose answer depends on it. A one-hot input only selects a column,
so a head's outputs are w[:, token_id] + b, plus the flag column for
the dense-mode head. Prediction always takes the argmax of a head's
outputs, ties breaking toward the lowest class.

Training is plain per-event gradient descent. The two-way gates use a
sigmoid unit per class with binary cross entropy; the wider heads use
softmax cross entropy. Supervision comes from replaying the reference
policy over corpus text, so the trainer needs nothing but lines of
characters. Events step through the corpus in small chunks, each chunk
repeated several times before the next one starts, which keeps early
material fresh while later material arrives. Decimal dots and operator
characters carry extra loss weight because a miss there corrupts a
whole number rather than one digit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .conversion import DenseOpMode, init_state, step
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
    """One (weight matrix, bias vector) pair per gate head, by head name."""

    heads: dict[str, tuple[np.ndarray, np.ndarray]]

    @classmethod
    def zeros(cls) -> "GateParams":
        return cls({
            name: (np.zeros((n_out, n_in)), np.zeros(n_out))
            for name, n_out, n_in in HEAD_SHAPES
        })

    def clone(self) -> "GateParams":
        return GateParams({name: (w.copy(), b.copy()) for name, (w, b) in self.heads.items()})


def _logits(params: GateParams, name: str, token_id: int, decimal_started: int) -> np.ndarray:
    """w @ x + b for the one-hot input x, read as column token_id of w."""
    w, b = params.heads[name]
    z = w[:, token_id]
    if decimal_started and w.shape[1] > VOCAB_SIZE:
        z = z + w[:, VOCAB_SIZE]
    return z + b


def learned_gates(params: GateParams, token_id: int, decimal_started: int) -> GateDecision:
    """Argmax of every head. All-zero params answer class 0 everywhere."""

    ignore, move, decimal_start, dense_mode, digit, op = (
        int(np.argmax(_logits(params, name, token_id, decimal_started)))
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
    """Replay the reference conversion over one line, recording every token.

    The decimal flag is captured before the token acts, which is exactly
    the context a policy sees. A terminator is recorded and then stops
    the replay, the same way it stops the converter.
    """
    ids = encode(text)
    state = init_state(len(ids) + 1)
    events: list[GateEvent] = []
    for token_id in ids:
        flag = state.decimal_started
        events.append(GateEvent(token_id, flag, rule_gates[token_id][flag]))
        if not step(state, token_id, rule_gates):
            break
    return events


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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _binary_loss_grad(z: np.ndarray, target: int) -> tuple[float, np.ndarray]:
    """Summed BCE over one sigmoid unit per class, stable for any logit."""
    y = np.zeros(len(z))
    y[target] = 1.0
    loss = float(np.sum(np.logaddexp(0.0, z) - y * z))
    return loss, _sigmoid(z) - y


def _softmax_loss_grad(z: np.ndarray, target: int) -> tuple[float, np.ndarray]:
    zmax = float(np.max(z))
    lse = zmax + float(np.log(np.sum(np.exp(z - zmax))))
    loss = lse - float(z[target])
    p = np.exp(z - lse)
    p[target] -= 1.0
    return loss, p


def _train_step(
    params: GateParams, event: GateEvent, config: TrainConfig
) -> tuple[float, float]:
    """One gradient step over all heads. Returns (raw, weighted) loss."""
    weight = _event_weight(event, config)
    token_id, flag = event.token_id, event.decimal_started
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
            delta = config.lr * weight * dz
            w[:, token_id] -= delta
            if flag and n_in > VOCAB_SIZE:
                w[:, VOCAB_SIZE] -= delta
            b -= delta
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


def save_params(params: GateParams, path: str | Path) -> None:
    """Flat JSON, arrays as nested lists. Round trips bit exactly."""
    payload: dict = {"format_version": FORMAT_VERSION}
    for name, _, _ in HEAD_SHAPES:
        w, b = params.heads[name]
        payload[f"{name}_w"] = w.tolist()
        payload[f"{name}_b"] = b.tolist()
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
            w = np.asarray(payload[f"{name}_w"], dtype=float)
            b = np.asarray(payload[f"{name}_b"], dtype=float)
        except (KeyError, TypeError, ValueError):
            raise GateError(f"head {name!r} is missing or not numeric") from None
        if w.shape != (n_out, n_in) or b.shape != (n_out,):
            raise GateError(f"head {name!r} has wrong shape {w.shape} / {b.shape}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise GateError(f"head {name!r} contains non-finite values")
        heads[name] = (w, b)
    return GateParams(heads)
