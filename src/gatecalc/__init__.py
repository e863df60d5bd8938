"""Character-gated arithmetic co-processor.

Text goes in one character at a time, a gated state machine folds it
into dense numbers and operator slots, a reduction loop evaluates the
postfix program, and the rendered answer is injected back into the
prompt as a fixed-length segment. The gates exist twice: as a
hand-written rule policy and as trainable linear heads that converge to
the same 36-case decision table.
"""

from .conversion import (
    CapacityExceeded,
    ConversionError,
    ConversionState,
    DEFAULT_CAPACITY,
    DenseOpMode,
    DenseProgram,
    InvalidCapacity,
    MalformedNumber,
    convert,
    init_state,
    step,
)
from .datagen import (
    DataError,
    EmptyInput,
    GenConfig,
    INSTRUCTION_TEXT,
    QARecord,
    Stage,
    dot_place_line,
    gen_arith_qa,
    gen_dot_place,
    gen_numbers_ops,
    mix_datasets,
    qa_record,
)
from .evaluator import (
    DivisionByZero,
    EvalError,
    EvalTrace,
    MalformedPostfix,
    ReductionStep,
    evaluate,
    evaluate_with_trace,
    stack_oracle,
)
from .gates import (
    EmptyCorpus,
    GateDecision,
    GateError,
    GateEvent,
    GateParams,
    GateTable,
    LossTrace,
    TrainConfig,
    agreement_table,
    events_from_lines,
    full_agreement,
    label_events,
    learned_gates,
    load_params,
    make_learned_policy,
    rule_gates,
    save_params,
    train_gates,
)
from .infix import (
    BinOp,
    Number,
    ParseError,
    eval_infix,
    parse_infix,
    to_postfix,
)
from .pipeline import (
    InjectionSegment,
    PayloadTooLong,
    PipelineConfig,
    PipelineResult,
    PredictorOutput,
    inject,
    make_echo_responder,
    make_segment,
    reference_predictor,
    run,
)
from .render import NonFinite, render
from .tokenizer import Op, encode

__version__ = "0.1.0"
