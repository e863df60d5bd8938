"""Character-gated arithmetic co-processor.

Text goes in one character at a time, a gated state machine folds it
into dense numbers and operator slots, a reduction loop evaluates the
postfix program, and the rendered answer is injected back into the
prompt as a fixed-length segment. The gates exist twice: as a
hand-written rule policy and as trainable linear heads that converge to
the same 36-case decision table.
"""

__version__ = "0.1.0"
