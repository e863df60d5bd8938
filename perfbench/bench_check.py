"""Outcome checks against the expectations bench_inputs derived on its own."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from bench_inputs import EITHER, INJECT_LEN, Item

MAX_LISTED = 20
TERMINATOR = "$"


def check_answer(item: Item, result, prompt_seen: str | None) -> str | None:
    """Why the pipeline's result for item is wrong, or None when it is right.

    prompt_seen is the prompt the responder received.
    """
    if item.outcome == EITHER:
        outcome = "answer" if result.injected else "PayloadTooLong"
        return check_answer(Item(item.text, item.kind, outcome, item.value), result, prompt_seen)
    if item.outcome == "answer":
        if not result.injected:
            return f"not injected (diagnostic {result.diagnostic!r})"
        segment = (prompt_seen or "")[len(item.text):]
        if prompt_seen is None or not prompt_seen.startswith(item.text) or len(segment) != INJECT_LEN:
            return f"segment {segment!r} is not {INJECT_LEN} characters after the prompt"
        answer = result.answer
        if segment != answer + TERMINATOR + " " * (INJECT_LEN - len(answer) - 1):
            return f"segment {segment!r} does not carry answer {answer!r}"
        if "e" in answer.lower():
            return f"answer {answer!r} has an exponent"
        try:
            got = float(answer)
        except ValueError:
            return f"answer {answer!r} is not a number"
        want = float(item.value)
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
            return f"answer {answer!r}, expected {want!r}"
        return None
    if result.injected:
        return f"injected {result.answer!r}, expected {item.outcome}"
    if result.answer != item.text or prompt_seen != item.text:
        return "prompt not echoed unchanged"
    if item.outcome == "declined":
        if result.diagnostic is not None:
            return f"diagnostic {result.diagnostic!r} on a declined prompt"
        return None
    if not (result.diagnostic or "").startswith(item.outcome + ":"):
        return f"diagnostic {result.diagnostic!r}, expected {item.outcome}"
    return None


@dataclass
class Tally:
    """Items attempted and failed, with the first failing inputs."""

    attempted: int = 0
    failed: int = 0
    first_failures: list[dict] = field(default_factory=list)

    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def add(self, other: dict) -> None:
        """Fold in a tally another process reported as a dict."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.first_failures.extend(other["first_failures"][: MAX_LISTED - len(self.first_failures)])

    def record(self, text: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.first_failures) < MAX_LISTED:
                self.first_failures.append({"input": text, "reason": reason})
