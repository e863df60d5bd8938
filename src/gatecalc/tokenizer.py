"""Character vocabulary for the arithmetic machine.

The machine reads text one character at a time over an 18 symbol
alphabet: the ten digits, the decimal dot, the four operators, the
space, and the '$' terminator. Any other character collapses onto a
single OTHER id so the gates can treat all junk alike. Encoded text is
a bytes object holding one id per character, made by one byte-table
translate of the text's ASCII encoding.
"""

from __future__ import annotations

from enum import IntEnum

VOCAB_SIZE = 18

DOT_ID = 10
PLUS_ID = 11
MINUS_ID = 12
STAR_ID = 13
SLASH_ID = 14
SPACE_ID = 15
TERMINATOR_ID = 16
OTHER_ID = 17

TERMINATOR_CHAR = "$"
OTHER_PLACEHOLDER = "?"

CHAR_TO_ID: dict[str, int] = {str(d): d for d in range(10)}
CHAR_TO_ID.update({
    ".": DOT_ID,
    "+": PLUS_ID,
    "-": MINUS_ID,
    "*": STAR_ID,
    "/": SLASH_ID,
    " ": SPACE_ID,
    TERMINATOR_CHAR: TERMINATOR_ID,
})

ID_TO_CHAR: dict[int, str] = {i: c for c, i in CHAR_TO_ID.items()}

# bytes.translate table: each byte's id, OTHER outside the alphabet.
_IDS = bytes(CHAR_TO_ID.get(chr(b), OTHER_ID) for b in range(256))


class Op(IntEnum):
    """Operator ids as stored in a program's op slots. NONE marks a number slot."""

    NONE = 0
    ADD = 1
    SUB = 2
    MUL = 3
    DIV = 4


OP_ID_TO_OP: dict[int, Op] = {
    PLUS_ID: Op.ADD,
    MINUS_ID: Op.SUB,
    STAR_ID: Op.MUL,
    SLASH_ID: Op.DIV,
}

OP_TO_CHAR: dict[Op, str] = {Op.ADD: "+", Op.SUB: "-", Op.MUL: "*", Op.DIV: "/"}
CHAR_TO_OP: dict[str, Op] = {c: op for op, c in OP_TO_CHAR.items()}


def encode(text: str) -> bytes:
    """One id per character; anything outside the alphabet becomes OTHER.

    The ascii codec with "replace" gives one byte per code point, a "?"
    for each non-ASCII one (lone surrogates included).
    """
    return text.encode("ascii", "replace").translate(_IDS)
