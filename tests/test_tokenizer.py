from hypothesis import given
from hypothesis import strategies as st

from gatecalc.tokenizer import (
    DOT_ID,
    ID_TO_CHAR,
    MINUS_ID,
    OTHER_ID,
    OTHER_PLACEHOLDER,
    PLUS_ID,
    SLASH_ID,
    SPACE_ID,
    STAR_ID,
    TERMINATOR_ID,
    VOCAB_SIZE,
    Op,
    encode,
)

from helpers import onehot, reference_encode

VOCAB_CHARS = "0123456789.+-*/ $"


def chars(ids: bytes) -> str:
    return "".join(ID_TO_CHAR.get(i, OTHER_PLACEHOLDER) for i in ids)


def test_digit_ids_match_values():
    for d in range(10):
        assert encode(str(d)) == bytes([d])


def test_special_char_ids():
    assert encode(".")[0] == DOT_ID
    assert encode("+")[0] == PLUS_ID
    assert encode("-")[0] == MINUS_ID
    assert encode("*")[0] == STAR_ID
    assert encode("/")[0] == SLASH_ID
    assert encode(" ")[0] == SPACE_ID
    assert encode("$")[0] == TERMINATOR_ID


def test_unknown_chars_collapse_to_other():
    for ch in "abcXYZ#?!€\t\n":
        assert encode(ch) == bytes([OTHER_ID])


def test_encode_simple_expression():
    assert list(encode("3 5 +")) == [3, SPACE_ID, 5, SPACE_ID, PLUS_ID]


def test_encode_matches_reference_on_every_code_point():
    # Lone surrogates included: the ascii codec still gives one byte each.
    text = "".join(map(chr, range(0x110000)))
    ids = encode(text)
    assert len(ids) == 0x110000
    assert ids == reference_encode(text)


def test_encode_empty():
    assert encode("") == b""


def test_embed_is_one_hot_basis():
    # Every id encode produces selects one basis vector of the input space.
    ids = set(encode(VOCAB_CHARS + "a"))
    assert ids == set(range(VOCAB_SIZE))
    for token_id in ids:
        v = onehot(token_id)
        assert len(v) == VOCAB_SIZE
        assert v[token_id] == 1.0
        assert sum(v) == 1.0


def test_embeddings_are_orthonormal():
    vectors = [onehot(i) for i in range(VOCAB_SIZE)]
    gram = [[sum(x * y for x, y in zip(a, b)) for b in vectors] for a in vectors]
    assert gram == [[float(i == j) for j in range(VOCAB_SIZE)] for i in range(VOCAB_SIZE)]


def test_op_enum_values():
    assert [int(o) for o in (Op.NONE, Op.ADD, Op.SUB, Op.MUL, Op.DIV)] == [0, 1, 2, 3, 4]


@given(st.text(alphabet=VOCAB_CHARS))
def test_round_trip_over_vocabulary(text):
    assert chars(encode(text)) == text


@given(st.text())
def test_round_trip_canonicalizes_unknowns(text):
    canonical = "".join(ch if ch in VOCAB_CHARS else "?" for ch in text)
    assert chars(encode(text)) == canonical
