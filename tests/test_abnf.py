from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zebu.abnf import (
    AbnfSyntaxError,
    Alternation,
    CharCodes,
    CharRange,
    LiteralCI,
    Repetition,
    RuleRef,
    Sequence,
    core_rules,
    parse_abnf,
    to_abnf,
)


def body(src, name=None):
    g = parse_abnf(src)
    rule = g.get(name) if name else g.definitions[0]
    return rule.body


def test_cseq_rule_shape():
    b = body('CSeq = "CSeq" HCOLON 1*DIGIT LWS Method')
    assert b == Sequence(
        (
            LiteralCI("CSeq"),
            RuleRef("HCOLON"),
            Repetition(1, None, RuleRef("DIGIT")),
            RuleRef("LWS"),
            RuleRef("Method"),
        )
    )


def test_lws_style_brackets_and_star():
    b = body("X = [*WSP CRLF] 1*WSP")
    assert b == Sequence(
        (
            Repetition(0, 1, Sequence((Repetition(0, None, RuleRef("WSP")), RuleRef("CRLF")))),
            Repetition(1, None, RuleRef("WSP")),
        )
    )


def test_single_literal_collapses():
    assert body('A = "x"') == LiteralCI("x")


def test_char_code_sequence_decodes_to_invite():
    b = body("M = %x49.4E.56.49.54.45")
    assert isinstance(b, CharCodes)
    assert b.data == b"INVITE"
    assert b.data.decode("ascii") == "INVITE"


def test_char_range_and_decimal_codes():
    assert body("R = %x41-5A") == CharRange(0x41, 0x5A)
    assert body("D = %d13.10") == CharCodes(b"\r\n")


@pytest.mark.parametrize(
    "src,expected",
    [
        ("A = 2*4DIGIT", Repetition(2, 4, RuleRef("DIGIT"))),
        ("A = 3DIGIT", Repetition(3, 3, RuleRef("DIGIT"))),
        ("A = *DIGIT", Repetition(0, None, RuleRef("DIGIT"))),
        ("A = *7DIGIT", Repetition(0, 7, RuleRef("DIGIT"))),
        ("A = 2*DIGIT", Repetition(2, None, RuleRef("DIGIT"))),
    ],
)
def test_repetition_shorthands_normalize(src, expected):
    assert body(src) == expected


def test_alternation_groups_and_nesting():
    b = body('A = ( "a" / "b" ) "c"')
    assert b == Sequence((Alternation((LiteralCI("a"), LiteralCI("b"))), LiteralCI("c")))


def test_line_continuation_extends_rule():
    g = parse_abnf('Method = INVITEm / ACKm\n         / BYEm\nOther = "x"\n')
    assert isinstance(g.get("Method").body, Alternation)
    assert len(g.get("Method").body.branches) == 3
    assert g.get("Other") is not None


def test_comments_are_skipped():
    g = parse_abnf('; leading comment\nA = "x" ; trailing\nB = "y"\n')
    assert len(g) == 2


def test_rule_lookup_case_insensitive_preserves_source_case():
    g = parse_abnf('Max-Forwards = 1*DIGIT')
    assert g.get("max-forwards").name == "Max-Forwards"


def test_iteration_order_is_source_order():
    g = parse_abnf('B = "b"\nA = "a"\nC = "c"\n')
    assert [r.name for r in g] == ["B", "A", "C"]


@pytest.mark.parametrize(
    "src,fragment",
    [
        ('A = "unterminated', "unterminated"),
        ("A = 3*2DIGIT", "bad repetition"),
        ("A DIGIT", "expected '='"),
        ("A = %b101", "%b"),
        ("A = <prose>", "prose"),
        ("A =/ DIGIT", "incremental"),
        ('A = ""', "empty quoted string"),
        ("A = %x1FF", "exceeds one byte"),
        ("A = %x5A-41", "descending"),
    ],
)
def test_syntax_errors(src, fragment):
    with pytest.raises(AbnfSyntaxError) as exc:
        parse_abnf(src)
    assert fragment in str(exc.value)


def test_deep_nesting_is_a_syntax_error():
    # the recursive element parser ran out of stack: RecursionError escaped
    with pytest.raises(AbnfSyntaxError, match="nested too deeply"):
        parse_abnf("A = " + "(" * 5000 + '"a"' + ")" * 5000 + "\n")


def test_error_carries_line_and_column():
    with pytest.raises(AbnfSyntaxError) as exc:
        parse_abnf('A = "x"\nB = <prose>\n')
    assert exc.value.line == 2
    assert exc.value.col >= 5


def test_core_rules_match_standard_definitions():
    core = core_rules()
    assert core.get("DIGIT").body == CharRange(0x30, 0x39)
    assert core.get("WSP").body == Alternation((RuleRef("SP"), RuleRef("HTAB")))
    assert core.get("CRLF").body == Sequence((RuleRef("CR"), RuleRef("LF")))
    assert core.get("SP").body == CharCodes(b" ")
    assert core.get("HTAB").body == CharCodes(b"\t")
    assert core.get("OCTET").body == CharRange(0x00, 0xFF)
    for name in ("ALPHA", "HEXDIG", "DQUOTE", "VCHAR", "CHAR", "CR", "LF"):
        assert name in core


def test_parse_is_deterministic():
    src = 'SIP-Version = "SIP" "/" 1*DIGIT "." 1*DIGIT\nCSeq = "CSeq" HCOLON 1*DIGIT LWS Method\n'
    assert parse_abnf(src) == parse_abnf(src)


# --- round-trip property ----------------------------------------------------

_names = st.sampled_from(["A", "B", "C", "Foo", "bar-2", "DIGIT", "WSP"])
_literal_text = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"'),
    min_size=1,
    max_size=6,
)


def _elements(depth):
    leaf = st.one_of(
        _literal_text.map(LiteralCI),
        st.binary(min_size=1, max_size=4).map(CharCodes),
        st.tuples(st.integers(0, 255), st.integers(0, 255)).map(
            lambda t: CharRange(min(t), max(t))
        ),
        _names.map(RuleRef),
    )
    if depth == 0:
        return leaf
    sub = _elements(depth - 1)
    return st.one_of(
        leaf,
        st.lists(sub, min_size=2, max_size=3).map(lambda xs: Sequence(tuple(xs))),
        st.lists(sub, min_size=2, max_size=3).map(lambda xs: Alternation(tuple(xs))),
        st.tuples(st.integers(0, 3), st.integers(0, 3), sub).map(
            lambda t: Repetition(min(t[0], t[1]), max(t[0], t[1]), t[2])
        ),
        st.tuples(st.integers(0, 2), sub).map(lambda t: Repetition(t[0], None, t[1])),
    )


@settings(max_examples=200, deadline=None)
@given(_elements(3))
def test_print_parse_round_trip(elem):
    text = f"Root = {to_abnf(elem)}\n"
    reparsed = parse_abnf(text).get("Root").body
    assert reparsed == elem


def test_grammar_text_round_trip():
    src = (
        'Request-Line = Method SP Request-URI SP SIP-Version CRLF\n'
        'SIP-Version = "SIP" "/" 1*DIGIT "." 1*DIGIT\n'
        "Method = INVITEm / ACKm / extension-method\n"
        "INVITEm = %x49.4E.56.49.54.45\n"
        "CSeq = \"CSeq\" HCOLON 1*DIGIT LWS Method\n"
        "LWS = [*WSP CRLF] 1*WSP\n"
        "SWS = [LWS]\n"
        'HCOLON = *( SP / HTAB ) ":" SWS\n'
    )
    g1 = parse_abnf(src)
    g2 = parse_abnf(g1.to_text())
    assert g1 == g2
