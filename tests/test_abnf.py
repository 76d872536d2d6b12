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
    Scanner,
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


def test_location_starts_a_line_after_each_line_feed_only():
    # LF, CRLF and CR endings, blank lines and an indented last line: a CR
    # alone ends no line, so the column counts on across it
    text = 'A = "a"\nB = "b"\r\nC = "c"\rD = "d"\n\n\r\n E\r'
    s = Scanner(text)
    line, col = 1, 1
    for pos, ch in enumerate(text + "$"):
        assert s.location(pos) == (line, col), pos
        line, col = (line + 1, 1) if ch == "\n" else (line, col + 1)
    s.pos = 17
    assert s.location() == s.location(17) == (3, 1)


# --- the scanner against its character loops --------------------------------

_WSP = " \t"
_NAME_START = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_DIGITS = frozenset("0123456789")
_HEX_DIGITS = _DIGITS | frozenset("abcdefABCDEF")
_NAME_CONT = _NAME_START | _DIGITS | {"-"}


class LoopScanner(Scanner):
    """The scanner as one Python call per character, the reference the
    regex scanner must agree with."""

    def location(self, pos=None):
        p = self.pos if pos is None else pos
        line = self.text.count("\n", 0, p) + 1
        col = p - (self.text.rfind("\n", 0, p) + 1) + 1
        return line, col

    def skip_inline(self):
        while not self.at_end():
            ch = self.peek()
            if ch in _WSP:
                self.pos += 1
            elif ch == ";":
                self._skip_comment()
            elif ch in "\r\n":
                save = self.pos
                self._skip_newline()
                if self.peek() in _WSP:  # "" in _WSP: a break that ends the input
                    continue
                self.pos = save
                return
            else:
                return

    def skip_blank(self):
        while not self.at_end():
            ch = self.peek()
            if ch in _WSP or ch in "\r\n":
                self.pos += 1
            elif ch == ";":
                self._skip_comment()
            else:
                return

    def _skip_comment(self):
        while not self.at_end() and self.peek() not in "\r\n":
            self.pos += 1

    def _skip_newline(self):
        if self.eat("\r"):
            self.eat("\n")
        else:
            self.eat("\n")

    def take_name(self, what="rule name"):
        if self.peek() not in _NAME_START:
            self.error(f"expected {what}")
        start = self.pos
        self.pos += 1
        while self.peek() in _NAME_CONT:
            self.pos += 1
        return self.text[start:self.pos]

    def take_int(self, base=10, what="an integer", at=None):
        start = self.pos
        digits = _HEX_DIGITS if base == 16 else _DIGITS
        while self.peek() in digits:
            self.pos += 1
        if start == self.pos:
            self.error(f"expected {what}", at)
        try:
            return int(self.text[start:self.pos], base)
        except ValueError:
            self.error("integer has too many digits", start)

    def take_quoted(self, what):
        start = self.pos
        self.pos += 1
        while True:
            if self.at_end() or self.at_line_break():
                self.error(f"unterminated {what}", start)
            ch = self.take()
            if ch == '"':
                return self.text[start + 1:self.pos - 1]
            if not " " <= ch <= "~":
                self.error(f"non-printable character in {what}", start)


# ABNF's punctuation and line breaks, letters and digits (hex ones too),
# and the characters that sit just outside the scanner's classes
_SCAN_TEXT = st.text(alphabet=' \t\r\n;"%=/*()[]<>-.aFgzAZ09~\x7f\x00é²٣',
                     max_size=40)
_SCANS = (("skip_inline", ()), ("skip_blank", ()), ("take_name", ()),
          ("take_name", ("header name",)), ("take_int", ()), ("take_int", (16,)),
          ("take_int", (16, "a character code", 0)), ("take_quoted", ("string literal",)))


def _scan(cls, text, pos, method, args):
    s = cls(text)
    s.pos = pos
    try:
        return "ok", getattr(s, method)(*args), s.pos
    except AbnfSyntaxError as err:
        return "error", err.message, err.line, err.col


# `--hypothesis-profile ci` runs 3 000 examples; CI does
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(_SCAN_TEXT, st.data())
def test_scanner_agrees_with_its_character_loops(text, data):
    pos = data.draw(st.integers(0, len(text)))
    for method, args in _SCANS:
        if method == "take_quoted" and text[pos:pos + 1] != '"':
            continue  # the scanner must sit on the opening quote
        assert _scan(Scanner, text, pos, method, args) == \
            _scan(LoopScanner, text, pos, method, args), method
    regex, loops = Scanner(text), LoopScanner(text)
    assert [regex.location(p) for p in range(len(text) + 1)] == \
        [loops.location(p) for p in range(len(text) + 1)]
