from __future__ import annotations

import hashlib
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS, REPEATED_BRANCHES, sip_request, sip_response
from zebu import cli, engine, pattern
from zebu.engine import (
    ABSENT,
    DuplicateHeader,
    EnumTag,
    HeaderNotParsed,
    LazyPending,
    MessageKind,
    MessageSyntaxError,
    MessageTypeError,
    ParsedMessage,
    RawSlice,
    ReasonCode,
    StructVal,
    U16,
    U32,
    UnionVal,
    UnknownHeader,
    UnknownSubfield,
    compile_grammar,
    index_message,
    unfolded_value,
    validate,
)
from zebu.errors import ZebuError
from zebu.frontend import parse_zebu
from zebu.mutate import MutRule, derive_valid, make_mutant, run_campaign
from zebu.pattern import compile_pattern, compile_subfield_pattern, match_spans
from zebu.refcheck import _scan_structure, reference_validate


# --- line scan ----------------------------------------------------------------

def test_index_minimal_message():
    raw = b"INVITE sip:a@b SIP/2.0\r\nCSeq: 1 INVITE\r\n\r\n"
    cmd_end, values, body = index_message(raw, {b"cseq": "CSeq"})
    assert raw[:cmd_end] == b"INVITE sip:a@b SIP/2.0"
    assert list(values) == ["CSeq"] and len(values["CSeq"]) == 1
    assert body == len(raw)


def test_index_folded_value_has_two_segments():
    raw = b"X y SIP/2.0\r\nCSeq: 1\r\n\tINVITE\r\n\r\n"
    [(start, end)] = index_message(raw, {b"cseq": "CSeq"})[1]["CSeq"]
    assert len(raw[start:end].split(b"\r\n")) == 2
    assert unfolded_value(raw, start, end) == b"1 INVITE"


def test_index_key_allows_whitespace_before_colon():
    raw = b"X y SIP/2.0\r\nCSeq \t: 1 INVITE\r\n\r\n"
    [(start, end)] = index_message(raw, {b"cseq": "CSeq"})[1]["CSeq"]
    assert unfolded_value(raw, start, end) == b"1 INVITE"


@pytest.mark.parametrize("line", [
    b"K: v", b"K:v", b"K: \t v w \t", b"K:", b"K: \t ",
    b"K: a\r\n b", b"K: a \r\n\t b \r\n  c", b"K: \t\r\n b", b"K:\r\n \r\n\tc",
    b"K: \r\n \t\r\n\t",
], ids=["one-blank", "no-blank", "blanks-both-ends", "empty", "all-blank",
        "folded", "folded-three", "blank-first-segment", "empty-first-segment",
        "all-blank-folded"])
def test_unfolded_value_equals_strip_and_join(line):
    # reference: the first segment stripped after slicing, continuations
    # joined by one space, the whole stripped again
    raw = b"X y SIP/2.0\r\n" + line + b"\r\n\r\n"
    [(start, end)] = index_message(raw, {b"k": "K"})[1]["K"]
    segments = raw[start:end].split(b"\r\n")
    want = b" ".join([segments[0]] + [seg.lstrip(b" \t") for seg in segments[1:]])
    assert unfolded_value(raw, start, end) == want.lstrip(b" \t")


def test_index_body_is_raw():
    raw = b"X y SIP/2.0\r\n\r\nraw body \x00bytes"
    assert raw[index_message(raw, {})[2]:] == b"raw body \x00bytes"


@pytest.mark.parametrize(
    "raw,code,fragment",
    [
        (b"", ReasonCode.SYNTAX, "empty"),
        (b"INVITE a b\r\nX: y\r\n", ReasonCode.SYNTAX, "empty line"),
        (b"INVITE a b\nX: y\r\n\r\n", ReasonCode.SYNTAX, "bare LF"),
        (b"INVITE a b\rX: y\r\n\r\n", ReasonCode.SYNTAX, "bare CR"),
        (b"\r\nbody", ReasonCode.SYNTAX, "no command line"),
        (b" folded\r\nX: y\r\n\r\n", ReasonCode.FOLDING, "continuation"),
        (b"CMD a b\r\n nocolonhdr\r\n\r\n", ReasonCode.FOLDING, "before any header"),
        (b"CMD a b\r\nnocolon\r\n\r\n", ReasonCode.SYNTAX, "no colon"),
        (b"CMD a b\r\n: empty\r\n\r\n", ReasonCode.SYNTAX, "empty header key"),
    ],
)
def test_index_structural_rejects(raw, code, fragment):
    with pytest.raises(MessageSyntaxError) as exc:
        index_message(raw, {})
    assert any(r.code is code and fragment in r.message for r in exc.value.reasons)


SYNTAX, FOLDING = ReasonCode.SYNTAX, ReasonCode.FOLDING
# Malformed messages and every reason `validate` gives, in order. A framing
# fault (bare CR or LF, no CRLF, no blank line) is reported alone; the
# line-level problems are reported together, in line order.
MALFORMED_MESSAGES = [
    (b"", [(SYNTAX, "message", "empty input")]),
    (b"INVITE a b\nX: y\r\n\r\n", [(SYNTAX, "offset 10", "bare LF outside CRLF")]),
    (b"INVITE a b\rX: y\r\n\r\n", [(SYNTAX, "offset 10", "bare CR outside CRLF")]),
    (b"INVITE a b\r\nX: y\r", [(SYNTAX, "offset 16", "bare CR outside CRLF")]),
    (b"INVITE a b\r\nX: y", [(SYNTAX, "line 2", "final line lacks a CRLF terminator")]),
    (b"INVITE a b\r\nX: y\r\n",
     [(SYNTAX, "message", "headers are not terminated by an empty line")]),
    (b"\r\nbody", [(SYNTAX, "line 1", "no command line")]),
    (b" INVITE a b\r\nX: y\r\n\r\n",
     [(FOLDING, "line 1", "message starts with a continuation line")]),
    (b"CMD a b\r\n folded\r\nX: y\r\n\r\n",
     [(FOLDING, "line 2", "continuation line before any header")]),
    (b"CMD a b\r\nnocolon\r\n\r\n", [(SYNTAX, "line 2", "header line has no colon")]),
    (b"CMD a b\r\n: empty\r\n\r\n", [(SYNTAX, "line 2", "empty header key")]),
    (b" CMD a b\r\n\tearly\r\nnocolon\r\n late\r\nX: y\r\n: v\r\n \r\n\r\n", [
        (FOLDING, "line 1", "message starts with a continuation line"),
        (FOLDING, "line 2", "continuation line before any header"),
        (SYNTAX, "line 3", "header line has no colon"),
        (FOLDING, "line 4", "continuation line before any header"),
        (SYNTAX, "line 6", "empty header key"),
    ]),
    (b" CMD a b\r\nnocolon\r\nX: y\nZ: w\r\n\r\n",
     [(SYNTAX, "offset 23", "bare LF outside CRLF")]),
    (b"INVITE a b\r\nX: y\n", [(SYNTAX, "offset 16", "bare LF outside CRLF")]),
    (sip_request() + b"body\r bare \n and \r\r", []),
]


@pytest.mark.parametrize("raw, reasons", MALFORMED_MESSAGES,
                         ids=[repr(raw)[2:-1][:40] for raw, _ in MALFORMED_MESSAGES])
def test_malformed_message_reasons(sip, raw, reasons):
    got = validate(sip, raw).reasons
    assert [(r.code, r.location, r.message) for r in got] == reasons


# Framing pieces spliced into the bundled SIP messages; the oracle's own line
# scan (`refcheck._scan_structure`) judges the results independently
_FRAMING = (b"\r", b"\n", b"\r\n", b"\r\n ", b"\r\n\t", b" ", b"\t", b":")
_BASES = [path.read_bytes() for path in sorted(CORPUS.glob("*.msg"))]


@st.composite
def _key_variant(draw, keys):
    """One of `keys` in drawn letter case, with drawn blanks before the colon."""
    key = draw(st.sampled_from(keys))
    upper = draw(st.lists(st.booleans(), min_size=len(key), max_size=len(key)))
    blanks = draw(st.text(" \t", max_size=3))
    cased = "".join(c.upper() if u else c.lower() for c, u in zip(key, upper))
    return (cased + blanks + ":").encode()


# `--hypothesis-profile ci` runs 3 000 examples; CI does
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(st.data())
def test_engine_and_oracle_agree_on_framing_edits(sip, data):
    keys = {k.lower().encode(): decl for decl in sip.ag.headers for k in decl.keys}
    lines = data.draw(st.sampled_from(_BASES)).split(b"\r\n")
    head = lines.index(b"")
    # re-key some header lines with a variant of a key of their own header
    for i in data.draw(st.lists(st.integers(1, head - 1), max_size=2)):
        key, _, value = lines[i].partition(b":")
        decl = keys.get(key.lower())
        if decl is not None:
            lines[i] = data.draw(_key_variant(decl.keys)) + value
    raw = b"\r\n".join(lines)
    pieces = st.one_of(st.sampled_from(_FRAMING), _key_variant(
        [k for d in sip.ag.headers for k in d.keys]).map(b"\r\n".__add__))
    splices = data.draw(st.lists(st.tuples(st.integers(0, len(raw)), pieces), max_size=3))
    for at, piece in sorted(splices, key=lambda splice: splice[0], reverse=True):
        raw = raw[:at] + piece + raw[at:]

    assert validate(sip, raw).accepted == reference_validate(sip.ag, raw)[0]
    assert _line_break_subjects(sip, raw) == []
    _, ref_lines, framed, _ = _scan_structure(raw)
    try:
        msg = ParsedMessage(sip, raw)
    except MessageSyntaxError:
        msg = None
    assert (msg is not None) == framed
    for decl in sip.ag.headers if framed else ():
        want = [value for key, value in ref_lines if keys.get(key.lower()) is decl]
        assert msg.header_count(decl.name) == len(want)
        assert [msg.parse_header_nth(decl.name, i).value
                for i in range(len(want))] == want


# --- line-free subjects -----------------------------------------------------------
#
# compile_grammar compiles its patterns for subjects without CR or LF (see
# `pattern`), which is exact only because the engine never hands a matcher
# one: the command line ends before the first CR, a value is unfolded, and
# a lazy subject is a span of a value.

def _line_break_subjects(cg, raw) -> list[bytes]:
    """The subjects holding CR or LF that `validate`, every top-level select
    and every `parse_header_nth` of `raw` hand a matcher."""
    seen = []

    def record(p, subject, budget):
        if b"\r" in subject or b"\n" in subject:
            seen.append(subject)
        return match_spans(p, subject, budget)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "match_full", record)
        validate(cg, raw)
        try:
            selected, indexed = ParsedMessage(cg, raw), ParsedMessage(cg, raw)
        except MessageSyntaxError:
            return seen
        for selector in _selectors(cg):
            try:
                selected.select(selector)
            except ZebuError:
                pass
        for decl in cg.ag.headers:
            for i in range(indexed.header_count(decl.name)):
                indexed.parse_header_nth(decl.name, i)
    return seen


def test_engine_never_hands_a_matcher_a_line_break(sip, rtsp):
    runs = [(sip, path.read_bytes()) for path in sorted(CORPUS.glob("*.msg"))]
    for cg in (sip, rtsp):
        for family in MutRule:
            runs += [(cg, make_mutant(cg.ag, i, "line-free", {family: 1.0}).data)
                     for i in range(40)]
    # SIP torture mutants fold values
    assert any(b"\r\n " in raw or b"\r\n\t" in raw for _, raw in runs)
    for cg, raw in runs:
        assert _line_break_subjects(cg, raw) == [], raw


@pytest.fixture(scope="module")
def exact_patterns(sip, rtsp):
    """Per grammar and entry point: the engine's pattern, the exact one, and
    per lazy subfield the two likewise."""
    pairs = {}
    for name, cg in (("sip", sip), ("rtsp", rtsp)):
        ag = cg.ag
        for entry_name, body in ag.entry_points():
            entry, table = cg.entries[entry_name], ag.subfields[entry_name]
            pairs[name, entry_name] = (
                entry.pattern, compile_pattern(body, ag, table=table),
                {key: (p, compile_subfield_pattern(table[key], ag, table))
                 for key, p in entry.lazy_patterns.items()})
    return pairs


_LINE_FREE_NOISE = st.binary(max_size=12).map(
    lambda b: b.replace(b"\r", b"").replace(b"\n", b""))


# `--hypothesis-profile ci` runs 3 000 examples; CI does
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(st.data())
def test_line_free_patterns_agree_with_exact_ones(request, exact_patterns, data):
    name = data.draw(st.sampled_from(["sip", "rtsp"]))
    cg = request.getfixturevalue(name)
    seed = data.draw(st.integers(0, 9_999))
    raw = (derive_valid(cg.ag, seed).message if data.draw(st.booleans())
           else make_mutant(cg.ag, seed, "line-free").data)
    try:
        cmd_end, values, _ = index_message(raw, cg.by_key)
    except MessageSyntaxError:
        cmd_end, values = 0, {}
    for entry_name, entry in cg.entries.items():
        line_free, exact, lazy = exact_patterns[name, entry_name]
        assert line_free.capture_index == exact.capture_index
        subjects = [unfolded_value(raw, start, end) for start, end in values.get(entry_name, ())]
        if entry.decl is None and cmd_end:
            subjects.append(raw[:cmd_end])
        for subject in list(subjects):
            at = data.draw(st.integers(0, len(subject)))
            subjects.append(subject[:at] + data.draw(_LINE_FREE_NOISE) + subject[at:])
        subjects.append(data.draw(_LINE_FREE_NOISE))
        holes = {key: [data.draw(_LINE_FREE_NOISE)] for key in lazy}
        for subject in subjects:
            spans = match_spans(exact, subject)
            assert match_spans(line_free, subject) == spans, (entry_name, subject)
            for key in lazy if spans else ():
                start, end = spans[exact.capture_index[key] + 1]
                if start >= 0:
                    holes[key].append(subject[start:end])
        for key, (lazy_free, lazy_exact) in lazy.items():
            assert lazy_free.capture_index == lazy_exact.capture_index
            for subject in holes[key]:
                assert match_spans(lazy_free, subject) == match_spans(lazy_exact, subject), (
                    entry_name, key, subject)


# --- message type ----------------------------------------------------------------

def test_message_type_request_and_response(sip):
    req = ParsedMessage(sip, sip_request())
    assert req.message_type() is MessageKind.REQUEST
    assert req.exec_counter == 1
    resp = ParsedMessage(sip, sip_response())
    assert resp.message_type() is MessageKind.RESPONSE
    assert resp.exec_counter == 2  # request pattern tried first


def test_message_type_garbage_rejects(sip):
    msg = ParsedMessage(sip, b"GARBAGE\r\nCSeq: 1 INVITE\r\n\r\n")
    with pytest.raises(MessageTypeError):
        msg.message_type()
    count = msg.exec_counter
    assert count <= 2
    with pytest.raises(MessageTypeError):
        msg.message_type()
    assert msg.exec_counter == count  # failure memoized too


def test_request_line_is_tried_first_whatever_the_declaration_order():
    ag = parse_zebu('statusLine = 1*ALPHA:w SP "X"\n'
                    'requestLine = 1*ALPHA:method SP "X"\n'
                    'request { message.kind == "REQUEST"; }\n')
    grammar = compile_grammar(ag)
    assert list(grammar.entries)[:2] == ["requestLine", "statusLine"]
    raw = b"GO X\r\n\r\n"  # derivable from both command lines
    assert ParsedMessage(grammar, raw).message_type() is MessageKind.REQUEST
    assert validate(grammar, raw).accepted
    assert reference_validate(ag, raw) == (True, [])


# --- header parsing ----------------------------------------------------------------

def test_parse_cseq_typed_subfields(sip):
    msg = ParsedMessage(sip, sip_request(cseq=b"4711"))
    header = msg.parse_header("CSeq")
    assert not header.failures
    assert header.get_subfield("number") == U32(4711)
    assert header.get_subfield("method") == EnumTag(0)  # INVITE branch


def test_parse_cseq_range_failure(sip):
    msg = ParsedMessage(sip, sip_request(cseq=b"2147483648"))
    header = msg.parse_header("CSeq")
    assert [r.code for r in header.failures] == [ReasonCode.RANGE]
    with pytest.raises(HeaderNotParsed):
        header.get_subfield("number")


def test_parse_cseq_never_a_silent_garbage_integer(sip):
    msg = ParsedMessage(sip, sip_request(cseq=b"47x1"))
    header = msg.parse_header("CSeq")
    assert [r.code for r in header.failures] == [ReasonCode.SYNTAX]
    with pytest.raises(Exception):
        header.get_subfield("number")


@pytest.mark.parametrize("digits, shown", [
    (b"004294967296", b"4294967296"),
    (b"1" * 5_000, b"1" * 5_000),
    (b"0" * 5_000 + b"4294967296", b"4294967296"),
], ids=["zero-padded", "5000-digits", "5000-zeros"])
def test_overflow_decided_on_any_number_of_digits(sip, digits, shown):
    verdict = validate(sip, sip_request(cseq=digits))
    assert [(r.code, r.message) for r in verdict.reasons] == [
        (ReasonCode.RANGE, f"value {shown.decode()} overflows uint32")]


def test_leading_zeros_beyond_int_limit_convert(sip):
    msg = ParsedMessage(sip, sip_request(cseq=b"0" * 5_000 + b"7"))
    assert msg.parse_header("CSeq").get_subfield("number") == U32(7)
    assert validate(sip, sip_request(cseq=b"0" * 5_000 + b"7")).accepted


@pytest.fixture(scope="module")
def typed():
    """A `<=` range, a `multiple` header with a typed field, and a union
    whose first branch has an optional child."""
    return compile_grammar(parse_zebu(
        'requestLine = "GO"\nstatusLine = "NO"\n'
        "header H = 1*DIGIT:a:uint16 { multiple }\n"
        "header R = Lim:n:uint16\n"
        "range Lim = 0 <= x <= 10\n"
        "Lim = 1*DIGIT\n"
        "header U = Kind:k:union\n"
        'Kind = ( "num" 1*DIGIT:n:uint16 [ "." 1*DIGIT:f ] ) / ( "word" 1*ALPHA:w )\n'))


def _sip_with(old: bytes, new: bytes) -> bytes:
    raw = sip_request()
    assert old in raw
    return raw.replace(old, new)


RANGE = ReasonCode.RANGE
# Messages whose typed conversions fail or read absent, with every reason
# `validate` gives, in order, and the values some selectors read
TYPED_CONVERSIONS = [
    ("lazy-uint16-overflow", "sip",
     _sip_with(b"<sip:alice@example.com>;tag=1928301774", b"<sip:a@b.com:99999>;tag=1"),
     [(RANGE, "From.uri.port", "value 99999 overflows uint16")], {}),
    ("command-line-uint16-overflow", "rtsp",
     b"DESCRIBE rtsp://h:65536/x RTSP/1.0\r\nCSeq: 1\r\n\r\n",
     [(RANGE, "requestLine.uri.port", "value 65536 overflows uint16")], {}),
    ("uint32-overflow", "sip", _sip_with(b"Max-Forwards: 70", b"Max-Forwards: 4294967296"),
     [(RANGE, "Max-Forwards.hops", "value 4294967296 overflows uint32")], {}),
    ("uint32-overflow-zero-padded", "sip",
     _sip_with(b"Max-Forwards: 70", b"Max-Forwards: 0004294967296"),
     [(RANGE, "Max-Forwards.hops", "value 4294967296 overflows uint32")], {}),
    ("uint32-zero-padded", "sip", _sip_with(b"Max-Forwards: 70", b"Max-Forwards: 0070"),
     [], {"Max-Forwards.hops": U32(70)}),
    ("range-lt", "sip", sip_request(cseq=b"2147483648"),
     [(RANGE, "CSeq.number", "value 2147483648 outside 0 <= x < 2147483648")], {}),
    ("range-le", "typed", b"GO\r\nR: 11\r\n\r\n",
     [(RANGE, "R.n", "value 11 outside 0 <= x <= 10")], {}),
    ("range-le-zero-padded", "typed", b"GO\r\nR: 010\r\n\r\n", [], {"R.n": U16(10)}),
    ("multiple-second-instance", "typed", b"GO\r\nH: 1\r\nH: 70000\r\nH: 65536\r\n\r\n",
     [(RANGE, "H.a", "value 70000 overflows uint16"),
      (RANGE, "H.a", "value 65536 overflows uint16")], {"H.a": U16(1)}),
    ("union-child-overflow", "typed", b"GO\r\nU: num99999.5\r\n\r\n",
     [(RANGE, "U.k.n", "value 99999 overflows uint16")], {"U.k": ABSENT}),
    ("enum-and-optional-struct-child", "sip",
     _sip_with(b"<sip:alice@example.com>", b"<sip:example.com>"), [],
     {"CSeq.method": EnumTag(0), "From.uri.user": ABSENT,
      "From.uri.host": RawSlice(b"example.com", 0, 11)}),
    ("enum-in-struct", "rtsp",
     b"SETUP rtsp://h/x RTSP/1.0\r\nCSeq: 1\r\nTransport: RAW/AVP;unicast\r\n\r\n", [],
     {"requestLine.method": EnumTag(1), "Transport.spec.proto": EnumTag(1),
      "Transport.spec.lower": ABSENT}),
    ("union-optional-child-absent", "typed", b"GO\r\nU: num7\r\n\r\n", [],
     {"U.k": UnionVal(0, {"n": U16(7), "f": ABSENT}), "U.k.f": ABSENT, "U.k.w": ABSENT}),
    ("union-optional-child", "typed", b"GO\r\nU: num7.25\r\n\r\n", [],
     {"U.k.f": RawSlice(b"25", 0, 2), "U.k.w": ABSENT}),
    ("union-second-branch", "typed", b"GO\r\nU: wordab\r\n\r\n", [],
     {"U.k": UnionVal(1, {"w": RawSlice(b"ab", 0, 2)}), "U.k.n": ABSENT}),
]


@pytest.mark.parametrize("grammar, raw, reasons, values",
                         [row[1:] for row in TYPED_CONVERSIONS],
                         ids=[row[0] for row in TYPED_CONVERSIONS])
def test_typed_conversion_reasons(request, grammar, raw, reasons, values):
    compiled = request.getfixturevalue(grammar)
    got = validate(compiled, raw).reasons
    assert [(r.code, r.location, r.message) for r in got] == reasons
    msg = ParsedMessage(compiled, raw)
    assert {selector: msg.select(selector) for selector in values} == values


@pytest.fixture(scope="module")
def interpreted(sip_ag, rtsp_ag):
    """SIP and RTSP compiled afresh, with every pattern forced onto the
    interpreter by replacing its cached backend decision."""
    grammars = {}
    for name, ag in (("sip", sip_ag), ("rtsp", rtsp_ag)):
        grammar = grammars[name] = compile_grammar(ag)
        for _, p in grammar.named_patterns():
            p.__dict__["backend"] = (None, None, "forced")
    return grammars


def _typed_view(msg: ParsedMessage, selector: str):
    """What `select` gives, with each raw slice's offsets, or the error it
    raises."""
    def plain(value):
        if isinstance(value, RawSlice):
            return "raw", value.start, value.end, value.data
        if isinstance(value, (StructVal, UnionVal)):
            return (type(value).__name__, getattr(value, "branch", None),
                    {name: plain(v) for name, v in value.fields.items()})
        return value

    try:
        return plain(msg.select(selector))
    except (MessageSyntaxError, DuplicateHeader) as exc:
        return type(exc).__name__, str(exc)


def _typed_layer(grammar, raw: bytes):
    """The verdict, counters and every subfield's selected value."""
    try:
        session = ParsedMessage(grammar, raw)
    except MessageSyntaxError:
        return validate(grammar, raw).report()
    report = validate(grammar, raw, session).report()
    msg = ParsedMessage(grammar, raw)
    return report, session.exec_counter, session.lazy_exec_counter, {
        f"{name}.{path}": _typed_view(msg, f"{name}.{path}")
        for name, entry in grammar.entries.items() for path in entry.table}


# `--hypothesis-profile ci` runs 3 000 examples; CI does
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(st.data())
def test_typed_layer_agrees_across_backends(request, interpreted, data):
    name = data.draw(st.sampled_from(["sip", "rtsp"]))
    grammar = request.getfixturevalue(name)
    messages = st.integers(0, 9_999).map(
        lambda i: make_mutant(grammar.ag, i, f"backends:{name}").data)
    if name == "sip":
        messages = st.one_of(st.sampled_from(_BASES), messages)
    raw = data.draw(messages)
    assert _typed_layer(interpreted[name], raw) == _typed_layer(grammar, raw)


def test_parse_header_is_memoized(sip):
    msg = ParsedMessage(sip, sip_request())
    first = msg.parse_header("CSeq")
    count = msg.exec_counter
    again = msg.parse_header("CSeq")
    assert again is first
    assert msg.exec_counter == count


def test_parse_header_absent_returns_none(sip):
    msg = ParsedMessage(sip, sip_request(drop=("Content-Length",)))
    assert msg.parse_header("Content-Length") is None


def test_parse_header_unknown_name_raises(sip):
    msg = ParsedMessage(sip, sip_request())
    with pytest.raises(UnknownHeader):
        msg.parse_header("X-Nope")


def test_duplicate_single_header_raises(sip):
    raw = sip_request(extra=(b"Call-ID: second@host",))
    msg = ParsedMessage(sip, raw)
    with pytest.raises(DuplicateHeader):
        msg.parse_header("Call-ID")


def test_multiple_header_nth_access(sip):
    raw = sip_request(extra=(b"Via: SIP/2.0/TCP relay.example.org;branch=z9x",))
    msg = ParsedMessage(sip, raw)
    first = msg.parse_header("Via")
    second = msg.parse_header_nth("Via", 1)
    assert first is msg.parse_header_nth("Via", 0)
    assert first.value == b"SIP/2.0/UDP pc33.example.com;branch=z9hG4bK776"
    assert second.value == b"SIP/2.0/TCP relay.example.org;branch=z9x"
    assert msg.parse_header_nth("Via", 2) is None


@pytest.mark.parametrize("name, index", [
    ("Via", -1), ("Via", -5), ("Via", 1), ("Via", 7),
    ("Content-Length", -1), ("Content-Length", 0)])
def test_header_index_outside_the_instances_is_none(sip, name, index):
    raw = (CORPUS / "invite1.msg").read_bytes().replace(b"Content-Length: 0\r\n", b"")
    msg = ParsedMessage(sip, raw)
    via = msg.parse_header_nth("Via", 0)
    assert msg.parse_header_nth(name, index) is None
    assert msg.exec_counter == 1
    assert msg.parse_header_nth("Via", 0) is via
    assert msg.exec_counter == 1


def test_variant_keys_match_case_insensitively(sip):
    raw = sip_request().replace(b"From:", b"f:")
    msg = ParsedMessage(sip, raw)
    assert msg.parse_header("From") is not None


def test_header_lines_sorted_once_by_key_variant(sip):
    vias = [b"SIP/2.0/UDP a.example.com", b"SIP/2.0/TCP b.example.com",
            b"SIP/2.0/TLS c.example.com"]
    raw = sip_request(drop=("Via", "From"), extra=(
        b"Via: " + vias[0],
        b"From: <sip:alice@example.com>;tag=1",
        b"v: " + vias[1],
        b"Fromage: brie",
        b"f: <sip:carol@example.com>;tag=2",
        b"VIA: " + vias[2],
    ))
    msg = ParsedMessage(sip, raw)
    assert [msg.parse_header_nth("Via", i).value for i in range(3)] == vias
    assert msg.parse_header_nth("Via", 3) is None
    assert msg.header_count("from") == 2
    # every line but the undeclared Fromage belongs to exactly one header
    counted = sum(msg.header_count(decl.name) for decl in sip.ag.headers)
    assert counted == raw[:raw.index(b"\r\n\r\n")].count(b"\r\n") - 1
    reasons = validate(sip, raw).reasons
    assert [(r.code, r.location) for r in reasons] == [
        (ReasonCode.DUPLICATE_HEADER, "From")]


def test_get_subfield_absent_and_unknown(sip):
    # user part of the To URI is optional and absent here
    msg = ParsedMessage(sip, sip_request())
    to = msg.parse_header("To")
    uri = msg.force_lazy(to.get_subfield("uri"))
    assert uri.get("user") == RawSlice(b"bob", 0, 3)
    with pytest.raises(UnknownSubfield):
        to.get_subfield("nope")


def test_get_subfield_refuses_a_dotted_path(sip):
    # a dotted path is in the subfield table but not among the header's
    # top-level fields; it returned ABSENT where select finds the value
    msg = ParsedMessage(sip, (CORPUS / "invite1.msg").read_bytes())
    with pytest.raises(UnknownSubfield, match="ParsedMessage.select"):
        msg.parse_header("From").get_subfield("uri.host")
    assert msg.select("From.uri.host") == RawSlice(b"example.com", 0, 11)


# --- laziness ------------------------------------------------------------------------

def test_lazy_subfield_pending_until_forced(sip):
    msg = ParsedMessage(sip, sip_request())
    frm = msg.parse_header("From")
    pending = frm.get_subfield("uri")
    assert isinstance(pending, LazyPending)
    assert msg.lazy_exec_counter == 0
    value = msg.force_lazy(pending)
    assert isinstance(value, StructVal)
    assert value.get("host") == RawSlice(b"example.com", 0, 11)
    assert value.get("user") == RawSlice(b"alice", 0, 5)
    assert msg.lazy_exec_counter == 1


def test_second_force_returns_identical_value_without_pattern_run(sip):
    msg = ParsedMessage(sip, sip_request())
    pending = msg.parse_header("From").get_subfield("uri")
    first = msg.force_lazy(pending)
    count = msg.exec_counter
    second = msg.force_lazy(pending)
    assert second is first
    assert msg.exec_counter == count


def test_malformed_lazy_content_surfaces_only_at_force(sip):
    raw = sip_request().replace(b"<sip:alice@example.com>", b"<sip:alice@@host>")
    msg = ParsedMessage(sip, raw)
    frm = msg.parse_header("From")
    assert not frm.failures  # enclosing pattern skipped the hole
    pending = frm.get_subfield("uri")
    from zebu.engine import ForceFailed
    with pytest.raises(ForceFailed) as exc:
        msg.force_lazy(pending)
    assert exc.value.reasons[0].code is ReasonCode.SYNTAX
    count = msg.exec_counter
    with pytest.raises(ForceFailed):
        msg.force_lazy(pending)
    assert msg.exec_counter == count


def test_port_width_checked_at_force(sip):
    raw = sip_request().replace(b"<sip:alice@example.com>", b"<sip:alice@h:70000>")
    msg = ParsedMessage(sip, raw)
    pending = msg.parse_header("From").get_subfield("uri")
    from zebu.engine import ForceFailed
    with pytest.raises(ForceFailed) as exc:
        msg.force_lazy(pending)
    assert exc.value.reasons[0].code is ReasonCode.RANGE


def test_request_uri_lazy_on_command_line(sip):
    msg = ParsedMessage(sip, sip_request(uri=b"sips:carol@chicago.example"))
    cmd = msg.command_fields()
    pending = cmd.fields["uri"]
    assert isinstance(pending, LazyPending)
    uri = msg.force_lazy(pending)
    assert uri.get("host") == RawSlice(b"chicago.example", 0, 15)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a lazy hole takes the longest span the rest of the value "
                   "allows, which its own grammar may not derive")
@pytest.mark.parametrize("body, value", [
    ('( 1*ALPHA ):x:lazy *( ";" 1*ALPHA )', b"ab;c"),
    ('( "ab" ):x:lazy *"b"', b"abb"),
], ids=["ab;c", "abb"])
def test_lazy_hole_followed_by_what_it_may_match_agrees_with_oracle(body, value):
    ag = parse_zebu(f'requestLine = "GO"\nstatusLine = "NO"\nheader H = {body}\n')
    raw = b"GO\r\nH: " + value + b"\r\n\r\n"
    expected, _ = reference_validate(ag, raw)
    assert expected
    assert validate(compile_grammar(ag), raw).accepted is expected


# --- counters ---------------------------------------------------------------------------

def test_index_runs_no_patterns(sip):
    msg = ParsedMessage(sip, sip_request())
    assert msg.exec_counter == 0


def test_counter_independent_of_header_count(sip):
    extras = tuple(f"X-Ext-{i:02d}: v{i}".encode() for i in range(27))
    small = ParsedMessage(sip, sip_request())
    big = ParsedMessage(sip, sip_request(extra=extras))
    for msg in (small, big):
        msg.message_type()
        msg.parse_header("CSeq")
    assert small.exec_counter == big.exec_counter == 2


def test_two_level_isolation_formula(sip):
    msg = ParsedMessage(sip, sip_request())
    msg.message_type()                      # 1 (request matched first)
    msg.parse_header("CSeq")                # +1
    msg.parse_header("To")                  # +1
    pending = msg.parse_header("From").get_subfield("uri")  # +1
    msg.force_lazy(pending)                 # +1 lazy
    assert msg.exec_counter == 5
    assert msg.lazy_exec_counter == 1


def test_never_forcing_keeps_lazy_counter_zero(sip):
    msg = ParsedMessage(sip, sip_request())
    msg.message_type()
    for name in ("CSeq", "From", "To", "Via", "Max-Forwards", "Call-ID"):
        msg.parse_header(name)
    assert msg.lazy_exec_counter == 0


# --- select -------------------------------------------------------------------------------

def test_select_walks_and_forces(sip):
    msg = ParsedMessage(sip, sip_request())
    assert msg.select("From.uri.host") == RawSlice(b"example.com", 0, 11)
    assert msg.select("CSeq.number") == U32(314159)
    assert msg.select("requestLine.method") == EnumTag(0)
    assert msg.select("From.tag") == RawSlice(b"1928301774", 0, 10)


def test_select_absent_vs_unknown(sip):
    msg = ParsedMessage(sip, sip_request(drop=("Content-Length",)))
    assert msg.select("Content-Length.length") is ABSENT
    assert msg.select("statusLine.code") is ABSENT  # wrong message kind
    with pytest.raises(UnknownSubfield):
        msg.select("From.uri.nothere")


# --- validate ------------------------------------------------------------------------------

def test_validate_well_formed_request(sip):
    verdict = validate(sip, sip_request())
    assert verdict.accepted
    assert verdict.reasons == []
    assert verdict.report() == "ACCEPT\n"


def test_validate_method_mismatch(sip):
    verdict = validate(sip, sip_request(cseq_method=b"BYE"))
    assert not verdict.accepted
    assert [r.code for r in verdict.reasons] == [ReasonCode.CONSTRAINT]


def test_validate_status_code_range(sip):
    assert validate(sip, sip_response(code=b"698")).accepted
    verdict = validate(sip, sip_response(code=b"699"))
    assert [r.code for r in verdict.reasons] == [ReasonCode.RANGE]


def test_validate_mandatory_missing(sip):
    verdict = validate(sip, sip_request(drop=("Max-Forwards",)))
    assert [r.code for r in verdict.reasons] == [ReasonCode.MANDATORY_MISSING]
    # Max-Forwards is request-only: responses do not require it
    assert validate(sip, sip_response()).accepted


def test_validate_duplicate_header_rejects(sip):
    verdict = validate(sip, sip_request(extra=(b"Call-ID: again@host",)))
    assert ReasonCode.DUPLICATE_HEADER in {r.code for r in verdict.reasons}


def test_validate_reasons_are_exhaustive(sip):
    raw = sip_request(cseq=b"2147483648", drop=("Max-Forwards",),
                      extra=(b"Call-ID: again@host",))
    verdict = validate(sip, raw)
    found = {r.code for r in verdict.reasons}
    assert {ReasonCode.RANGE, ReasonCode.MANDATORY_MISSING,
            ReasonCode.DUPLICATE_HEADER} <= found


def _message(*lines: bytes) -> bytes:
    return b"\r\n".join(lines) + b"\r\n\r\n"


# The SIP headers in declaration order: CSeq, From, To, Via, Max-Forwards,
# Call-ID, Content-Length. Each message lists them out of that order, so a
# walk in message order would report otherwise.
_ORDERED_REPORTS = {
    "request": (_message(
        b"INVITE sip:bob@example.com:70000 SIP/2.0",
        b"Content-Length: x",
        b"Call-ID: a@b",
        b"Max-Forwards: 4294967296",
        b"Via: SIP/2.0/UDP a.example.com",
        b"Via: SIP/2.0/XYZ b.example.com",
        b"From: <sip:alice@example.com:99999>;tag=1",
        b"Call-ID: c@d",
        b"CSeq: 47x1 INVITE"),
        "REJECT RANGE requestLine.uri.port value 70000 overflows uint16\n"
        "REJECT SYNTAX CSeq value b'47x1 INVITE' does not match the header grammar\n"
        "REJECT RANGE From.uri.port value 99999 overflows uint16\n"
        "REJECT MANDATORY_MISSING To mandatory header 'To' is missing\n"
        "REJECT SYNTAX Via[1] value b'SIP/2.0/XYZ b.example.com' does not match the "
        "header grammar\n"
        "REJECT RANGE Max-Forwards.hops value 4294967296 overflows uint32\n"
        "REJECT DUPLICATE_HEADER Call-ID header 'Call-ID' appears 2 times\n"
        "REJECT SYNTAX Content-Length value b'x' does not match the header grammar\n"),
    "block": (_message(
        b"INVITE sip:bob@example.com SIP/2.0",
        b"Content-Length: 1x",
        b"Call-ID: a@b",
        b"Call-ID: c@d",
        b"CSeq: 1 BYE",
        b"To: <sip:bob@example.com>",
        b"From: <sip:alice@example.com>;tag=1",
        b"Via: SIP/2.0/UDP a.example.com"),
        "REJECT MANDATORY_MISSING Max-Forwards mandatory header 'Max-Forwards' is missing\n"
        "REJECT DUPLICATE_HEADER Call-ID header 'Call-ID' appears 2 times\n"
        "REJECT SYNTAX Content-Length value b'1x' does not match the header grammar\n"
        "REJECT CONSTRAINT block constraint failed: CSeq.method == requestLine.method\n"),
    "response": (_message(
        b"SIP/2.0 700 Weird",
        b"Content-Length: 99999999999",
        b"Via: SIP/2.0/UDP a.example.com",
        b"CSeq: 1 INVITE",
        b"Via: SIP/2.0/UDP a.example.com;;",
        b"To: <sip:bob@example.com:99999>",
        b"CSeq: 2 INVITE"),
        "REJECT DUPLICATE_HEADER CSeq header 'CSeq' appears 2 times\n"
        "REJECT MANDATORY_MISSING From mandatory header 'From' is missing\n"
        "REJECT RANGE To.uri.port value 99999 overflows uint16\n"
        "REJECT SYNTAX Via[1] value b'SIP/2.0/UDP a.example.com;;' does not match the "
        "header grammar\n"
        "REJECT MANDATORY_MISSING Call-ID mandatory header 'Call-ID' is missing\n"
        "REJECT RANGE Content-Length.length value 99999999999 overflows uint32\n"
        "REJECT RANGE block constraint failed: 100 <= statusLine.code && "
        "statusLine.code < 699\n"),
}


@pytest.mark.parametrize("raw, report", _ORDERED_REPORTS.values(), ids=_ORDERED_REPORTS)
def test_validate_reports_reasons_in_declaration_order(sip, raw, report):
    # the command line's reasons, then each declared header's in declaration
    # order (a missing mandatory one in its place), then the block constraints
    assert validate(sip, raw).report() == report
    assert reference_validate(sip.ag, raw)[0] is False


def test_validate_reports_block_then_local_constraints_in_declaration_order():
    ag = parse_zebu(_KIND_BASE + "header A = 1*DIGIT:n:uint16 { A.n < 5 }\n"
                    "header B = 1*DIGIT:n:uint16 { B.n != 3 }\n"
                    'header C = 1*ALPHA:w { C.w != "no" }\n'
                    "request { A.n < B.n; }\n")
    raw = b"GO X\r\nC: no\r\nB: 3\r\nA: 7\r\n\r\n"
    assert validate(compile_grammar(ag), raw).report() == (
        "REJECT CONSTRAINT block constraint failed: A.n < B.n\n"
        "REJECT RANGE A constraint failed: A.n < 5\n"
        "REJECT RANGE B constraint failed: B.n != 3\n"
        'REJECT CONSTRAINT C constraint failed: C.w != "no"\n')


def test_validate_undeclared_headers_skipped(sip):
    verdict = validate(sip, sip_request(extra=(b"X-Custom: anything at all!",)))
    assert verdict.accepted


def test_validate_rejects_lazy_region_corruption(sip):
    raw = sip_request().replace(b"<sip:alice@example.com>", b"<sip:alice@ex..@>")
    verdict = validate(sip, raw)
    assert not verdict.accepted


def test_validate_syntax_report_format(sip):
    verdict = validate(sip, sip_request(cseq=b"47x1"))
    text = verdict.report()
    assert text.startswith("REJECT SYNTAX CSeq ")


def test_fold_transparency_single_message(sip):
    plain = sip_request()
    folded = plain.replace(b"CSeq: 314159 INVITE", b"CSeq: 314159\r\n INVITE")
    assert validate(sip, folded).accepted
    a = ParsedMessage(sip, plain)
    b = ParsedMessage(sip, folded)
    for name in ("number", "method"):
        assert (a.parse_header("CSeq").get_subfield(name)
                == b.parse_header("CSeq").get_subfield(name))


_KIND_BASE = 'requestLine = 1*ALPHA:method SP "X"\nstatusLine = "X" SP 3DIGIT:code:uint16\n'
_H = 'header H = 1*DIGIT:a:uint16 "-" 1*ALPHA:w'
_BLOCK_RANGE = (ReasonCode.RANGE, "block")
_BLOCK_CONSTRAINT = (ReasonCode.CONSTRAINT, "block")
_E = 'header H = E:e:enum\nE = "a" / "b"'


@pytest.mark.parametrize("decls, command, value, failure", [
    pytest.param(_H + '\nrequest { H.a == 1 || H.w == "ok"; }', b"GO X", b"2-ok", None,
                 id="or"),
    pytest.param(_H + '\nrequest { H.a == 1 || H.w == "ok"; }', b"GO X", b"2-OK",
                 _BLOCK_CONSTRAINT, id="or-case-sensitive"),
    pytest.param(_H + "\nrequest { H.a == 1 || H.a == 2; }", b"GO X", b"3-x",
                 _BLOCK_RANGE, id="or-one-field"),
    pytest.param(_H + "\nrequest { !(H.a == 1); }", b"GO X", b"1-x", _BLOCK_RANGE,
                 id="not-range"),
    pytest.param(_H + '\nrequest { !(H.w == "x"); }', b"GO X", b"1-x", _BLOCK_CONSTRAINT,
                 id="not"),
    pytest.param(_H + '\nrequest { !(H.w == "x"); }', b"GO X", b"1-y", None, id="not-holds"),
    pytest.param(_H + "\nrequest { H.a > 5; }", b"GO X", b"5-x", _BLOCK_RANGE, id="gt"),
    pytest.param(_H + "\nrequest { H.a > 5; }", b"GO X", b"6-x", None, id="gt-holds"),
    pytest.param(_H + "\nrequest { H.a >= 5; }", b"GO X", b"5-x", None, id="ge-holds"),
    pytest.param(_H + "\nrequest { H.a >= 5; }", b"GO X", b"4-x", _BLOCK_RANGE, id="ge"),
    pytest.param(_H + '\nrequest { H.w > "m"; }', b"GO X", b"1-a", _BLOCK_CONSTRAINT,
                 id="gt-bytes"),
    pytest.param(_H + '\nrequest { H.w >= "m"; }', b"GO X", b"1-m", None,
                 id="ge-bytes-holds"),
    pytest.param('header H = ( "abc" / "def" ):w\nrequest { H.w == "ABC"; }',
                 b"GO X", b"aBc", None, id="ci-equal"),
    pytest.param('header H = ( "abc" / "def" ):w\nrequest { H.w != "ABC"; }',
                 b"GO X", b"abc", _BLOCK_CONSTRAINT, id="ci-not-equal"),
    pytest.param('header H = ( %x61.62.63 ):w\nrequest { H.w == "ABC"; }',
                 b"GO X", b"abc", _BLOCK_CONSTRAINT, id="case-sensitive-codes"),
    pytest.param(_H + " { H.a < 5 }", b"GO X", b"7-x", (ReasonCode.RANGE, "H"),
                 id="local-range"),
    pytest.param(_H + ' { H.w != "no" }', b"X 200", b"7-no", (ReasonCode.CONSTRAINT, "H"),
                 id="local-constraint"),
    pytest.param(_H + ' { H.w != "no" }', b"X 200", b"7-NO", None, id="local-holds"),
    pytest.param(_H + '\nrequest { message.kind == "Request"; }', b"GO X", b"1-x", None,
                 id="kind"),
    pytest.param(_H + '\nresponse { message.kind == "REQUEST"; }', b"X 200", b"1-x",
                 _BLOCK_CONSTRAINT, id="kind-fails"),
    pytest.param(_H + '\nrequest { message.kind != "request" || H.a > 1; }', b"GO X",
                 b"1-x", _BLOCK_CONSTRAINT, id="kind-or"),
    # a number and bytes are never equal, not even where the bytes are digits
    pytest.param("header H = 1*DIGIT:d\nrequest { H.d == 5; }", b"GO X", b"5", _BLOCK_RANGE,
                 id="raw-equals-integer"),
    pytest.param("header H = 1*DIGIT:d\nrequest { H.d != 5; }", b"GO X", b"5", None,
                 id="raw-differs-from-integer"),
    pytest.param(_E + '\nrequest { H.e == "a"; }', b"GO X", b"a", _BLOCK_CONSTRAINT,
                 id="enum-equals-string"),
    pytest.param(_E + '\nrequest { H.e != "a"; }', b"GO X", b"a", None,
                 id="enum-differs-from-string"),
    pytest.param(_E + "\nrequest { H.e == 0; }", b"GO X", b"a", None, id="enum-equals-index"),
])
def test_engine_and_oracle_agree_on_constraint_forms(decls, command, value, failure):
    ag = parse_zebu(_KIND_BASE + decls + "\n")
    raw = command + b"\r\nH: " + value + b"\r\n\r\n"
    verdict = validate(compile_grammar(ag), raw)
    assert verdict.accepted is reference_validate(ag, raw)[0] is (failure is None)
    assert [(r.code, r.location) for r in verdict.reasons] == (
        [] if failure is None else [failure])


@pytest.mark.parametrize("value, report", [
    (b"<b>", "REJECT SYNTAX H.l lazy value b'b' does not match its grammar\n"),
    (b"<a2>", "REJECT RANGE block constraint failed: H.l.n == 1\n"),
    (b"<a1>", "ACCEPT\n"),
])
def test_constraint_under_a_failed_lazy_force_is_unavailable(value, report):
    # the force's SYNTAX reason stands alone: a constraint reading a field
    # under the lazy subfield gives no reason of its own
    ag = parse_zebu(_KIND_BASE + 'header H = "<" ( "a" 1*DIGIT:n:uint16 ):l:struct:lazy ">"\n'
                    "request { H.l.n == 1; }\n")
    raw = b"GO X\r\nH: " + value + b"\r\n\r\n"
    assert validate(compile_grammar(ag), raw).report() == report
    assert reference_validate(ag, raw)[0] is (report == "ACCEPT\n")


@pytest.mark.parametrize("body, reports", [
    ('"a" CRLF "b"', ["REJECT SYNTAX H value b'ab' does not match the header grammar\n",
                      "REJECT SYNTAX H value b'a b' does not match the header grammar\n",
                      "REJECT SYNTAX H value b'a b' does not match the header grammar\n"]),
    ('"a" [ CRLF ] "b"', ["ACCEPT\n",
                          "REJECT SYNTAX H value b'a b' does not match the header grammar\n",
                          "REJECT SYNTAX H value b'a b' does not match the header grammar\n"]),
])
def test_header_whose_grammar_needs_a_line_break(tmp_path, capsys, body, reports):
    # a value is matched unfolded, so a CRLF that a header's grammar
    # requires is never met: the engine's patterns leave it out
    spec = tmp_path / "spec.zebu"
    spec.write_text(_KIND_BASE + f"header H = {body}\n")
    assert cli.main(["compile", str(spec), "-o", str(tmp_path / "spec.zbc")]) == 0
    assert capsys.readouterr().err == ""
    ag = parse_zebu(spec.read_text())
    cg = compile_grammar(ag)
    for value, report in zip([b"ab", b"a b", b"a\r\n b"], reports):
        raw = b"GO X\r\nH: " + value + b"\r\n\r\n"
        verdict = validate(cg, raw)
        assert verdict.report() == report
        assert reference_validate(ag, raw)[0] is verdict.accepted


# --- misc -----------------------------------------------------------------------------------

def test_body_exposed_raw(sip):
    raw = sip_request()[:-2] + b"Content-Type: x\r\n"  # still ends with blank line
    msg = ParsedMessage(sip, sip_request() + b"opaque \x01 payload")
    assert msg.body() == b"opaque \x01 payload"


def test_union_subfield_conversion():
    ag = parse_zebu(
        'requestLine = "GO"\nstatusLine = "NO"\n'
        "header H = Kind:k:union\n"
        'Kind = ( "num" 1*DIGIT:n ) / ( "word" 1*ALPHA:w )\n')
    cg = compile_grammar(ag)
    msg = ParsedMessage(cg, b"GO\r\nH: num42\r\n\r\n")
    value = msg.parse_header("H").get_subfield("k")
    assert value.branch == 0
    assert value.get("n") == RawSlice(b"42", 0, 2)
    assert value.get("w") is ABSENT
    msg2 = ParsedMessage(cg, b"GO\r\nH: wordab\r\n\r\n")
    value2 = msg2.parse_header("H").get_subfield("k")
    assert value2.branch == 1
    assert value2.get("w") == RawSlice(b"ab", 0, 2)


@pytest.mark.parametrize("backend", ["regex", "interpreter"])
@pytest.mark.parametrize("h, v, e, u", [
    (b"a;b;", b"n1;wab;", EnumTag(1), UnionVal(1, {"w": RawSlice(b"ab", 0, 2)})),
    (b"b;", b"wab;n1;", EnumTag(1), UnionVal(0, {"n": RawSlice(b"1", 0, 1)})),
])
def test_a_branch_under_a_repetition_reads_the_last_iteration(backend, h, v, e, u):
    ag = parse_zebu(REPEATED_BRANCHES)
    cg = compile_grammar(ag)
    if backend == "interpreter":
        for _, p in cg.named_patterns():
            p.__dict__["backend"] = (None, None, "forced")
    raw = b"GO\r\nH: " + h + b"\r\nV: " + v + b"\r\n\r\n"
    assert validate(cg, raw).report() == "ACCEPT\n"
    assert reference_validate(ag, raw) == (True, [])
    msg = ParsedMessage(cg, raw)
    assert (msg.select("H.e"), msg.select("V.u")) == (e, u)


def test_a_campaign_over_branches_under_a_repetition_rejects_no_valid_mutant():
    ag = parse_zebu(REPEATED_BRANCHES)
    cg = compile_grammar(ag)
    report = run_campaign(ag, lambda raw: validate(cg, raw).accepted, 200, "1")
    assert report.false_rejects == 0


def test_a_command_line_conversion_failure_rejects_the_message():
    cg = compile_grammar(parse_zebu('requestLine = "GO" SP 1*DIGIT:n:uint16\n'
                                    'statusLine = "NO"\n'))
    assert validate(cg, b"GO 70000\r\n\r\n").report() == (
        "REJECT RANGE requestLine.n value 70000 overflows uint16\n")


def test_same_named_subfields_in_two_branches_compile_their_own_element():
    ag = parse_zebu('requestLine = "GO"\nstatusLine = "NO"\n'
                    'header H = 1*DIGIT:d "x" / 1*ALPHA:d "x"\n')
    cg = compile_grammar(ag)
    for value, accepted in ((b"12x", True), (b"abx", True), (b"a1x", False)):
        raw = b"GO\r\nH: " + value + b"\r\n\r\n"
        assert validate(cg, raw).accepted is accepted, value
        assert reference_validate(ag, raw)[0] is accepted, value
    msg = ParsedMessage(cg, b"GO\r\nH: abx\r\n\r\n")
    assert msg.parse_header("H").get_subfield("d") == RawSlice(b"abx", 0, 2)


@pytest.mark.parametrize("second, value", [
    ('"x"', b"abx"),  # legal: second branch derives it
    ('"y"', b"12y"),  # illegal: digits only before "x"
    ('"y"', b"aby"),  # legal: second branch derives it
], ids=["abx", "12y", "aby"])
def test_same_named_lazy_subfields_in_two_branches_agree_with_oracle(
        sip_source, second, value):
    ag = parse_zebu(sip_source + "\nheader H = ( 1*DIGIT ):d:lazy \"x\""
                    f" / ( 1*ALPHA ):d:lazy {second}\n")
    cg = compile_grammar(ag)
    raw = sip_request(extra=(b"H: " + value,))
    expected, _ = reference_validate(ag, raw)
    assert validate(cg, raw).accepted is expected
    assert expected is (value != b"12y")
    assert cg.header("H").lazy_patterns == {}


@pytest.mark.parametrize("count", [1000, 10000])
def test_same_named_subfields_in_two_branches_accept_long_values(count):
    # two groups share the capture id of `p`, and the pattern runs on `re`
    ag = parse_zebu('requestLine = "GO"\nstatusLine = "NO"\n'
                    'header H = "a" 1*( ";" 1*ALPHA ):p / "b" 1*( ";" 1*DIGIT ):p\n')
    cg = compile_grammar(ag)
    raw = b"GO\r\nH: a" + b";x" * count + b"\r\n\r\n"
    assert validate(cg, raw).report() == "ACCEPT\n"
    assert reference_validate(ag, raw) == (True, [])
    assert ParsedMessage(cg, raw).select("H.p").data == b";x" * count


def test_numeric_safety_fuzz(sip):
    # no accessor may produce a numeric value from a span containing a
    # non-digit, whatever bytes arrive in the CSeq number position
    rng = __import__("random").Random(1234)
    alphabet = b"0123456789xX /.-"
    for _ in range(300):
        blob = bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        msg = ParsedMessage(sip, sip_request(cseq=blob))
        header = msg.parse_header("CSeq")
        if not header.failures:
            value = header.get_subfield("number")
            assert isinstance(value, U32)
            # the captured span is the maximal digit run after the delimiter
            stripped = blob.lstrip(b" \t")
            digits = stripped[:next((i for i, b in enumerate(stripped)
                                     if not 0x30 <= b <= 0x39), len(stripped))]
            assert digits.isdigit()
            assert value.value == int(digits)


def test_budget_exhaustion_reported_as_budget_reason(monkeypatch):
    ag = parse_zebu(
        'requestLine = "GO"\nstatusLine = "NO"\n'
        'header H = 1*( 1*"a" ) "b"\n')
    cg = compile_grammar(ag)
    monkeypatch.setattr(pattern, "DEFAULT_MATCH_BUDGET", 2_000)
    verdict = validate(cg, b"GO\r\nH: " + b"a" * 26 + b"\r\n\r\n")
    assert not verdict.accepted
    assert {r.code for r in verdict.reasons} == {ReasonCode.BUDGET}


# --- length ceiling -----------------------------------------------------------

def long_request(site: str, count: int) -> bytes:
    """A valid request with `count` repetitions at one site."""
    reps = {site: count}
    return sip_request(cseq=b"4711", drop=("Via", "To", "From"), extra=(
        b"Via: SIP/2.0/UDP pc33.example.com" + b";p=v" * reps.get("via", 1),
        b"To: " + b" ".join([b"Bob"] * reps.get("to", 1)) + b" <sip:bob@example.com>",
        b"From: <sip:alice@atlanta.example.org>;tag=88a7s" + b";p=v" * reps.get("from", 0),
    ))


@pytest.mark.parametrize("count", [10, 100, 1000, 10000])
@pytest.mark.parametrize("site", ["via", "to", "from"])
def test_long_repetition_accepted(sip, sip_ag, site, count):
    raw = long_request(site, count)
    assert len(raw) > 4 * count
    assert validate(sip, raw).report() == "ACCEPT\n"
    assert reference_validate(sip_ag, raw) == (True, [])
    msg = ParsedMessage(sip, raw)
    assert msg.select("CSeq.number") == U32(4711)
    assert msg.select("From.tag").data == b"88a7s"
    assert msg.select("From.uri.host").data == b"atlanta.example.org"


# --- adversarial subjects -------------------------------------------------------

_RTSP_SETUP = b"SETUP rtsp://h/x RTSP/1.0\r\nCSeq: 1\r\nTransport: RTP/AVP"


@pytest.mark.parametrize("grammar,raw", [
    # ">" SWS, then SWS ";": two optional whitespace runs meet
    ("sip", sip_request(drop=("From",), extra=(b"From: <sip:a@b>" + b" " * 200_000 + b"x",))),
    ("sip", sip_request(drop=("To",), extra=(b"To: <sip:a@b>" + b" " * 200_000 + b"x",))),
    ("sip", sip_request(drop=("Via",), extra=(b"Via: SIP/2.0/UDP h" + b";p" * 100_000 + b"@",))),
    ("sip", sip_request(drop=("From",), extra=(b"From: <sip:a@b>;tag=1" + b";p" * 100_000 + b"@",))),
    # "unicast" is both a literal branch and a token: two ways per parameter
    ("rtsp", _RTSP_SETUP + b";unicast" * 25_000 + b"@\r\n\r\n"),
], ids=["from-spaces", "to-spaces", "via-params", "from-params", "rtsp-transport"])
def test_adversarial_header_rejected_quickly(request, grammar, raw):
    start = time.perf_counter()
    report = validate(request.getfixturevalue(grammar), raw).report()
    assert time.perf_counter() - start < 5  # tens of milliseconds when linear
    assert report.startswith("REJECT SYNTAX")
    assert "BUDGET" not in report


@pytest.mark.parametrize("grammar,raw", [
    ("sip", long_request("via", 10_000)),
    ("sip", long_request("from", 10_000)),
    ("rtsp", _RTSP_SETUP + b";unicast" * 25_000 + b"\r\n\r\n"),
], ids=["via", "from", "rtsp-transport"])
def test_long_tail_memory_is_bounded(request, grammar, raw):
    # a possessive tail keeps no state per iteration; `re` used to keep
    # about 165 bytes per subject byte (10 MB for the 60 KB Via)
    cg = request.getfixturevalue(grammar)
    assert validate(cg, raw).accepted  # first use plans and compiles the patterns
    tracemalloc.start()
    try:
        verdict = validate(cg, raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.accepted
    assert peak <= 1_000_000


# --- pinned outputs ---------------------------------------------------------------

def _selectors(cg):
    """Every top-level selector, in entry and declaration order."""
    return [f"{entry.name}.{sf.name}" for entry in cg.entries.values()
            for sf in entry.table.values() if len(sf.path) == 1]


def _observed(cg, raw) -> list[str]:
    """What the engine shows of `raw`: the verdict, both counters and every
    top-level select, once with validate first and once with the selects
    first, so both memo orders are covered."""
    lines = []
    for validate_first in (True, False):
        try:
            msg = ParsedMessage(cg, raw)
        except MessageSyntaxError as exc:
            lines.append(type(exc).__name__)
            lines.append(validate(cg, raw).report())
            continue
        steps = ["validate", "select"] if validate_first else ["select", "validate"]
        for step in steps:
            if step == "validate":
                lines.append(validate(cg, raw, msg).report())
            else:
                for selector in _selectors(cg):
                    try:
                        shown = cli._render_value(msg.select(selector))
                    except ZebuError as exc:
                        shown = type(exc).__name__
                    lines.append(f"{selector} = {shown}")
            lines.append(f"exec {msg.exec_counter} lazy {msg.lazy_exec_counter}")
    return lines


# `--hypothesis-profile ci` runs 3 000 examples; CI does
@settings(deadline=None)
@given(st.data())
def test_validate_agrees_whatever_the_session_parsed_first(request, data):
    name = data.draw(st.sampled_from(["sip", "rtsp"]))
    grammar = request.getfixturevalue(name)
    mutant = make_mutant(grammar.ag, data.draw(st.integers(0, 9_999)),
                         data.draw(st.integers(0, 2**32)))
    raw = mutant.data
    verdict = validate(grammar, raw)
    assert verdict.accepted is (mutant.ground_truth == "VALID")
    try:
        fresh, selected = ParsedMessage(grammar, raw), ParsedMessage(grammar, raw)
    except MessageSyntaxError:
        return
    for selector in _selectors(grammar):
        try:
            selected.select(selector)
        except ZebuError:
            pass
    assert validate(grammar, raw, fresh).report() == verdict.report()
    assert validate(grammar, raw, selected).report() == verdict.report()
    assert (selected.exec_counter, selected.lazy_exec_counter) == (
        fresh.exec_counter, fresh.lazy_exec_counter)


def test_engine_outputs_are_pinned(sip, rtsp, sip_ag, rtsp_ag):
    # the corpus plus fixed-seed mutants of both grammars; any change to a
    # verdict, reason, counter or selected value changes the digest
    h = hashlib.sha256()
    runs = [(sip, (CORPUS / name).read_bytes()) for name in sorted(cli.BENCH_SHAPES)]
    runs += [(sip, make_mutant(sip_ag, i, "pin").data) for i in range(300)]
    runs += [(rtsp, make_mutant(rtsp_ag, i, "pin").data) for i in range(100)]
    for cg, raw in runs:
        h.update(repr(raw).encode())
        for line in _observed(cg, raw):
            h.update(line.encode("latin-1") + b"\n")
    assert h.hexdigest() == "c722265d99ab2f95c5d681aa5ae21a58cc5c2318c7cb5f8acdf63cbc8e58dac5"
