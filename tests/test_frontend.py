from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grammar_text
from zebu import abnf
from zebu.abnf import (
    AbnfSyntaxError,
    Alternation,
    CharCodes,
    CharRange,
    LiteralCI,
    Repetition,
    RuleRef,
    Sequence,
    parse_abnf,
)
from zebu.cli import main
from zebu.engine import compile_grammar, validate
from zebu.errors import ZebuError
from zebu.frontend import (
    LEAF_CODES,
    LEAF_HOLE,
    Annotated,
    DuplicateEntryPoint,
    DuplicateSubfield,
    MessageKind,
    Shape,
    UnknownAnnotation,
    UnresolvedFieldRef,
    ZebuSyntaxError,
    collect_subfields,
    is_range_shaped,
    iter_field_refs,
    iter_unresolved,
    leaf_mask,
    parse_zebu,
    resolve_constraint_refs,
)
from zebu.pattern import interpreter_reason
from zebu.verify import has_errors, verify_all

MINI = """\
protocol toy
requestLine = Method:method SP SIP-Version
statusLine = SIP-Version SP Code:code:uint16
header CSeq = 1*DIGIT:number:uint32 LWS Method:method
Method = INVITEm / BYEm { enum }
INVITEm = %x49.4E.56.49.54.45
BYEm = %x42.59.45
SIP-Version = "SIP" "/" 1*DIGIT "." 1*DIGIT
Code = 3DIGIT
LWS = [*WSP CRLF] 1*WSP
request {
    mandatory CSeq;
    CSeq.method == requestLine.method;
}
response {
    100 <= statusLine.code && statusLine.code < 699;
}
"""


def test_entry_points_lifted():
    ag = parse_zebu(MINI)
    assert ag.protocol == "toy"
    assert set(ag.command_lines) == set(MessageKind)
    assert [h.name for h in ag.headers] == ["CSeq"]
    assert "Method" in ag.base
    assert "requestLine" not in ag.base


def test_request_line_subfields_in_declaration_order():
    ag = parse_zebu(MINI)
    assert list(ag.subfields["requestLine"]) == ["method"]
    assert list(ag.subfields["CSeq"]) == ["number", "method"]


def test_cseq_header_example():
    ag = parse_zebu(MINI)
    decl = ag.header("CSeq")
    table = ag.subfields["CSeq"]
    assert table["number"].shape is Shape.UINT32
    assert table["method"].shape is Shape.ENUM  # inherited from the definition
    assert decl.keys == ("CSeq",)
    assert decl.mandatory_in == {MessageKind.REQUEST}


def test_empty_annotation_block_is_neutral():
    ag = parse_zebu(
        "requestLine = \"GO\"\nstatusLine = \"NO\"\n"
        "header H = 1*DIGIT { }\n")
    decl = ag.header("H")
    assert not decl.mandatory_in
    assert not decl.multiple
    assert not decl.local_constraints


def test_key_variants():
    ag = parse_zebu(
        'requestLine = "GO"\nstatusLine = "NO"\n'
        'header To { "To" / "t" } = 1*DIGIT { mandatory }\n')
    decl = ag.header("To")
    assert decl.keys == ("To", "t")
    assert decl.mandatory_in == set(MessageKind)


def test_duplicate_entry_points_rejected():
    with pytest.raises(DuplicateEntryPoint):
        parse_zebu('requestLine = "a"\nrequestLine = "b"\n')
    with pytest.raises(DuplicateEntryPoint):
        parse_zebu('header X = "a"\nheader X = "b"\n')


def test_unknown_annotation_rejected():
    with pytest.raises(UnknownAnnotation):
        parse_zebu('header X = "a" { mandatori }\n')
    with pytest.raises(UnknownAnnotation):
        parse_zebu('header X = "a" { mandatory; readonly }\n')
    with pytest.raises(UnknownAnnotation):
        parse_zebu('A = "a":x:float32\n')
    with pytest.raises(UnknownAnnotation):
        parse_zebu('requestLine = "GO" { enum }\n')
    with pytest.raises(UnknownAnnotation):
        parse_zebu('header H = "x" { uint16; multiple }\n')
    with pytest.raises(UnknownAnnotation):
        parse_zebu('header H = "a" { constraint }\n')
    with pytest.raises(UnknownAnnotation):
        parse_zebu('requestLine = "GO" { constraint }\n')
    with pytest.raises(UnknownAnnotation):
        parse_zebu('requestLine = "GO"\nrequest { constraint; }\n')
    with pytest.raises(UnknownAnnotation):
        parse_zebu('A = "x" { shape }\n')


def test_range_directive():
    ag = parse_zebu("Num = 1*DIGIT\nrange Num = 0 <= x < 2147483648\n")
    bound = ag.range_constraints["num"]
    assert (bound.lo, bound.hi, bound.hi_strict) == (0, 2147483648, True)
    assert bound.holds(2147483647)
    assert not bound.holds(2147483648)


def test_plain_rule_annotations_only_shapes():
    ag = parse_zebu('M = "a" / "b" { enum }\n')
    assert ag.rule_shapes["m"] is Shape.ENUM
    with pytest.raises(UnknownAnnotation):
        parse_zebu('M = "a" { 1 <= x }\n')
    with pytest.raises(ZebuSyntaxError, match="second shape 'uint16'"):
        parse_zebu('A = "x" { enum; uint16 }\n')


def test_constraint_string_is_printable_ascii():
    with pytest.raises(AbnfSyntaxError) as exc:
        parse_zebu('header H = 1*VCHAR:v { H.v == "\u00e9" }\n')
    err = exc.value
    assert (err.message, err.line, err.col) == (
        "non-printable character in string literal", 1, 31)


# `int()` refuses decimal strings of more than 4 300 digits, and `str()`
# an int that long; the error points at the digits or at `%x`
@pytest.mark.parametrize("text, message, at", [
    ("A = {}DIGIT\n", "integer has too many digits", "#"),
    ("A = %d{}\n", "integer has too many digits", "#"),
    ('range A = 0 <= x < {}\nA = "1"\n', "integer has too many digits", "#"),
    ("header H = 1*DIGIT:n:uint16 {{ H.n < {} }}\n", "integer has too many digits", "#"),
    ("A = %x4{}\n", "character code exceeds one byte", "%x"),
], ids=["count", "numval", "range", "constraint", "hex"])
def test_overlong_integer_is_a_syntax_error(text, message, at):
    with pytest.raises(AbnfSyntaxError) as exc:
        parse_zebu(text.format("9" * 5000))
    err = exc.value
    assert (err.message, err.line, err.col) == (message, 1, text.format("#").index(at) + 1)


def test_zero_annotation_file_round_trips_base_grammar():
    src = 'A = "x" 1*DIGIT\nB = A / CRLF\n'
    ag = parse_zebu(src)
    assert ag.base == parse_abnf(src)


def test_annotated_nodes_preserved_in_bodies():
    ag = parse_zebu("header H = 1*DIGIT:count\n")
    body = ag.header("H").body
    assert isinstance(body, Annotated)
    assert body.name == "count"
    assert body.shape is None and not body.lazy


def test_subfield_postfix_with_shape_and_lazy():
    ag = parse_zebu("header H = Val:v:struct:lazy\nVal = 1*DIGIT:n\n")
    table = ag.subfields["H"]
    assert table["v"].shape is Shape.STRUCT
    assert table["v"].lazy
    assert table["v"].children == ("n",)
    assert table["v.n"].path == ("v", "n")


def test_duplicate_subfield_rejected_in_sequence():
    with pytest.raises(DuplicateSubfield):
        parse_zebu("header H = 1*DIGIT:x SP 1*DIGIT:x\n")


def test_duplicate_subfield_merged_across_branches():
    ag = parse_zebu('header H = ( "a" 1*DIGIT:x ) / ( "b" 2DIGIT:x )\n')
    assert list(ag.subfields["H"]) == ["x"]


def test_branch_merge_with_conflicting_shape_rejected():
    with pytest.raises(DuplicateSubfield):
        parse_zebu('header H = ( "a" 1*DIGIT:x:uint16 ) / ( "b" 2DIGIT:x:uint32 )\n')


# `n` declared in two branches, over rules whose range directives differ
RANGE_DISAGREEMENTS = {
    "both-ranged": 'header H = N1:n:uint32 "x" / N2:n:uint32 "y"\n'
                   "N1 = 1*DIGIT\nN2 = 1*DIGIT\n"
                   "range N1 = 0 <= x < 10\nrange N2 = 0 <= x < 100\n",
    "one-ranged": 'header H = N2:n:uint32 "y" / N1:n:uint32 "x"\n'
                  "N1 = 1*DIGIT\nN2 = 1*DIGIT\n"
                  "range N1 = 0 <= x < 10\n",
}


@pytest.mark.parametrize("extra", RANGE_DISAGREEMENTS.values(), ids=list(RANGE_DISAGREEMENTS))
def test_branch_merge_with_different_declared_range_rejected(extra, tmp_path, capsys):
    with pytest.raises(DuplicateSubfield):
        parse_zebu(MINI + extra)
    spec = tmp_path / "h.zebu"
    spec.write_text(MINI + extra)
    assert main(["check", str(spec)]) == 1
    assert "declared range" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["sip-subset.zebu", "rtsp-subset.zebu"])
def test_parse_binds_every_reference(name):
    ag = parse_zebu(grammar_text(name))
    refs = [r for expr in ag.all_constraints() for r in iter_field_refs(expr)]
    assert refs
    assert all(r.subfield is not None
               and r.subfield is ag.subfields[r.entry][".".join(r.path[1:])] for r in refs)


def test_unresolved_reference_stays_unbound(tmp_path, capsys):
    src = ('requestLine = "GO"\nstatusLine = "NO"\n'
           "header CSeq = 1*DIGIT:number:uint32\n"
           "request { Foo.bar == 1; CSeq.number < 10; }\n")
    ag = parse_zebu(src)
    refs = [r for expr in ag.all_constraints() for r in iter_field_refs(expr)]
    bindings = [(r.entry, r.subfield) for r in refs]
    assert bindings == [(None, None), ("CSeq", ag.subfields["CSeq"]["number"])]
    assert [r.path for r in iter_unresolved(ag)] == [("Foo", "bar")]
    assert [(r.entry, r.subfield) for r in refs] == bindings
    spec = tmp_path / "unresolved.zebu"
    spec.write_text(src)
    assert main(["check", str(spec)]) == 1
    err = capsys.readouterr().err
    assert err.count("UNRESOLVED_REF") == 1 and "'Foo.bar'" in err


def test_resolve_constraint_refs_binds_paths():
    ag = resolve_constraint_refs(parse_zebu(MINI))
    refs = [r for expr in ag.blocks[MessageKind.REQUEST] for r in iter_field_refs(expr)]
    assert {(r.entry, r.subfield.path) for r in refs} == {
        ("CSeq", ("method",)), ("requestLine", ("method",))}
    code_refs = [r for expr in ag.blocks[MessageKind.RESPONSE] for r in iter_field_refs(expr)]
    assert all(r.entry == "statusLine" and r.subfield is ag.subfields["statusLine"]["code"]
               for r in code_refs)


def test_resolve_constraint_refs_is_idempotent():
    ag = parse_zebu(MINI)
    once = resolve_constraint_refs(ag)
    twice = resolve_constraint_refs(once)
    assert twice is ag


def test_second_request_block_extends_constraints():
    src = MINI + "request {\n    CSeq.number < 2000000000;\n}\n"
    ag = parse_zebu(src)
    assert len(ag.blocks[MessageKind.REQUEST]) == 2


def test_unresolved_field_ref_simple():
    src = (
        'requestLine = "GO"\nstatusLine = "NO"\n'
        "request { Foo.bar == 1; }\n")
    with pytest.raises(UnresolvedFieldRef) as exc:
        resolve_constraint_refs(parse_zebu(src))
    assert exc.value.path == ("Foo", "bar")


def test_header_name_in_constraint_is_case_insensitive():
    src = (
        'requestLine = "GO"\nstatusLine = "NO"\n'
        "header CSeq = 1*DIGIT:number:uint32\n"
        "request { cseq.number < 10; }\n")
    ag = resolve_constraint_refs(parse_zebu(src))
    ref = next(iter_field_refs(ag.blocks[MessageKind.REQUEST][0]))
    assert ref.entry == "CSeq"


def test_is_range_shaped():
    ag = resolve_constraint_refs(parse_zebu(MINI))
    assert is_range_shaped(ag.blocks[MessageKind.RESPONSE][0])
    assert not is_range_shaped(ag.blocks[MessageKind.REQUEST][0])  # two distinct fields


def test_range_syntax_errors():
    with pytest.raises((ZebuSyntaxError, Exception)):
        parse_zebu("range Num = 5 <= y < 2\n")


def test_mandatory_names_unknown_header():
    with pytest.raises(ZebuSyntaxError):
        parse_zebu('requestLine = "GO"\nstatusLine = "NO"\nrequest { mandatory Nope; }\n')


def test_mandatory_header_name_may_start_the_next_line():
    ag = parse_zebu('requestLine = "GO"\nstatusLine = "NO"\nheader Max-Forwards = 1*DIGIT\n'
                    "request { mandatory\nMax-Forwards; }\n")
    assert ag.header("Max-Forwards").mandatory_in == {MessageKind.REQUEST}


def test_collect_subfields_skips_undefined_rules():
    ag = parse_zebu("header H = Missing:x\n")
    table = collect_subfields(ag.header("H").body, ag)
    assert list(table) == ["x"]  # nested names unknowable, top name kept


# Malformed specs, one or more per declaration and block kind, with the
# error each must raise: class, message, line and column.
MALFORMED = [
    ("protocol a\nprotocol b\n",
     ZebuSyntaxError, "duplicate protocol directive", 2, 1),
    ("protocol a b\n",
     AbnfSyntaxError, "unexpected 'b' after declaration", 1, 12),
    ('requestLine "GO"\n',
     AbnfSyntaxError, "expected '=' after entry point name, found '\"'", 1, 13),
    ('statusLine = "A"\nstatusLine = "B"\n',
     DuplicateEntryPoint, "second statusLine declaration", 2, 1),
    ('requestLine = "GO" { multiple }\n',
     UnknownAnnotation, "'multiple' is not valid here", 1, 22),
    ('requestLine = "GO" { a.b == 1 a.b }\n',
     AbnfSyntaxError, "expected ';' or '}' after annotation item", 1, 31),
    ('header statusLine = "a"\n',
     DuplicateEntryPoint, "header 'statusLine' takes a command line's name", 1, 1),
    ("header Message = 1*DIGIT:kind:uint16\n",
     DuplicateEntryPoint, "header 'Message' takes the built-in message's name", 1, 1),
    ('header H = "a" { mandatory; mandatori }\n',
     UnknownAnnotation, "unknown annotation 'mandatori'", 1, 29),
    ('header H = "a" { multiple;\n',
     AbnfSyntaxError, "unterminated annotation block", 2, 1),
    ('header H = "a" { mandatory H }\n',
     AbnfSyntaxError, "expected a comparison operator", 1, 28),
    ('header To { "To" / t } = "x"\n',
     ZebuSyntaxError, "header key variants must be quoted literals", 1, 1),
    ('header To { "To":k } = "x"\n',
     ZebuSyntaxError, "header key variants must be quoted literals", 1, 1),
    ('header To { "To" = "x"\n',
     AbnfSyntaxError, "expected an element, found '='", 1, 18),
    ('header H { "A:B" } = "x"\n',
     ZebuSyntaxError, "header key variant 'A:B' holds a colon or an outer blank, "
     "so no line can carry it", 1, 1),
    ('header H { "H" / " A" } = "x"\n',
     ZebuSyntaxError, "header key variant ' A' holds a colon or an outer blank, "
     "so no line can carry it", 1, 1),
    ('header H { "A " } = "x"\n',
     ZebuSyntaxError, "header key variant 'A ' holds a colon or an outer blank, "
     "so no line can carry it", 1, 1),
    ('header To { "" } = "x"\n',
     AbnfSyntaxError, "empty quoted string (use %x codes for explicit bytes)", 1, 13),
    ("request {\n    mandatory;\n}\n",
     AbnfSyntaxError, "expected header name", 2, 14),
    ('requestLine = "GO"\nresponse {\n    mandatory Nope;\n}\n',
     ZebuSyntaxError, "mandatory declaration names unknown header 'Nope'", 3, 5),
    ("request {\n    a.b == 1;\n",
     AbnfSyntaxError, "unterminated block", 3, 1),
    ("range Num = 5 <= y < 9\n",
     AbnfSyntaxError, "range bounds must be written around 'x'", 1, 19),
    ("range Num = 5 <= x < 2\n",
     ZebuSyntaxError, "empty range", 1, 1),
    ("range Num = 0 <= x <\n",
     AbnfSyntaxError, "expected an integer", 2, 1),
    ("request { a.b = 1; }\n",
     AbnfSyntaxError, "expected a comparison operator", 1, 15),
    ("request { (a.b == 1 || a.c == 2; }\n",
     AbnfSyntaxError, "expected ')', found ';'", 1, 32),
    ('request { a.b == "x; }\n',
     AbnfSyntaxError, "unterminated string literal", 1, 18),
    ("request { a.b == 1 && ; }\n",
     AbnfSyntaxError, "expected field reference", 1, 23),
    ('A = "a"\nA =/ "b"\n',
     AbnfSyntaxError, "incremental alternatives (=/) are not supported", 2, 3),
    ('A = "a" )\n',
     AbnfSyntaxError, "unexpected ')' after declaration", 1, 9),
    ('A = "a" { 1 <= x }\n',
     UnknownAnnotation, "only shape keywords are allowed on plain rules", 1, 11),
    ('A = "a" { mandatory }\n',
     UnknownAnnotation, "'mandatory' is not valid here", 1, 11),
    ('A = "a":x:enum:uint16\n',
     AbnfSyntaxError, "subfield 'x' given two shapes", 1, 22),
    # the scanner's edge cases: a comment that ends the input, CR-only line
    # ends (only LF starts a line), a continuation line that ends the input,
    # a bare CR before an indented line (a continuation), a string and a
    # name that end the input
    ('A = "a" / ; trailing comment',
     AbnfSyntaxError, "expected an element, found end of input", 1, 29),
    ('A = "a"\rB = )\r',
     AbnfSyntaxError, "expected an element, found ')'", 1, 13),
    ('A = "a" /\n  ',
     AbnfSyntaxError, "expected an element, found end of input", 2, 3),
    ('A = "a"\r "b" )\n',
     AbnfSyntaxError, "unexpected ')' after declaration", 1, 14),
    ('A = "ab',
     AbnfSyntaxError, "unterminated quoted string", 1, 5),
    ('A = "a"\nAbc-1',
     AbnfSyntaxError, "expected '=' after rule name, found end of input", 2, 6),
]


@pytest.mark.parametrize("text, cls, message, line, col", MALFORMED,
                         ids=[case[0] for case in MALFORMED])
def test_malformed_spec_error(text, cls, message, line, col):
    with pytest.raises(cls) as exc:
        parse_zebu(text)
    err = exc.value
    assert (type(err), err.message, err.line, err.col) == (cls, message, line, col)


# The dialect's tokens, some malformed on purpose: non-ASCII digits and
# letters, lone quotes, every brace and operator, and line breaks.
_TOKENS = (
    "protocol", "requestLine", "statusLine", "header", "request", "response",
    "range", "mandatory", "multiple", "enum", "uint16", "uint32", "struct",
    "union", "lazy", "x", "A", "H", "DIGIT", "VCHAR", "SP", "H.v", "a.b",
    "WSP", "CRLF", "HEXDIG",
    "0", "1", "7", "70000", "9" * 4301, "\u00b2", "\u0663", "\u00e9", "\u00df",
    '"', '"a"', '"\u00e9"', '""', "%x41", "%x30-39", "%d", "%b1", "<p>",
    "{", "}", "(", ")", "[", "]", "/", "*", "=", "=/", ":", ";", ".",
    "==", "!=", "<", "<=", ">", ">=", "&&", "||", "!",
    " ", "\t", "\n", "\r\n", "\n ",
)
# Each line starts with one of these: nothing, a declaration's head (some
# redefine a core rule), or a whole declaration that the drawn tokens may
# extend or break
_HEADS = ("", "A = ", "SP = ", "LF = ", "HTAB = ", "header K = ", 'header K { "k" } = ',
          "request { ", "range A = ",
          'A = "a" / "b" { enum }', "header K = 1*DIGIT:n:uint16 { K.n < 9; multiple }",
          'request { mandatory H; H.v != "a" }', "range A = 0 <= x < 9", "SP = WSP",
          # one name declared in two alternation branches
          'header K = A:e:enum "x" / WSP:e:enum "y"',
          'header K = WSP:e:enum "x" / DIGIT:e:enum "y"',
          'header K = DIGIT:n:uint16 "x" / A:n:uint16 "y"', 'header K = "a":v "x" / %x62:v "y"')
_SKELETON = 'requestLine = "GO" SP 1*DIGIT:n\nstatusLine = "NO"\nheader H = 1*VCHAR:v\n'
_spec_lines = st.tuples(
    st.sampled_from(_HEADS),
    st.one_of(st.just(""), st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join)),
).map("".join)
_spec_texts = st.tuples(
    st.sampled_from(("", _SKELETON)),
    st.lists(_spec_lines, max_size=4).map("\n".join),
).map("".join)


# `--hypothesis-profile ci` runs 3 000 examples; CI does
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(_spec_texts)
def test_front_end_raises_only_zebu_errors(text):
    try:
        ag = parse_zebu(text)
    except ZebuError:
        return
    if has_errors(verify_all(ag)):
        return
    compiled = compile_grammar(ag)
    validate(compiled, b"GO 1\r\nH: x\r\n\r\n")
    # every pattern's backend, decided as `zebu compile` warns
    for _, pattern in compiled.named_patterns():
        interpreter_reason(pattern)


def visited_set_leaf_mask(elem, ag):
    """The leaf mask by one walk from `elem` that enters each rule body at
    most once, tracked by a visited set: the reference `leaf_mask` must
    agree with."""
    mask = 0
    entered = set()
    todo = [elem]
    while todo:
        e = todo.pop()
        if isinstance(e, Sequence):
            todo.extend(e.items)
        elif isinstance(e, Alternation):
            todo.extend(e.branches)
        elif isinstance(e, Repetition):
            todo.append(e.inner)
        elif isinstance(e, RuleRef):
            low = e.name.lower()
            if low in entered:
                continue
            entered.add(low)
            rule = abnf.resolve(e.name, ag.base)
            if rule is None:
                mask |= LEAF_HOLE
            else:
                todo.append(rule.body)
        elif isinstance(e, LiteralCI):
            for b in e.text.encode("ascii"):
                mask |= 1 << b
        elif isinstance(e, CharCodes):
            mask |= LEAF_CODES
            for b in e.data:
                mask |= 1 << b
        elif isinstance(e, CharRange):
            mask |= LEAF_CODES | (1 << e.hi + 1) - (1 << e.lo)
        else:
            mask |= LEAF_HOLE
            if isinstance(e, Annotated):
                todo.append(e.inner)
    return mask


def _elements_of(elem):
    yield elem
    for child in getattr(elem, "items", None) or getattr(elem, "branches", None) or ():
        yield from _elements_of(child)
    if isinstance(elem, (Repetition, Annotated)):
        yield from _elements_of(elem.inner)


# Rules that reach one another in cycles, through annotations and through
# undefined rules, or that are defined twice or redefine a core rule, ahead
# of a random spec that may use or redefine them
_CYCLES = (
    "",
    'Ring = Link / "r"\nLink = *Ring Tail "l"\nTail = Missing / Ring\n',
    'header K = Self:s\nSelf = "s" [ Self ] / Gap:g:uint16\n',
    "Loop = [ Loop ] DIGIT:d SP\nA = Loop / %x00-1F / WSP\n",
    'Twice = "t"\nTwice = %x00\nDIGIT = "d" / Twice\nA = Twice HEXDIG\n',
)


# `--hypothesis-profile ci` runs 3 000 examples; CI does
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(st.sampled_from(_CYCLES), _spec_texts)
def test_leaf_mask_agrees_with_the_visited_set_walk(cycles, text):
    try:
        ag = parse_zebu(cycles + text)
    except ZebuError:
        return
    bodies = [rule.body for rule in ag.base.definitions]
    bodies += [body for _, body in ag.entry_points()]
    for elem in (e for body in bodies for e in _elements_of(body)):
        assert leaf_mask(elem, ag) == visited_set_leaf_mask(elem, ag), elem
