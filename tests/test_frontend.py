from __future__ import annotations

import pytest

from conftest import grammar_text
from zebu.abnf import Alternation, LiteralCI, parse_abnf
from zebu.cli import main
from zebu.frontend import (
    Annotated,
    DuplicateEntryPoint,
    DuplicateSubfield,
    Mandatory,
    Shape,
    UnknownAnnotation,
    UnresolvedFieldRef,
    ZebuSyntaxError,
    collect_subfields,
    is_range_shaped,
    iter_field_refs,
    iter_unresolved,
    parse_zebu,
    resolve_constraint_refs,
)

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
    assert ag.request_line is not None
    assert ag.status_line is not None
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
    assert decl.mandatory_in is Mandatory.REQUEST


def test_empty_annotation_block_is_neutral():
    ag = parse_zebu(
        "requestLine = \"GO\"\nstatusLine = \"NO\"\n"
        "header H = 1*DIGIT { }\n")
    decl = ag.header("H")
    assert decl.mandatory_in is Mandatory.NONE
    assert not decl.multiple
    assert not decl.local_constraints


def test_key_variants():
    ag = parse_zebu(
        'requestLine = "GO"\nstatusLine = "NO"\n'
        'header To { "To" / "t" } = 1*DIGIT { mandatory }\n')
    decl = ag.header("To")
    assert decl.keys == ("To", "t")
    assert decl.mandatory_in is Mandatory.BOTH
    assert isinstance(decl.key_pattern, Alternation)


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
    assert all(r.entry is not None and r.sub_path for r in refs)


def test_unresolved_reference_stays_unbound(tmp_path, capsys):
    src = ('requestLine = "GO"\nstatusLine = "NO"\n'
           "header CSeq = 1*DIGIT:number:uint32\n"
           "request { Foo.bar == 1; CSeq.number < 10; }\n")
    ag = parse_zebu(src)
    refs = [r for expr in ag.all_constraints() for r in iter_field_refs(expr)]
    bindings = [(r.entry, r.sub_path) for r in refs]
    assert bindings == [(None, ()), ("CSeq", ("number",))]
    assert [r.path for r in iter_unresolved(ag)] == [("Foo", "bar")]
    assert [(r.entry, r.sub_path) for r in refs] == bindings
    spec = tmp_path / "unresolved.zebu"
    spec.write_text(src)
    assert main(["check", str(spec)]) == 1
    err = capsys.readouterr().err
    assert err.count("UNRESOLVED_REF") == 1 and "'Foo.bar'" in err


def test_resolve_constraint_refs_binds_paths():
    ag = resolve_constraint_refs(parse_zebu(MINI))
    refs = [r for expr in ag.request_block for r in iter_field_refs(expr)]
    assert {(r.entry, r.sub_path) for r in refs} == {
        ("CSeq", ("method",)), ("requestLine", ("method",))}
    code_refs = [r for expr in ag.response_block for r in iter_field_refs(expr)]
    assert all(r.entry == "statusLine" and r.sub_path == ("code",) for r in code_refs)


def test_resolve_constraint_refs_is_idempotent():
    ag = parse_zebu(MINI)
    once = resolve_constraint_refs(ag)
    twice = resolve_constraint_refs(once)
    assert twice is ag


def test_second_request_block_extends_constraints():
    src = MINI + "request {\n    CSeq.number < 2000000000;\n}\n"
    ag = parse_zebu(src)
    assert len(ag.request_block) == 2


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
    ref = next(iter_field_refs(ag.request_block[0]))
    assert ref.entry == "CSeq"


def test_is_range_shaped():
    ag = resolve_constraint_refs(parse_zebu(MINI))
    assert is_range_shaped(ag.response_block[0])
    assert not is_range_shaped(ag.request_block[0])  # two distinct fields


def test_range_syntax_errors():
    with pytest.raises((ZebuSyntaxError, Exception)):
        parse_zebu("range Num = 5 <= y < 2\n")


def test_mandatory_names_unknown_header():
    with pytest.raises(ZebuSyntaxError):
        parse_zebu('requestLine = "GO"\nstatusLine = "NO"\nrequest { mandatory Nope; }\n')


def test_collect_subfields_skips_undefined_rules():
    ag = parse_zebu("header H = Missing:x\n")
    table = collect_subfields(ag.header("H").body, ag)
    assert list(table) == ["x"]  # nested names unknowable, top name kept
