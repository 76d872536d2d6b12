from __future__ import annotations

import random

import pytest

from zebu import abnf
from zebu.cli import main
from zebu.frontend import parse_zebu
from zebu.verify import (
    Code,
    Severity,
    check_no_cycles,
    check_no_duplicates,
    check_constraint_refs,
    check_no_omission,
    check_type_annotations,
    format_diagnostic,
    has_errors,
    verify_all,
)

ENTRY_STUB = 'requestLine = "GO"\nstatusLine = "NO"\n'


def codes(diags):
    return [d.code for d in diags]


def test_core_rules_count_as_defined():
    ag = parse_zebu(ENTRY_STUB + "A = 1*DIGIT WSP CRLF\n")
    assert check_no_omission(ag) == []


def test_undefined_rule_reported_once():
    ag = parse_zebu(ENTRY_STUB + "A = B B\nC = B\n")
    diags = check_no_omission(ag)
    assert codes(diags) == [Code.UNDEFINED_RULE]
    assert "'B'" in diags[0].message


def test_bundled_grammars_are_closed(sip_ag, rtsp_ag):
    assert check_no_omission(sip_ag) == []
    assert check_no_omission(rtsp_ag) == []


def test_duplicate_definition_points_at_second():
    ag = parse_zebu(ENTRY_STUB + 'A = "x"\nA = "x"\n')
    diags = check_no_duplicates(ag)
    assert codes(diags) == [Code.DUPLICATE_RULE]
    assert diags[0].span[0] == 4  # line of the second definition


def test_duplicates_are_case_insensitive():
    ag = parse_zebu(ENTRY_STUB + 'a = "x"\nA = "y"\n')
    assert codes(check_no_duplicates(ag)) == [Code.DUPLICATE_RULE]


def test_clean_grammar_has_no_duplicates(sip_ag):
    assert check_no_duplicates(sip_ag) == []


def test_header_key_collision_reported():
    ag = parse_zebu(
        ENTRY_STUB
        + 'header To { "To" / "t" } = 1*DIGIT\n'
        + 'header Tag { "t" } = 1*DIGIT\n')
    diags = check_no_duplicates(ag)
    assert codes(diags) == [Code.DUPLICATE_RULE]


def test_two_rule_cycle():
    ag = parse_zebu(ENTRY_STUB + "A = B\nB = A\n")
    diags = check_no_cycles(ag)
    assert codes(diags) == [Code.RULE_CYCLE]
    path = diags[0].cycle_path
    assert path[0] == path[-1]
    assert set(path) == {"A", "B"}


def test_self_loop():
    ag = parse_zebu(ENTRY_STUB + 'A = A / "x"\n')
    diags = check_no_cycles(ag)
    assert codes(diags) == [Code.RULE_CYCLE]
    assert diags[0].cycle_path == ("A", "A")


def test_bundled_grammars_acyclic(sip_ag, rtsp_ag):
    assert check_no_cycles(sip_ag) == []
    assert check_no_cycles(rtsp_ag) == []


def test_cycle_witness_paths_traverse_real_references():
    ag = parse_zebu(ENTRY_STUB + "A = B\nB = C\nC = A\nD = A\n")
    for diag in check_no_cycles(ag):
        path = diag.cycle_path
        for src, dst in zip(path, path[1:]):
            body = ag.base.get(src).body
            assert dst.lower() in repr(body).lower()


@pytest.mark.parametrize("seed", range(8))
def test_random_dag_plus_back_edges(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    names = [f"R{i}" for i in range(n)]
    lines = [ENTRY_STUB.rstrip()]
    # forward edges only: acyclic by construction
    edges = {}
    for i, name in enumerate(names):
        targets = [names[j] for j in range(i + 1, n) if rng.random() < 0.4]
        edges[name] = targets
        body = " ".join(targets) if targets else '"x"'
        lines.append(f"{name} = {body}")
    k = rng.randint(0, 2)
    injected = 0
    for _ in range(k):
        i = rng.randrange(1, n)
        j = rng.randrange(0, i)
        # re-declare one rule with an extra back edge via alternation
        src = names[i]
        tgt = names[j]
        body = " ".join(edges[src]) if edges[src] else '"x"'
        lines = [ln for ln in lines if not ln.startswith(f"{src} =")]
        lines.append(f"{src} = ( {body} ) / {tgt}")
        edges[src] = edges[src] + [tgt]
        injected += 1
    ag = parse_zebu("\n".join(lines) + "\n")
    diags = check_no_cycles(ag)
    if injected:
        assert len(diags) >= 1
    else:
        assert diags == []


def test_uint16_over_literal_alternation_ok():
    ag = parse_zebu(ENTRY_STUB + 'header H = GF:code:uint16\nGF = "500" / "501" / "502"\n')
    assert check_type_annotations(ag) == []


def test_uint16_over_non_numeric_literal_rejected():
    ag = parse_zebu(ENTRY_STUB + 'header H = GF:code:uint16\nGF = "OK"\n')
    diags = check_type_annotations(ag)
    assert codes(diags) == [Code.TYPE_MISMATCH]
    assert "'OK'" in diags[0].message


def test_uint16_over_too_large_literal_rejected():
    ag = parse_zebu(ENTRY_STUB + 'header H = GF:code:uint16\nGF = "65535" / "65536"\n')
    diags = check_type_annotations(ag)
    assert codes(diags) == [Code.TYPE_MISMATCH]


def test_uint32_over_digit_run_deferred():
    ag = parse_zebu(ENTRY_STUB + "header H = 1*DIGIT:n:uint32\n")
    assert check_type_annotations(ag) == []


NOT_NUMERIC = "subfield H.n is {} but its rule does not derive numeric text"


@pytest.mark.parametrize("spec,expected", [
    # a sequence derives each string of its first item followed by each of the rest's
    ('header H = N:n:uint32\nN = "7" "0000000000"\n',
     [("subfield H.n is uint32 but derives '70000000000'", (3, 13))]),
    ('header H = N:n:uint16\nN = "6" "5535"\n', []),
    # an unbounded item, a wide byte range or over 4096 strings leave the digit-run test
    ('header H = N:n:uint32\nN = "1" 1*DIGIT\n', []),
    ("header H = N:n:uint32\nN = 2DIGIT 2DIGIT\n", []),
    ("header H = N:n:uint32\nN = 2DIGIT 2ALPHA\n", [(NOT_NUMERIC.format("uint32"), (3, 13))]),
    # char codes derive their bytes read as ASCII
    ("header H = %x37.41:n:uint16\n", [("subfield H.n is uint16 but derives '7A'", (3, 19))]),
    ("header H = %x37.30:n:uint16\n", []),
    # a byte beyond ASCII gives no finite set, and is not a digit
    ("header H = %xFF:n:uint16\n", [(NOT_NUMERIC.format("uint16"), (3, 16))]),
    ("header H = 1*%x30-39:n:uint32\n", []),
    ("header H = 1*%x30-3A:n:uint32\n", [(NOT_NUMERIC.format("uint32"), (3, 21))]),
    # a nested annotation derives what its element does
    ('header H = N:n:uint16\nN = "1" D:d\nD = "x"\n',
     [("subfield H.n is uint16 but derives '1x'", (3, 13)),
      ("subfield H.n nests named subfields but is not struct or union", (3, 13))]),
])
def test_uint_over_sequences_codes_and_annotations(spec, expected):
    diags = check_type_annotations(parse_zebu(ENTRY_STUB + spec))
    assert codes(diags) == [Code.TYPE_MISMATCH] * len(expected)
    assert [(d.message, d.span) for d in diags] == expected


@pytest.mark.parametrize("width,digits,overflows", [
    (16, "65536", True), (16, "65535", False),
    (16, "4294967296", True), (32, "4294967296", True), (32, "4294967295", False),
    # leading zeros count for nothing
    (16, "000070000", True), (16, "000000007", False),
    # int() refuses strings of more than 4 300 digits
    (16, "1" * 5000, True), (32, "0" * 4999 + "7", False),
])
def test_uint_overflow_is_decided_at_the_width(width, digits, overflows):
    codes_ = ".".join(f"{ord(c):x}" for c in digits)
    diags = check_type_annotations(
        parse_zebu(ENTRY_STUB + f"header H = %x{codes_}:n:uint{width}\n"))
    assert [d.message for d in diags] == (
        [f"subfield H.n is uint{width} but derives {digits!r}"] if overflows else [])


@pytest.mark.parametrize("spec,expected", [
    ('header H = M:m:enum\nM = "1":a / "2":b\n',
     "enum subfield H.m cannot contain named subfields (a, b)"),
    ('header H = M:m\nM = "1" D:d\nD = "2"\n',
     "subfield H.m nests named subfields but is not struct or union"),
    ('header H = M:m:uint16\nM = "1" D:d\nD = "2"\n',
     "subfield H.m nests named subfields but is not struct or union"),
    ('header H = M:m:struct\nM = "1" D:d\nD = "2"\n', None),
])
def test_only_struct_and_union_nest_named_subfields(spec, expected):
    diags = check_type_annotations(parse_zebu(ENTRY_STUB + spec))
    if expected is None:
        assert diags == []
    else:
        assert [(d.code, d.message, d.span) for d in diags] == [
            (Code.TYPE_MISMATCH, expected, (3, 13))]


NEVER_EQUAL = "constraint '{}' compares a number with bytes, which are never equal"
COMPARED = ('header H = 1*DIGIT:d SP 1*DIGIT:n:uint16 SP M:m\n'
            'M = "a" / "b" { enum }\n')


@pytest.mark.parametrize("block,expected", [
    # a raw field against an integer literal, even where its bytes are digits
    ("H.d == 5", [("H.d == 5", (5, 11))]),
    ("5 != H.d", [("5 != H.d", (5, 16))]),
    # a uint or enum field against a string literal or a raw field
    ('H.n < "7"', [('H.n < "7"', (5, 11))]),
    ('H.m == "a"', [('H.m == "a"', (5, 11))]),
    ("H.n == H.d", [("H.n == H.d", (5, 11))]),
    # message.kind is bytes
    ("message.kind == 1", [("message.kind == 1", (5, 11))]),
    # each comparison is judged on its own
    ('H.n == 5 && !(H.d == "5" || H.m == H.d)', [("H.m == H.d", (5, 39))]),
    # two literals: the comparison's own span
    ('H.n == 5 && (5 == "a")', [('5 == "a"', (5, 24))]),
    # numbers with numbers, bytes with bytes
    ('H.n == 5 && H.m == 1 && H.n > H.m && H.d == "5" && message.kind == "REQUEST"', []),
])
def test_a_number_never_compares_with_bytes(block, expected):
    ag = parse_zebu(ENTRY_STUB + COMPARED + f"request {{ {block}; }}\n")
    assert [(d.code, d.message, d.span) for d in check_constraint_refs(ag)] == [
        (Code.TYPE_MISMATCH, NEVER_EQUAL.format(text), span) for text, span in expected]


def test_enum_requires_alternation():
    ag = parse_zebu(ENTRY_STUB + "header H = 1*DIGIT:n:enum\n")
    diags = check_type_annotations(ag)
    assert codes(diags) == [Code.TYPE_MISMATCH]


def test_shape_collision_between_reference_and_definition():
    ag = parse_zebu(
        ENTRY_STUB + 'header H = M:m:uint16\nM = "1" / "2" { enum }\n')
    diags = check_type_annotations(ag)
    assert Code.TYPE_MISMATCH in codes(diags)


def test_matching_shapes_at_both_sites_allowed():
    ag = parse_zebu(
        ENTRY_STUB + 'header H = M:m:enum\nM = "1" / "2" { enum }\n')
    assert check_type_annotations(ag) == []


def test_capture_under_unbounded_repetition_warns():
    ag = parse_zebu(ENTRY_STUB + 'header H = *( 1*DIGIT:n "," )\n')
    diags = check_type_annotations(ag)
    assert len(diags) == 1
    assert diags[0].severity is Severity.WARNING


def test_verify_all_order_omission_before_cycle():
    ag = parse_zebu(ENTRY_STUB + "A = B / Missing\nB = A\n")
    diags = [d for d in verify_all(ag) if d.is_error]
    assert codes(diags)[:2] == [Code.UNDEFINED_RULE, Code.RULE_CYCLE]


def test_cycle_between_numeric_captures_reports_both():
    # q is first reached while p's walk is still open; its answer must not
    # come from that partial walk, or the m diagnostic is lost
    ag = parse_zebu('requestLine = p:n:uint32 SP q:m:uint16 CRLF\n'
                    'statusLine = "NO"\np = q / "x"\nq = p / "1"\n')
    diags = verify_all(ag)
    assert codes(diags) == [Code.RULE_CYCLE, Code.TYPE_MISMATCH, Code.TYPE_MISMATCH]
    assert "requestLine.n " in diags[1].message
    assert "requestLine.m " in diags[2].message


def test_verify_all_empty_grammar_missing_entry_points():
    diags = verify_all(parse_zebu('A = "x"\n'))
    errors = [d for d in diags if d.is_error]
    assert {d.code for d in errors} == {Code.UNDEFINED_RULE}
    assert any("requestLine" in d.message for d in errors)
    assert any("statusLine" in d.message for d in errors)


def test_verify_all_unresolved_constraint_ref():
    ag = parse_zebu(ENTRY_STUB + "request { Foo.bar == 1; }\n")
    diags = verify_all(ag)
    assert Code.UNRESOLVED_REF in codes(diags)


_KIND_BASE = 'requestLine = 1*ALPHA:method SP "X"\nstatusLine = "X" SP 3DIGIT:code:uint16\n'


@pytest.mark.parametrize("decls, operand", [
    ('header H = P:s:struct\nP = 1*DIGIT:a\nrequest { H.s == 1; }\n', "'H.s' is a struct"),
    ('header H = U:u:union { mandatory }\nU = 1*DIGIT:a / 1*ALPHA:b\n'
     'request { H.u == "x"; }\n', "'H.u' is a union"),
], ids=["struct", "union"])
def test_struct_or_union_constraint_operand_is_a_type_mismatch(tmp_path, capsys, decls, operand):
    ag = parse_zebu(_KIND_BASE + decls)
    errors = [d for d in verify_all(ag) if d.is_error]
    assert [(d.code, d.span) for d in errors] == [(Code.TYPE_MISMATCH, (5, 11))]
    assert operand in errors[0].message
    spec = tmp_path / "spec.zebu"
    spec.write_text(_KIND_BASE + decls)
    assert main(["check", str(spec)]) == 1
    assert "spec.zebu:5:11: error[TYPE_MISMATCH]" in capsys.readouterr().err


def test_unreachable_rule_is_warning_only():
    ag = parse_zebu(ENTRY_STUB + 'Orphan = "x"\n')
    diags = verify_all(ag)
    unreachable = [d for d in diags if d.code is Code.UNREACHABLE_RULE]
    assert len(unreachable) == 1
    assert not unreachable[0].is_error
    assert not has_errors(diags)


# A spec whose fifth line redefines a core rule: the new definition holds
# wherever the name resolves, inside the other core rules too
_CORE_BASE = ('requestLine = "GO" WSP Word\nstatusLine = "NO"\nheader H = 1*DIGIT\n'
              'Word = 1*ALPHA\n')


@pytest.mark.parametrize("redefinition, message", [
    ("SP = WSP", "rule cycle: SP -> WSP -> SP"),
    ("LF = CRLF", "rule cycle: LF -> CRLF -> LF"),
])
def test_a_cycle_through_a_core_rule_is_reported_where_the_spec_closes_it(redefinition, message):
    ag = parse_zebu(_CORE_BASE + redefinition + "\n")
    cycles = [d for d in verify_all(ag) if d.code is Code.RULE_CYCLE]
    assert [(d.message, d.span) for d in cycles] == [(message, (5, 1))]
    path = cycles[0].cycle_path
    for src, dst in zip(path, path[1:]):
        assert dst.lower() in repr(abnf.resolve(src, ag.base).body).lower()


def test_a_redefined_core_rule_reached_through_core_rules_is_reachable():
    ag = parse_zebu(_CORE_BASE + "HTAB = %x09 / %x0B\nVCHAR = %x21-7E\n")
    diags = verify_all(ag)
    assert [(d.code, d.message, d.span) for d in diags] == [(
        Code.UNREACHABLE_RULE, "rule 'VCHAR' is never referenced from any entry point", (6, 1))]


@pytest.mark.parametrize("command", ["check", "compile"])
def test_a_cycle_through_a_core_rule_stops_check_and_compile(tmp_path, capsys, command):
    spec = tmp_path / "spec.zebu"
    spec.write_text(_CORE_BASE + "SP = WSP\n")
    args = [command, str(spec)] + (["-o", str(tmp_path / "out.zbc")] if command == "compile" else [])
    assert main(args) == 1
    captured = capsys.readouterr()
    assert "spec.zebu:5:1: error[RULE_CYCLE]: rule cycle: SP -> WSP -> SP" in captured.err
    assert "inlining depth exceeded" not in captured.out + captured.err


def test_bundled_grammars_verify_clean(sip_ag, rtsp_ag):
    assert verify_all(sip_ag) == []
    assert verify_all(rtsp_ag) == []


def test_diagnostic_rendering():
    ag = parse_zebu(ENTRY_STUB + "A = B\n")
    diag = check_no_omission(ag)[0]
    text = format_diagnostic(diag, "spec.zebu")
    assert text.startswith("spec.zebu:3:")
    assert "error[UNDEFINED_RULE]" in text
