from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from conftest import CORPUS, REPO, sip_request
from zebu import artifact
from zebu.cli import main
from zebu.engine import compile_grammar, validate
from zebu.frontend import parse_zebu
from zebu.mutate import make_mutant
from zebu.pattern import interpreter_reason
from zebu.refcheck import reference_validate

SIP_SPEC = REPO / "src" / "zebu" / "grammars" / "sip-subset.zebu"
RTSP_SPEC = REPO / "src" / "zebu" / "grammars" / "rtsp-subset.zebu"


@pytest.fixture()
def compiled_artifact(tmp_path):
    out = tmp_path / "sip.zbc"
    assert main(["compile", str(SIP_SPEC), "-o", str(out)]) == 0
    return out


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


# --- check -----------------------------------------------------------------

def test_check_bundled_grammars_pass():
    assert main(["check", str(SIP_SPEC)]) == 0
    assert main(["check", str(RTSP_SPEC)]) == 0


def test_check_reports_cycle(tmp_path, capsys):
    spec = write(tmp_path, "cyclic.zebu",
                 'requestLine = "GO"\nstatusLine = "NO"\nA = B\nB = A\n')
    assert main(["check", str(spec)]) == 1
    err = capsys.readouterr().err
    assert "RULE_CYCLE" in err
    assert str(spec) in err


def test_check_missing_file():
    assert main(["check", "/nonexistent/spec.zebu"]) == 2


def test_check_parse_error_has_position(tmp_path, capsys):
    spec = write(tmp_path, "broken.zebu", 'requestLine = "GO\n')
    assert main(["check", str(spec)]) == 1
    assert "error[SYNTAX]" in capsys.readouterr().err


# `²` (superscript two) and `٣` (Arabic-Indic three) pass `str.isdigit`,
# but the dialect's integers are ASCII digits only
NON_ASCII_DIGIT_SITES = {
    "count": ("Odd-Count = {}DIGIT\n", "expected an element, found '{}'"),
    "range": ("range CSeq-Num = 0 <= x < {}\n", "expected an integer"),
    "constraint": ("request {{ CSeq.number < {}; }}\n", "expected field reference"),
}


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"], ids=["superscript", "arabic-indic"])
@pytest.mark.parametrize("site", list(NON_ASCII_DIGIT_SITES))
def test_non_ascii_digit_is_a_syntax_error(tmp_path, capsys, site, digit):
    extra, message = (part.format(digit) for part in NON_ASCII_DIGIT_SITES[site])
    text = SIP_SPEC.read_text() + extra
    spec = tmp_path / "digit.zebu"
    spec.write_text(text, encoding="utf-8")
    assert main(["check", str(spec)]) == 1
    err = capsys.readouterr().err
    line, col = text.count("\n"), extra.index(digit) + 1
    assert err == f"{spec}:{line}:{col}: error[SYNTAX]: {message}\n"


TOY_COMMAND_LINES = ('protocol t\nrequestLine = 1*ALPHA:method SP "X"\n'
                     'statusLine = "X" SP 3DIGIT:code:uint16\n')


@pytest.mark.parametrize("text, line", [
    (TOY_COMMAND_LINES + "header H = Missing:m\n", "4:1"),
    (TOY_COMMAND_LINES.replace('SP "X"', "SP Missing", 1), "2:1"),
], ids=["header", "command-line"])
def test_undefined_rule_in_an_entry_body_is_reported_at_the_entry(tmp_path, capsys,
                                                                 text, line):
    spec = write(tmp_path, "undefined.zebu", text)
    assert main(["check", str(spec)]) == 1
    assert capsys.readouterr().err == (
        f"{spec}:{line}: error[UNDEFINED_RULE]: rule 'Missing' is referenced but never defined\n")


@pytest.mark.parametrize("base", ["toy", "sip"])
@pytest.mark.parametrize("name", ["requestLine", "statusLine"])
def test_header_named_like_a_command_line_is_rejected(tmp_path, capsys, base, name):
    # such a header would share its command line's subfield table
    text = TOY_COMMAND_LINES if base == "toy" else SIP_SPEC.read_text()
    spec = write(tmp_path, "clash.zebu", text + f"header {name} = 1*DIGIT\n")
    out = tmp_path / "clash.zbc"
    assert main(["check", str(spec)]) == 1
    assert main(["compile", str(spec), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count(f"error[SYNTAX]: header {name!r} takes a command line's name") == 2
    assert "UNRESOLVED_REF" not in err
    assert not out.exists()


# --- one subfield name in two alternation branches ---------------------------
#
# Each case declares a subfield at two sites, `{0} / {1}` in its header; both
# branch orders must give the same outcome, since every site is checked and
# every per-subfield fact is merged over all sites.

TWO_SITES = {
    "uint-shape": ('header H = {0} / {1}\nX = 1*DIGIT\nY = 1*DIGIT {{ uint32 }}\n',
                   'X:n:uint16 "x"', 'Y:n:uint16 "y"'),
    "uint-text": ('header H = {0} / {1}\nN = 1*DIGIT\nA = 1*ALPHA\n',
                  'N:n:uint16 "x"', 'A:n:uint16 "y"'),
    "enum": ('header H = {0} / {1}\nX = "p" / "q"\nY = "r"\n',
             'X:e:enum "a"', 'Y:e:enum "b"'),
    "ci": ('header H = {0} / {1}\nrequest {{ H.v == "B"; }}\n', '"a":v "x"', '%x62:v "y"'),
    "union": ('header H = {0} / {1}\nU1 = "p" 1*DIGIT:a / "q" 1*ALPHA:b\n'
              'U2 = "r" 1*DIGIT:c / "s" 1*ALPHA:d\n', 'U1:u:union "x"', 'U2:u:union "y"'),
    "repeated": ('header H = {0} / {1}\nX = 1*DIGIT:n\n', '*( X ";" )', '*( X "," )'),
}
both_orders = pytest.mark.parametrize("swapped", [False, True], ids=["in-order", "swapped"])


def two_sites(tmp_path, case, swapped):
    """The spec text of `case` with its branches in source order or swapped,
    and the path it is written to."""
    template, first, second = TWO_SITES[case]
    branches = (second, first) if swapped else (first, second)
    text = TOY_COMMAND_LINES + template.format(*branches)
    return text, write(tmp_path, f"{case}.zebu", text)


def column(text, site):
    """The 1-based column of the `:` that opens the annotation `site`."""
    at = text.index(site) + site.index(":")
    return at - text.rfind("\n", 0, at)


@both_orders
def test_every_site_is_checked_against_its_rule_shape(tmp_path, capsys, swapped):
    text, spec = two_sites(tmp_path, "uint-shape", swapped)
    assert main(["check", str(spec)]) == 1
    assert capsys.readouterr().err == (
        f"{spec}:4:{column(text, 'Y:n')}: error[TYPE_MISMATCH]: subfield H.n is uint16 "
        f"at its reference but uint32 at the rule definition\n")


@both_orders
def test_every_site_of_a_uint_is_checked_for_numeric_text(tmp_path, capsys, swapped):
    text, spec = two_sites(tmp_path, "uint-text", swapped)
    assert main(["check", str(spec)]) == 1
    assert capsys.readouterr().err == (
        f"{spec}:4:{column(text, 'A:n')}: error[TYPE_MISMATCH]: subfield H.n is uint16 "
        f"but its rule does not derive numeric text\n")


@both_orders
def test_every_site_of_an_enum_needs_an_alternation(tmp_path, capsys, swapped):
    text, spec = two_sites(tmp_path, "enum", swapped)
    out = tmp_path / "enum.zbc"
    assert main(["check", str(spec)]) == 1
    assert main(["compile", str(spec), "-o", str(out)]) == 1
    line = (f"{spec}:4:{column(text, 'Y:e')}: error[TYPE_MISMATCH]: subfield H.e is enum "
            f"but its rule has no alternation body\n")
    assert capsys.readouterr().err == line * 2
    assert not out.exists()


@both_orders
def test_a_field_with_a_case_sensitive_site_compares_exactly(tmp_path, swapped):
    text, _ = two_sites(tmp_path, "ci", swapped)
    ag = parse_zebu(text)
    assert not ag.subfields["H"]["v"].ci
    msg = b"GO X\r\nH: by\r\n\r\n"
    verdict = validate(compile_grammar(ag), msg)
    assert verdict.report() == 'REJECT CONSTRAINT block constraint failed: H.v == "B"\n'
    assert reference_validate(ag, msg) == (False, ['constraint failed: H.v == "B"'])


@both_orders
def test_union_children_merge_by_branch_index(tmp_path, capsys, swapped):
    _, spec = two_sites(tmp_path, "union", swapped)
    out, msg = tmp_path / "union.zbc", write(tmp_path, "m.msg", "GO X\r\nH: r12y\r\n\r\n")
    assert main(["compile", str(spec), "-o", str(out)]) == 0
    assert main(["parse", str(out), str(msg), "--field", "H.u.c", "--field", "H.u.b"]) == 0
    assert capsys.readouterr().out == "H.u.c = 12\nH.u.b = ABSENT\nACCEPT\nexec_counter 2\n"


@both_orders
def test_capture_warning_once_per_subfield(tmp_path, capsys, swapped):
    text, spec = two_sites(tmp_path, "repeated", swapped)
    assert main(["check", str(spec)]) == 0
    assert capsys.readouterr().err == (
        f"{spec}:5:{column(text, 'DIGIT:n')}: warning[TYPE_MISMATCH]: subfield H.n sits "
        f"under an unbounded repetition; captures report only the last iteration\n")


def test_capture_warning_names_a_nested_subfield_by_its_key(tmp_path, capsys):
    spec = write(tmp_path, "nested.zebu",
                 TOY_COMMAND_LINES + 'header H = *( P:a:struct "," )\nP = 1*DIGIT:b\n')
    assert main(["check", str(spec)]) == 0
    assert capsys.readouterr().err == "".join(
        f"{spec}:{at}: warning[TYPE_MISMATCH]: subfield {key} sits under an unbounded "
        f"repetition; captures report only the last iteration\n"
        for at, key in (("4:16", "H.a"), ("5:12", "H.a.b")))


# --- compile ----------------------------------------------------------------

def test_compile_is_deterministic(tmp_path):
    a = tmp_path / "a.zbc"
    b = tmp_path / "b.zbc"
    for spec in (SIP_SPEC, RTSP_SPEC):
        assert main(["compile", str(spec), "-o", str(a)]) == 0
        assert main(["compile", str(spec), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert artifact.serialize(artifact.load(a)) == a.read_bytes()
        doc = json.loads(a.read_bytes())
        assert set(doc) == {"formatVersion", "protocol", "source"}
        assert doc["source"] == spec.read_text()


def test_compile_failing_grammar_writes_nothing(tmp_path):
    spec = write(tmp_path, "bad.zebu",
                 'requestLine = "GO"\nstatusLine = "NO"\nA = Missing\n')
    out = tmp_path / "bad.zbc"
    assert main(["compile", str(spec), "-o", str(out)]) == 1
    assert not out.exists()


def test_compile_to_a_missing_directory_exits_3(tmp_path, capsys):
    out = tmp_path / "missing" / "x.zbc"
    assert main(["compile", str(SIP_SPEC), "-o", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_compile_warns_once_per_interpreter_pattern(tmp_path, capsys):
    spec = write(tmp_path, "ambiguous.zebu",
                 'requestLine = "GO"\nstatusLine = "NO"\nheader H = 1*( 1*"a" ) "b"\n'
                 'header J = "j"\n')
    assert main(["compile", str(spec), "-o", str(tmp_path / "a.zbc")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: header H: ambiguous repetition (?:")


def test_compile_warns_for_a_regex_re_cannot_compile(tmp_path, capsys):
    spec = write(tmp_path, "huge.zebu",
                 'requestLine = "GO"\nstatusLine = "NO"\nheader R = 4294967295"ab"\n'
                 'header H = "a" 1*( ";" 1*ALPHA ):p / "b" 1*( ";" 1*DIGIT ):p\n')
    assert main(["compile", str(spec), "-o", str(tmp_path / "a.zbc")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: header R: regex that re cannot compile (")
    assert err[0].endswith(") runs on the budgeted interpreter")


def test_compile_warns_once_for_a_lazy_subfield_matched_in_place(tmp_path, capsys):
    spec = write(tmp_path, "lazy.zebu",
                 'requestLine = "GO"\nstatusLine = "NO"\nheader H = ( "ab" ):x:lazy *"b"\n')
    assert main(["compile", str(spec), "-o", str(tmp_path / "a.zbc")]) == 0
    assert capsys.readouterr().err == (
        "warning: lazy subfield H.x matched in place: "
        "it may hold a byte that begins what follows\n")


def test_compile_bundled_grammars_warns_nothing(tmp_path, capsys):
    for spec in (SIP_SPEC, RTSP_SPEC):
        assert main(["compile", str(spec), "-o", str(tmp_path / "out.zbc")]) == 0
    assert capsys.readouterr().err == ""


_DEEP_SPECS = {
    # a chain of 200 plain references
    "chain": ('requestLine = "GO" SP A0\nstatusLine = "NO"\n'
              + "".join(f"A{i} = A{i + 1}\n" for i in range(200)) + 'A200 = "x"\n'),
    # 100 rules, each wrapping the next in 20 options
    "options": ('requestLine = "GO" SP A0\nstatusLine = "NO"\n'
                + "".join(f'A{i} = {"[ " * 20}"a" A{i + 1}{" ]" * 20}\n' for i in range(100))
                + 'A100 = "x"\n'),
    # a uint16 site over 600 nested options, too deep to enumerate
    "uint": ('protocol t\nrequestLine = "GO" SP N0:n:uint16\n'
             'statusLine = "X" SP 3DIGIT:code:uint16\n'
             + "".join(f"N{i} = [ N{i + 1} ]\n" for i in range(600)) + "N600 = DIGIT\n"),
}


@pytest.mark.parametrize("name, compiles", [("chain", True), ("options", False),
                                            ("uint", False)])
def test_deep_verified_spec_checks_as_it_compiles(tmp_path, capsys, name, compiles):
    # only Python's stack bounds how deeply rules nest: a verified spec
    # either compiles and runs, or check and compile both exit 2 saying it
    # nests too deeply
    spec = write(tmp_path, f"{name}.zebu", _DEEP_SPECS[name])
    out = tmp_path / "deep.zbc"
    assert main(["check", str(spec)]) == (0 if compiles else 2)
    assert main(["compile", str(spec), "-o", str(out)]) == (0 if compiles else 2)
    if compiles:
        msg = tmp_path / "go.msg"
        msg.write_bytes(b"GO x\r\n\r\n")
        assert main(["parse", str(out), str(msg)]) == 0
        assert main(["mutate", str(out), "--count", "5", "--seed", "1",
                     "--out", str(tmp_path / "m")]) == 0
    else:
        assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out.startswith("ACCEPT\nexec_counter 1\n") is compiles
    assert "Traceback" not in captured.err
    assert captured.err == ("" if compiles else "error: rules nested too deeply to compile\n" * 2)


_NESTED_OPTIONS = {
    # 30 rules, each wrapping the next in 20 options
    "deep": ('requestLine = "GO" SP A0\nstatusLine = "NO"\n'
             + "".join(f'A{i} = {"[ " * 20}A{i + 1}{" ]" * 20}\n' for i in range(30))
             + 'A30 = "x"\n'),
    "short": 'requestLine = "GO" SP A\nstatusLine = "NO"\nA = [ [ "a" ] ] [ *"b" ] "c"\n',
}


@pytest.mark.parametrize("name", sorted(_NESTED_OPTIONS))
def test_nested_options_compile_to_one_option_on_re(tmp_path, capsys, name):
    # `[ [ x ] ]` is `[ x ]`: no pattern is left too deep or too ambiguous
    # for `re`, so none runs on the budgeted interpreter
    spec = write(tmp_path, f"{name}.zebu", _NESTED_OPTIONS[name])
    out = tmp_path / "nested.zbc"
    assert main(["compile", str(spec), "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["mutate", str(out), "--count", "20", "--seed", "1",
                 "--out", str(tmp_path / "m")]) == 0
    assert "falseRejects 0 " in (tmp_path / "m" / "report.txt").read_text()


def test_artifact_round_trip_agrees_on_corpus(compiled_artifact, sip_ag, sip):
    loaded = artifact.load(compiled_artifact)
    assert artifact.serialize(loaded) == compiled_artifact.read_bytes()
    corpus = [p.read_bytes() for p in sorted(CORPUS.glob("*.msg"))]
    corpus.extend(make_mutant(sip_ag, i, "rt").data for i in range(25))
    for raw in corpus:
        assert validate(loaded, raw).accepted == validate(sip, raw).accepted


@pytest.mark.parametrize("spec", [SIP_SPEC, RTSP_SPEC], ids=["sip", "rtsp"])
def test_loaded_artifact_equals_a_fresh_compile(tmp_path, spec):
    # loading compiles the stored source again, so this compares everything
    # a verdict derives from that the round trip of the source could change
    out = tmp_path / "out.zbc"
    assert main(["compile", str(spec), "-o", str(out)]) == 0
    loaded, fresh = artifact.load(out), compile_grammar(parse_zebu(spec.read_text()))
    assert [w for w, _ in loaded.named_patterns()] == [w for w, _ in fresh.named_patterns()]
    for (where, mine), (_, theirs) in zip(loaded.named_patterns(), fresh.named_patterns()):
        assert (mine.root, mine.capture_index) == (theirs.root, theirs.capture_index), where
        assert interpreter_reason(mine) is interpreter_reason(theirs) is None, where
        (rx, *decision), (their_rx, *their_decision) = mine.backend, theirs.backend
        assert (rx.pattern, decision) == (their_rx.pattern, their_decision), where
    assert list(loaded.entries) == list(fresh.entries)
    for name, entry in fresh.entries.items():
        assert (loaded.entries[name].table, loaded.entries[name].decl) == (entry.table, entry.decl)
    assert loaded.ag.headers == fresh.ag.headers
    assert loaded.ag.base.definitions == fresh.ag.base.definitions
    assert loaded.ag.blocks == fresh.ag.blocks


# --- parse ------------------------------------------------------------------

def _drop_source(doc):
    del doc["source"]


def _int_source(doc):
    doc["source"] = 7


def _syntax_error(doc):
    doc["source"] += '\nBroken = "unterminated\n'


def _rule_cycle(doc):
    doc["source"] += "\nCycleA = CycleB\nCycleB = CycleA\n"


def _other_protocol(doc):
    doc["protocol"] = "rtsp2326"


def _format_v1(doc):
    doc["formatVersion"] = 1


def _non_ascii_count(doc):
    doc["source"] += "\nOdd-Count = \u00b2DIGIT\n"


def _non_ascii_range(doc):
    doc["source"] += "\nrange CSeq-Num = 0 <= x < \u0663\n"


def _non_ascii_constraint(doc):
    doc["source"] += "\nrequest { CSeq.number < \u00b2; }\n"


@pytest.mark.parametrize("damage, message", [
    (_drop_source, "keys"),
    (_int_source, "source is not a string"),
    (_syntax_error, "does not parse"),
    (_rule_cycle, "RULE_CYCLE"),
    (_other_protocol, "differs from its source's"),
    (_format_v1, "recompile"),
    (_non_ascii_count, "does not parse"),
    (_non_ascii_range, "does not parse"),
    (_non_ascii_constraint, "does not parse"),
], ids=["_drop_source", "_int_source", "_syntax_error", "_rule_cycle",
        "_other_protocol", "_format_v1", "_non_ascii_count", "_non_ascii_range",
        "_non_ascii_constraint"])
def test_malformed_artifact_exits_2(compiled_artifact, tmp_path, capsys, damage, message):
    doc = json.loads(compiled_artifact.read_bytes())
    damage(doc)
    bad = tmp_path / "bad.zbc"
    bad.write_text(json.dumps(doc))
    with pytest.raises(artifact.ArtifactError, match=message):
        artifact.load(bad)
    msg = tmp_path / "m.msg"
    msg.write_bytes(sip_request())
    assert main(["parse", str(bad), str(msg)]) == 2
    assert main(["bench", str(bad), str(CORPUS), "--headers", "From"]) == 2
    assert main(["mutate", str(bad), "--count", "1", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("error: ") == 3


def test_deeply_nested_source_is_a_syntax_error(tmp_path, capsys):
    text = 'requestLine = ' + "(" * 5000 + '"a"' + ")" * 5000 + '\nstatusLine = "NO"\n'
    spec = write(tmp_path, "deep.zebu", text)
    assert main(["check", str(spec)]) == 1
    bad = tmp_path / "deep.zbc"
    bad.write_text(json.dumps({"formatVersion": 2, "protocol": "zebu", "source": text}))
    msg = tmp_path / "m.msg"
    msg.write_bytes(b"a\r\n\r\n")
    assert main(["parse", str(bad), str(msg)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("nested too deeply") == 2


def test_serialize_without_source_raises(sip):
    with pytest.raises(artifact.ArtifactError):
        artifact.serialize(dataclasses.replace(sip, ag=dataclasses.replace(sip.ag, source=None)))


def test_missing_artifact_exits_2(tmp_path):
    msg = tmp_path / "m.msg"
    msg.write_bytes(sip_request())
    missing = str(tmp_path / "missing.zbc")
    assert main(["parse", missing, str(msg)]) == 2
    assert main(["bench", missing, str(CORPUS), "--headers", "From"]) == 2


def test_parse_prints_fields_and_verdict(compiled_artifact, tmp_path, capsys):
    msg = tmp_path / "invite.msg"
    msg.write_bytes(sip_request())
    code = main(["parse", str(compiled_artifact), str(msg),
                 "--field", "From.uri.host", "--field", "CSeq.number",
                 "--field", "From.uri.user"])
    out = capsys.readouterr().out
    assert code == 0
    assert "From.uri.host = example.com" in out
    assert "CSeq.number = 314159" in out
    assert "ACCEPT" in out
    assert "exec_counter" in out


def test_parse_tour_output_matches_readme(compiled_artifact, capsys):
    code = main(["parse", str(compiled_artifact), str(CORPUS / "invite1.msg"),
                 "--field", "From.uri.host", "--field", "CSeq.number"])
    out = capsys.readouterr().out
    assert code == 0
    # validate reuses the selectors' session: 1 command line, 7 headers, 3 lazy URIs
    expected = ["From.uri.host = example.com", "CSeq.number = 314159",
                "ACCEPT", "exec_counter 11"]
    assert out == "".join(line + "\n" for line in expected)
    readme = (REPO / "README.md").read_text()
    assert "".join(f"# {line}\n" for line in expected) in readme


def test_parse_rejects_mutant_with_reasons(compiled_artifact, tmp_path, capsys):
    msg = tmp_path / "bad.msg"
    msg.write_bytes(sip_request(cseq=b"2147483648"))
    code = main(["parse", str(compiled_artifact), str(msg)])
    out = capsys.readouterr().out
    assert code == 1
    assert "REJECT RANGE" in out


def test_parse_number_too_long_for_int_rejects(compiled_artifact, tmp_path, capsys):
    msg = tmp_path / "long.msg"
    msg.write_bytes(sip_request(cseq=b"9" * 5_000))
    code = main(["parse", str(compiled_artifact), str(msg), "--field", "CSeq.number"])
    captured = capsys.readouterr()
    assert code == 1
    assert "REJECT RANGE" in captured.out
    assert "Traceback" not in captured.err


def test_parse_optional_absent_prints_absent(compiled_artifact, tmp_path, capsys):
    msg = tmp_path / "m.msg"
    msg.write_bytes(sip_request().replace(b"<sip:alice@example.com>",
                                          b"<sip:example.com>"))
    code = main(["parse", str(compiled_artifact), str(msg),
                 "--field", "From.uri.user"])
    assert code == 0
    assert "From.uri.user = ABSENT" in capsys.readouterr().out


def test_parse_unknown_selector_exits_2(compiled_artifact, tmp_path):
    msg = tmp_path / "m.msg"
    msg.write_bytes(sip_request())
    assert main(["parse", str(compiled_artifact), str(msg),
                 "--field", "From.uri.bogus"]) == 2


def test_parse_duplicated_single_header_prints_absent_and_rejects(
        compiled_artifact, tmp_path, capsys):
    msg = tmp_path / "dup.msg"
    msg.write_bytes(sip_request(extra=(b"Max-Forwards: 69",)))
    code = main(["parse", str(compiled_artifact), str(msg), "--field", "Max-Forwards.hops"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines()[:2] == [
        "Max-Forwards.hops = ABSENT",
        "REJECT DUPLICATE_HEADER Max-Forwards header 'Max-Forwards' appears 2 times"]
    assert captured.err == ""


def test_parse_no_selectors_verdict_only(compiled_artifact, tmp_path, capsys):
    msg = tmp_path / "m.msg"
    msg.write_bytes(sip_request())
    assert main(["parse", str(compiled_artifact), str(msg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ACCEPT")


# --- mutate -------------------------------------------------------------------

def test_mutate_writes_corpus_manifest_report(compiled_artifact, tmp_path, capsys):
    out_dir = tmp_path / "mutants"
    code = main(["mutate", str(compiled_artifact), "--count", "40",
                 "--seed", "9", "--out", str(out_dir)])
    assert code == 0
    raws = sorted(out_dir.glob("*.raw"))
    assert len(raws) == 40
    manifest = (out_dir / "manifest.txt").read_text().splitlines()
    assert len(manifest) == 40
    assert manifest[0].startswith("000000 ")
    report = (out_dir / "report.txt").read_text()
    assert "missed 0" in report
    assert "falseRejects 0" in report
    assert "charset" in capsys.readouterr().out


def test_mutate_deterministic_corpora(compiled_artifact, tmp_path):
    dirs = []
    for name in ("m1", "m2"):
        out_dir = tmp_path / name
        assert main(["mutate", str(compiled_artifact), "--count", "30",
                     "--seed", "4", "--out", str(out_dir)]) == 0
        dirs.append(out_dir)
    a, b = dirs
    assert (a / "manifest.txt").read_bytes() == (b / "manifest.txt").read_bytes()
    assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()
    for raw in sorted(p.name for p in a.glob("*.raw")):
        assert (a / raw).read_bytes() == (b / raw).read_bytes()


def test_mutate_jobs_matches_single_process(compiled_artifact, tmp_path):
    single = tmp_path / "single"
    multi = tmp_path / "multi"
    assert main(["mutate", str(compiled_artifact), "--count", "24",
                 "--seed", "6", "--out", str(single)]) == 0
    assert main(["mutate", str(compiled_artifact), "--count", "24",
                 "--seed", "6", "--out", str(multi), "--jobs", "2"]) == 0
    assert (single / "manifest.txt").read_bytes() == (multi / "manifest.txt").read_bytes()
    assert (single / "report.txt").read_bytes() == (multi / "report.txt").read_bytes()


def test_mutate_accepts_spec_path(tmp_path):
    out_dir = tmp_path / "m"
    assert main(["mutate", str(SIP_SPEC), "--count", "10",
                 "--seed", "1", "--out", str(out_dir)]) == 0


def test_mutate_unusable_spec_exits_2(tmp_path, capsys):
    undecodable = tmp_path / "latin1.zebu"
    undecodable.write_bytes(b"\xff\xfe")
    cyclic = write(tmp_path, "cyclic.zebu",
                   'requestLine = "GO"\nstatusLine = "NO"\nA = B\nB = A\n')
    undefined = write(tmp_path, "bad.zebu",
                      'requestLine = "GO"\nstatusLine = "NO"\nA = Missing\n')
    for spec in (undecodable, cyclic, undefined):
        assert main(["mutate", str(spec), "--count", "1",
                     "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: cannot read {undecodable}: " in err
    # the spec's diagnostics, as `zebu check` prints them
    assert (f"{undefined}:3:1: error[UNDEFINED_RULE]: "
            "rule 'Missing' is referenced but never defined") in err.splitlines()


def test_mutate_torture_only_mix(compiled_artifact, tmp_path, capsys):
    out_dir = tmp_path / "t"
    code = main(["mutate", str(compiled_artifact), "--count", "15",
                 "--seed", "2", "--mix", "torture=1", "--out", str(out_dir)])
    assert code == 0
    report = (out_dir / "report.txt").read_text()
    lines = [ln for ln in report.splitlines() if ln.startswith(("charset", "repetition", "constraint"))]
    assert all(" 0 " in ln or ln.split()[1] == "0" for ln in lines)
    manifest = (out_dir / "manifest.txt").read_text()
    assert all(" torture " in ln for ln in manifest.splitlines())


@pytest.mark.parametrize("mix, weight", [
    ("charset=x", "x"),
    ("charset=-1", "-1"),
    ("charset=nan", "nan"),
    ("charset=inf,torture=1", "inf"),
    ("charset=-1,torture=1", "-1"),
])
def test_mutate_bad_mix_weight_exits_2(compiled_artifact, tmp_path, capsys, mix, weight):
    code = main(["mutate", str(compiled_artifact), "--count", "3",
                 "--seed", "1", "--mix", mix, "--out", str(tmp_path / "m")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"error: weight {weight!r} of mutation rule 'charset' "
                   "is not a finite number >= 0\n")
    assert not (tmp_path / "m").exists()


def test_mutate_out_below_a_regular_file_exits_2(compiled_artifact, tmp_path, capsys):
    out = write(tmp_path, "file", "") / "out"
    assert main(["mutate", str(compiled_artifact), "--count", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot create {out}: ")


def test_mutate_count_zero_is_usage_error(compiled_artifact, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["mutate", str(compiled_artifact), "--count", "0",
              "--seed", "1", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


# --- bench ----------------------------------------------------------------------

def test_bench_counter_table(compiled_artifact, capsys):
    code = main(["bench", str(compiled_artifact), str(CORPUS),
                 "--headers", "From", "--iters", "30"])
    out = capsys.readouterr().out
    assert code == 0
    lines = {ln.split()[0]: ln.split() for ln in out.splitlines()
             if ln.startswith(("invite", "bye"))}
    # exec counter: command line (1 run) + From parse where present
    assert lines["invite1.msg"][2] == "2"
    assert lines["invite2.msg"][2] == "2"
    assert lines["invite3.msg"][2] == "2"
    assert lines["bye.msg"][2] == "1"  # From absent: command-line match only
    assert all(row[3] == "0" for row in lines.values())  # lazy never forced
    assert "counter property" in out


def test_bench_empty_header_list(compiled_artifact, capsys):
    code = main(["bench", str(compiled_artifact), str(CORPUS),
                 "--headers", "", "--iters", "5"])
    out = capsys.readouterr().out
    assert code == 0
    for ln in out.splitlines():
        if ln.startswith(("invite", "bye")):
            assert int(ln.split()[2]) <= 2


def test_bench_unknown_header_exits_2(compiled_artifact, capsys):
    code = main(["bench", str(compiled_artifact), str(CORPUS),
                 "--headers", "From,Frm", "--iters", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: header 'Frm' is not declared in the grammar\n"
    assert captured.out == ""  # nothing was timed


def test_bench_missing_corpus_shape(compiled_artifact, tmp_path):
    assert main(["bench", str(compiled_artifact), str(tmp_path),
                 "--headers", "From"]) == 2
