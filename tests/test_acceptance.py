"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` (or `-rA`) to see the
per-criterion lines. Tolerances are exact unless stated otherwise.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from conftest import CORPUS, REPO, sip_request
from zebu.cli import main
from zebu.engine import (
    LazyPending,
    ParsedMessage,
    validate,
)
from zebu.frontend import parse_zebu
from zebu.mutate import _whitespace_only, derive_valid, parse_mix, run_campaign
from zebu.pattern import compile_pattern, match_spans
from zebu.refcheck import reference_match
from zebu.abnf import parse_abnf

SIP_SPEC = REPO / "src" / "zebu" / "grammars" / "sip-subset.zebu"
RTSP_SPEC = REPO / "src" / "zebu" / "grammars" / "rtsp-subset.zebu"

SEEDS = (101, 202, 303, 404, 505)


def _announce(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: PASS{suffix}")


def test_criterion_1_mutation_detection(tmp_path):
    """zebu mutate, bundled SIP artifact, n=2416, 5 fixed seeds: missed = 0."""
    art = tmp_path / "sip.zbc"
    assert main(["compile", str(SIP_SPEC), "-o", str(art)]) == 0
    timings = []
    for seed in SEEDS:
        out = tmp_path / f"campaign-{seed}"
        started = time.monotonic()
        code = main(["mutate", str(art), "--count", "2416",
                     "--seed", str(seed), "--out", str(out)])
        timings.append(time.monotonic() - started)
        assert code == 0, f"seed {seed} missed mutants or false-rejected"
        report = (out / "report.txt").read_text()
        assert "missed 0" in report
        invalid_emitted = sum(
            int(line.split()[1])
            for line in report.splitlines()
            if line.startswith(("charset", "repetition", "constraint")))
        torture = [int(line.split()[1]) for line in report.splitlines()
                   if line.startswith("torture")]
        assert invalid_emitted + torture[0] == 2416
        assert timings[-1] < 30.0, f"campaign took {timings[-1]:.1f}s"
    _announce(1, "mutation detection",
              f"5 campaigns x 2416 mutants, missed=0, "
              f"max {max(timings):.1f}s per campaign")


def test_criterion_2_torture_acceptance(sip_ag, sip):
    """Torture-only campaigns, n=1000, 5 seeds: falseRejects = 0."""
    mix = parse_mix("torture=1")
    for seed in SEEDS:
        report = run_campaign(sip_ag, lambda raw: validate(sip, raw).accepted,
                              n=1000, seed=seed, mix=mix)
        assert report.per_rule["torture"].emitted == 1000
        assert report.false_rejects == 0, f"seed {seed}"
    _announce(2, "torture acceptance", "5 x 1000 torture mutants, falseRejects=0")


FIG_EXTRACT = """\
SIP-Version = "SIP" "/" 1*DIGIT "." 1*DIGIT
Method = INVITEm / ACKm / OPTIONSm / BYEm / CANCELm / REGISTERm / extension-method
INVITEm = %x49.4E.56.49.54.45
ACKm = %x41.43.4B
OPTIONSm = %x4F.50.54.49.4F.4E.53
BYEm = %x42.59.45
CANCELm = %x43.41.4E.43.45.4C
REGISTERm = %x52.45.47.49.53.54.45.52
extension-method = token
token = 1*( ALPHA / DIGIT / "-" / "." / "!" / "%" / "*" / "_" / "+" / "`" / "'" / "~" )
CSeq = "CSeq" HCOLON 1*DIGIT LWS Method
LWS = [*WSP CRLF] 1*WSP
SWS = [LWS]
HCOLON = *( SP / HTAB ) ":" SWS
"""

ORACLE_CASES = {
    "CSeq": b"CSEQ01: ",
    "SIP-Version": b"SIP/.01s",
    "HCOLON": b": \t\r\na0;",
}


def test_criterion_3_oracle_equivalence():
    """match_spans vs reference_match: exhaustive agreement, length <= 6,
    8-symbol alphabets, zero disagreements, under two minutes."""
    grammar = parse_abnf(FIG_EXTRACT)
    started = time.monotonic()
    total = 0
    for rule_name, alphabet in ORACLE_CASES.items():
        assert len(set(alphabet)) >= 8
        rule = grammar.get(rule_name)
        pattern = compile_pattern(rule, grammar)
        for length in range(7):
            for combo in itertools.product(alphabet, repeat=length):
                subject = bytes(combo)
                got = match_spans(pattern, subject) is not None
                want = reference_match(rule, grammar, subject)
                assert got is want, (rule_name, subject)
                total += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"oracle sweep took {elapsed:.1f}s"
    _announce(3, "oracle equivalence",
              f"{total} subjects across 3 rules in {elapsed:.1f}s, 0 disagreements")


def test_criterion_4_constraint_fidelity(sip):
    """CSeq < 2^31 boundary, status code [100, 699) boundary, and the
    CSeq/request-line method equality. All exact."""
    def response(code):
        return (b"SIP/2.0 " + code + b" Reason\r\n"
                b"Via: SIP/2.0/UDP h.example.com;branch=z9\r\n"
                b"To: <sip:b@example.com>\r\nFrom: <sip:a@example.com>;tag=1\r\n"
                b"Call-ID: c@h\r\nCSeq: 1 INVITE\r\n\r\n")

    assert validate(sip, sip_request(cseq=b"2147483647")).accepted
    bad = validate(sip, sip_request(cseq=b"2147483648"))
    assert not bad.accepted
    assert {r.code.value for r in bad.reasons} == {"RANGE"}

    assert validate(sip, response(b"100")).accepted
    assert validate(sip, response(b"698")).accepted
    for code in (b"99", b"099", b"699"):
        assert not validate(sip, response(code)).accepted, code

    mismatch = validate(sip, sip_request(cseq_method=b"BYE"))
    assert not mismatch.accepted
    assert {r.code.value for r in mismatch.reasons} == {"CONSTRAINT"}
    _announce(4, "constraint fidelity",
              "2^31 CSeq bound, [100,699) status bound, method equality")


def test_criterion_5_two_level_lazy_counters(sip):
    """exec counter for a one-header request is position- and count-
    independent; unforced lazy fields never run a pattern."""
    shapes = {}
    for name in ("invite1.msg", "invite2.msg", "invite3.msg"):
        raw = (CORPUS / name).read_bytes()
        session = ParsedMessage(sip, raw)
        session.message_type()
        header = session.parse_header("From")
        assert header is not None and not header.failures
        assert isinstance(header.get_subfield("uri"), LazyPending)
        shapes[name] = (session.exec_counter, session.lazy_exec_counter)
    counts = {execs for execs, _ in shapes.values()}
    assert len(counts) == 1, shapes  # identical regardless of position AND count
    assert all(lazy == 0 for _, lazy in shapes.values())

    bye = ParsedMessage(sip, (CORPUS / "bye.msg").read_bytes())
    bye.message_type()
    assert bye.parse_header("From") is None
    assert bye.exec_counter == 1  # command-line match only
    _announce(5, "two-level & lazy counters",
              f"exec={counts.pop()} for 7/34-header shapes, lazy=0, bye=1")


def test_criterion_6_verifier_checks(tmp_path, capsys):
    """Three seeded bad grammars produce exactly their diagnostic and a
    nonzero exit; the bundled subsets pass cleanly."""
    seeded = {
        "undefined.zebu": (
            'requestLine = "GO" A\nstatusLine = "NO"\nA = Missing\n',
            "UNDEFINED_RULE"),
        "duplicate.zebu": (
            'requestLine = "GO" A\nstatusLine = "NO"\nA = "x"\nA = "y"\n',
            "DUPLICATE_RULE"),
        "cycle.zebu": (
            'requestLine = "GO" A\nstatusLine = "NO"\nA = B\nB = A\n',
            "RULE_CYCLE"),
    }
    for name, (text, code) in seeded.items():
        spec = tmp_path / name
        spec.write_text(text)
        exit_code = main(["check", str(spec)])
        err = capsys.readouterr().err
        diags = [line for line in err.splitlines() if str(spec) in line]
        assert exit_code == 1, name
        assert len(diags) == 1, (name, diags)
        assert code in diags[0]

    for spec in (SIP_SPEC, RTSP_SPEC):
        assert main(["check", str(spec)]) == 0
        assert capsys.readouterr().err == ""
    _announce(6, "verifier checks",
              "3 seeded defects each one diagnostic; bundles clean")


def test_criterion_7_folding_transparency(sip_ag, sip):
    """For 100 derived messages, folding every multi-token header value at
    a random linear-whitespace point leaves every subfield's TypedValue
    structurally identical."""
    rng = random.Random("fold-acceptance")
    checked = 0
    for seed in range(1000):  # bounded: fewer foldable messages fail, not hang
        if checked == 100:
            break
        tree = derive_valid(sip_ag, f"fold:{seed}")
        folded = bytearray(tree.message)
        edits = []
        for part in tree.parts:
            if part.kind != "header":
                continue
            points = [
                (part.value_offset + node.start, part.value_offset + node.end)
                for node in part.nodes
                if node.end > node.start
                and _whitespace_only(node.elem, sip_ag)
            ]
            if points:
                edits.append(rng.choice(points))
        if not edits:
            continue
        for start, end in sorted(edits, reverse=True):
            folded[start:end] = b"\r\n" + rng.choice((b" ", b"\t"))
        folded = bytes(folded)
        assert validate(sip, folded).accepted

        plain_msg = ParsedMessage(sip, tree.message)
        folded_msg = ParsedMessage(sip, folded)
        for part in tree.parts:
            if part.kind != "header":
                continue
            name = part.decl.name
            for index in range(plain_msg.header_count(name)):
                a = plain_msg.parse_header_nth(name, index)
                b = folded_msg.parse_header_nth(name, index)
                assert not a.failures and not b.failures
                for field in a.fields:
                    va, vb = a.fields[field], b.fields[field]
                    if isinstance(va, LazyPending):
                        va = plain_msg.force_lazy(va)
                        vb = folded_msg.force_lazy(vb)
                    assert va == vb, (name, field)
        checked += 1
    assert checked == 100, f"only {checked} of 1000 seeds give a foldable message"
    _announce(7, "folding transparency", "100 derived messages, all subfields equal")


def test_criterion_8_determinism(tmp_path):
    """compile twice -> byte-identical artifacts; mutate with a fixed seed
    twice -> byte-identical corpora."""
    arts = []
    for name in ("a.zbc", "b.zbc"):
        path = tmp_path / name
        assert main(["compile", str(SIP_SPEC), "-o", str(path)]) == 0
        arts.append(path.read_bytes())
    assert arts[0] == arts[1]

    corpora = []
    for name in ("m1", "m2"):
        out = tmp_path / name
        assert main(["mutate", str(tmp_path / "a.zbc"), "--count", "60",
                     "--seed", "12345", "--out", str(out)]) == 0
        listing = {p.name: p.read_bytes() for p in out.iterdir()}
        corpora.append(listing)
    assert corpora[0] == corpora[1]
    _announce(8, "determinism", "artifacts and mutant corpora byte-identical")
