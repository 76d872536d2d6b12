from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from zebu.abnf import Repetition, RuleRef, parse_abnf
from zebu.frontend import parse_zebu
from zebu.pattern import (
    MatchBudgetExceeded,
    PAlt,
    PBytes,
    PCap,
    PClass,
    PLit,
    Pattern,
    PRep,
    PSeq,
    compile_pattern,
    interpreter_reason,
    match_full,
    match_spans,
    regex_text,
)
from zebu.pattern import _Atomic, _flagged, _Planner
from zebu.refcheck import ReferenceBudgetExceeded, reference_match

FIG_RULES = """\
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


@pytest.fixture(scope="module")
def fig():
    return parse_abnf(FIG_RULES)


def compiled(fig, name):
    return compile_pattern(fig.get(name), fig)


def test_sip_version_accepts_and_rejects(fig):
    p = compiled(fig, "SIP-Version")
    assert match_full(p, b"SIP/2.0").matched
    assert match_full(p, b"sip/10.4").matched
    assert not match_full(p, b"SIP/.0").matched
    assert not match_full(p, b"SIP/2.").matched
    assert not match_full(p, b"SIP/2.0 ").matched


def test_char_codes_are_case_sensitive(fig):
    p = compiled(fig, "INVITEm")
    assert match_full(p, b"INVITE").matched
    assert not match_full(p, b"invite").matched


def test_digit_run_capture_span():
    g = parse_zebu("num = 1*DIGIT:value\n")
    p = compile_pattern(g.base.get("num"), g)
    res = match_full(p, b"4711")
    assert res.matched
    assert res.span(p, "value") == (0, 4)


def test_cseq_header_body_captures():
    g = parse_zebu(
        "header CSeq = 1*DIGIT:number:uint32 LWS Method:method\n"
        "Method = INVITEm / ACKm / BYEm { enum }\n"
        "INVITEm = %x49.4E.56.49.54.45\n"
        "ACKm = %x41.43.4B\n"
        "BYEm = %x42.59.45\n"
        "LWS = [*WSP CRLF] 1*WSP\n"
    )
    decl = g.header("CSeq")
    p = compile_pattern(decl.body, g, table=g.subfields["CSeq"])
    res = match_full(p, b"1 INVITE")
    assert res.matched
    assert res.span(p, "number") == (0, 1)
    assert res.span(p, "method#0") == (2, 8)  # INVITEm branch
    assert res.span(p, "method#1") is None
    assert not match_full(p, b"x INVITE").matched


def test_empty_repetition_matches_empty():
    g = parse_abnf("R = *DIGIT")
    p = compiled(g, "R")
    assert match_full(p, b"").matched


def test_alternation_prefers_source_order_for_captures():
    g = parse_zebu('pick = ( "ab" / "a" ):x "b"\n')
    p = compile_pattern(g.base.get("pick"), g)
    res = match_full(p, b"ab")
    # greedy first branch "ab" leaves no "b"; backtracking lands on "a"
    assert res.matched
    assert res.span(p, "x") == (0, 1)


def test_greedy_repetition_backtracks_to_match():
    g = parse_abnf('R = 1*DIGIT "1"')
    p = compiled(g, "R")
    assert match_full(p, b"111").matched
    assert not match_full(p, b"2").matched


def test_capture_under_repetition_reports_last_iteration():
    g = parse_zebu('R = 1*( DIGIT:d "," )\n')
    p = compile_pattern(g.base.get("R"), g)
    res = match_full(p, b"1,2,3,")
    assert res.span(p, "d") == (4, 5)


def test_match_budget_is_enforced():
    g = parse_abnf('R = 1*( 1*"a" ) "b"')
    p = compiled(g, "R")
    with pytest.raises(MatchBudgetExceeded):
        match_full(p, b"a" * 26, budget=2_000)


def test_single_byte_alternation_folds_to_class(fig):
    p = compiled(fig, "token")
    assert isinstance(p.root, PRep)
    assert isinstance(p.root.inner, PClass)


def test_adjacent_bytes_merge(fig):
    p = compiled(fig, "INVITEm")
    assert p.root == PBytes(b"INVITE")


def test_reference_match_examples(fig):
    assert reference_match(fig.get("SIP-Version"), fig, b"SIP/2.0")
    assert not reference_match(fig.get("SIP-Version"), fig, b"")
    digit = parse_abnf("R = 1*DIGIT")
    assert not reference_match(digit.get("R"), digit, b"")


@pytest.mark.parametrize(
    "subject,expected",
    [
        (b"CSeq:1 INVITE", True),
        (b"CSeq : 1 INVITE", True),
        (b"cseq:4711 ACK", True),
        (b"CSeq:x INVITE", False),
        (b"CSeq:1INVITE", False),
        (b"CSeq:1 invite", True),  # falls back to the extension-method branch
        (b"CSeq:1 ", False),
    ],
)
def test_cseq_full_rule_agreement(fig, subject, expected):
    p = compiled(fig, "CSeq")
    rule = fig.get("CSeq")
    assert match_full(p, subject).matched is expected
    assert reference_match(rule, fig, subject) is expected


def exhaustive_agreement(fig, rule_name, alphabet, max_len):
    rule = fig.get(rule_name)
    p = compile_pattern(rule, fig)
    disagreements = []
    for length in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            subject = bytes(combo)
            got = match_full(p, subject).matched
            want = reference_match(rule, fig, subject)
            if got is not want:
                disagreements.append(subject)
    return disagreements


def test_exhaustive_agreement_small(fig):
    # Short-length smoke version; the acceptance suite runs length <= 6.
    assert exhaustive_agreement(fig, "SIP-Version", b"SIP/.01s", 4) == []
    assert exhaustive_agreement(fig, "HCOLON", b": \t\r\na0;x", 4) == []
    assert exhaustive_agreement(fig, "CSeq", b"CSEQ01: ", 4) == []


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 3),
    extra=st.integers(0, 3),
    k=st.integers(0, 8),
)
def test_repetition_exactness(n, extra, k):
    m = n + extra
    node = Repetition(n, m, RuleRef("DIGIT"))
    g = parse_abnf('Unused = "x"')
    p = compile_pattern(node, g)
    subject = b"7" * k
    assert match_full(p, subject).matched is (n <= k <= m)
    assert reference_match(node, g, subject) is (n <= k <= m)


_CASEABLE = "sip/2.0"


@settings(max_examples=80, deadline=None)
@given(st.lists(st.booleans(), min_size=len(_CASEABLE), max_size=len(_CASEABLE)))
def test_case_insensitivity_of_literal_positions(flips):
    g = parse_abnf('V = "SIP" "/" 1*DIGIT "." 1*DIGIT')
    p = compile_pattern(g.get("V"), g)
    subject = "".join(
        c.upper() if flip else c for c, flip in zip(_CASEABLE, flips)
    ).encode()
    assert match_full(p, subject).matched


def test_matched_false_means_no_captures():
    g = parse_zebu("R = 1*DIGIT:d \"!\"\n")
    p = compile_pattern(g.base.get("R"), g)
    res = match_full(p, b"123")
    assert not res.matched
    assert res.captures == {}


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(4)), st.binary(max_size=5))
def test_matched_is_independent_of_branch_order(order, subject):
    branches = ['"ab"', '"a"', "2DIGIT", '%x41']
    def grammar_for(perm):
        alts = " / ".join(branches[i] for i in perm)
        return parse_abnf(f"R = 1*( {alts} )")
    base = grammar_for(range(4))
    shuffled = grammar_for(order)
    got = match_full(compile_pattern(base.get("R"), base), subject).matched
    other = match_full(compile_pattern(shuffled.get("R"), shuffled), subject).matched
    assert got == other


def test_inlining_depth_guard():
    from zebu.pattern import InliningDepthExceeded
    lines = [f"A{i} = A{i + 1}" for i in range(200)] + ['A200 = "x"']
    g = parse_abnf("\n".join(lines))
    with pytest.raises(InliningDepthExceeded):
        compile_pattern(g.get("A0"), g)


def test_reference_budget_enforced():
    g = parse_abnf('R = 1*( 1*"a" ) "b"')
    with pytest.raises(ReferenceBudgetExceeded):
        reference_match(g.get("R"), g, b"a" * 40, budget=50)


# --- regex backend --------------------------------------------------------------

def backend_of(p: Pattern) -> str:
    regex = p.backend[0] is not None
    assert regex is (interpreter_reason(p) is None)
    return "regex" if regex else "interpreter"


def flagged_repetition(root):
    """The repetition the ambiguity guard flags in `root`, or None."""
    planner = _Planner()
    return _flagged(planner.plan(root), planner.facts)


@pytest.mark.parametrize("rule,subject", [
    ('1*( 1*"a" ) "b"', b"a" * 26 + b"!"),
    ('*( "a" / "aa" )', b"a" * 26 + b"!"),
    ('*( *"a" )', b"a" * 26 + b"!"),
    # ";1;1" is one iteration or two
    ('1*( ";" DIGIT / ";" DIGIT ";" DIGIT ) "x"', b";1" * 40),
    # "aa" is one iteration or two
    ('1*( "a" [ "a" ] ) "b"', b"a" * 40),
    # polynomial: the split between the two loops can fall anywhere
    ('*( "ab" ) *( "ab" / "c" ) "x"', b"ab" * 60),
    # bounded, but a run of 65 splits in millions of ways
    ('2*4( 2*4( 2*4"a" ) )', b"a" * 65),
])
def test_ambiguous_repetition_stays_on_budgeted_interpreter(rule, subject):
    g = parse_abnf(f"R = {rule}")
    p = compile_pattern(g.get("R"), g)
    assert flagged_repetition(p.root) is not None
    assert backend_of(p) == "interpreter"
    assert interpreter_reason(p).startswith("ambiguous repetition (?")
    with pytest.raises(MatchBudgetExceeded):
        match_full(p, subject, budget=2_000)


def test_optional_nullable_inner_stays_on_interpreter():
    # the interpreter skips the empty iteration of [ ... ]; `re` would
    # record it, and the later capture would then take both bytes
    root = PSeq((PRep(0, 1, PCap(0, PAlt((PBytes(b""), PBytes(b"a"))))),
                 PCap(1, PRep(0, None, PBytes(b"a")))))
    assert flagged_repetition(root) is not None
    assert match_full(Pattern(root), b"aa").captures == {0: (0, 1), 1: (1, 2)}


def test_capture_id_in_two_branches_runs_on_regex():
    # same-named subfields in two alternation branches share one capture id;
    # it takes the span the interpreter sets last
    root = PAlt((PCap(0, PBytes(b"a")), PCap(0, PBytes(b"b"))))
    assert flagged_repetition(root) is None
    p = Pattern(root)
    assert backend_of(p) == "regex"
    assert match_full(p, b"b").captures == match_full(root, b"b").captures == {0: (0, 1)}
    # in a repetition both groups take part; the later iteration's span wins
    looped = Pattern(PRep(1, None, root))
    assert backend_of(looped) == "regex"
    for subject in (b"ab", b"ba", b"aab"):
        last = {0: (len(subject) - 1, len(subject))}
        assert match_full(looped, subject).captures == match_full(looped.root, subject).captures == last


def test_single_byte_repetition_uses_regex():
    g = parse_abnf('R = 1*"a"')
    p = compile_pattern(g.get("R"), g)
    assert backend_of(p) == "regex"
    assert match_full(p, b"aA" * 5000).matched


def test_oracle_rules_use_regex(fig):
    # criterion 3 compares these against reference_match
    for name in ("CSeq", "SIP-Version", "HCOLON"):
        assert backend_of(compiled(fig, name)) == "regex", name


_VIA_LIKE = '*( [" "] ";" [" "] 1*"a" [ [" "] "=" [" "] 1*"a" ] )'


@pytest.mark.parametrize("rule,body,good", [
    # the first loop never needs to hand a digit to the second: possessive
    ('*DIGIT *DIGIT "x"', b"1" * 200_000, b"x"),
    ('"<" *WSP *WSP ";"', b"<" + b" " * 200_000, b";"),
    # each iteration has one end that a following "a" or the end admits: atomic
    ('*( "a" *"b" *"b" ";" )', b"abbbb;" * 40_000, b""),
    ('*( ";" ( "u" / 1*ALPHA ) )', b";u" * 100_000, b""),
    # both branches end ";1" at the same byte, and the iteration keeps the first
    ('1*( ";" DIGIT / ";" 1*DIGIT ) "x"', b";1" * 100_000, b"x"),
    # a blank both extends an iteration and begins the next; the byte after it
    # tells them apart, and the tail never gives an iteration back
    (_VIA_LIKE, b"; a = a ;a=aa" * 20_000, b""),
])
def test_unambiguous_repetition_runs_in_linear_time(rule, body, good):
    g = parse_abnf(f"R = {rule}")
    p = compile_pattern(g.get("R"), g)
    assert backend_of(p) == "regex"
    start = time.perf_counter()
    assert not match_full(p, body + b"!").matched
    assert time.perf_counter() - start < 2  # milliseconds when linear
    assert match_full(p, body + good).matched


def planned_items(root) -> tuple:
    """The items of the planned tree's top sequence, inside captures."""
    node = _Planner().plan(root)
    while type(node) is PCap:
        node = node.inner
    return node.items if type(node) is PSeq else (node,)


@pytest.mark.parametrize("rule,cut,subjects", [
    # must cut: the lookahead skips the blanks and reads "=" or ";"
    (_VIA_LIKE, "possessive", [b"; a = a ;a; a=aa", b";a =a", b";a ;", b"; a ="]),
    (_VIA_LIKE + ' "!"', "atomic", [b"; a = a ;a!", b";a =a !", b";a;!"]),
    ('"x" ' + _VIA_LIKE, "possessive", [b"x;a=a;a", b"x", b"x;a=;a"]),
    # must not cut: ";a" is a whole iteration, and ";a;b" goes on from it
    # with ";", which may also begin the next one
    ('*( ";" "a" / ";" "a" ";" "b" )', None, [b";a;b", b";a;a;b", b";a;b;b"]),
    ('*( ";" "a" / ";" "a" ";" "b" ) "!"', None, [b";a;b!", b";a;a!"]),
    # blanks after "a" begin both " a" and what follows the repetition;
    # the byte after them tells the two apart
    ('*( ";" "a" [ " " "a" ] ) *" " ";"', "atomic", [b";a ;", b";a a;", b";a a ;", b";a  a;"]),
    # ... unless it is ";" in both
    ('*( ";" "a" [ " " ";" "b" ] ) *" " ";"', None, [b";a ;b ;", b";a ;", b";a ;b;"]),
    # "x" may be skipped and may be read after the iteration: a lookahead
    # that skips " " and "x" possessively cannot read it
    ('*( ";" "a" [ " " "b" ] ) [ " " / "x" ] "x" "!"', None, [b";ax!", b";a xx!", b";a bx!"]),
])
def test_exact_cuts(rule, cut, subjects):
    g = parse_abnf(f"R = {rule}")
    p = compile_pattern(g.get("R"), g)
    rep = next(item for item in planned_items(p.root) if type(item) in (PRep, _Atomic))
    if cut is None:
        assert type(rep) is PRep
    else:
        assert type(rep) is _Atomic and rep.possessive is (cut == "possessive")
    assert backend_of(p) == "regex"
    for subject in subjects:
        want = reference_match(g.get("R"), g, subject)
        assert match_full(p, subject).matched is want is match_full(p.root, subject).matched
        assert match_full(p, subject).captures == match_full(p.root, subject).captures


@pytest.mark.parametrize("grammar,entry", [
    ("sip", "header Via"), ("sip", "header From"), ("sip", "header To"),
    ("rtsp", "header Transport"), ("rtsp", "header User-Agent"),
])
def test_bundled_tails_are_possessive(request, grammar, entry):
    named = dict(request.getfixturevalue(grammar).named_patterns())
    tail = planned_items(named[entry].root)[-1]
    assert type(tail) is _Atomic and tail.possessive


@pytest.mark.parametrize("grammar,count", [("sip", 12), ("rtsp", 6)])
def test_bundled_patterns_use_regex(request, grammar, count):
    named = list(request.getfixturevalue(grammar).named_patterns())
    assert len(named) == count
    for name, p in named:
        assert flagged_repetition(p.root) is None, name
        assert backend_of(p) == "regex", name


def test_capture_kept_from_earlier_iteration():
    root = PRep(1, None, PAlt((PCap(0, PClass(frozenset(b"0123456789"))), PBytes(b","))))
    # atomic, not possessive: some CPython releases misplace a group that a
    # possessive iteration set and a later one entered and failed
    (tail,) = planned_items(root)
    assert type(tail) is _Atomic and not tail.possessive
    for p in (Pattern(root), root):
        assert match_full(p, b"1,2,,").captures == {0: (2, 3)}


@pytest.mark.parametrize("grammar,seed", [("sip", "diff:101"), ("rtsp", "diff:7")])
def test_backends_agree_on_campaign_mutants(request, monkeypatch, grammar, seed):
    from zebu import engine
    from zebu.mutate import make_mutant

    ag, cg = request.getfixturevalue(f"{grammar}_ag"), request.getfixturevalue(grammar)
    runs = []

    def both(p, subject, budget):
        got = match_spans(p, subject, budget)
        assert got == match_spans(p.root, subject, budget), subject
        runs.append(p)
        return got

    monkeypatch.setattr(engine, "match_full", both)
    for i in range(300):
        engine.validate(cg, make_mutant(ag, i, seed).data)
    assert len(runs) > 1000
    assert all(p.backend[0] is not None for p in runs)


_SUBJECT_BYTES = b"aAbB- ;="


@st.composite
def guardable_trees(draw, depth=3, cids=None):
    """Small pattern trees over an eight-byte alphabet. Cids are distinct,
    except that one cid may wrap every branch of an alternation, as
    same-named subfields in two branches do."""
    cids = [0] if cids is None else cids
    kinds = ["class", "bytes", "lit"]
    if depth:
        kinds += ["seq", "alt", "rep", "cap", "enum", "shared"] * 2
    kind = draw(st.sampled_from(kinds))
    sub = guardable_trees(depth - 1, cids)
    if kind == "class":
        return PClass(frozenset(draw(st.sets(st.sampled_from(b"aAb- ;="), max_size=3))))
    if kind == "bytes":
        return PBytes(draw(st.text("abA ;=", max_size=2)).encode())
    if kind == "lit":
        return PLit(draw(st.text("ab- ;=", max_size=2)).encode())
    if kind == "seq":
        return PSeq(tuple(draw(st.lists(sub, max_size=3))))
    if kind == "alt":
        return PAlt(tuple(draw(st.lists(sub, min_size=1, max_size=3))))
    if kind == "rep":
        lo = draw(st.integers(0, 2))
        return PRep(lo, draw(st.one_of(st.none(), st.integers(lo, lo + 2))), draw(sub))
    cid = cids[0]
    cids[0] += 1
    if kind == "cap":
        return PCap(cid, draw(sub))
    if kind == "shared":
        return PAlt(tuple(PCap(cid, branch)
                          for branch in draw(st.lists(sub, min_size=1, max_size=3))))
    branches = []  # an enum subfield: key, then key#0, key#1, ... per branch
    for branch in draw(st.lists(sub, min_size=1, max_size=3)):
        branches.append(PCap(cids[0], branch))
        cids[0] += 1
    return PCap(cid, PAlt(tuple(branches)))


@st.composite
def tail_trees(draw):
    """A head, then a repetition of separated parameters, like SIP's
    `*( SEMI generic-param )`, with captures inside and after it."""
    cids = [0]
    blanks = st.sampled_from([PRep(0, 1, PBytes(b" ")), PRep(0, None, PBytes(b" "))])

    def param(sep):
        items = []
        if draw(st.integers(0, 3)):
            items.append(draw(blanks))
        items.append(PBytes(sep))
        if draw(st.booleans()):
            items.append(draw(blanks))
        items.append(draw(st.one_of(st.just(PRep(1, None, PClass(frozenset(b"ab")))),
                                    guardable_trees(1, cids))))
        return items

    items = param(b";")
    if draw(st.booleans()):
        items.append(PRep(0, 1, PSeq(tuple(param(draw(st.sampled_from([b"=", b";"])))))))
    inner = PSeq(tuple(items))
    if draw(st.booleans()):
        cids[0] += 1
        inner = PCap(cids[0] - 1, inner)
    tail = PRep(draw(st.integers(0, 2)), draw(st.sampled_from([None, 3])), inner)
    after = draw(st.lists(guardable_trees(1, cids), max_size=1))
    return PSeq((draw(guardable_trees(1, cids)), tail, *after))


def words_of(node):
    """Words that `node` matches."""
    t = type(node)
    if t is PClass:
        return st.sampled_from(sorted(node.members)).map(lambda b: bytes([b])) if node.members else st.nothing()
    if t is PBytes:
        return st.just(node.data)
    if t is PLit:
        return st.tuples(*(st.sampled_from([b, ord(chr(b).upper())]) for b in node.data)).map(bytes)
    if t is PSeq:
        return st.tuples(*map(words_of, node.items)).map(b"".join)
    if t is PAlt:
        return st.one_of(*map(words_of, node.branches))
    if t is PRep:
        hi = node.min + 3 if node.max is None else node.max
        return st.integers(node.min, hi).flatmap(
            lambda k: st.tuples(*[words_of(node.inner)] * k).map(b"".join))
    return words_of(node.inner)


_RANDOM_SUBJECTS = st.binary(max_size=10).map(lambda b: bytes(_SUBJECT_BYTES[x % 8] for x in b))


@settings(max_examples=max(300, settings.default.max_examples), deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(st.one_of(guardable_trees(), tail_trees()), st.data())
def test_regex_backend_agrees_with_interpreter(root, data):
    assume(flagged_repetition(root) is None)
    words = words_of(root)
    subjects = data.draw(st.lists(st.one_of(
        _RANDOM_SUBJECTS, words, st.tuples(words, _RANDOM_SUBJECTS).map(b"".join)),
        min_size=1, max_size=6))
    p = Pattern(root)
    for subject in subjects:
        want = match_full(root, subject)
        got = match_full(p, subject)
        assert (got.matched, got.captures) == (want.matched, want.captures), (
            regex_text(root, []), subject)
    assert p.backend[0] is not None
