from __future__ import annotations

import ast
import random
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPEATED_BRANCHES, sip_request, sip_response
from zebu import engine, pattern, refcheck
from zebu.abnf import Repetition
from zebu.engine import compile_grammar, index_message, unfolded_value, validate
from zebu.frontend import COMMAND_LINE, RangeBound, Shape, parse_zebu
from zebu.mutate import _Deriver, derive_valid, make_mutant, run_campaign
from zebu.pattern import match_spans
from zebu.refcheck import (
    _ANY,
    LABEL_TABLE_SIZE,
    ReferenceBudgetExceeded,
    _derive_env,
    _scan_structure,
    derive_env,
    reference_validate,
)


def test_agrees_with_engine_on_handcrafted_messages(sip_ag, sip):
    cases = [
        sip_request(),
        sip_response(),
        sip_request(cseq=b"2147483648"),
        sip_request(cseq_method=b"BYE"),
        sip_response(code=b"699"),
        sip_request(drop=("Via",)),
        sip_request(extra=(b"Call-ID: twice@x",)),
        sip_request().replace(b"CSeq: 314159 INVITE", b"CSeq: 314159\r\n\tINVITE"),
        sip_request().replace(b"INVITE sip:", b"INVITE rtsp:"),
        b"garbage\r\n\r\n",
        b"no crlf at all",
    ]
    for raw in cases:
        ok, notes = reference_validate(sip_ag, raw)
        assert ok == validate(sip, raw).accepted, (raw, notes)


def test_equal_ranges_on_two_branch_sites_agree_with_engine(sip_source):
    ag = parse_zebu(sip_source
                    + 'header H = N1:n:uint32 "x" / N2:n:uint32 "y"\n'
                    + "N1 = 1*DIGIT\nN2 = 1*DIGIT\n"
                    + "range N1 = 0 <= x < 10\nrange N2 = 0 <= x < 10\n")
    assert ag.subfields["H"]["n"].range == RangeBound(0, 10, True)
    grammar = compile_grammar(ag)
    for value, valid in ((b"5x", True), (b"50x", False), (b"50y", False)):
        raw = sip_request(extra=(b"H: " + value,))
        assert reference_validate(ag, raw)[0] is valid, value
        assert validate(grammar, raw).accepted is valid, value


@pytest.mark.parametrize("seed", range(20))
def test_agrees_with_engine_on_derived_and_mutated(sip_ag, sip, seed):
    mutant = make_mutant(sip_ag, seed, "agreement")
    ok, _ = reference_validate(sip_ag, mutant.data)
    assert ok == validate(sip, mutant.data).accepted
    assert ok == (mutant.ground_truth == "VALID")


def test_derive_env_returns_spans_and_branches(sip_ag):
    body = sip_ag.header("CSeq").body
    table = sip_ag.subfields["CSeq"]
    env = derive_env(body, sip_ag, b"42 BYE", table)
    assert env["number"][:2] == (0, 2)
    start, end, branch = env["method"]
    assert (start, end) == (3, 6)
    assert branch == 3  # BYE branch of the method alternation


def test_derive_env_none_on_mismatch(sip_ag):
    body = sip_ag.header("CSeq").body
    table = sip_ag.subfields["CSeq"]
    assert derive_env(body, sip_ag, b"x INVITE", table) is None


def test_derive_env_keeps_last_iteration_of_a_repeated_capture():
    ag = parse_zebu('requestLine = "GO"\nstatusLine = "NO"\n'
                    'header H = 1*( 1*DIGIT:d "," ):all\n')
    env = derive_env(ag.header("H").body, ag, b"1,22,", ag.subfields["H"])
    assert list(env.items()) == [("all.d", (2, 4, None)), ("all", (0, 5, None))]


def test_checks_lazy_regions_in_full(sip_ag):
    raw = sip_request().replace(b"<sip:alice@example.com>", b"<sip:###>")
    ok, notes = reference_validate(sip_ag, raw)
    assert not ok
    assert any("From" in n for n in notes)


def test_unfolds_before_matching(sip_ag):
    folded = sip_request().replace(
        b"Via: SIP/2.0/UDP", b"Via: SIP/2.0/UDP\r\n ").replace(
        b"UDP\r\n pc33", b"UDP\r\n pc33")
    ok, notes = reference_validate(sip_ag, folded)
    assert ok, notes


def test_rejects_structural_damage(sip_ag):
    assert not reference_validate(sip_ag, b"")[0]
    assert not reference_validate(sip_ag, b"INVITE a SIP/2.0\nX: y\r\n\r\n")[0]
    assert not reference_validate(sip_ag, sip_request()[:-2])[0]


@pytest.mark.parametrize("raw, ok, notes", [
    (b"", False, ["empty input"]),
    (b"GO X", False, ["final line lacks CRLF"]),
    (b"GO X\r\nA: b", False, ["final line lacks CRLF"]),
    (b"GO X\nA: b\r\n\r\n", False, ["bare LF"]),
    (b"GO X\r\nA: b\r", False, ["bare CR"]),
    (b"GO\rX\r\n\r\n", False, ["bare CR"]),
    (b"GO X\r\nA: b\r\n", False, ["no blank line before body"]),
    (b"\r\nbody", False, ["no command line"]),
    (b" GO X\r\n\r\n", False, ["continuation before command line"]),
    (b"GO X\r\n\tb\r\nA: c\r\n\r\n", False, ["continuation before any header"]),
    (b"GO X\r\nA b\r\n\r\n", False, ["header line without colon"]),
    (b"GO X\r\n: b\r\n\r\n", False, ["empty header key"]),
    # two faults in one head: the first in byte order wins
    (b"GO\rX\r\nA\nb\r\n\r\n", False, ["bare CR"]),
    (b"GO X\r\nA\nb\rc\r\n\r\n", False, ["bare LF"]),
    (b"GO X\r\n: b\r\nA b\r\n\r\n", False, ["empty header key"]),
    (b"GO X\r\nA b\r\n: b\r\n\r\n", False, ["header line without colon"]),
    # every line ending of the head is checked before any line's shape
    (b"GO X\r\nA b\r\nC: d\ne\r\n\r\n", False, ["bare LF"]),
    # bare CR and LF after the blank line are the body's, and are ignored
    (b"GO X\r\nA: b\r\n\r\nx\ry\nz\r", True, []),
    (b"GO X\r\nA \t:  b\r\n \t c\r\n\r\n", True, []),
])
def test_scan_structure_notes(raw, ok, notes):
    assert _scan_structure(raw)[2:] == (ok, notes)


def test_scan_structure_unfolds_header_values():
    command, headers, ok, notes = _scan_structure(
        b"GO X\r\nA \t:  b\r\n \t c\r\nD:e\r\n\r\nbody")
    assert (command, ok, notes) == (b"GO X", True, [])
    assert headers == [(b"A", b"b c"), (b"D", b"e")]


def test_message_kind_builtin_constraint():
    ag = parse_zebu(
        'protocol toy\nrequestLine = "GO" SP 1*DIGIT:n\nstatusLine = "NO"\n'
        'request { message.kind == "REQUEST"; }\n')
    ok, notes = reference_validate(ag, b"GO 1\r\n\r\n")
    assert ok, notes


# --- long runs and long numbers -------------------------------------------------

def test_long_single_byte_runs_get_a_verdict(sip_ag, sip):
    long_word = sip_request().replace(
        b"Call-ID: a84b4c76e66710@pc33.example.com", b"Call-ID: " + b"w" * 20_000)
    assert reference_validate(sip_ag, long_word) == (True, [])
    assert validate(sip, long_word).accepted

    digits = b"9" * 3_000
    assert reference_validate(sip_ag, sip_request(cseq=digits)) == (
        False, [f"CSeq.number: {digits.decode()} overflows uint32"])
    assert reference_validate(sip_ag, sip_request(cseq=b"0" * 3_000 + b"7")) == (True, [])


@pytest.mark.parametrize("digits", [
    b"004294967296", b"1" * 5_000, b"0" * 5_000 + b"4294967296",
], ids=["zero-padded", "5000-digits", "5000-zeros"])
def test_overflow_decided_on_any_number_of_digits(sip_ag, digits):
    ok, notes = reference_validate(sip_ag, sip_request(cseq=digits))
    assert not ok
    assert notes == [f"CSeq.number: {digits.lstrip(b'0').decode()} overflows uint32"]


# --- per-grammar memos ------------------------------------------------------------

def _labels_and_envs(ag, raw):
    """The label of `raw`, and every entry's env over every line of it."""
    command, headers, ok, _ = _scan_structure(raw)
    lines = [command] + [value for _, value in headers] if ok else []
    envs = []
    for entry, body in ag.entry_points():
        for line in lines:
            env = derive_env(body, ag, line, ag.subfields[entry])
            envs.append(None if env is None else list(env.items()))
    return reference_validate(ag, raw), envs


def test_memos_are_per_grammar(sip_source, rtsp_source, sip_ag, rtsp_ag):
    sip_mutants = [make_mutant(sip_ag, i, "memo").data for i in range(200)]
    rtsp_mutants = [make_mutant(rtsp_ag, i, "memo").data for i in range(200)]
    sip_shared, rtsp_shared = parse_zebu(sip_source), parse_zebu(rtsp_source)
    alternating = []
    for s, r in zip(sip_mutants, rtsp_mutants):
        alternating.append(_labels_and_envs(sip_shared, s))
        alternating.append(_labels_and_envs(rtsp_shared, r))
    fresh_sip, fresh_rtsp = parse_zebu(sip_source), parse_zebu(rtsp_source)
    assert alternating[0::2] == [_labels_and_envs(fresh_sip, s) for s in sip_mutants]
    assert alternating[1::2] == [_labels_and_envs(fresh_rtsp, r) for r in rtsp_mutants]


# --- label table ----------------------------------------------------------------------

def test_label_table_holds_at_most_256_entries(sip_source):
    ag = parse_zebu(sip_source)
    body, table = ag.header("CSeq").body, ag.subfields["CSeq"]
    labels = ag.memo("refcheck.labels")
    oldest = derive_env(body, ag, b"0 INVITE", table)
    for i in range(1, 1000):
        env = derive_env(body, ag, b"%d INVITE" % i, table)
        assert env["number"][:2] == (0, len(str(i)))
        assert len(labels) <= LABEL_TABLE_SIZE == 256
    assert len(labels) == 256
    assert derive_env(body, ag, b"999 INVITE", table) is env  # the newest stays
    again = derive_env(body, ag, b"0 INVITE", table)  # the oldest went
    assert again == oldest and again is not oldest


def test_label_table_hit_equals_fresh_derivation(sip_source, rtsp_source):
    for source in (sip_source, rtsp_source):
        shared = parse_zebu(source)
        empty = {}  # one body under two tables, and two bodies under one table
        for i in range(30):
            raw = make_mutant(shared, i, "labels").data
            reference_validate(shared, raw)
            fresh = parse_zebu(source)
            command, headers, ok, _ = _scan_structure(raw)
            for line in [command] + [value for _, value in headers] if ok else []:
                for (entry, body), (_, fresh_body) in zip(shared.entry_points(),
                                                          fresh.entry_points()):
                    for table, fresh_table in ((shared.subfields[entry],
                                                fresh.subfields[entry]), (empty, {})):
                        env = derive_env(body, shared, line, table)
                        assert derive_env(body, shared, line, table) is env
                        want = _derive_env(fresh_body, fresh, line, fresh_table)
                        assert (env is None) == (want is None), line
                        if env is not None:
                            assert list(env.items()) == list(want.items()), line


# --- byte-run shortcut --------------------------------------------------------------

_ATOMS = st.one_of(
    st.tuples(st.integers(0x2D, 0x7A), st.integers(0, 12)).map(
        lambda t: f"%x{t[0]:02X}-{min(t[0] + t[1], 0x7A):02X}"),
    st.integers(0x2D, 0x7A).map(lambda b: f"%x{b:02X}"),
    st.sampled_from("aqxzAQZ09-.;").map(lambda c: f'"{c}"'),
    st.sampled_from(("DIGIT", "ALPHA", "HEXDIG", "cls")),
)
_CLASSES = st.lists(_ATOMS, min_size=1, max_size=3).map(" / ".join)
_BOUNDS = st.tuples(st.integers(0, 3), st.none() | st.integers(0, 4)).map(
    lambda t: f"{t[0]}*" + ("" if t[1] is None else str(t[0] + t[1])))
_RUNS = st.lists(st.tuples(_BOUNDS, _CLASSES, st.booleans()), min_size=1, max_size=4)


def _run_grammar(runs, blocked: bool):
    """A header H of byte-class repetitions, some captured. `blocked` wraps
    each class in a capture `z<i>`, which keeps the byte-run shortcut off."""
    items = []
    for i, (bounds, cls, captured) in enumerate(runs):
        inner = f"( {cls} ):z{i}" if blocked else f"( {cls} )"
        item = f"{bounds}( {inner} )"
        items.append(f"( {item} ):r{i}" if captured else item)
    return parse_zebu('protocol t\nrequestLine = "GO"\nstatusLine = "NO"\n'
                      f'header H = {" ".join(items)}\ncls = "q" / %x30-32\n')


@settings(max_examples=200, deadline=None)
@given(_RUNS, st.lists(st.tuples(st.integers(0, 2**32), st.integers(0, 20), st.booleans()),
                       min_size=1, max_size=4))
def test_byte_run_shortcut_agrees_with_per_byte_derivation(runs, draws):
    fast, slow = _run_grammar(runs, False), _run_grammar(runs, True)
    body = fast.header("H").body
    for seed, cut, drop in draws:
        # a derivable value, or one with a byte dropped or doubled
        subject, _ = _Deriver(fast, random.Random(seed), size_budget=6).derive_value(body)
        if subject and cut < len(subject):
            subject = subject[:cut] + subject[cut + 1:] if drop else (
                subject[:cut] + subject[cut:cut + 1] + subject[cut:])
        got = derive_env(body, fast, subject, fast.subfields["H"])
        want = derive_env(slow.header("H").body, slow, subject, slow.subfields["H"])
        if want is not None:
            want = {k: v for k, v in want.items() if not k.split(".")[-1].startswith("z")}
            assert got is not None and list(got.items()) == list(want.items()), subject
        else:
            assert got is None, subject
    assert any(isinstance(elem, Repetition) and fact[0] is not None
               for elem, fact in fast.memo("refcheck").values())


# --- one oracle module ------------------------------------------------------------------

def _imports_from(module, *banned: str) -> set[str]:
    """The names `module` imports from the zebu modules in `banned`."""
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("zebu." if node.level else "") + (node.module or "")
            imported.add(base.rstrip("."))
            imported.update(f"{base}.{alias.name}".replace("..", ".") for alias in node.names)
    assert imported
    return {name for name in imported if name.split(".")[:2] in [["zebu", b] for b in banned]}


def test_imports_nothing_from_engine_or_pattern():
    assert not _imports_from(refcheck, "engine", "pattern")


@pytest.mark.parametrize("module", [engine, pattern], ids=["engine", "pattern"])
def test_matcher_imports_nothing_from_refcheck(module):
    assert not _imports_from(module, "refcheck")


def test_exponentially_ambiguous_header_exhausts_the_budget(monkeypatch):
    ag = parse_zebu('requestLine = "GO"\nstatusLine = "NO"\nheader H = 1*( 1*"a" ) "b"\n')
    monkeypatch.setattr(refcheck, "DEFAULT_BUDGET", 20_000)
    for n in (30, 5_000):  # 2**29 splits of the run; a run deeper than any Python stack
        with pytest.raises(ReferenceBudgetExceeded):
            derive_env(ag.header("H").body, ag, b"a" * n, ag.subfields["H"])
    assert derive_env(ag.header("H").body, ag, b"a" * 5_000 + b"b", ag.subfields["H"]) == {}


def test_budget_counts_one_step_per_element_visit(monkeypatch):
    ag = parse_zebu('requestLine = "GO"\nstatusLine = "NO"\nheader H = 1*( "ab" ) "c"\n')
    body, table = ag.header("H").body, ag.subfields["H"]
    for subject, visits, env in (
        # the sequence, the repetition, "ab" at 0 and 2, "c" at 4; "ab" is
        # not tried at 4, where "c" cannot begin it
        (b"ababc", 5, {}),
        # the sequence, the repetition, "ab" at 0, 2 and 4: "a" may begin
        # "ab", so it is tried at 4 and fails; no stop point is pushed,
        # because only "c" may follow the repetition
        (b"ababac", 5, None),
    ):
        monkeypatch.setattr(refcheck, "DEFAULT_BUDGET", visits)
        assert _derive_env(body, ag, subject, table) == env
        monkeypatch.setattr(refcheck, "DEFAULT_BUDGET", visits - 1)
        with pytest.raises(ReferenceBudgetExceeded):
            _derive_env(body, ag, subject, table)


# --- one byte of look-ahead -------------------------------------------------------------

_PLAIN_ATOMS = st.sampled_from(['"a"', '"ab"', '"b"', '";"', '"a;"', '"A"', "%x61-62", "%x3B"])


def _composites(inner, annotate: bool):
    """Sequences, alternations, options and repetitions of `inner`; with
    `annotate`, also captures (`@` marks a name) and enum and union
    alternations."""
    parts = st.lists(inner, min_size=2, max_size=3)
    out = [
        parts.map(lambda items: f"( {' '.join(items)} )"),
        parts.map(lambda items: f"( {' / '.join(items)} )"),
        inner.map(lambda item: f"[ {item} ]"),
        st.tuples(st.sampled_from(["*", "1*", "*1", "2*3"]), inner).map(
            lambda t: f"{t[0]}( {t[1]} )"),
    ]
    if annotate:
        out += [
            inner.map(lambda item: f"( {item} ):@"),
            st.tuples(parts, st.sampled_from(["enum", "union"])).map(
                lambda t: f"( {' / '.join(t[0])} ):@:{t[1]}"),
        ]
    return st.one_of(out)


# shared first bytes, nullable items, options, enum and union annotations,
# and the right-recursive rule R
_PLAIN = st.recursive(_PLAIN_ATOMS, lambda inner: _composites(inner, False), max_leaves=4)
_HEADER = st.recursive(st.one_of(_PLAIN_ATOMS, st.sampled_from(["R", "S"])),
                       lambda inner: _composites(inner, True), max_leaves=6)


def _look_spec(header: str, head: str, nullable: str) -> str:
    header = "".join(f"c{i}{part}" if i else part for i, part in enumerate(header.split("@")))
    return ('protocol t\nrequestLine = "GO"\nstatusLine = "NO"\n'
            f"header H = {header}\nR = {head} [ R ]\nS = *( {nullable} )\n")


def _label(ag, subject: bytes, budget: int, forced: bool = False):
    """H's env over `subject` as a list of items, None, or "BUDGET" when
    `budget` steps run out. `forced` learns every FIRST and follow fact of
    `ag` as "any byte, or the end", so no choice point is pruned."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refcheck, "DEFAULT_BUDGET", budget)
        if forced:
            mp.setattr(refcheck, "_first_of", lambda elem, rules: (_ANY, True))
            mp.setattr(refcheck, "_follow", lambda cont: _ANY)
        try:
            env = _derive_env(ag.header("H").body, ag, subject, ag.subfields["H"])
        except ReferenceBudgetExceeded:
            return "BUDGET"
    return None if env is None else list(env.items())


def _steps(ag, subject: bytes, cap: int) -> int:
    """The steps labelling `subject` takes: the least budget that does not
    run out, or cap + 1."""
    lo, hi = 0, 8
    while hi <= cap and _label(ag, subject, hi) == "BUDGET":
        lo, hi = hi + 1, 2 * hi
    hi = min(hi, cap + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if _label(ag, subject, mid) == "BUDGET":
            lo = mid + 1
        else:
            hi = mid
    return lo


# `--hypothesis-profile ci` runs 3 000 examples; CI does
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(_HEADER, _PLAIN, _PLAIN,
       st.lists(st.tuples(st.integers(0, 2**32), st.integers(0, 12), st.booleans()),
                min_size=1, max_size=3))
def test_look_ahead_prunes_only_choice_points_that_fail(header, head, nullable, draws):
    spec = _look_spec(header, head, nullable)
    fast, forced = parse_zebu(spec), parse_zebu(spec)
    cap = 2_000
    for seed, cut, drop in draws:
        # a derivable value, or one with a byte dropped or doubled
        subject, _ = _Deriver(fast, random.Random(seed), size_budget=3).derive_value(
            fast.header("H").body)
        if subject and cut < len(subject):
            subject = subject[:cut] + subject[cut + 1:] if drop else (
                subject[:cut] + subject[cut:cut + 1] + subject[cut:])
        want = _label(forced, subject, cap, forced=True)
        steps = _steps(fast, subject, cap)
        if want != "BUDGET":  # a label may only move from BUDGET to a real label
            assert steps <= cap and _label(fast, subject, cap) == want, (spec, subject)
        if 0 < steps <= cap:  # no more steps than with nothing pruned
            assert _label(forced, subject, steps - 1, forced=True) == "BUDGET", (spec, subject)


def _long_request(site: str, count: int) -> bytes:
    """A valid request whose Via or From carries `count` `;name=value`
    params of one to three bytes each, as perfbench's validate-long builds."""
    rng = random.Random(count)
    params = "".join(
        f";{''.join(rng.choices('abcxyz019', k=rng.randint(1, 3)))}"
        f"={''.join(rng.choices('abcxyz019', k=rng.randint(1, 3)))}" for _ in range(count))
    line = {"via": "Via: SIP/2.0/UDP pc33.example.com" + params,
            "from": "From: <sip:alice@atlanta.example.org>;tag=88a7s" + params}[site]
    return sip_request(drop=(site.title(),), extra=(line.encode("ascii"),))


@pytest.mark.parametrize("site", ["via", "from"])
def test_labelling_a_long_header_keeps_little_memory(sip_source, site):
    # a choice point is pushed only where the next byte may begin it, so the
    # stack no longer holds one stop point per param (9 MB for these 40 KB)
    ag = parse_zebu(sip_source)
    assert reference_validate(ag, sip_request()) == (True, [])  # learns the facts
    raw = _long_request(site, 10_000)
    assert len(raw) > 40_000
    tracemalloc.start()
    try:
        label = reference_validate(ag, raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert label == (True, [])
    assert peak < 1_000_000


def test_right_recursive_chain_labels_in_linear_time():
    # each frame carries the follow mask of the frame above it; a look-ahead
    # that walked the chain of optional tails would be quadratic here
    ag = parse_zebu('requestLine = "GO"\nstatusLine = "NO"\nheader H = R\nR = "a" [ R ]\n')
    body, table = ag.header("H").body, ag.subfields["H"]
    start = time.perf_counter()
    assert derive_env(body, ag, b"a" * 20_000, table) == {}
    assert derive_env(body, ag, b"a" * 20_000 + b"b", table) is None
    assert time.perf_counter() - start < 5  # about 0.1 s when linear


# --- capture differential -----------------------------------------------------------------

def _engine_env(entry, subject: bytes):
    """The engine's captures over one line as an env: the entry pattern's
    spans, each lazy pattern's offset by its hole, and the branch that the
    entry's readers give each enum or union subfield; None when the entry
    does not match."""
    spans = match_spans(entry.pattern, subject)
    if spans is None:
        return None
    env = {}
    values = entry.read(spans, subject, [])
    runs = [(entry.pattern, spans, 0)]
    for name, lazy in entry.pattern.lazy.items():
        start, end = spans[entry.pattern.capture_index[name] + 1]
        if start >= 0:
            sub = match_spans(lazy, subject[start:end])
            assert sub is not None, (entry.name, name, subject)
            runs.append((lazy, sub, start))
            values[name] = entry.lazy_fields[name][2](sub, subject[start:end], [])
    for pat, result, offset in runs:
        for key, cid in pat.capture_index.items():
            if result[cid + 1][0] >= 0 and "#" not in key:
                start, end = result[cid + 1]
                env[key] = (start + offset, end + offset, None)
    for key, (start, end, _) in env.items():
        sf = entry.table[key]
        if sf.shape in (Shape.ENUM, Shape.UNION):
            value = values[sf.path[0]]
            for name in sf.path[1:]:
                value = value.fields[name]
            env[key] = (start, end, value.branch)
    return env


@pytest.fixture(scope="module")
def repeated():
    return compile_grammar(parse_zebu(REPEATED_BRANCHES))


@pytest.mark.parametrize("grammar,count,seed", [("sip", 600, "captures"),
                                                ("rtsp", 600, "captures"),
                                                ("repeated", 600, "captures")])
def test_engine_captures_equal_the_oracle_env(request, grammar, count, seed):
    grammar = request.getfixturevalue(grammar)
    ag = grammar.ag
    accepted = []

    def target(raw):
        ok = validate(grammar, raw).accepted
        if ok:
            accepted.append(raw)
        return ok

    run_campaign(ag, target, count, seed)
    bodies = dict(ag.entry_points())
    lines = 0
    for raw in accepted:
        cmd_end, values, _ = index_message(raw, grammar.by_key)
        checks = [(grammar.entries[name], raw[:cmd_end]) for name in COMMAND_LINE.values()]
        for name, spans in values.items():
            checks.extend((grammar.entries[name], unfolded_value(raw, *span)) for span in spans)
        for entry, subject in checks:
            want = derive_env(bodies[entry.name], ag, subject, entry.table)
            got = _engine_env(entry, subject)
            assert got == want, (entry.name, subject)
            lines += want is not None
    assert lines > 300, lines
