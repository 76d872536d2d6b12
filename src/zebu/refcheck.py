"""The testing oracles, independent of the parse engine: reference
validation of whole messages, and `reference_match`.

The mutation harness labels every mutant by re-checking it here before
emission, so detection rates measured against the engine are a real claim
rather than a tautology. This module re-implements the message structure
rules and constraint semantics directly over the grammar AST, with no
pattern compilation, no inlining, and no lazy holes, so lazy regions are
checked in full. It imports nothing from `engine` or `pattern` and shares
no matching or evaluation code with them.

`derive_env` finds the first derivation under the compiled matcher's
contract (source-order branches, greedy repetition, full backtracking) in
one loop over a stack of choice points `(elem, pos, env, prefix, cont)`:
a parsing machine for PEGs (Medeiros & Ierusalimschy, DLS 2008) without
committed choice. `cont` links frames: the rest of a sequence, the end of
an annotation, an iteration of a repetition. An element with several
outcomes pushes them in reverse, so they are tried in order: branches in
source order, another iteration before stopping (an empty one counts only
while fewer than the minimum are done), the longest byte run first. A
failure pops the latest choice point. Each element visit costs one step of
`DEFAULT_BUDGET`, and no Python frame is held per iteration, so a subject
of any length gets a label or `ReferenceBudgetExceeded`.

A choice point is pushed only if the next byte (or the end of the subject)
could begin it, one byte of look-ahead in the manner of FIRST/FOLLOW
filtering (Redziejowski, Fundamenta Informaticae 93, 2009): a branch, an
enum or union branch, or another iteration only if its FIRST set holds the
byte or it can derive the empty string; a repetition's stop point and each
end of a byte run only if the continuation may begin with the byte, or may
be empty at the end of the subject. Every pruned choice point would have
failed, and it costs no step. The survivors are tried in the same order,
so the env is the same and the visits are a subsequence of those without
look-ahead; the stack holds only choice points that may succeed. FIRST
sets and nullability are learnt once per grammar (the least fixed point
over rule references). FOLLOW stays bounded: each frame carries the
follow mask of the frame above it, taken when the frame is built, so a
frame's own follow mask is read from that frame alone, and a chain of
optional tails (`R = "a" [ R ]`) costs no walk.

The env is a linked chain of `(parent, key, value)` links, one per
annotation; only the first full derivation becomes a dict, later links
overriding earlier ones. A repetition whose inner always matches exactly
one byte from a fixed set (byte ranges, one-byte codes, one-character
literals and alternations of them, through rule references, with no
annotation) scans its run at once and pushes each end that the
continuation may begin at. Rule bodies, lowercased literals, the look-ahead
masks of branches and sequence suffixes, byte-run sets, each entry's uint
subfields and the header key map are learnt once per grammar
(`AnnotatedGrammar.memo`). A label table per grammar maps (entry body,
subfield table, subject) to the env, or None, for the latest
`LABEL_TABLE_SIZE` (256) derivations: a mutant shares every unchanged line
with the base message labelled just before it. `reference_validate`
fetches the label table and the uint subfields of every entry once per
message.

The line scan splits the head, up to the first blank line, at its CRLFs
once, and makes one `(key, value)` pair per header line. Only input with a
line-ending fault (a CR or LF outside a CRLF, or no blank line after a
command line) is walked line by line, to name its first fault.

`reference_match`, the oracle of `pattern.match_spans`, decides
derivability alone from memoised end-position sets, with its own budget.

Both oracles resolve a rule reference with `abnf.resolve`, not through
`frontend.rule_graph`, the table that every other walker reads. That
lookup does not depend on the graph, so a rule the graph resolves wrongly
still shows here as a disagreement. It is also the cheaper one where it
runs most: `reference_match` on a plain `Grammar` wraps a fresh
`AnnotatedGrammar` on every call, and building that grammar's graph would
cost more than the match. Only the FIRST sets, which prune choice points,
are learnt over the graph's rules.
"""

from __future__ import annotations

import operator

from . import abnf, frontend
from .abnf import Alternation, CharCodes, CharRange, LiteralCI, Repetition, Rule, RuleRef, Sequence
from .errors import ZebuError
from .frontend import (
    COMMAND_LINE,
    And,
    Annotated,
    AnnotatedGrammar,
    Cmp,
    FieldRef,
    IntLit,
    MessageKind,
    Not,
    Or,
    Shape,
    StrLit,
)


class ReferenceBudgetExceeded(ZebuError):
    pass


DEFAULT_BUDGET = 4_000_000  # element visits per derive_env
DEFAULT_REFERENCE_BUDGET = 2_000_000  # (element, position) pairs per reference_match
LABEL_TABLE_SIZE = 256  # labels kept per grammar; the oldest goes first

# continuation frames of `_derive_env`, linked through `up`; `uf` is the
# follow mask of `up` (see `_follow`):
# (_SEQ, items, i, prefix, up, uf, suffixes)
#     items[i:] of a sequence come next; suffixes[i] is their (first, nullable)
# (_ANN, key, start, branch, up, uf)
#     an annotation begun at start ends here
# (_REP, rep, count, start, prefix, up, uf, inner)
#     iteration `count` of rep, begun at start; inner is rep.inner's (first, nullable)
_SEQ, _ANN, _REP = range(3)

# the shapes the oracle tells apart, read once: on CPython 3.11 reading an
# `Enum` member through its class costs several times a module global
_ENUM, _UNION, _RAW = Shape.ENUM, Shape.UNION, Shape.RAW
_BRANCHING = (_ENUM, _UNION)  # an annotation of these shapes pushes its branches

# look-ahead masks: bit b for byte b, bit _EOS for the end of the subject
_EOS = 256
_END = 1 << _EOS
_ANY = (_END << 1) - 1


def derive_env(body, ag: AnnotatedGrammar, subject: bytes, table):
    """First full derivation of `subject` from `body` under the
    disambiguation contract; returns the annotation environment (dotted
    path -> (start, end, branch or None)), or None when the subject is not
    derivable. The result is kept in the grammar's label table, so callers
    must not modify it."""
    return _label(ag.memo("refcheck.labels"), body, ag, subject, table)


def _label(labels: dict, body, ag: AnnotatedGrammar, subject: bytes, table):
    """`derive_env` through the grammar's label table `labels`, which
    `reference_validate` fetches once per message."""
    key = (id(body), id(table), subject)
    hit = labels.get(key)
    if hit is not None:
        return hit[2]
    env = _derive_env(body, ag, subject, table)
    if len(labels) >= LABEL_TABLE_SIZE:
        del labels[next(iter(labels))]
    # body and table are held so that no other object can take their ids
    labels[key] = (body, table, env)
    return env


def _derive_env(body, ag: AnnotatedGrammar, subject: bytes, table):
    n = len(subject)
    steps = DEFAULT_BUDGET
    facts = ag.memo("refcheck")
    stack = []  # choice points (elem, pos, env, prefix, cont); elem None resumes cont at pos
    elem, pos, env, prefix, cont = body, 0, None, (), None
    while True:
        matched = True
        if elem is not None:  # visit elem at pos; on a match, pos is its end
            steps -= 1
            if steps < 0:
                raise ReferenceBudgetExceeded("reference derivation budget exhausted")
            t = type(elem)
            if t is RuleRef:
                elem = (facts.get(id(elem)) or _learn(facts, elem, ag))[1]
                continue
            elif t is Repetition:
                members, inner = (facts.get(id(elem)) or _learn(facts, elem, ag))[1]
                if members is None:
                    # entered as if its zeroth iteration had just ended
                    cont = (_REP, elem, 0, -1, prefix, cont, _follow(cont), inner)
                else:
                    limit = n - pos if elem.max is None else min(elem.max, n - pos)
                    k = _run_length(subject, pos, limit, members)
                    follow = _follow(cont)
                    ends = range(pos + elem.min, pos + k + 1)
                    if not follow & inner[0]:
                        ends = ends[-1:]  # a shorter end is followed by a member byte
                    for end in ends:
                        if follow >> (subject[end] if end < n else _EOS) & 1:
                            stack.append((None, end, env, None, cont))
                    matched = False
            elif t is LiteralCI:
                lit = (facts.get(id(elem)) or _learn(facts, elem, ag))[1]
                end = pos + len(lit)
                matched = end <= n and subject[pos:end].lower() == lit
                pos = end
            elif t is Sequence:  # a parsed sequence has two or more items
                items = elem.items
                elem, cont = items[0], (_SEQ, items, 1, prefix, cont, _follow(cont),
                                        (facts.get(id(elem)) or _learn(facts, elem, ag))[1])
                continue
            elif t is Annotated:
                path = prefix + (elem.name,)
                key = ".".join(path)
                sf = table.get(key)
                if sf is not None and sf.shape in _BRANCHING:
                    c = subject[pos] if pos < n else _EOS
                    uf = _follow(cont)
                    stack.extend([(b, pos, env, path, (_ANN, key, pos, i, cont, uf))
                                  for i, b, starts in (facts.get(id(elem)) or _learn(facts, elem, ag))[1]
                                  if starts >> c & 1])
                    matched = False
                else:
                    elem, prefix, cont = elem.inner, path, (_ANN, key, pos, None, cont,
                                                            _follow(cont))
                    continue
            elif t is Alternation:
                c = subject[pos] if pos < n else _EOS
                for b, starts in (facts.get(id(elem)) or _learn(facts, elem, ag))[1]:
                    if starts >> c & 1:
                        stack.append((b, pos, env, prefix, cont))
                matched = False
            elif t is CharRange:
                matched = pos < n and elem.lo <= subject[pos] <= elem.hi
                pos += 1
            elif t is CharCodes:
                end = pos + len(elem.data)
                matched = subject[pos:end] == elem.data
                pos = end
            else:
                raise TypeError(f"not a grammar element: {elem!r}")
        while matched:  # resume cont at pos with env
            if cont is None:
                if pos == n:
                    return _materialise(env)
                matched = False
            elif cont[0] == _SEQ:
                _, items, i, prefix, up, uf, suffixes = cont
                if i < len(items):
                    elem, cont = items[i], (_SEQ, items, i + 1, prefix, up, uf, suffixes)
                    break
                cont = up
            elif cont[0] == _ANN:
                _, key, start, branch, up, _ = cont
                env, cont = (env, key, (start, pos, branch)), up
            else:  # _REP: iteration `count` of `rep`, begun at `start`, ended at pos
                _, rep, count, start, prefix, up, uf, inner = cont
                if pos != start or count <= rep.min:  # an empty iteration counts only up to min
                    c = subject[pos] if pos < n else _EOS
                    stop = count >= rep.min and uf >> c & 1
                    if (rep.max is None or count < rep.max) and (inner[1] or inner[0] >> c & 1):
                        if stop:
                            stack.append((None, pos, env, None, up))  # stopping here comes last
                        elem, cont = rep.inner, (_REP, rep, count + 1, pos, prefix, up, uf, inner)
                        break
                    if stop:
                        cont = up
                        continue
                matched = False
        if not matched:
            if not stack:
                return None
            elem, pos, env, prefix, cont = stack.pop()


def _materialise(env) -> dict:
    """The dict of a linked env `(parent, key, value)`; a later entry
    overrides an earlier one with the same key."""
    links = []
    while env is not None:
        links.append(env)
        env = env[0]
    out = {}
    for _, key, value in reversed(links):
        out[key] = value
    return out


def _learn(facts: dict, elem, ag: AnnotatedGrammar) -> tuple:
    """Record and return `(elem, fact)` for one element, once per grammar:
    a rule reference's body, a literal's lowercased bytes, an alternation's
    `(branch, starts)` pairs, an enum or union annotation's
    `(index, branch, starts)` triples (both last branch first, the order
    they are pushed in), a repetition's `(members, inner)`: its byte-run
    members (or None) and the `(first, nullable)` of its inner element."""
    if isinstance(elem, RuleRef):
        rule = abnf.resolve(elem.name, ag.base)
        if rule is None:
            raise ZebuError(f"undefined rule {elem.name!r} in reference validation")
        fact = rule.body
    elif isinstance(elem, LiteralCI):
        fact = elem.text.lower().encode("ascii")
    elif isinstance(elem, Sequence):
        fact = [(0, True)]  # (first, nullable) of items[i:], built from the last i
        for item in reversed(elem.items):
            first, nullable = _first(item, ag)
            rest, rest_nullable = fact[-1]
            fact.append((first | rest, rest_nullable) if nullable else (first, False))
        fact.reverse()
    elif isinstance(elem, Alternation):
        fact = tuple((b, _starts(b, ag)) for b in reversed(elem.branches))
    elif isinstance(elem, Annotated):
        alt = frontend.resolve_to_alternation(elem.inner, ag)
        branches = alt.branches if alt is not None else (elem.inner,)
        fact = tuple((i, b, _starts(b, ag)) for i, b in reversed(list(enumerate(branches))))
    else:
        members = _byte_set(elem.inner, ag, set())
        fact = (bytes(sorted(members)) if members is not None else None, _first(elem.inner, ag))
    hit = facts[id(elem)] = (elem, fact)
    return hit


# --- one byte of look-ahead ---------------------------------------------------------

def _first(elem, ag: AnnotatedGrammar) -> tuple[int, bool]:
    """`(first, nullable)`: the mask of the bytes a non-empty derivation of
    `elem` can begin with, and whether `elem` derives the empty string.
    Every rule's facts are learnt on first use; `_learn` keeps the results
    in the element records that need them."""
    rules = ag.memo("refcheck.rules")
    if not rules:
        _learn_rules(ag, rules)
    return _first_of(elem, rules)


def _starts(elem, ag: AnnotatedGrammar) -> int:
    """The mask of the codes (a byte, or `_EOS`) at which `elem` may begin:
    its FIRST set, or every code when it derives the empty string."""
    first, nullable = _first(elem, ag)
    return _ANY if nullable else first


def _learn_rules(ag: AnnotatedGrammar, rules: dict) -> None:
    """Fill `rules` with lowercased rule name -> `(first, nullable)` for
    every rule of the grammar's reference graph, the least fixed point
    over rule references."""
    graph = frontend.rule_graph(ag).rules
    rules.update((name, (0, False)) for name in graph)
    changed = True
    while changed:
        changed = False
        for name, node in graph.items():
            fact = _first_of(node.rule.body, rules)
            if fact != rules[name]:
                rules[name], changed = fact, True


def _first_of(elem, rules: dict) -> tuple[int, bool]:
    """`(first, nullable)` of `elem`, reading rule references from `rules`;
    an undefined rule may begin with anything and may be empty."""
    t = type(elem)
    if t is CharRange:
        return ((2 << elem.hi) - (1 << elem.lo)), False
    if t is CharCodes or t is LiteralCI:
        data = elem.data if t is CharCodes else elem.text.lower().encode("ascii")
        if not data:
            return 0, True
        b = data[0]
        return (1 << b | 1 << (b - 32) if t is LiteralCI and 0x61 <= b <= 0x7A else 1 << b), False
    if t is RuleRef:
        return rules.get(elem.name.lower(), (_ANY, True))
    if t is Annotated:
        return _first_of(elem.inner, rules)
    if t is Repetition:
        if elem.max == 0:
            return 0, True
        first, nullable = _first_of(elem.inner, rules)
        return first, nullable or elem.min == 0
    if t is Sequence:
        first = 0
        for item in elem.items:
            f, nullable = _first_of(item, rules)
            first |= f
            if not nullable:
                return first, False
        return first, True
    if t is Alternation:
        first, nullable = 0, False
        for branch in elem.branches:
            f, nul = _first_of(branch, rules)
            first, nullable = first | f, nullable or nul
        return first, nullable
    raise TypeError(f"not a grammar element: {elem!r}")


def _follow(cont) -> int:
    """The mask of the codes at which continuation `cont` may begin: the
    FIRST set of what it still has to derive, and the follow mask `uf` of
    the frame above it when all of that may be empty. One frame is read."""
    if cont is None:
        return _END
    kind = cont[0]
    if kind == _SEQ:
        first, nullable = cont[6][cont[2]]
        return first | cont[5] if nullable else first
    if kind == _ANN:
        return cont[5]
    _, rep, count, _, _, _, uf, (first, nullable) = cont  # another iteration, or stop
    follow = first if rep.max is None or count < rep.max else 0
    return follow | uf if count >= rep.min or nullable else follow


def _byte_set(elem, ag: AnnotatedGrammar, entered: set) -> set | None:
    """The bytes `elem` matches when it always matches exactly one byte and
    holds no annotation; None otherwise."""
    if isinstance(elem, CharRange):
        return set(range(elem.lo, elem.hi + 1))
    if isinstance(elem, CharCodes):
        return set(elem.data) if len(elem.data) == 1 else None
    if isinstance(elem, LiteralCI):
        text = elem.text
        return {ord(text.lower()), ord(text.upper())} if len(text) == 1 else None
    if isinstance(elem, RuleRef):
        low = elem.name.lower()
        rule = abnf.resolve(elem.name, ag.base)
        if rule is None or low in entered:
            return None
        return _byte_set(rule.body, ag, entered | {low})
    if isinstance(elem, Alternation):
        out = set()
        for branch in elem.branches:
            members = _byte_set(branch, ag, entered)
            if members is None:
                return None
            out |= members
        return out
    return None


def _run_length(subject: bytes, pos: int, limit: int, members: bytes) -> int:
    """Length of the run of `members` bytes at `pos`, at most `limit`.
    Scans in growing chunks so that a short run copies little."""
    k = 0
    step = 64
    while k < limit:
        chunk = subject[pos + k:pos + min(limit, k + step)]
        rest = len(chunk.lstrip(members))
        k += len(chunk) - rest
        if rest:
            break
        step *= 2
    return k


# --- set-based matcher -----------------------------------------------------------

def reference_match(entry, g, subject: bytes,
                    budget: int = DEFAULT_REFERENCE_BUDGET) -> bool:
    """Decide full derivability by direct recursive interpretation of the
    grammar AST: explicit end-position sets, exhaustive over repetition
    counts and alternation branches, no inlining, no captures.

    The testing oracle for `pattern.compile_pattern` + `match_spans`.
    Subfield annotations are transparent (lazy regions are fully checked).
    """
    ag = g if isinstance(g, AnnotatedGrammar) else AnnotatedGrammar(base=g)
    body = entry.body if isinstance(entry, Rule) else entry
    n = len(subject)
    facts = ag.memo("refcheck")
    memo: dict[tuple[int, int], tuple[int, ...]] = {}
    steps = budget

    def ends(elem, pos) -> tuple[int, ...]:
        nonlocal steps
        key = (id(elem), pos)
        hit = memo.get(key)
        if hit is not None:
            return hit
        steps -= 1
        if steps < 0:
            raise ReferenceBudgetExceeded("reference matcher budget exhausted")
        result = _ends(elem, pos)
        memo[key] = result
        return result

    def _ends(elem, pos) -> tuple[int, ...]:
        if isinstance(elem, LiteralCI):
            lit = (facts.get(id(elem)) or _learn(facts, elem, ag))[1]
            end = pos + len(lit)
            return (end,) if end <= n and subject[pos:end].lower() == lit else ()
        if isinstance(elem, CharCodes):
            end = pos + len(elem.data)
            return (end,) if subject[pos:end] == elem.data else ()
        if isinstance(elem, CharRange):
            if pos < n and elem.lo <= subject[pos] <= elem.hi:
                return (pos + 1,)
            return ()
        if isinstance(elem, Annotated):
            return ends(elem.inner, pos)
        if isinstance(elem, RuleRef):
            return ends((facts.get(id(elem)) or _learn(facts, elem, ag))[1], pos)
        if isinstance(elem, Sequence):
            positions = {pos}
            for item in elem.items:
                positions = {e for p in positions for e in ends(item, p)}
                if not positions:
                    return ()
            return tuple(sorted(positions))
        if isinstance(elem, Alternation):
            out = set()
            for branch in elem.branches:
                out.update(ends(branch, pos))
            return tuple(sorted(out))
        if isinstance(elem, Repetition):
            current = {pos}
            for _ in range(elem.min):
                current = {e for p in current for e in ends(elem.inner, p)}
                if not current:
                    return ()
            reachable = set(current)
            if elem.max is None:
                frontier = current
                while frontier:
                    step = {e for p in frontier for e in ends(elem.inner, p)}
                    frontier = step - reachable
                    reachable |= frontier
            else:
                for _ in range(elem.max - elem.min):
                    nxt = {e for p in current for e in ends(elem.inner, p)}
                    reachable |= nxt
                    if not nxt or nxt == current:
                        break
                    current = nxt
            return tuple(sorted(reachable))
        raise TypeError(f"not a grammar element: {elem!r}")

    try:
        return n in ends(body, 0)
    except RecursionError:
        raise ReferenceBudgetExceeded(
            "recursion limit exhausted during reference match") from None
    finally:
        # the two closures hold each other and the memo; break the cycle so
        # that reference counting frees them
        del ends, _ends


# --- structural scan ----------------------------------------------------------

_WSP = (0x20, 0x09)


def _scan_structure(raw: bytes):
    """(command_line, header_lines, ok, notes); independent re-statement of
    the line rules: strict CRLF, blank-line terminator, WSP continuations.
    Each header line is a `(key, value)` pair, the value unfolded and
    stripped of its leading delimiter whitespace.

    The head, up to the first blank line, is split at its CRLFs once; it
    is sound when it holds as many CRs and LFs as CRLFs. Any other input
    has a line-ending fault, and `_line_fault` walks it to name the first.
    The lines are then judged in order, so the first fault wins."""
    if not raw:
        return None, [], False, ["empty input"]
    end = raw.find(b"\r\n\r\n")
    if end <= 0:
        return None, [], False, [_line_fault(raw)]
    head = raw[:end]
    lines = head.split(b"\r\n")
    breaks = len(lines) - 1
    if head.count(b"\r") != breaks or head.count(b"\n") != breaks or not lines[0]:
        return None, [], False, [_line_fault(raw)]

    command = lines[0]
    if command[0] in _WSP:
        return None, [], False, ["continuation before command line"]
    headers = []  # [key, value], a continuation appended to the value
    for line in lines[1:]:  # none is empty: the first empty line ends the head
        if line[0] in _WSP:
            if not headers:
                return None, [], False, ["continuation before any header"]
            headers[-1][1] += b" " + line.lstrip(b" \t")
            continue
        colon = line.find(b":")
        if colon == -1:
            return None, [], False, ["header line without colon"]
        key = line[:colon].rstrip(b" \t")
        if not key:
            return None, [], False, ["empty header key"]
        headers.append([key, line[colon + 1:]])
    return command, [(key, value.lstrip(b" \t")) for key, value in headers], True, []


def _line_fault(raw: bytes) -> str:
    """The note of the first fault of `raw`, whose head `_scan_structure`
    could not split, walking its lines in order: a line that lacks its CRLF
    or holds a bare CR or LF, a blank first line, or no blank line at all."""
    pos, n = 0, len(raw)
    while pos < n:
        i_cr = raw.find(b"\r", pos)
        i_lf = raw.find(b"\n", pos)
        if i_cr == -1 and i_lf == -1:
            return "final line lacks CRLF"
        if i_cr == -1 or (i_lf != -1 and i_lf < i_cr):
            return "bare LF"
        if raw[i_cr + 1:i_cr + 2] != b"\n":
            return "bare CR"
        if i_cr == pos:  # only the first line can be blank here
            return "no command line"
        pos = i_cr + 2
    return "no blank line before body"


# --- field extraction and constraint evaluation --------------------------------

def _env_value(sf, env, subject):
    """Typed comparison value of subfield `sf` in `env` over `subject`: an
    int, a (bytes, ci_flag) pair, or None when unavailable."""
    hit = env.get(sf.key)
    if hit is None:
        return None
    start, end, branch = hit
    if sf.width:
        text = subject[start:end]
        if not text.isdigit():
            return None
        return _uint_value(text, sf.width)
    shape = sf.shape
    if shape is _ENUM:
        return branch
    if shape is _RAW:
        return subject[start:end], sf.ci
    return None


def field_lookup(kind: MessageKind, entries: dict):
    """The constraint operand lookup for a message of `kind` whose entries
    derived as `entries` (entry -> (env, subject), each header's first
    instance): a bound field reference's typed value, or None when the
    field is unavailable."""
    kind_value = kind.name.encode(), True

    def lookup(ref: FieldRef):
        if ref.entry == frontend.BUILTIN_MESSAGE:
            return kind_value
        hit = entries.get(ref.entry)
        if hit is None:
            return None
        env, subject = hit
        return _env_value(ref.subfield, env, subject)

    return lookup


def _uint_value(digits: bytes, width: int) -> int | None:
    """The value of an ASCII digit string, or None when it does not fit in
    `width` bits. Long strings are judged by their length, because int()
    refuses strings of more than 4 300 digits."""
    significant = digits.lstrip(b"0")
    if len(significant) > len(str(1 << width)):
        return None
    value = int(significant or b"0")
    return value if value < (1 << width) else None


_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _eval_ref(expr, lookup):
    if isinstance(expr, (And, Or)):
        values = [_eval_ref(item, lookup) for item in expr.items]
        if None in values:
            return None
        return (all if isinstance(expr, And) else any)(values)
    if isinstance(expr, Not):
        v = _eval_ref(expr.item, lookup)
        return None if v is None else not v
    if isinstance(expr, Cmp):
        lhs = _ref_operand(expr.lhs, lookup)
        rhs = _ref_operand(expr.rhs, lookup)
        if lhs is None or rhs is None:
            return None
        if isinstance(lhs, int) and isinstance(rhs, int):
            a, b = lhs, rhs
        elif isinstance(lhs, tuple) and isinstance(rhs, tuple):
            a, cia = lhs
            b, cib = rhs
            if cia and cib:
                a, b = a.lower(), b.lower()
        else:
            return expr.op == "!="  # type mismatch never compares equal
        return _COMPARE[expr.op](a, b)
    raise ZebuError(f"not a constraint expression: {expr!r}")


def _ref_operand(node, lookup):
    if isinstance(node, IntLit):
        return node.value
    if isinstance(node, StrLit):
        return node.value.encode("ascii", "replace"), True
    if isinstance(node, FieldRef):
        return lookup(node)
    raise ZebuError(f"not a constraint operand: {node!r}")


def _range_violations(entry: str, fields: tuple, env, subject) -> list[str]:
    """A note for each of `entry`'s uint `fields` (its `_uint_fields`)
    whose text in `subject` is not a number of its width within its
    declared range."""
    out = []
    for key, sf in fields:
        hit = env.get(key)
        if hit is None:
            continue
        start, end, _ = hit
        text = subject[start:end]
        if not text.isdigit():
            out.append(f"{entry}.{key}: non-numeric {text!r}")
            continue
        value = _uint_value(text, sf.width)
        if value is None:
            out.append(f"{entry}.{key}: {text.lstrip(b'0').decode('ascii')} "
                       f"overflows uint{sf.width}")
            continue
        if sf.range is not None and not sf.range.holds(value):
            out.append(f"{entry}.{key}: {value} outside declared range")
    return out


def _uint_fields(ag: AnnotatedGrammar) -> dict:
    """Entry name -> `(key, subfield)` of each of its uint subfields, in
    table order, for every entry, once per grammar."""
    memo = ag.memo("refcheck.uints")
    if not memo:
        memo.update((entry, tuple((key, sf) for key, sf in table.items() if sf.width))
                    for entry, table in ag.subfields.items())
    return memo


def _declared_keys(ag: AnnotatedGrammar) -> dict:
    """Lowercased header key -> its declaration, once per grammar; the
    first declaration of a key wins."""
    by_key = ag.memo("refcheck.keys")
    if not by_key:
        for decl in ag.headers:
            for k in decl.keys:
                by_key.setdefault(k.lower(), decl)
    return by_key


def reference_validate(ag: AnnotatedGrammar, raw: bytes) -> tuple[bool, list[str]]:
    """Full-message validity per the grammar and its declared constraints.

    Returns (valid, notes); notes name the first problems found. Used as
    the emission-time ground truth for mutants.
    """
    command, headers, ok, notes = _scan_structure(raw)
    if not ok:
        return False, notes

    labels = ag.memo("refcheck.labels")
    uints = _uint_fields(ag)
    problems: list[str] = []
    for kind, cmd_entry in COMMAND_LINE.items():
        rule = ag.command_lines.get(kind)
        if rule is not None:
            cmd_env = _label(labels, rule.body, ag, command, ag.subfields[cmd_entry])
            if cmd_env is not None:
                break
    else:
        return False, ["command line derivable from neither entry point"]
    problems.extend(_range_violations(cmd_entry, uints[cmd_entry], cmd_env, command))

    by_key = _declared_keys(ag)
    by_decl: dict[str, list[bytes]] = {}
    for key, value in headers:
        decl = by_key.get(key.decode("latin-1").lower())
        if decl is not None:  # undeclared headers are skipped
            by_decl.setdefault(decl.name, []).append(value)

    envs: dict[str, tuple[dict, bytes]] = {}
    for decl in ag.headers:
        lines = by_decl.get(decl.name, [])
        if not lines:
            if kind in decl.mandatory_in:
                problems.append(f"mandatory header {decl.name} missing")
            continue
        if len(lines) > 1 and not decl.multiple:
            problems.append(f"header {decl.name} duplicated")
        table, fields = ag.subfields[decl.name], uints[decl.name]
        for i, value in enumerate(lines if decl.multiple else lines[:1]):
            env = _label(labels, decl.body, ag, value, table)
            if env is None:
                problems.append(f"header {decl.name} value not derivable")
                continue
            problems.extend(_range_violations(decl.name, fields, env, value))
            if i == 0:
                envs[decl.name] = (env, value)

    lookup = field_lookup(kind, {**envs, cmd_entry: (cmd_env, command)})
    for expr in ag.blocks[kind]:
        if _eval_ref(expr, lookup) is False:
            problems.append(f"constraint failed: {frontend.expr_to_text(expr)}")
    for decl in ag.headers:
        if decl.name in envs:
            for expr in decl.local_constraints:
                if _eval_ref(expr, lookup) is False:
                    problems.append(
                        f"{decl.name} constraint failed: {frontend.expr_to_text(expr)}")

    return (not problems), problems
