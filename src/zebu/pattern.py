"""Executable match patterns compiled from entry-point grammar bodies.

`compile_pattern` fully inlines rule references as the grammar's rule
graph resolves them (the verifier guarantees acyclicity) and attaches
capture nodes for named subfields. It builds each node in its final form
from final children (`_seq`, `_alt`, `_rep`, `_cap`). The graph's leaf
mask decides sharing: a rule body that reaches no annotation is compiled
once per grammar, and that one node is shared wherever it is inlined.
`match_spans` decides whether the whole subject derives from the inlined
tree under one disambiguation contract: alternation branches are tried in
source order, repetition is greedy, and backtracking is complete, so a
subject matches iff some derivation exists. Captures report the spans of
the first successful derivation under that order.

`compile_grammar` compiles the engine's patterns for line-free subjects
(`line_free`), as no subject the engine hands a matcher holds CR or LF: a
command line ends before its CR, a header value is unfolded (each fold
joined by one SP), and a lazy subfield's subject is a span of a value.
There a terminal that must read CR or LF never matches, so it compiles to
NEVER (`(?!)`) and byte ranges lose CR and LF. NEVER propagates as the
tree is built: a sequence holding it never matches, an alternation drops
that branch, `*x` becomes empty and `1*x` never matches. A capture in what
never matches is emptied, not removed, so the span tuple keeps its slots.
No match, branch order or span changes on such subjects, and SIP's
`LWS = [*WSP CRLF] 1*WSP` becomes `1*WSP`. Without `line_free` a pattern
is exact over all 256 bytes.

A lazy top-level subfield is a hole in its entry's pattern only where the
grammar fixes its span (`_place_holes` states the rule). The hole is a
possessive run over every byte but those that may follow it: `[^ ]*+`
after SIP's Request-URI, `[^>]*+` after its addr-spec (CR and LF left out,
line-free). `re` runs it in its single-byte loop and never gives a byte
back, where a run over any bytes took the rest of the value and
backtracked to what follows. A bad byte inside the value still fails only
the force, when the subfield's own pattern checks the span. Elsewhere the
subfield is matched in place, and `zebu compile` warns.

`match_spans` is the one matching path. It returns the match's spans in
the shape of `re`'s `Match.regs`: index 0 holds `(0, n)`, index cid + 1
the span of capture cid, and `(-1, -1)` a capture the derivation did not
exercise. Both backends give that tuple, so what reads a match's spans
never asks which backend ran.

`match_spans` has two backends, chosen per `Pattern` by one rule, never by
an option: a tree that passes the ambiguity guard below and whose regex
`re` compiles runs on `re`. `_regex_backend` alone decides, and records
why any other pattern runs on the interpreter (`interpreter_reason`).

* the stdlib `re` engine. On first use the tree is translated into a bytes
  regex (one group per capture, `(?i:...)` for case-insensitive literals,
  ordered `(?:a|b)`, greedy `{m,n}`), compiled, and kept on the Pattern.
  An option over more than one byte is the branch `(?:x|)`: `re` runs
  `(?:x)?` in its general repeat, which keeps a record per iteration, and a
  branch is the same match without it. A one-byte option stays `x?`, which
  `re` runs in its single-byte loop.
  Where group g holds cid g - 1, as in every bundled pattern, `m.regs` is
  the span tuple as it stands. Otherwise a group map rebuilds it, and a
  cid in two groups (same-named subfields in two branches) takes the span
  of the participating one with the greatest `(start, end)`, which the
  interpreter sets last.
  Three cuts stop backtracking where it cannot change a result:
  - a one-byte repetition is possessive (`*+`) when what follows can
    always do without a byte it would give back;
  - a repetition's iterations are atomic (`(?>...)`) when a lookahead
    after each iteration passes at one end at most, and what follows can
    match from no other. The lookahead reads the next byte or, where that
    cannot tell the ends apart, skips the bytes of the optional items that
    lead what follows and reads the byte after them. A blank both extends
    an iteration of SIP's `*( SEMI generic-param )` (`SWS "="`) and begins
    the next one (`SWS ";"`), so its lookahead skips tabs and spaces (and
    CRs and LFs, in an exact pattern), then reads `;` or the subject's end.
    The test runs on the position automaton of the iteration: from where
    one word ends, no longer word may go on with skipped bytes and then a
    byte the lookahead reads;
  - an atomic repetition that only the subject's end may follow is also
    possessive (`(?>...)*+`): giving an iteration back only moves the end
    to the left. `re` then keeps no state per iteration, so a tail takes
    the same memory at any length. An iteration holding a capture stays
    merely atomic, because some CPython releases misplace a group inside a
    possessive repetition.
* the budgeted backtracking interpreter, for trees the guard flags, for
  trees nested too deeply for its recursive walks to judge, for a regex
  `re` cannot compile, and for bare pattern nodes.

The guard judges the position automaton of the translated tree, cuts
included; a possessive tail as the atomic repetition it refines. It flags
a tree where one word leads two paths out of a state and back into it
(backtracking exponential in the subject: `1*( 1*"a" ) "b"`, `*( "a" /
"aa" )`, `1*( ";" DIGIT / ";" DIGIT ";" DIGIT ) "x"`) or loops at a state,
leads it to a second one and loops there (polynomial: `*( "ab" ) *( "ab"
/ "c" ) "x"`). It also flags a repetition that matches the empty
word in two ways, which the automaton cannot show: one with a nullable
inner (`*( *"a" )`; an optional one too, whose empty iteration the
interpreter skips and `re` records), or a repeating one holding an
alternation with two nullable branches. A tree too large to analyse is
flagged. What passes has a finitely ambiguous automaton: the paths
backtracking can follow over a stretch of the subject are bounded, so
matching time grows linearly with the subject, by a factor that depends
on the pattern alone (many optional parts in a row that match the same
bytes can make it large). `MatchBudgetExceeded` (the engine's `BUDGET`
reason) therefore comes only from patterns `zebu compile` warns about.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain
from operator import and_, is_, or_
from typing import Optional, Union

from . import frontend
from .abnf import (
    Alternation,
    CharCodes,
    CharRange,
    Element,
    LiteralCI,
    Repetition,
    Rule,
    RuleRef,
    Sequence,
)
from .errors import ZebuError
from .frontend import Annotated, AnnotatedGrammar, Shape, Subfield


class MatchBudgetExceeded(ZebuError):
    """The per-match step budget ran out; reported distinctly from non-match."""


class CompileError(ZebuError):
    pass


# --- pattern nodes ----------------------------------------------------------

@dataclass(frozen=True)
class PLit:
    data: bytes  # lowercased; matches ASCII case-insensitively


@dataclass(frozen=True)
class PBytes:
    data: bytes  # exact bytes


@dataclass(frozen=True)
class PClass:
    mask: int  # bit b for byte b


@dataclass(frozen=True)
class PSeq:
    items: tuple


@dataclass(frozen=True)
class PAlt:
    branches: tuple


@dataclass(frozen=True)
class PRep:
    min: int
    max: Optional[int]
    inner: object


@dataclass(frozen=True)
class PCap:
    cid: int
    inner: object


PatternNode = Union[PLit, PBytes, PClass, PSeq, PAlt, PRep, PCap]

_ALL = (1 << 256) - 1

# What matches nothing: a line-free compile's stand-in for a terminal that
# must read CR or LF. Its regex is `(?!)`.
NEVER = PAlt(())
_LINE_BYTES = 1 << 0x0D | 1 << 0x0A
_LOWER = (1 << 0x7B) - (1 << 0x61)


@dataclass(frozen=True)
class _Hole:
    """Where a lazy subfield sits while its entry compiles; `_place_holes`
    replaces it with the hole's run, or the entry compiles again with the
    subfield in place. No finished tree holds one."""
    key: str


@dataclass
class Pattern:
    root: PatternNode
    capture_index: dict[str, int] = field(default_factory=dict)
    # each hole's own pattern, keyed by the subfield's name
    lazy: dict[str, Pattern] = field(default_factory=dict)
    # why each lazy top-level subfield that is not a hole is matched in place
    in_place: dict[str, str] = field(default_factory=dict)

    @cached_property
    def backend(self) -> tuple:
        return _regex_backend(self.root)


_UNSET = (-1, -1)  # the span of a capture the match did not exercise


# --- compilation ------------------------------------------------------------

class _Compiler:
    def __init__(self, ag: AnnotatedGrammar, table: dict[str, Subfield], line_free: bool,
                 in_place: dict[str, str] | None = None):
        self.ag = ag
        self.table = table
        self.line_free = line_free
        self.in_place = {} if in_place is None else in_place
        self.capture_index: dict[str, int] = {}
        self.lazy: dict[str, Pattern] = {}
        self.holes = 0  # the _Hole nodes made
        self.graph = frontend.rule_graph(ag)
        # lowercased rule name -> its shared compiled body
        self._shared = ag.memo("line-free rules" if line_free else "rules")
        # the id of each of those bodies -> its rule's leaf mask; `_shared`
        # keeps each body alive, so no other node takes its id
        self.shared_ids = ag.memo("line-free rule ids" if line_free else "rule ids")

    def cap_id(self, key: str) -> int:
        return self.capture_index.setdefault(key, len(self.capture_index))

    def compile(self, elem, prefix: tuple[str, ...]):
        # the commonest kinds first: a compile makes hundreds of these tests
        t = type(elem)
        if t is RuleRef:
            return self.inline(elem.name, prefix)
        if t is Sequence:
            return _seq([self.compile(i, prefix) for i in elem.items])
        if t is LiteralCI:
            return PLit(elem.text.lower().encode("ascii"))
        if t is Alternation:
            return _alt([self.compile(b, prefix) for b in elem.branches])
        if t is Repetition:
            return _rep(elem.min, elem.max, self.compile(elem.inner, prefix))
        if t is CharCodes:
            if self.line_free and (b"\r" in elem.data or b"\n" in elem.data):
                return NEVER
            return PBytes(elem.data)
        if t is CharRange:
            mask = (1 << elem.hi + 1) - (1 << elem.lo)
            if self.line_free:
                mask &= ~_LINE_BYTES
            return PClass(mask) if mask else NEVER
        if t is not Annotated:
            raise CompileError(f"cannot compile {elem!r}")
        key = ".".join(prefix + (elem.name,))
        sf = self.table.get(key)
        if sf is None:
            raise CompileError(f"no subfield metadata for {key!r}")
        # a lazy top-level subfield declared at one site may be a hole, its
        # own pattern compiled from that site; `_place_holes` then decides
        # whether it stays one. Any other compiles in place
        if sf.lazy and len(sf.path) == 1 and len(sf.sites) == 1 and key not in self.in_place:
            if key not in self.lazy:  # inlining may reach the site twice
                sub = _Compiler(self.ag, self.table, self.line_free)
                self.lazy[key] = Pattern(sub.compile_subfield(sf, elem.inner),
                                         sub.capture_index)
            self.holes += 1
            return PCap(self.cap_id(key), _Hole(key))
        # same-named subfields in two alternation branches share one table
        # entry; each compiles its own element
        return self.compile_subfield(sf, elem.inner)

    def inline(self, name: str, prefix: tuple[str, ...]):
        """The compiled body of rule `name`, as the rule graph resolves it.
        The graph's leaf mask decides sharing: a rule whose mask lacks
        LEAF_HOLE reaches no annotation, so its body compiles to one
        capture-free node, once per grammar and subject alphabet. Any other
        rule is compiled at each site, under `prefix`."""
        low = name.lower()
        node = self._shared.get(low)
        if node is not None:
            return node
        ref = self.graph.rules.get(low)
        if ref is None:
            raise CompileError(f"undefined rule {name!r}")
        node = self.compile(ref.rule.body, prefix)
        if not self.graph.masks[low] & frontend.LEAF_HOLE:
            self._shared[low] = node
            self.shared_ids[id(node)] = self.graph.masks[low]
        return node

    def compile_subfield(self, sf: Subfield, element: Element):
        """Compile the annotated `element`, one of `sf`'s sites, as the
        subfield `sf` describes."""
        key = sf.key
        cid = self.cap_id(key)
        if sf.shape in (Shape.ENUM, Shape.UNION):
            alt = frontend.resolve_to_alternation(element, self.ag)
            if alt is None:
                raise CompileError(
                    f"subfield {key!r} is {sf.shape.value} but derives no alternation")
            node = _alt(_cap(self.cap_id(f"{key}#{i}"), self.compile(b, sf.path))
                        for i, b in enumerate(alt.branches))
        else:
            node = self.compile(element, sf.path)
        return _cap(cid, node)


_TOO_DEEP = "rules nested too deeply to compile"


def compile_pattern(entry, g, *, table: dict[str, Subfield] | None = None,
                    line_free: bool = False) -> Pattern:
    """Compile a rule or entry-point body into an executable Pattern.

    `entry` is a Rule or a bare element; `g` a Grammar or AnnotatedGrammar.
    A lazy top-level subfield declared at one site compiles to a hole where
    the grammar fixes its span (`_place_holes`), and its own pattern
    (captures keyed by full path) is compiled from that site into the
    returned Pattern's `lazy`, by name; elsewhere it is matched in place,
    and `in_place` says why. Each pattern is exact on every subject; with
    `line_free`, only on subjects that hold neither CR nor LF (see the
    module docstring). Rules nested too deeply for Python's stack, the only
    bound on inlining, raise CompileError.
    """
    ag = g if isinstance(g, AnnotatedGrammar) else AnnotatedGrammar(base=g)
    body = entry.body if isinstance(entry, Rule) else entry
    if table is None:
        table = frontend.collect_subfields(body, ag)
    in_place: dict[str, str] = {}
    try:
        while True:
            comp = _Compiler(ag, table, line_free, in_place)
            root, refused = _place_holes(comp.compile(body, ()), comp, line_free)
            if not refused:
                return Pattern(root, comp.capture_index, comp.lazy, in_place)
            # each refused subfield compiles in place, which may change what
            # the other holes see around them
            in_place.update(refused)
    except RecursionError:
        raise CompileError(_TOO_DEEP) from None


# --- lazy holes ---------------------------------------------------------------

def _place_holes(root, comp: _Compiler, line_free: bool) -> tuple:
    """(`root` with each _Hole made its run, {key: why} for each subfield
    whose span the grammar does not fix).

    Every match of the enclosing pattern gives a hole the span a derivation
    would when: what precedes it is empty or ends at a byte it holds
    nowhere else, so its start is fixed; the subfield holds no byte that
    may begin what follows, so its end is fixed; it sits under no
    repetition, as its one capture keeps one span; and in a branch or an
    option, what follows it begins with a byte that no later alternative,
    nor what follows the alternation, holds, so that no later alternative
    could have matched instead. The hole is then a possessive run over
    every byte but those that may follow it. Another hole counts as any
    bytes, but in a later alternative as its subfield's bytes."""
    if not comp.holes:
        return root, {}
    alphabet = _ALL & ~_LINE_BYTES if line_free else _ALL
    planner = _Planner()
    refused: dict[str, str] = {}

    def own(key: str) -> int:
        """The bytes of subfield `key`, from its site's leaf mask, which a
        case-insensitive literal gives in one case."""
        return _folded(frontend.leaf_mask(comp.table[key].sites[0].inner, comp.ag) & _ALL)

    def place(cap, path):
        """The hole `cap` made final, or `cap` when it is refused. `path`
        holds (node, index of the child) from the root down to it."""
        key = cap.inner.key
        before: list = []
        cont: tuple = ()
        # each enclosing branch or option with later alternatives: those,
        # and where in `cont` what follows them begins
        branches = []
        for node, i in reversed(path):
            t = type(node)
            if t is PSeq:
                before[:0] = node.items[:i]
                cont += (node.items[i + 1:],)
            elif t is PAlt and i + 1 < len(node.branches):
                branches.append((node.branches[i + 1:], len(cont)))
            elif t is PRep and node.min == 0 and node.max == 1:
                branches.append(((), len(cont)))
            elif t is PRep and (node.max is None or node.max > 1):
                refused.setdefault(key, "it may match more than once in a value")
                return cap
        # the bytes those alternatives and what follows them hold
        later = reduce(or_, (_held(item, own, shared) for alternatives, at in branches
                             for item in (*alternatives, *chain.from_iterable(cont[at:]))), 0)
        _, first, at_end = planner.follow(cont)
        if not _fixed_start(before, shared):
            why = "what precedes it does not end at a byte it holds nowhere else"
        elif own(key) & first:
            why = "it may hold a byte that begins what follows"
        elif branches and (at_end or later & first):
            why = "a later alternative may match where its branch does"
        else:
            mask = alphabet & ~first
            return PCap(cap.cid, _rep(0, None, PClass(mask) if mask else NEVER))
        refused.setdefault(key, why)
        return cap

    def walk(node, path):
        nonlocal unplaced
        t = type(node)
        if t is PCap:
            # what another subfield captures holds no top-level hole
            if type(node.inner) is not _Hole:
                return node
            unplaced -= 1
            return place(node, path)
        if t is PSeq:
            children = node.items
        elif t is PAlt:
            children = node.branches
        elif t is PRep:
            children = (node.inner,)
        else:
            return node
        if id(node) in shared:  # a rule body that reaches no annotation
            return node
        new = list(children)
        for i, child in enumerate(children):
            if not unplaced:
                break
            new[i] = walk(child, path + ((node, i),))
        if all(map(is_, new, children)):
            return node
        if t is PRep:
            return PRep(node.min, node.max, new[0])
        return PSeq(tuple(new)) if t is PSeq else PAlt(tuple(new))

    shared = comp.shared_ids
    unplaced = comp.holes  # the walk may stop once it met them all
    try:
        return walk(root, ()), refused
    finally:
        # `walk` holds itself through its closure; break the cycle so that
        # reference counting frees it
        del walk


def _fixed_start(before: tuple, shared: dict) -> bool:
    """Whether the sequence of `before` is empty or ends at a byte it holds
    nowhere else, so that it ends after the first such byte of a subject; a
    _Hole may hold any byte."""
    if not before:
        return True
    last = before[-1]
    while type(last) is PCap:
        last = last.inner
    t = type(last)
    if t is PClass:
        masks = [last.mask]
    elif (t is PBytes or t is PLit) and last.data:
        masks = _byte_masks(last)
    else:
        return False
    held = reduce(or_, masks[:-1], 0)
    for item in before[:-1]:
        held |= _held(item, lambda _: _ALL, shared)
    return not masks[-1] & held


def _held(node, hole, shared: dict) -> int:
    """The bytes that words of `node` hold, or more: a _Hole holds
    `hole(key)`, and a rule body in `shared` what its leaf mask holds."""
    held = either = 0  # `either` is held in both cases
    todo = [node]
    while todo:
        node = todo.pop()
        t = type(node)
        if id(node) in shared:
            either |= shared[id(node)]
        elif t is PClass:
            held |= node.mask
        elif t is PBytes or t is PLit:
            for b in node.data:
                if t is PLit:
                    either |= 1 << b
                else:
                    held |= 1 << b
        elif t is PSeq or t is PAlt:
            todo.extend(node.items if t is PSeq else node.branches)
        elif t is _Hole:
            held |= hole(node.key)
        elif t is PCap or node.max != 0:
            todo.append(node.inner)
    return held | _folded(either & _ALL)


def _folded(mask: int) -> int:
    """`mask` with the other case of each ASCII letter in it."""
    return mask | (mask & _LOWER) >> 32 | (mask & _LOWER >> 32) << 32


# --- final nodes --------------------------------------------------------------

def _byte_masks(node) -> list[int]:
    """One byte set per byte of a PBytes or PLit."""
    if type(node) is PBytes:
        return [1 << b for b in node.data]
    return [1 << b | 1 << (b - 32 if 0x61 <= b <= 0x7A else b) for b in node.data]


def _single_byte_set(node) -> int | None:
    t = type(node)
    if t is PClass:
        return node.mask
    if (t is PBytes or t is PLit) and len(node.data) == 1:
        b = node.data[0]
        return 1 << b | 1 << b - 32 if t is PLit and 0x61 <= b <= 0x7A else 1 << b
    return None


def _cids(node):
    """The cids of `node`'s captures, in the order of their groups."""
    t = type(node)
    if t is PCap:
        yield node.cid
        yield from _cids(node.inner)
    elif t is PSeq or t is PAlt:
        for child in node.items if t is PSeq else node.branches:
            yield from _cids(child)
    elif t is PRep:
        yield from _cids(node.inner)


def _holds_capture(node) -> bool:
    return next(_cids(node), None) is not None


def _emptied(node):
    """`node`, which matches nothing: NEVER, followed by each of its
    captures emptied, so that the span tuple keeps their slots."""
    caps = tuple(PCap(cid, NEVER) for cid in _cids(node))
    return PSeq((NEVER,) + caps) if caps else NEVER


def _never(node) -> bool:
    """Whether a final node matches nothing (NEVER or an _emptied one)."""
    return node is NEVER or (type(node) is PSeq and node.items[:1] == (NEVER,))


def _seq(items):
    """The sequence of final `items`: nested sequences flattened and
    adjacent exact bytes joined. One holding NEVER is emptied."""
    merged: list = []
    for item in items:
        for x in item.items if type(item) is PSeq else (item,):
            if type(x) is PBytes and merged and type(merged[-1]) is PBytes:
                merged[-1] = PBytes(merged[-1].data + x.data)
            else:
                merged.append(x)
    if any(x is NEVER for x in merged):
        return _emptied(PSeq(tuple(merged)))
    return merged[0] if len(merged) == 1 else PSeq(tuple(merged))


def _alt(branches):
    """The alternation of final `branches`: nested alternations flattened,
    NEVER branches dropped, and single bytes made a class. One with no
    branch that can match is emptied."""
    flat = []
    for branch in branches:
        if type(branch) is PAlt:
            flat.extend(branch.branches)
        elif branch is not NEVER:
            flat.append(branch)
    if all(map(_never, flat)):
        return _emptied(PAlt(tuple(flat)))
    mask = 0
    for branch in flat:
        one = _single_byte_set(branch)
        if one is None:
            return flat[0] if len(flat) == 1 else PAlt(tuple(flat))
        mask |= one
    return PClass(mask)


def _rep(lo: int, hi: int | None, inner):
    """The repetition of a final `inner`; `[ m*n x ]` with m <= 1 is `*n x`
    where x holds no capture and cannot match empty: the option adds only
    the stop that `*n x` already ends with."""
    if _never(inner):
        if lo:
            return inner
        return PSeq(()) if inner is NEVER else PRep(0, 1, inner)
    if (lo, hi) == (0, 1) and type(inner) is PRep and inner.min <= 1 and not (
            _holds_capture(inner) or _Planner().facts(inner.inner).nullable):
        return PRep(0, inner.max, inner.inner)
    return PRep(lo, hi, inner)


def _cap(cid: int, inner):
    """The capture of a final `inner`."""
    return _emptied(PCap(cid, inner)) if _never(inner) else PCap(cid, inner)


# --- matching ---------------------------------------------------------------

DEFAULT_MATCH_BUDGET = 1_000_000


def match_spans(pattern, subject: bytes, budget: int = DEFAULT_MATCH_BUDGET) -> tuple | None:
    """The spans of a full match of `subject`, shaped as `re`'s `Match.regs`
    (see the module docstring), or None when the subject does not match.

    A Pattern runs where `_regex_backend` decided on its first match: on
    `re` when its tree passes the guard and `re` compiles its regex, on the
    interpreter otherwise, as does a bare pattern node. The interpreter
    raises MatchBudgetExceeded when the step budget (or Python's recursion
    limit) is hit, which callers must treat as distinct from a non-match.
    """
    if isinstance(pattern, Pattern):
        rx, groups, _ = pattern.backend
        if rx is not None:
            m = rx.fullmatch(subject)
            if m is None:
                return None
            if groups is None:
                return m.regs
            regs = m.regs
            return tuple(max([regs[g] for g in gs], default=_UNSET) for gs in groups)
        root = pattern.root
    else:
        root = pattern
    return _interpret(root, subject, budget)


def _interpret(root, subject: bytes, budget: int) -> tuple | None:
    """The interpreter's run of `match_spans`. Apart from it, because its
    nested matchers make closure cells on every call, and the `re` path of
    `match_spans` would pay for them too."""
    n = len(subject)
    caps: dict[int, tuple[int, int]] = {}
    steps = budget

    def m(node, pos):
        nonlocal steps
        steps -= 1
        if steps < 0:
            raise MatchBudgetExceeded("match step budget exhausted")
        t = type(node)
        if t is PClass:
            if pos < n and node.mask >> subject[pos] & 1:
                yield pos + 1
        elif t is PBytes:
            end = pos + len(node.data)
            if subject[pos:end] == node.data:
                yield end
        elif t is PLit:
            end = pos + len(node.data)
            if end <= n and subject[pos:end].lower() == node.data:
                yield end
        elif t is PSeq:
            yield from seq(node.items, 0, pos)
        elif t is PAlt:
            for branch in node.branches:
                yield from m(branch, pos)
        elif t is PRep:
            inner = node.inner
            if type(inner) is PClass:
                mask = inner.mask
                limit = n if node.max is None else min(n, pos + node.max)
                k = pos
                while k < limit and mask >> subject[k] & 1:
                    k += 1
                lowest = pos + node.min
                for end in range(k, lowest - 1, -1):
                    yield end
            else:
                yield from rep(node, 0, pos)
        elif t is PCap:
            for end in m(node.inner, pos):
                saved = caps.get(node.cid)
                caps[node.cid] = (pos, end)
                yield end
                if saved is None:
                    caps.pop(node.cid, None)
                else:
                    caps[node.cid] = saved
        else:
            raise TypeError(f"not a pattern node: {node!r}")

    def seq(items, i, pos):
        if i == len(items):
            yield pos
            return
        for mid in m(items[i], pos):
            yield from seq(items, i + 1, mid)

    def rep(node, count, pos):
        if node.max is None or count < node.max:
            for mid in m(node.inner, pos):
                if mid == pos:
                    # zero-width iteration: only useful to satisfy the minimum
                    if count + 1 <= node.min:
                        yield from rep(node, count + 1, mid)
                    continue
                yield from rep(node, count + 1, mid)
        if count >= node.min:
            yield pos

    try:
        for end in m(root, 0):
            if end == n:
                slots = range(max(_cids(root), default=-1) + 1)
                return ((0, n),) + tuple(caps.get(cid, _UNSET) for cid in slots)
    except RecursionError:
        raise MatchBudgetExceeded("recursion limit exhausted during match") from None
    finally:
        # the three matchers hold each other through their closures; break
        # the cycle so that reference counting frees them
        del m, seq, rep
    return None


# --- regex backend ------------------------------------------------------------
#
# _Planner.plan marks the possessive and atomic cuts (see the module
# docstring), _flagged judges the planned tree on its _Automaton, and
# regex_text translates it.

_NEVER = "(?!)"
_MAX_DFA_STATES = 512  # per atomic repetition
_MAX_UNROLL = 16       # one-byte counted repetitions up to this count get a state per iteration
_MAX_PAIRS = 200_000   # reachable pairs of the product automaton


@dataclass(frozen=True)
class _Possessive:
    """A one-byte repetition that never gives a byte back (`*+`)."""
    rep: PRep


@dataclass(frozen=True)
class _Atomic:
    """A repetition whose every iteration commits (`(?>...)`) to the one end
    where the lookahead passes: a run of `skip` bytes, then a byte of
    `follow` or, with `at_end`, the subject's end. A `possessive` one also
    never gives an iteration back (`*+`)."""
    rep: PRep
    skip: int
    follow: int
    at_end: bool
    possessive: bool


@dataclass(frozen=True)
class _Facts:
    nullable: bool
    first: int  # bytes a non-empty word starts with
    bytes: int  # bytes any word holds


_EMPTY = _Facts(True, 0, 0)


class _Planner:
    def __init__(self):
        self._facts: dict[int, _Facts] = {}
        self._absorbs: dict[tuple, bool] = {}

    def facts(self, node) -> _Facts:
        f = self._facts.get(id(node))
        if f is None:
            f = self._facts[id(node)] = self._compute(node)
        return f

    def _compute(self, node) -> _Facts:
        t = type(node)
        if t is PClass:
            return _Facts(False, node.mask, node.mask)
        if t is PBytes or t is PLit:
            masks = _byte_masks(node)
            if not masks:
                return _EMPTY
            every = 0
            for m in masks:
                every |= m
            return _Facts(False, masks[0], every)
        if t is PCap:
            return self.facts(node.inner)
        if t is _Hole:  # what `_place_holes` has yet to decide: any bytes
            return _Facts(True, _ALL, _ALL)
        if t is _Possessive or t is _Atomic:
            return self.facts(node.rep)
        if t is PRep:
            if node.max == 0:
                return _EMPTY
            f = self.facts(node.inner)
            return _Facts(node.min == 0 or f.nullable, f.first, f.bytes)
        if t is PAlt:
            fs = [self.facts(b) for b in node.branches]
            first = every = 0
            for f in fs:
                first, every = first | f.first, every | f.bytes
            return _Facts(any(f.nullable for f in fs), first, every)
        acc = _EMPTY
        for item in node.items:
            f = self.facts(item)
            acc = _Facts(acc.nullable and f.nullable,
                         acc.first | (f.first if acc.nullable else 0),
                         acc.bytes | f.bytes)
        return acc

    # A continuation is what follows a node up to the subject's end: a tuple
    # of segments, innermost first. A segment is a tuple of sequence items,
    # or a repeating PRep standing for its further iterations.

    def follow(self, cont, skipping: bool = False) -> tuple[int, int, bool]:
        """(skip, first, at_end): every word of the continuation is a run of
        `skip` bytes, then a byte of `first` or, with `at_end`, the subject's
        end. The leading items that can match empty give their first bytes
        to `first`, or with `skipping` all their bytes to `skip`."""
        skip = first = 0
        for seg in cont:
            if type(seg) is tuple:
                items, optional = seg, False
            else:  # another iteration, or none
                inner = seg.inner
                items, optional = (inner.items if type(inner) is PSeq else (inner,)), True
            for item in items:
                f = self.facts(item)
                if not f.nullable:
                    first |= f.first
                    if not optional:
                        return skip, first, False
                    break
                if skipping:
                    skip |= f.bytes
                else:
                    first |= f.first
        return skip, first, True

    def lookahead(self, inner, cont) -> tuple[int, int, bool] | None:
        """A lookahead (see follow) that passes at no end of a word of
        `inner` from which a longer word of it goes on, or None. After an
        iteration it then passes at one end at most, and every other end
        leaves the continuation nothing to match."""
        if self.facts(inner).nullable:
            return None
        auto = _Automaton(inner)
        try:
            _, _, entry, last = auto.build(inner)
            auto.start(entry)
            graph = auto.pairs()
        except _TooLarge:
            return None
        # the states a longer word can be in where another word ends
        ends = {y for x, y in graph if x in last}
        looks = [self.follow(cont)]
        skip, first, at_end = self.follow(cont, True)
        if skip and not skip & first:  # the run of skip bytes is then possessive
            looks.append((skip, first, at_end))
        for skip, first, at_end in looks:
            if not auto.passes(ends, last, skip, first):
                return skip, first, at_end
        return None

    def absorbs(self, node, c: int, eps: bool) -> bool:
        """Whether dropping a leading byte of `c` from any word of `node`
        leaves a word of `node` (or, with `eps`, the empty word)."""
        key = (id(node), c, eps)
        hit = self._absorbs.get(key)
        if hit is None:
            hit = self._absorbs[key] = self._absorbs_of(node, c, eps)
        return hit

    def _absorbs_of(self, node, c: int, eps: bool) -> bool:
        if not self.facts(node).first & c:
            return True
        t = type(node)
        if t is PClass:
            return eps
        if t is PBytes or t is PLit:
            return eps and len(node.data) == 1
        if t is PCap:
            return self.absorbs(node.inner, c, eps)
        if t is PAlt:
            return all(self.absorbs(b, c, eps) for b in node.branches)
        if t is PSeq:
            return self.items_absorb(node.items, c, eps)
        if self.facts(node.inner).nullable:
            return False
        if self.absorbs(node.inner, c, False):
            return True
        # the shortened first iteration may vanish, leaving one fewer
        return self.absorbs(node.inner, c, True) and (node.min == 0 or (eps and node.min == 1))

    def items_absorb(self, items: tuple, c: int, eps: bool) -> bool:
        if not items:
            return True
        head, rest = items[0], items[1:]
        f = self.facts(head)
        if f.first & c and not (
                self.absorbs(head, c, False)
                or (self.absorbs(head, c, True) and (f.nullable or (eps and not rest)))):
            return False
        return not f.nullable or self.items_absorb(rest, c, eps)

    def absorbs_after(self, c: int, cont) -> bool:
        """Whether the continuation can always do without a leading byte of
        `c`: then the repetition before it need never give one back."""
        for seg in cont:
            if type(seg) is tuple:
                if not self.items_absorb(seg, c, False):
                    return False
                if not all(self.facts(item).nullable for item in seg):
                    return True
            elif self.facts(seg.inner).first & c and not self.absorbs(seg.inner, c, False):
                return False
        return True

    def plan(self, node, cont=()):
        t = type(node)
        if t is PSeq:
            items = node.items
            return PSeq(tuple(self.plan(item, (items[i + 1:],) + cont)
                              for i, item in enumerate(items)))
        if t is PAlt:
            return PAlt(tuple(self.plan(b, cont) for b in node.branches))
        if t is PCap:
            return PCap(node.cid, self.plan(node.inner, cont))
        if t is not PRep:
            return node
        c = _single_byte_set(node.inner)
        if c is not None:
            if node.max != node.min and self.absorbs_after(c, cont):
                return _Possessive(node)
            # a final node is shared where a rule is inlined twice, and the
            # automaton tells repetitions apart by identity
            return PRep(node.min, node.max, node.inner)
        if node.max is not None and node.max <= 1:
            return PRep(node.min, node.max, self.plan(node.inner, cont))
        inner_cont = (node,) + cont
        rep = PRep(node.min, node.max, self.plan(node.inner, inner_cont))
        look = self.lookahead(node.inner, inner_cont)
        if look is None:
            return rep
        # only the subject's end may follow: a shorter run of iterations,
        # ending further left, cannot match either. CPython 3.11.7, 3.12.1
        # and 3.13.0 misplace a group that a possessive iteration set and a
        # later one entered and failed (`(?:(a)|b)*+` on `ab` gives group 1
        # the span (1, 1)), so an iteration holding a capture stays atomic.
        possessive = self.follow(cont) == (0, 0, True) and not _holds_capture(node.inner)
        return _Atomic(rep, *look, possessive)


class _TooLarge(Exception):
    """The automaton outgrew its bounds; the argument is the node to name."""


def _union(a: dict, b: dict, combine) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = combine(out[k], v) if k in out else v
    return out


def _partition(masks) -> list[int]:
    """The coarsest byte sets on which every mask is constant."""
    blocks = [_ALL]
    for m in set(masks):
        blocks = [p for b in blocks for p in (b & m, b & ~m) if p]
    return blocks


class _Automaton:
    """The paths that backtracking can explore on a planned tree.

    A Glushkov automaton: one state per byte position, each edge labelled
    with the bytes it reads. A one-byte repetition counted up to
    _MAX_UNROLL gets a state per iteration; every other repetition is a
    loop, which for a counted one can only add paths: nested counts such as
    `2*4( 2*4"a" )` split a run in finitely but vastly many ways, and a loop
    shows that. A possessive repetition bars its own bytes right
    after it stops, and the iteration of an atomic repetition is
    determinized, because only one of its paths ever goes on; its own
    paths are explored once per iteration, from a start of their own.
    A fragment of a node is (nullable, bytes barred after it matched
    empty, entry states -> bytes entering them, exit states -> bytes barred
    right after them).
    """

    def __init__(self, root):
        self.root = root  # named when no single repetition is to blame
        self.edges: list[dict[int, int]] = []
        self.reps: list[tuple] = []  # enclosing repetitions of each state, outermost first
        self.starts: list[int] = []
        self.doubled: dict[tuple[int, int], object] = {}  # edge made twice -> repetition that remade it

    def state(self, reps: tuple) -> int:
        self.edges.append({})
        self.reps.append(reps)
        return len(self.edges) - 1

    def link(self, last: dict, first: dict, by=None) -> None:
        for u, barred in last.items():
            out = self.edges[u]
            for v, mask in first.items():
                m = mask & ~barred
                if m:
                    had = out.get(v, 0)
                    if had & m:
                        self.doubled[(u, v)] = by
                    out[v] = had | m

    def start(self, first: dict) -> None:
        s = self.state(())
        self.link({s: 0}, first)
        self.starts.append(s)

    def build(self, node, reps: tuple = ()) -> tuple:
        t = type(node)
        if t is PClass or t is PBytes or t is PLit:
            masks = [node.mask] if t is PClass else _byte_masks(node)
            if not masks:
                return True, 0, {}, {}
            states = [self.state(reps) for _ in masks]
            for u, v, m in zip(states, states[1:], masks[1:]):
                self.edges[u][v] = m
            return False, 0, {states[0]: masks[0]}, {states[-1]: 0}
        if t is PCap:
            return self.build(node.inner, reps)
        if t is PSeq:
            return self.chain([self.build(item, reps) for item in node.items])
        if t is PAlt:
            nullable, barred, first, last = False, _ALL, {}, {}
            for branch in node.branches:
                n, b, f, l = self.build(branch, reps)
                if n:
                    nullable, barred = True, barred & b
                first, last = _union(first, f, or_), _union(last, l, and_)
            return nullable, barred if nullable else 0, first, last
        if t is _Possessive:
            return self.counted_class(node.rep, reps + (node,), True)
        if t is _Atomic:
            rep = node.rep
            _, _, f, l = self.build(rep.inner, reps + (node,))
            self.start(f)
            first, last = self.determinize(f, l, node, reps + (node,))
            self.link(last, first, node)
            return rep.min == 0, 0, first, last
        if node.max == 0:
            return True, 0, {}, {}
        if _single_byte_set(node.inner) is not None:
            return self.counted_class(node, reps + (node,), False)
        n, b, f, l = self.build(node.inner, reps + (node,))
        if node.max is None or node.max > 1:
            self.link(l, f, node)
        return n or node.min == 0, b if node.min else 0, f, l

    def counted_class(self, rep: PRep, reps: tuple, possessive: bool) -> tuple:
        """A repetition of one byte: a state per iteration up to
        _MAX_UNROLL, a loop beyond. A possessive one stops before its
        maximum count only where no byte of its class follows."""
        c = _single_byte_set(rep.inner)
        barred = c if possessive else 0
        empty = barred if rep.min == 0 else 0
        if rep.max is None or rep.max > _MAX_UNROLL:
            s = self.state(reps)
            self.edges[s][s] = c
            return rep.min == 0, empty, {s: c}, {s: barred if rep.max is None else 0}
        states = [self.state(reps) for _ in range(rep.max)]
        for u, v in zip(states, states[1:]):
            self.edges[u][v] = c
        last = {s: barred for s in states[max(rep.min, 1) - 1:]}
        last[states[-1]] = 0
        return rep.min == 0, empty, {states[0]: c}, last

    def chain(self, frags: list) -> tuple:
        """The fragment of a sequence of fragments."""
        nullable, barred, first, last = True, 0, {}, {}
        for n, b, f, l in frags:
            self.link(last, f)
            if nullable:
                first = _union(first, {v: m & ~barred for v, m in f.items()}, or_)
            last = _union(l, {u: x | b for u, x in last.items()}, and_) if n else l
            nullable, barred = nullable and n, barred | b
        return nullable, barred, first, last

    def determinize(self, first: dict, last: dict, node: _Atomic, reps: tuple) -> tuple:
        """Entry and exit states of a deterministic copy of one iteration;
        an exit admits only the bytes of the lookahead."""
        ids: dict[frozenset, int] = {}
        todo = []

        def step(moves: list) -> dict:
            out: dict[int, int] = {}
            for block in _partition(m for _, m in moves):
                target = frozenset(v for v, m in moves if m & block)
                if target:
                    d = ids.get(target)
                    if d is None:
                        if len(ids) == _MAX_DFA_STATES:
                            raise _TooLarge(node)
                        d = ids[target] = self.state(reps)
                        todo.append(target)
                    out[d] = out.get(d, 0) | block
            return out

        dfa_first, dfa_last = step(list(first.items())), {}
        while todo:
            subset = todo.pop()
            d = ids[subset]
            self.edges[d] = step([vm for u in subset for vm in self.edges[u].items()])
            exits = [last[u] for u in subset if u in last]
            if exits:
                barred = _ALL
                for x in exits:
                    barred &= x
                dfa_last[d] = (_ALL & ~(node.skip | node.follow)) | barred
        return dfa_first, dfa_last

    def passes(self, states, last: dict, skip: int, first: int) -> bool:
        """Whether a word going on from `states` begins with a run of
        `skip` bytes, then a byte of `first` or an exit."""
        todo, seen = list(states), set(states)
        while todo:
            for v, m in self.edges[todo.pop()].items():
                if m & first or (m & skip and v in last):
                    return True
                if m & skip and v not in seen:
                    seen.add(v)
                    todo.append(v)
        return False

    def pairs(self) -> dict:
        """The product automaton: every pair of states two paths can be in
        after reading one word, with its successor pairs."""
        graph: dict[tuple, list] = {}
        todo = [(s, s) for s in self.starts]
        for p in todo:
            graph[p] = []
        while todo:
            x, y = todo.pop()
            out = graph[(x, y)]
            ex, ey = self.edges[x], self.edges[y]
            for v, m in ex.items():
                for w, n in ey.items():
                    if m & n:
                        out.append((v, w))
                        if (v, w) not in graph:
                            if len(graph) == _MAX_PAIRS:
                                raise _TooLarge(self.root)
                            graph[(v, w)] = []
                            todo.append((v, w))
        return graph

    def _reaches3(self, p: int, q: int, component: dict) -> bool:
        """Whether one word leads p to p, p to q and q to q. The paths that
        return to p and to q never leave the component of p and of q."""
        goal = (p, q, q)
        seen = {(p, p, q)}
        todo = list(seen)
        cp, cq = component[p], component[q]
        while todo:
            x, y, z = todo.pop()
            for v, m in self.edges[x].items():
                if component[v] != cp:
                    continue
                for w, n in self.edges[y].items():
                    mn = m & n
                    if mn:
                        for u, k in self.edges[z].items():
                            if mn & k and component[u] == cq and (v, w, u) not in seen:
                                if (v, w, u) == goal:
                                    return True
                                seen.add((v, w, u))
                                todo.append((v, w, u))
        return False

    def ambiguous_repetition(self):
        """A repetition through which backtracking can take time exponential
        in the subject (two paths, or two routes of one edge, leave one
        state and meet there again on one word) or polynomial (one word
        loops at p, leads p to q and loops at q, so the split between two
        loops can fall anywhere), or None."""
        graph = self.pairs()
        loops = []
        for comp in frontend.strongly_connected(graph):
            if len(comp) == 1 and comp[0] not in graph[comp[0]]:
                continue
            split = [(x, y) for x, y in comp if x != y]
            if split and len(split) < len(comp):
                return self._innermost(x for pair in comp for x in pair)
            members = set(comp)
            for x, y in comp:
                for v, w in graph[(x, y)] if x == y else ():
                    if v == w and (v, v) in members and (x, v) in self.doubled:
                        return self.doubled[(x, v)] or self._innermost([x, v])
            loops += split
        comps = frontend.strongly_connected(dict(enumerate(self.edges)))
        component = {s: i for i, comp in enumerate(comps) for s in comp}
        for p, q in loops:
            if self._reaches3(p, q, component):
                return self._innermost([p])
        return None

    def _innermost(self, states):
        """The innermost repetition enclosing all `states` (every cycle lies
        in one)."""
        common = None
        for s in states:
            reps = self.reps[s]
            if common is None:
                common = reps
            else:
                k = 0
                while k < min(len(common), len(reps)) and common[k] is reps[k]:
                    k += 1
                common = common[:k]
        return common[-1] if common else self.root


def _empty_ambiguous(node, facts, loop=None):
    """A repetition matching the empty word more than one way, which the
    automaton has no states to show: one with a nullable inner, or a
    repeating one holding an alternation with two nullable branches."""
    t = type(node)
    if t is PCap:
        return _empty_ambiguous(node.inner, facts, loop)
    if t is PSeq or t is PAlt:
        children = node.items if t is PSeq else node.branches
        if t is PAlt and loop is not None and sum(facts(b).nullable for b in children) > 1:
            return loop
        for child in children:
            found = _empty_ambiguous(child, facts, loop)
            if found is not None:
                return found
        return None
    if t is PRep or t is _Atomic:
        rep = node if t is PRep else node.rep
        repeats = rep.max is None or rep.max > 1
        if rep.max != 0 and facts(rep.inner).nullable and (repeats or rep.max != rep.min):
            return node
        return _empty_ambiguous(rep.inner, facts, node if repeats else loop)
    return None


def _flagged(planned, facts):
    """The repetition that keeps a planned tree off the regex backend, or None."""
    found = _empty_ambiguous(planned, facts)
    if found is not None:
        return found
    auto = _Automaton(planned)
    try:
        _, _, first, _ = auto.build(planned)
        auto.start(first)
        return auto.ambiguous_repetition()
    except _TooLarge as exc:
        return exc.args[0]


def _class_text(mask: int) -> str:
    if not mask:
        return _NEVER
    runs = []
    for b in range(256):
        if mask >> b & 1:
            if runs and runs[-1][1] == b - 1:
                runs[-1][1] = b
            else:
                runs.append([b, b])
    return "[" + "".join(f"\\x{lo:02x}" if lo == hi else f"\\x{lo:02x}-\\x{hi:02x}"
                         for lo, hi in runs) + "]"


def _quantifier(lo: int, hi: int | None) -> str:
    if hi is None:
        return {0: "*", 1: "+"}.get(lo, f"{{{lo},}}")
    if (lo, hi) == (0, 1):
        return "?"
    return f"{{{lo},{hi}}}"


def regex_text(node, groups: list) -> str:
    """`re` syntax for a (planned) tree; appends each capture's cid to
    `groups` in group-number order."""
    t = type(node)
    if t is PClass:
        return _class_text(node.mask)
    if t is PBytes:
        return re.escape(node.data.decode("latin-1"))
    if t is PLit:
        return "(?i:" + re.escape(node.data.decode("latin-1")) + ")"
    if t is PSeq:
        return "".join(regex_text(item, groups) for item in node.items)
    if t is PAlt:
        if not node.branches:
            return _NEVER
        return "(?:" + "|".join(regex_text(b, groups) for b in node.branches) + ")"
    if t is PRep:
        inner = regex_text(node.inner, groups)
        if (node.min, node.max) == (0, 1) and _single_byte_set(node.inner) is None:
            return "(?:" + inner + "|)"  # a branch, not `re`'s general repeat
        return "(?:" + inner + ")" + _quantifier(node.min, node.max)
    if t is _Possessive:
        return regex_text(node.rep, groups) + "+"
    if t is _Atomic:
        ahead = [_class_text(node.follow)] if node.follow else []
        if node.at_end:
            ahead.append(r"\Z")
        look = "|".join(ahead)
        if node.skip and ahead:
            look = _class_text(node.skip) + "*+(?:" + look + ")"
        rep = node.rep
        return ("(?>" + regex_text(rep.inner, groups) + ("(?=" + look + ")" if ahead else _NEVER)
                + ")" + _quantifier(rep.min, rep.max) + ("+" if node.possessive else ""))
    if t is PCap:
        groups.append(node.cid)
        return "(" + regex_text(node.inner, groups) + ")"
    raise TypeError(f"not a pattern node: {node!r}")


def _regex_backend(root) -> tuple:
    """The one decision of where `root` runs: `(regex, groups, None)` on
    `re`, `(None, None, why)` on the interpreter. `groups` is None when
    group g holds cid g - 1 for every g, so that `m.regs` is the span
    tuple; otherwise it names, per index of the span tuple, the groups
    whose greatest span goes there."""
    planner = _Planner()
    cids: list[int] = []
    try:
        planned = planner.plan(root)
        rep = _flagged(planned, planner.facts)
        if rep is not None:
            return None, None, f"ambiguous repetition {regex_text(rep, [])}"
        text = regex_text(planned, cids)
    except RecursionError:
        return None, None, "pattern nested too deeply to judge"
    try:
        rx = re.compile(text.encode("latin-1"))
    except (re.error, RecursionError, OverflowError) as exc:
        return None, None, f"regex that re cannot compile ({exc})"
    if cids == list(range(len(cids))):
        return rx, None, None
    return rx, ((0,),) + tuple(tuple(g for g, c in enumerate(cids, 1) if c == cid)
                               for cid in range(max(cids) + 1)), None


def interpreter_reason(pattern: Pattern) -> str | None:
    """Why `match_spans` runs `pattern` on the budgeted interpreter, or None."""
    return pattern.backend[2]
