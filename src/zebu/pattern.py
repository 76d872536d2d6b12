"""Executable match patterns compiled from entry-point grammar bodies.

`compile_pattern` fully inlines rule references (the verifier guarantees
acyclicity) and attaches capture nodes for named subfields. `match_full`
is a backtracking interpreter over the inlined tree: alternation branches
are tried in source order, repetition is greedy, and backtracking is
complete, so a subject matches iff some derivation exists. Captures report
the spans of the first successful derivation under that order.

`reference_match` is the independent testing oracle: a direct set-of-end-
positions interpretation of the grammar AST with no inlining, no captures,
and no sharing of code with the compiled matcher.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from . import abnf, frontend
from .abnf import (
    Alternation,
    CharCodes,
    CharRange,
    LiteralCI,
    Repetition,
    Rule,
    RuleRef,
    Sequence,
)
from .errors import ZebuError
from .frontend import Annotated, AnnotatedGrammar, RangeBound, Shape, Subfield


class InliningDepthExceeded(ZebuError):
    """Defensive bound hit while inlining; signals a verifier bug."""


class MatchBudgetExceeded(ZebuError):
    """The per-match step budget ran out; reported distinctly from non-match."""


class RecursionBudgetExceeded(ZebuError):
    """The reference matcher's node-visit budget ran out."""


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
    members: frozenset[int]


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

# Opaque matcher standing in for a lazy subfield inside its enclosing
# pattern; the subfield's own pattern runs only when forced.
LAZY_HOLE = PRep(0, None, PClass(frozenset(range(256))))

_MAX_INLINE_DEPTH = 128


@dataclass
class Pattern:
    root: PatternNode
    capture_index: dict[str, int] = field(default_factory=dict)
    deferred_ranges: dict[str, RangeBound] = field(default_factory=dict)


@dataclass
class MatchResult:
    matched: bool
    captures: dict[int, tuple[int, int]]  # capture id -> (start, end); absent ids were unexercised

    def span(self, pattern: Pattern, key: str) -> tuple[int, int] | None:
        cid = pattern.capture_index.get(key)
        return self.captures.get(cid) if cid is not None else None


# --- compilation ------------------------------------------------------------

def _as_annotated_grammar(g) -> AnnotatedGrammar:
    if isinstance(g, AnnotatedGrammar):
        return g
    return AnnotatedGrammar(base=g)


class _Compiler:
    def __init__(self, ag: AnnotatedGrammar, table: dict[str, Subfield], lazy_holes: bool):
        self.ag = ag
        self.table = table
        self.lazy_holes = lazy_holes
        self.capture_index: dict[str, int] = {}
        self.deferred: dict[str, RangeBound] = {}
        self._depth = 0

    def cap_id(self, key: str) -> int:
        return self.capture_index.setdefault(key, len(self.capture_index))

    def compile(self, elem, prefix: tuple[str, ...]):
        if isinstance(elem, Annotated):
            key = ".".join(prefix + (elem.name,))
            sf = self.table.get(key)
            if sf is None:
                raise CompileError(f"no subfield metadata for {key!r}")
            return self.compile_subfield(sf)
        if isinstance(elem, LiteralCI):
            return PLit(elem.text.lower().encode("ascii"))
        if isinstance(elem, CharCodes):
            return PBytes(elem.data)
        if isinstance(elem, CharRange):
            return PClass(frozenset(range(elem.lo, elem.hi + 1)))
        if isinstance(elem, Sequence):
            return PSeq(tuple(self.compile(i, prefix) for i in elem.items))
        if isinstance(elem, Alternation):
            return PAlt(tuple(self.compile(b, prefix) for b in elem.branches))
        if isinstance(elem, Repetition):
            return PRep(elem.min, elem.max, self.compile(elem.inner, prefix))
        if isinstance(elem, RuleRef):
            rule = abnf.resolve(elem.name, self.ag.base)
            if rule is None:
                raise CompileError(f"undefined rule {elem.name!r}")
            self._depth += 1
            if self._depth > _MAX_INLINE_DEPTH:
                raise InliningDepthExceeded(
                    f"inlining depth exceeded at rule {elem.name!r}")
            try:
                return self.compile(rule.body, prefix)
            finally:
                self._depth -= 1
        raise CompileError(f"cannot compile {elem!r}")

    def compile_subfield(self, sf: Subfield):
        key = sf.key
        cid = self.cap_id(key)
        if sf.lazy and len(sf.path) == 1 and self.lazy_holes:
            return PCap(cid, LAZY_HOLE)
        if sf.shape in (Shape.ENUM, Shape.UNION):
            alt = frontend.resolve_to_alternation(sf.element, self.ag)
            if alt is None:
                raise CompileError(
                    f"subfield {key!r} is {sf.shape.value} but derives no alternation")
            branches = tuple(
                PCap(self.cap_id(f"{key}#{i}"), self.compile(b, sf.path))
                for i, b in enumerate(alt.branches)
            )
            node = PAlt(branches)
        else:
            node = self.compile(sf.element, sf.path)
        if sf.shape in (Shape.UINT16, Shape.UINT32):
            bound = frontend.declared_range(sf.element, self.ag)
            if bound is not None:
                self.deferred[key] = bound
        return PCap(cid, node)


def compile_pattern(entry, g, *, table: dict[str, Subfield] | None = None,
                    lazy_holes: bool = True, prefix: tuple[str, ...] = ()) -> Pattern:
    """Compile a rule or entry-point body into an executable Pattern.

    `entry` is a Rule or a bare element; `g` a Grammar or AnnotatedGrammar.
    Lazy depth-1 subfields compile to an opaque hole unless `lazy_holes`
    is false; their own patterns are compiled separately (see
    compile_subfield_pattern).
    """
    ag = _as_annotated_grammar(g)
    body = entry.body if isinstance(entry, Rule) else entry
    if table is None:
        table = frontend.collect_subfields(body, ag) if prefix == () else {}
    comp = _Compiler(ag, table, lazy_holes)
    root = _simplify(comp.compile(body, prefix))
    return Pattern(root, comp.capture_index, comp.deferred)


def compile_subfield_pattern(sf: Subfield, ag: AnnotatedGrammar,
                             table: dict[str, Subfield]) -> Pattern:
    """Compile a lazy subfield's own pattern (captures keyed by full path)."""
    comp = _Compiler(ag, table, lazy_holes=False)
    root = _simplify(comp.compile_subfield(sf))
    return Pattern(root, comp.capture_index, comp.deferred)


# --- simplification ---------------------------------------------------------

def _single_byte_set(node) -> frozenset[int] | None:
    t = type(node)
    if t is PClass:
        return node.members
    if t is PBytes and len(node.data) == 1:
        return frozenset(node.data)
    if t is PLit and len(node.data) == 1:
        b = node.data[0]
        upper = b - 32 if 0x61 <= b <= 0x7A else b
        return frozenset((b, upper))
    return None


def _simplify(node):
    t = type(node)
    if t is PSeq:
        items = []
        for item in node.items:
            s = _simplify(item)
            if type(s) is PSeq:
                items.extend(s.items)
            else:
                items.append(s)
        merged: list = []
        for item in items:
            if type(item) is PBytes and merged and type(merged[-1]) is PBytes:
                merged[-1] = PBytes(merged[-1].data + item.data)
            else:
                merged.append(item)
        return merged[0] if len(merged) == 1 else PSeq(tuple(merged))
    if t is PAlt:
        flat = []
        for branch in node.branches:
            s = _simplify(branch)
            if type(s) is PAlt:
                flat.extend(s.branches)
            else:
                flat.append(s)
        sets = [_single_byte_set(b) for b in flat]
        if all(s is not None for s in sets):
            return PClass(frozenset().union(*sets))
        return flat[0] if len(flat) == 1 else PAlt(tuple(flat))
    if t is PRep:
        return PRep(node.min, node.max, _simplify(node.inner))
    if t is PCap:
        return PCap(node.cid, _simplify(node.inner))
    return node


# --- matching ---------------------------------------------------------------

DEFAULT_MATCH_BUDGET = 1_000_000


def match_full(pattern, subject: bytes, budget: int = DEFAULT_MATCH_BUDGET) -> MatchResult:
    """Match the entire subject against the pattern.

    Raises MatchBudgetExceeded when the step budget (or Python's recursion
    limit) is hit, which callers must treat as distinct from a non-match.
    """
    root = pattern.root if isinstance(pattern, Pattern) else pattern
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
            if pos < n and subject[pos] in node.members:
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
                members = inner.members
                limit = n if node.max is None else min(n, pos + node.max)
                k = pos
                while k < limit and subject[k] in members:
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
                return MatchResult(True, dict(caps))
    except RecursionError:
        raise MatchBudgetExceeded("recursion limit exhausted during match") from None
    return MatchResult(False, {})


# --- independent reference matcher -------------------------------------------

DEFAULT_REFERENCE_BUDGET = 2_000_000


def reference_match(entry, g, subject: bytes,
                    budget: int = DEFAULT_REFERENCE_BUDGET) -> bool:
    """Decide full derivability by direct recursive interpretation of the
    grammar AST: explicit end-position sets, exhaustive over repetition
    counts and alternation branches, no inlining, no captures.

    The testing oracle for compile_pattern + match_full; it deliberately
    shares no machinery with them. Subfield annotations are transparent
    (lazy regions are fully checked).
    """
    ag = _as_annotated_grammar(g)
    body = entry.body if isinstance(entry, Rule) else entry
    n = len(subject)
    memo: dict[tuple[int, int], tuple[int, ...]] = {}
    lit_cache: dict[int, bytes] = {}
    steps = budget

    def ends(elem, pos) -> tuple[int, ...]:
        nonlocal steps
        key = (id(elem), pos)
        hit = memo.get(key)
        if hit is not None:
            return hit
        steps -= 1
        if steps < 0:
            raise RecursionBudgetExceeded("reference matcher budget exhausted")
        result = _ends(elem, pos)
        memo[key] = result
        return result

    def _ends(elem, pos) -> tuple[int, ...]:
        if isinstance(elem, LiteralCI):
            lit = lit_cache.get(id(elem))
            if lit is None:
                lit = elem.text.lower().encode("ascii")
                lit_cache[id(elem)] = lit
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
            rule = abnf.resolve(elem.name, ag.base)
            if rule is None:
                raise ZebuError(f"undefined rule {elem.name!r} in reference match")
            return ends(rule.body, pos)
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
        raise RecursionBudgetExceeded(
            "recursion limit exhausted during reference match") from None
