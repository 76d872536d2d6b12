"""Grammar-driven mutation harness.

Valid base messages are derived from the grammar itself (repetition bounds
honored, alternation branches uniform, declared constraints repaired by
resampling). Invalid mutants come from three rule families: out-of-set
character replacement, invalid repetition counts, and constraint
violations. Torture mutants apply validity-preserving transforms (case
flips, extra legal whitespace, folding, boundary repetition counts).

A base is read-only once `_repair` has assembled it. Assembly, which only
`_repair` runs, sets each part's offsets; every family builds its mutant
as an edit of `tree.message` at those offsets.

Every mutant's ground-truth label is re-verified against the independent
reference validator before emission; unverified labels would corrupt the
detection-rate metric. Campaigns are deterministic: the RNG stream is
split per mutant index, so partial tallies merge without changing results.

Derivation runs compiled steps: one closure per grammar element, built
once per grammar (`AnnotatedGrammar.memo`), holding that element's facts
(a byte range's pool, an alternation's CRLF-free branches, a repetition's
CRLF flag; a rule reference binds its body on first use). Each part records
its annotation env and a flat pre-order list of its derived nodes while it
is derived: repair reads the env, the families filter the list. A step
makes its `DNode` and sets the node's slots itself, with no `__init__`
frame per element.

Repair re-draws a part in place, so it finds once per base message each
entry's first part, the constraint operand lookup over their envs (an
entry's pair is replaced when its first part is re-drawn) and the part
that each constraint re-draws. It re-checks the ranges of re-drawn parts
only, and assembles the message once every constraint holds. The torture
family's whitespace walk reads `frontend.leaf_mask`'s memo table once.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from functools import cache

from . import frontend, refcheck
from .abnf import Alternation, CharCodes, CharRange, LiteralCI, Repetition, RuleRef, Sequence
from .errors import ZebuError
from .frontend import (
    COMMAND_LINE,
    Annotated,
    AnnotatedGrammar,
    Cmp,
    FieldRef,
    HeaderDecl,
    MessageKind,
    expr_to_text,
)


class Exhausted(ZebuError):
    """No mutant of the requested family exists for this derivation."""


class BudgetExhausted(ZebuError):
    """Constraint-aware resampling could not produce a valid base message."""


class MutRule(enum.Enum):
    CHARSET = "charset"
    REPETITION = "repetition"
    CONSTRAINT = "constraint"
    TORTURE = "torture"


class Position(enum.Enum):
    FIRST = "first"
    MIDDLE = "middle"
    LAST = "last"


INVALID_RULES = (MutRule.CHARSET, MutRule.REPETITION, MutRule.CONSTRAINT)

_BASE_SIZE_BUDGET = 8  # extra repetition iterations a base message may draw
_REPAIR_TRIES = 200    # constraint re-draws before a base message is given up
_FAMILY_TRIES = 40     # candidate edits a mutation family draws before exhausting


@dataclass
class Mutant:
    data: bytes
    rule: MutRule
    ground_truth: str  # "VALID" | "INVALID"
    provenance: str
    seed: str


# --- derivation --------------------------------------------------------------

class DNode:
    """One derived grammar element and its span in the part's value. A
    part's nodes are listed in pre-order: each before its children, the
    children in source order (a repetition has one per iteration).

    The derive steps make a node with `DNode()` and set its three slots
    themselves: a Python-level `__init__` would cost a frame per element."""

    __slots__ = ("elem", "start", "end")


@dataclass
class Part:
    kind: str                      # "command" | "header"
    decl: HeaderDecl | None
    key: bytes | None
    nodes: list[DNode] = field(default_factory=list)
    value: bytes = b""
    env: dict | None = None        # annotation path -> (start, end, branch)
    clean: bool = False            # ranges checked clean since the last draw
    offset: int = 0                # absolute offset of the line
    value_offset: int = 0          # absolute offset of the value

    def draw(self, deriver: _Deriver, body) -> Part:
        """Derive this part's value afresh, recording its env and nodes as
        it goes."""
        self.env = {}
        self.value, self.nodes = deriver.derive_value(body, self.env)
        self.clean = False
        return self


@dataclass
class DerivationTree:
    ag: AnnotatedGrammar
    kind: MessageKind
    parts: list[Part]
    message: bytes = b""

    def assemble(self) -> None:
        chunks = []
        offset = 0
        for part in self.parts:
            part.offset = offset
            if part.kind == "command":
                part.value_offset = offset
                line = part.value
            else:
                part.value_offset = offset + len(part.key) + 2
                line = part.key + b": " + part.value
            chunks.append(line)
            chunks.append(b"\r\n")
            offset += len(line) + 2
        chunks.append(b"\r\n")
        self.message = b"".join(chunks)

    def entry_parts(self) -> dict[str, Part]:
        out = {}
        for part in self.parts:
            if part.kind == "command":
                out.setdefault(COMMAND_LINE[self.kind], part)
            else:
                out.setdefault(part.decl.name, part)
        return out


class _Deriver:
    """Draws derivations from a grammar's compiled steps with one RNG."""

    def __init__(self, ag: AnnotatedGrammar, rng: random.Random, size_budget: int):
        self.ag = ag
        self.rng = rng
        self.size_budget = size_budget

    def derive_value(self, body, env: dict | None = None) -> tuple[bytes, list[DNode]]:
        """One derivation of `body` and its nodes. Each annotation's
        (start, end, branch) is recorded in `env` as it is derived: its key
        in pre-order, its value when it ends, so the last of a repeated path
        wins."""
        out = bytearray()
        nodes = []
        _step(body, self.ag)(self, out, nodes, "", {} if env is None else env)
        return bytes(out), nodes


def _step(elem, ag: AnnotatedGrammar):
    """The derive step of `elem`, built once per grammar:
    `step(deriver, out, nodes, prefix, env)` appends one derivation to `out`
    and its nodes to `nodes`, drawing from `deriver.rng`. It returns the
    branch an alternation drew, passed up through rule references, and None
    for every other element; an annotation records that branch."""
    memo = ag.memo("mutate.step")
    hit = memo.get(id(elem))
    if hit is None:
        hit = memo[id(elem)] = (elem, _build_step(elem, ag))
    return hit[1]


def _build_step(elem, ag: AnnotatedGrammar):
    """Each step captures its element's facts when it is built: a byte
    range's CR/LF-free pool, an alternation's CRLF-free branch indices (all
    when none is), a repetition's CRLF flag. A rule reference binds its
    body's step on first use, because rules may be recursive."""
    if isinstance(elem, (LiteralCI, CharCodes)):
        data = elem.text.encode("ascii") if isinstance(elem, LiteralCI) else elem.data

        def step(d, out, nodes, prefix, env):
            node = DNode()
            node.elem = elem
            node.start = len(out)
            out += data
            node.end = len(out)
            nodes.append(node)
    elif isinstance(elem, CharRange):
        pool = [b for b in range(elem.lo, elem.hi + 1) if b not in (0x0D, 0x0A)]
        lo = elem.lo

        def step(d, out, nodes, prefix, env):
            node = DNode()
            node.elem = elem
            node.start = len(out)
            node.end = node.start + 1
            nodes.append(node)
            out.append(d.rng.choice(pool) if pool else lo)
    elif isinstance(elem, RuleRef):
        body = None

        def step(d, out, nodes, prefix, env):
            nonlocal body
            if body is None:
                ref = frontend.rule_graph(d.ag).rules.get(elem.name.lower())
                if ref is None:
                    raise ZebuError(f"cannot derive undefined rule {elem.name!r}")
                body = _step(ref.rule.body, d.ag)
            node = DNode()
            node.elem = elem
            node.start = len(out)
            nodes.append(node)
            branch = body(d, out, nodes, prefix, env)
            node.end = len(out)
            return branch
    elif isinstance(elem, Annotated):
        inner = _step(elem.inner, ag)
        name = elem.name

        def step(d, out, nodes, prefix, env):
            path = f"{prefix}.{name}" if prefix else name
            env.setdefault(path, None)
            node = DNode()
            node.elem = elem
            node.start = start = len(out)
            nodes.append(node)
            branch = inner(d, out, nodes, path, env)
            node.end = end = len(out)
            env[path] = (start, end, branch)
    elif isinstance(elem, Sequence):
        items = [_step(i, ag) for i in elem.items]

        def step(d, out, nodes, prefix, env):
            node = DNode()
            node.elem = elem
            node.start = len(out)
            nodes.append(node)
            for item in items:
                item(d, out, nodes, prefix, env)
            node.end = len(out)
    elif isinstance(elem, Alternation):
        branches = [i for i, b in enumerate(elem.branches)
                    if not _may_contain_crlf(b, ag)] or list(range(len(elem.branches)))
        steps = [_step(b, ag) for b in elem.branches]

        def step(d, out, nodes, prefix, env):
            i = d.rng.choice(branches)
            node = DNode()
            node.elem = elem
            node.start = len(out)
            nodes.append(node)
            steps[i](d, out, nodes, prefix, env)
            node.end = len(out)
            return i
    elif isinstance(elem, Repetition):
        inner = _step(elem.inner, ag)
        lo, hi = elem.min, elem.max
        # base messages stay fold-free; torture introduces folds later
        fixed = _may_contain_crlf(elem.inner, ag)

        def step(d, out, nodes, prefix, env):
            if fixed:
                count = lo
            elif hi is None:
                count, top, rnd = lo, lo + d.size_budget, d.rng.random
                while count < top and rnd() < 0.5:
                    count += 1
            else:
                count = d.rng.randint(lo, min(hi, lo + d.size_budget))
            node = DNode()
            node.elem = elem
            node.start = len(out)
            nodes.append(node)
            for _ in range(count):
                inner(d, out, nodes, prefix, env)
            node.end = len(out)
    else:
        def step(d, out, nodes, prefix, env):
            raise TypeError(f"cannot derive {elem!r}")
    return step


_CRLF = 1 << 0x0D | 1 << 0x0A
# the bits a leaf mask of whitespace alone may hold: no capture or undefined rule
_WHITESPACE = frontend.LEAF_CODES | 1 << 0x20 | 1 << 0x09 | _CRLF


def _may_contain_crlf(elem, ag) -> bool:
    return bool(frontend.leaf_mask(elem, ag) & _CRLF)


def _whitespace_only(elem, ag) -> bool:
    """False as soon as a capture or an undefined rule is reachable."""
    return not frontend.leaf_mask(elem, ag) & ~_WHITESPACE


def _derive_message(ag: AnnotatedGrammar, rng: random.Random,
                    size_budget: int) -> DerivationTree:
    deriver = _Deriver(ag, rng, size_budget)
    kind = rng.choice((MessageKind.REQUEST, MessageKind.RESPONSE))
    parts = [Part("command", None, None).draw(deriver, ag.command_lines[kind].body)]
    for decl in ag.headers:
        include = kind in decl.mandatory_in or rng.random() < 0.5
        if not include:
            continue
        copies = 2 if decl.multiple and rng.random() < 0.34 else 1
        for _ in range(copies):
            part = Part("header", decl, decl.keys[0].encode("ascii"))
            parts.append(part.draw(deriver, decl.body))
    tree = DerivationTree(ag, kind, parts)
    _repair(tree, deriver)
    return tree


def _repair(tree: DerivationTree, deriver: _Deriver) -> None:
    """Resample constrained entries until every declared constraint holds,
    then assemble the message and check it against the reference validator.
    The parts stay the same objects while they are re-drawn, so each entry's
    first part, the constraint operand lookup and the part each constraint
    re-draws are found once."""
    ag = tree.ag
    command = COMMAND_LINE[tree.kind]
    entry_parts = tree.entry_parts()
    fields = {entry: (part.env, part.value) for entry, part in entry_parts.items()}
    lookup = refcheck.field_lookup(tree.kind, fields)
    constraints = [(expr, _part_for_expr(expr, entry_parts)) for expr in ag.blocks[tree.kind]]
    constraints += [(expr, entry_parts[decl.name]) for decl in ag.headers
                    if decl.name in entry_parts for expr in decl.local_constraints]
    uints = refcheck._uint_fields(ag)
    for _ in range(_REPAIR_TRIES):
        bad_part = _first_violation(tree, command, uints, lookup, constraints)
        if bad_part is None:
            tree.assemble()
            ok, notes = refcheck.reference_validate(ag, tree.message)
            if ok:
                return
            raise BudgetExhausted(f"derived message unexpectedly invalid: {notes}")
        if bad_part.decl is None:
            entry, body = command, ag.command_lines[tree.kind].body
        else:
            entry, body = bad_part.decl.name, bad_part.decl.body
        bad_part.draw(deriver, body)
        if entry_parts[entry] is bad_part:
            fields[entry] = (bad_part.env, bad_part.value)
    raise BudgetExhausted("constraint-aware resampling budget exhausted")


def _first_violation(tree: DerivationTree, command: str, uints: dict, lookup,
                     constraints) -> Part | None:
    """The first part that breaks a declared range or constraint. Every
    part's ranges are checked, each copy of a `multiple` header too, once
    per draw; cross-field constraints every time, each `(expr, part)` naming
    the part it re-draws."""
    for part in tree.parts:
        if part.clean:
            continue
        entry = command if part.decl is None else part.decl.name
        if refcheck._range_violations(entry, uints[entry], part.env, part.value):
            return part
        part.clean = True
    for expr, part in constraints:
        if refcheck._eval_ref(expr, lookup) is False:
            return part
    return None


def _part_for_expr(expr, entry_parts) -> Part | None:
    for ref in frontend.iter_field_refs(expr):
        part = entry_parts.get(ref.entry)
        if part is not None:
            return part
    return None


def derive_valid(ag: AnnotatedGrammar, seed,
                 size_budget: int = _BASE_SIZE_BUDGET) -> DerivationTree:
    """Random valid message honoring the grammar and all declared constraints."""
    rng = random.Random(f"derive:{seed}")
    return _derive_message(ag, rng, size_budget)


# --- mutation targets -----------------------------------------------------------

_TERMINALS = (LiteralCI, CharCodes, CharRange)


# the two bytes after a header key, as charset target sources: (valid, description)
_KEY_COLON = (frozenset({0x3A}), "key colon")
_KEY_SPACE = (frozenset({0x20, 0x09}), "key delimiter space")


def _charset_targets(tree: DerivationTree) -> list[tuple]:
    """`(abs_start, length, source)` of every byte run a charset mutant may
    hit: a header key (its bytes), the colon and space after it, and each
    derived terminal (its element); see `_target_facts`."""
    out = []
    for part in tree.parts:
        if part.kind == "header":
            key = part.key
            colon_at = part.offset + len(key)
            out.append((part.offset, len(key), key))
            out.append((colon_at, 1, _KEY_COLON))
            out.append((colon_at + 1, 1, _KEY_SPACE))
        base = part.value_offset
        for node in part.nodes:
            elem = node.elem
            if isinstance(elem, _TERMINALS) and node.end != node.start:
                out.append((base + node.start, node.end - node.start, elem))
    return out


def _target_facts(source, i: int) -> tuple[frozenset[int], str]:
    """The valid bytes at offset `i` of a charset target, and its description."""
    if isinstance(source, tuple):
        return source
    if isinstance(source, bytes):
        return _case_pair(source[i]), f"key {source.decode('ascii')}"
    if isinstance(source, LiteralCI):
        return _case_pair(ord(source.text[i])), f"literal {source.text!r}"
    if isinstance(source, CharCodes):
        return frozenset((source.data[i],)), f"char codes {source.data!r}"
    return (frozenset(range(source.lo, source.hi + 1)),
            f"char range {source.lo:#04x}-{source.hi:#04x}")


def _case_pair(b: int) -> frozenset[int]:
    if 0x41 <= b <= 0x5A:
        return frozenset((b, b + 32))
    if 0x61 <= b <= 0x7A:
        return frozenset((b, b - 32))
    return frozenset((b,))


@cache
def _replacement_pool(valid: frozenset[int]) -> tuple[int, ...]:
    """The bytes a charset mutant may put where `valid` ones belong, in
    byte order: every byte outside `valid` but CR and LF."""
    return tuple(b for b in range(256) if b not in valid and b not in (0x0D, 0x0A))


def _splice(data: bytes, start: int, end: int, insert: bytes) -> bytes:
    return data[:start] + insert + data[end:]


def mutate_charset(tree: DerivationTree, position: Position, seed) -> Mutant:
    """Replace the first, middle, or last byte of one message terminal with
    a byte outside its valid set (CR/LF excluded); emit only if the whole
    mutant re-checks INVALID."""
    rng = random.Random(f"charset:{seed}")
    targets = _charset_targets(tree)
    if not targets:
        raise Exhausted("derivation has no terminals")
    for _ in range(_FAMILY_TRIES):
        abs_start, length, source = rng.choice(targets)
        if position is Position.FIRST:
            idx = 0
        elif position is Position.LAST:
            idx = length - 1
        else:
            idx = length // 2
        valid, describe = _target_facts(source, idx)
        pool = _replacement_pool(valid)
        if not pool:
            continue
        replacement = rng.choice(pool)
        at = abs_start + idx
        data = _splice(tree.message, at, at + 1, bytes((replacement,)))
        ok, _ = refcheck.reference_validate(tree.ag, data)
        if not ok:
            return Mutant(
                data, MutRule.CHARSET, "INVALID",
                f"{position.value} byte of {describe} -> {replacement:#04x}",
                str(seed))
    raise Exhausted("no invalidating charset replacement found")


def _repetition_nodes(tree: DerivationTree):
    out = []
    for part in tree.parts:
        for node in part.nodes:
            elem = node.elem
            if not isinstance(elem, Repetition):
                continue
            if elem.min == 0 and elem.max is None:
                continue
            out.append((part, node))
    return out


def mutate_repetition(tree: DerivationTree, seed) -> Mutant:
    """Rewrite one repetition's expansion to a count outside its bounds."""
    rng = random.Random(f"repetition:{seed}")
    candidates = _repetition_nodes(tree)
    if not candidates:
        raise Exhausted("no bounded repetition in this derivation")
    deriver = _Deriver(tree.ag, rng, size_budget=4)
    for _ in range(_FAMILY_TRIES):
        part, node = rng.choice(candidates)
        elem: Repetition = node.elem
        if _may_contain_crlf(elem.inner, tree.ag):
            continue
        counts = []
        if elem.min > 0:
            counts.append(rng.randrange(0, elem.min))
        if elem.max is not None:
            extra = 1
            while extra < 4 and rng.random() < 0.4:
                extra += 1
            counts.append(elem.max + extra)
        if not counts:
            continue
        count = rng.choice(counts)
        run = b"".join(deriver.derive_value(elem.inner)[0] for _ in range(count))
        at = part.value_offset + node.start
        data = _splice(tree.message, at, part.value_offset + node.end, run)
        ok, _ = refcheck.reference_validate(tree.ag, data)
        if not ok:
            return Mutant(
                data, MutRule.REPETITION, "INVALID",
                f"repetition [{elem.min},{'inf' if elem.max is None else elem.max}]"
                f" expanded {count} times",
                str(seed))
    raise Exhausted("no invalidating repetition count found")


# --- constraint mutations ---------------------------------------------------------

def _exact_digit_count(elem, ag) -> int | None:
    """k when the element derives exactly k digits, None otherwise."""
    chain = frontend.follow_refs(elem, ag)
    rep = chain[0] if chain is not None else None
    if isinstance(rep, Repetition) and rep.min == rep.max:
        return rep.min
    return None


def _range_targets(tree: DerivationTree):
    """Numeric fields with a violible bound: declared ranges, uint widths,
    and range-shaped block constraints."""
    ag = tree.ag
    out = []
    entry_parts = tree.entry_parts()
    for entry, part in entry_parts.items():
        env = part.env
        for key, sf in refcheck._uint_fields(ag)[entry]:
            if key not in env:
                continue
            bound = sf.range
            hi = bound.hi if bound is not None else (1 << sf.width)
            strict = bound.hi_strict if bound is not None else True
            lo = bound.lo if bound is not None else 0
            out.append((part, entry, key, sf, lo, hi, strict))
    for expr in ag.blocks[tree.kind]:
        parsed = _range_shape_of(expr)
        if parsed is None:
            continue
        ref, lo, hi = parsed
        part, sf = entry_parts.get(ref.entry), ref.subfield
        if part is None or sf.key not in part.env:
            continue
        out.append((part, ref.entry, sf.key, sf, lo, hi, False))
    return out


def _range_shape_of(expr):
    """(ref, lo, hi) for `lo <= f && f <= hi`-shaped constraints."""
    if not frontend.is_range_shaped(expr):
        return None
    refs = list(frontend.iter_field_refs(expr))
    if not refs:
        return None
    ref = refs[0]
    lo, hi = 0, None
    items = expr.items if isinstance(expr, frontend.And) else (expr,)
    for item in items:
        if not isinstance(item, Cmp):
            return None
        lhs_int = isinstance(item.lhs, frontend.IntLit)
        lit = item.lhs.value if lhs_int else (
            item.rhs.value if isinstance(item.rhs, frontend.IntLit) else None)
        if lit is None:
            return None
        op = item.op
        if not lhs_int:
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        # now: lit <op> field
        if op in ("<", "<="):
            lo = max(lo, lit if op == "<=" else lit + 1)
        elif op in (">", ">="):
            hi = lit if op == ">=" else lit - 1
        else:
            return None
    if hi is None:
        return None
    return ref, lo, hi


def mutate_constraint(tree: DerivationTree, seed) -> Mutant:
    """Violate a declared constraint while staying grammar-syntactic where
    the strategy allows: out-of-range rewrite of a checked numeric field,
    deletion of a mandatory header, duplication of a multiple=false header,
    or a cross-field equality broken on one side."""
    ag = tree.ag
    rng = random.Random(f"constraint:{seed}")
    strategies = []
    entry_parts = tree.entry_parts()

    for target in _range_targets(tree):
        strategies.append(("range", target))
    for decl in ag.headers:
        if tree.kind in decl.mandatory_in and decl.name in entry_parts:
            strategies.append(("delete", decl))
        if not decl.multiple and decl.name in entry_parts:
            strategies.append(("duplicate", decl))
    for expr in ag.blocks[tree.kind]:
        if (isinstance(expr, Cmp) and expr.op == "=="
                and isinstance(expr.lhs, FieldRef) and isinstance(expr.rhs, FieldRef)):
            strategies.append(("equality", expr))
    if not strategies:
        raise Exhausted("grammar declares no violible constraints")

    deriver = _Deriver(ag, rng, size_budget=4)
    for _ in range(_FAMILY_TRIES):
        kind, payload = rng.choice(strategies)
        data = None
        describe = ""
        if kind == "range":
            part, entry, key, sf, lo, hi, strict = payload
            span = part.env.get(key)
            bad = _out_of_range_text(rng, ag, sf, lo, hi, strict)
            if bad is None or span is None:
                continue
            at = part.value_offset + span[0]
            data = _splice(tree.message, at, part.value_offset + span[1], bad)
            describe = f"{entry}.{key} rewritten to {bad.decode('ascii')}"
        elif kind in ("delete", "duplicate"):
            part = entry_parts[payload.name]
            end = part.value_offset + len(part.value) + 2  # past the line's CRLF
            if kind == "delete":
                data = _splice(tree.message, part.offset, end, b"")
                describe = f"mandatory header {payload.name} deleted"
            else:
                data = _splice(tree.message, end, end, tree.message[part.offset:end])
                describe = f"header {payload.name} duplicated"
        else:
            side = rng.choice((payload.lhs, payload.rhs))
            entry, sf = side.entry, side.subfield
            part = entry_parts.get(entry)
            hit = part.env.get(sf.key) if part is not None else None
            if hit is None:
                continue
            start, end, branch = hit
            # the first site's branches; refcheck labels the mutant whichever
            # site it derives from
            alt = frontend.resolve_to_alternation(sf.sites[0].inner, ag)
            if alt is None or branch is None or len(alt.branches) < 2:
                continue
            choices = [i for i in range(len(alt.branches)) if i != branch]
            new_branch = rng.choice(choices)
            value, _ = deriver.derive_value(alt.branches[new_branch])
            at = part.value_offset + start
            data = _splice(tree.message, at, part.value_offset + end, value)
            describe = (f"{entry}.{sf.key} rewritten to alternation branch {new_branch} "
                        f"breaking {expr_to_text(payload)}")
        if data is None:
            continue
        ok, _ = refcheck.reference_validate(ag, data)
        if not ok:
            return Mutant(data, MutRule.CONSTRAINT, "INVALID", describe, str(seed))
    raise Exhausted("no constraint violation could be produced")


def _out_of_range_text(rng, ag, sf: frontend.Subfield, lo, hi, strict) -> bytes | None:
    exact = _exact_digit_count(sf.sites[0].inner, ag)
    candidates = []
    top = hi if strict else hi + 1
    if exact is not None:
        limit = 10 ** exact
        if top < limit:
            candidates.extend(v for v in (top, top + 1, limit - 1) if v < limit)
        if lo > 0:
            candidates.append(rng.randrange(0, lo))
    else:
        candidates.extend((top, top + rng.randrange(0, 1000)))
        if lo > 0:
            candidates.append(rng.randrange(0, lo))
    if not candidates:
        return None
    value = rng.choice(candidates)
    text = str(value)
    if exact is not None:
        text = text.zfill(exact)
        if len(text) != exact:
            return None
    return text.encode("ascii")


# --- torture mutations -----------------------------------------------------------

_COMPOSITES = frozenset((RuleRef, Repetition, Sequence, Alternation))


def _ws_points(tree: DerivationTree):
    """(part, start, end, in_value) spans derived from whitespace-only
    grammar positions, plus the delimiter points around the colon. The
    walk reads `frontend.leaf_mask`'s memo itself, learning only on a miss."""
    ag = tree.ag
    learnt = ag.memo("leaves")
    out = []
    for part in tree.parts:
        base = part.value_offset
        in_value = part.kind == "header"
        if in_value:
            colon_at = part.offset + len(part.key)
            out.append((part, colon_at, colon_at, False))  # before the colon
            out.append((part, base - 1, base - 1, False))
        for node in part.nodes:
            elem = node.elem
            if type(elem) in _COMPOSITES:
                hit = learnt.get(id(elem))
                mask = hit[1] if hit is not None else frontend.leaf_mask(elem, ag)
                if not mask & ~_WHITESPACE:
                    out.append((part, base + node.start, base + node.end, in_value))
    return out


def _literal_spans(tree: DerivationTree):
    out = []
    for part in tree.parts:
        if part.kind == "header":
            out.append((part.offset, part.offset + len(part.key)))
        for node in part.nodes:
            if isinstance(node.elem, LiteralCI) and node.end > node.start:
                out.append((part.value_offset + node.start,
                            part.value_offset + node.end))
    return out


def mutate_torture(tree: DerivationTree, seed) -> Mutant:
    """Validity-preserving corner-case transforms: case flips inside
    case-insensitive literals, extra legal whitespace, folds at linear-
    whitespace points, and repetition counts pushed to exact bounds.
    Re-verified VALID before emission; the identity transform is the
    fallback, so this never exhausts."""
    ag = tree.ag
    rng = random.Random(f"torture:{seed}")
    literal_spans = _literal_spans(tree)
    ws_points = _ws_points(tree)
    fold_points = [p for p in ws_points if p[3] and p[2] > p[1]]
    bounded = [(p, nd) for p, nd in _repetition_nodes(tree)
               if not _may_contain_crlf(nd.elem.inner, ag)]
    for _ in range(_FAMILY_TRIES):
        data = tree.message
        edits = []  # (start, end, replacement) applied right-to-left
        names = []
        n_transforms = rng.randint(1, 3)
        for _ in range(n_transforms):
            choice = rng.randrange(4)
            if choice == 0:
                if not literal_spans:
                    continue
                s, e = rng.choice(literal_spans)
                flipped = bytes(
                    (b ^ 0x20) if (0x41 <= b <= 0x5A or 0x61 <= b <= 0x7A)
                    and rng.random() < 0.6 else b
                    for b in data[s:e])
                edits.append((s, e, flipped))
                names.append("case-flip")
            elif choice == 1:
                if not ws_points:
                    continue
                part, s, e, _ = rng.choice(ws_points)
                run = bytes(rng.choice((0x20, 0x09))
                            for _ in range(rng.randint(1, 3)))
                edits.append((s, s, run))
                names.append("extra-whitespace")
            elif choice == 2:
                if not fold_points:
                    continue
                part, s, e, _ = rng.choice(fold_points)
                fold = b"\r\n" + bytes(rng.choice((0x20, 0x09))
                                       for _ in range(rng.randint(1, 2)))
                edits.append((s, e, fold))
                names.append("fold")
            else:
                if not bounded:
                    continue
                part, node = rng.choice(bounded)
                elem: Repetition = node.elem
                count = elem.min if (elem.max is None or rng.random() < 0.5) else elem.max
                deriver = _Deriver(ag, rng, size_budget=2)
                run = b"".join(deriver.derive_value(elem.inner)[0] for _ in range(count))
                edits.append((part.value_offset + node.start,
                              part.value_offset + node.end, run))
                names.append(f"boundary-repetition({count})")
        if not edits:
            return Mutant(tree.message, MutRule.TORTURE, "VALID",
                          "identity", str(seed))
        # drop overlapping edits, apply right-to-left so offsets stay valid
        edits.sort(key=lambda t: t[0], reverse=True)
        pruned = []
        prev_start = None
        for s, e, rep in edits:
            if prev_start is not None and e > prev_start:
                continue
            pruned.append((s, e, rep))
            prev_start = s
        for s, e, rep in pruned:
            data = _splice(data, s, e, rep)
        ok, _ = refcheck.reference_validate(ag, data)
        if ok:
            return Mutant(data, MutRule.TORTURE, "VALID",
                          "+".join(sorted(set(names))), str(seed))
    return Mutant(tree.message, MutRule.TORTURE, "VALID", "identity", str(seed))


# --- campaigns ---------------------------------------------------------------------

DEFAULT_MIX = {MutRule.CHARSET: 1.0, MutRule.REPETITION: 1.0,
               MutRule.CONSTRAINT: 1.0, MutRule.TORTURE: 1.0}

_POSITIONS = (Position.FIRST, Position.MIDDLE, Position.LAST)


@dataclass
class RuleTally:
    emitted: int = 0
    detected: int = 0
    missed: int = 0


@dataclass
class MutationReport:
    per_rule: dict = field(default_factory=dict)
    false_rejects: int = 0
    total: int = 0
    seed: object = None

    def tally(self, rule: MutRule) -> RuleTally:
        return self.per_rule.setdefault(rule.value, RuleTally())

    @property
    def missed(self) -> int:
        return sum(t.missed for t in self.per_rule.values())

    def merge(self, other: "MutationReport") -> None:
        for rule, tally in other.per_rule.items():
            mine = self.per_rule.setdefault(rule, RuleTally())
            mine.emitted += tally.emitted
            mine.detected += tally.detected
            mine.missed += tally.missed
        self.false_rejects += other.false_rejects
        self.total += other.total

    def render(self) -> str:
        lines = [f"{'rule':<12} {'emitted':>8} {'detected':>9} {'missed':>7}"]
        for rule in ("charset", "repetition", "constraint"):
            t = self.per_rule.get(rule, RuleTally())
            lines.append(f"{rule:<12} {t.emitted:>8} {t.detected:>9} {t.missed:>7}")
        t = self.per_rule.get("torture", RuleTally())
        lines.append(f"{'torture':<12} {t.emitted:>8} {'-':>9} {'-':>7}")
        lines.append(f"total {self.total}  missed {self.missed}  "
                     f"falseRejects {self.false_rejects}  seed {self.seed}")
        return "\n".join(lines) + "\n"


def _weighted_rule(rng: random.Random, mix: dict) -> MutRule:
    rules = [r for r in MutRule if mix.get(r, 0) > 0]
    weights = [mix[r] for r in rules]
    return rng.choices(rules, weights=weights, k=1)[0]


def make_mutant(ag: AnnotatedGrammar, index: int, seed, mix=None) -> Mutant:
    """Deterministic mutant for (grammar, seed, index): fresh valid base,
    weighted rule choice, fallback to the next family on exhaustion."""
    mix = DEFAULT_MIX if mix is None else mix
    mutant_seed = f"{seed}:{index}"
    rng = random.Random(f"rule:{mutant_seed}")
    tree = _derive_message(ag, random.Random(f"base:{mutant_seed}"), _BASE_SIZE_BUDGET)
    first = _weighted_rule(rng, mix)
    order = [first] + [r for r in (*INVALID_RULES, MutRule.TORTURE) if r is not first]
    for rule in order:
        try:
            if rule is MutRule.CHARSET:
                position = _POSITIONS[index % 3]
                mutant = mutate_charset(tree, position, mutant_seed)
            elif rule is MutRule.REPETITION:
                mutant = mutate_repetition(tree, mutant_seed)
            elif rule is MutRule.CONSTRAINT:
                mutant = mutate_constraint(tree, mutant_seed)
            else:
                mutant = mutate_torture(tree, mutant_seed)
            return mutant
        except Exhausted:
            continue
    raise Exhausted(f"no mutation family applicable at index {index}")


def run_campaign(ag: AnnotatedGrammar, target, n: int, seed, mix=None, sink=None,
                 index_range=None) -> MutationReport:
    """Feed n mutants to `target` (bytes -> accepted bool) and tally.

    Deterministic for fixed (grammar, n, seed, mix); `index_range` runs a
    sub-range for parallel execution, and partial reports merge exactly.
    """
    if n <= 0:
        raise ZebuError("campaign size must be positive")
    mix = DEFAULT_MIX if mix is None else mix
    report = MutationReport(seed=seed)
    for index in index_range if index_range is not None else range(n):
        mutant = make_mutant(ag, index, seed, mix)
        accepted = target(mutant.data)
        tally = report.tally(mutant.rule)
        tally.emitted += 1
        report.total += 1
        if mutant.ground_truth == "INVALID":
            if accepted:
                tally.missed += 1
            else:
                tally.detected += 1
        elif not accepted:
            report.false_rejects += 1
        if sink is not None:
            sink(index, mutant)
    return report


def parse_mix(text: str) -> dict:
    """Parse `charset=1,repetition=2,...`; unnamed rules get weight 0.
    Raises ZebuError for a weight that is not a finite number >= 0."""
    mix = {r: 0.0 for r in MutRule}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        try:
            rule = MutRule(name.strip())
        except ValueError:
            raise ZebuError(f"unknown mutation rule {name.strip()!r}") from None
        try:
            weight = float(value) if value else 1.0
        except ValueError:
            weight = math.nan
        if not 0 <= weight < math.inf:  # NaN fails both comparisons
            raise ZebuError(f"weight {value.strip()!r} of mutation rule {rule.value!r} "
                            "is not a finite number >= 0")
        mix[rule] = weight
    if not any(mix.values()):
        raise ZebuError("mutation mix selects no rules")
    return mix
