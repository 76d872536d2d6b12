"""Reference validation of whole messages, independent of the parse engine.

The mutation harness labels every mutant by re-checking it here before
emission, so detection rates measured against the engine are a real claim
rather than a tautology. This module re-implements the message structure
rules and constraint semantics directly over the grammar AST: derivations
are explored by a recursive environment-threading backtracker (same
disambiguation contract as the compiled matcher: source-order branches,
greedy repetition, full backtracking), with no pattern compilation, no
inlining, and no lazy holes, so lazy regions are checked in full. It
imports nothing from `engine` or `pattern` and shares no matching or
evaluation code with them.

The env a derivation threads is a linked chain of `(parent, key, value)`
links, one per annotation, so extending it costs one tuple; only the first
full derivation is turned into a dict, later links overriding earlier ones.
A repetition whose inner always matches exactly one byte from a fixed set
(byte ranges, one-byte codes, one-character literals and alternations of
them, through rule references, with no annotation) takes a byte-run
shortcut: the run is scanned greedily and its ends are yielded longest
first, the positions and order the per-byte backtracker gives, without a
generator frame per byte. Rule bodies, lowercased literals, enum branches,
byte-run sets and the header key map are learnt once per grammar
(`AnnotatedGrammar.memo`).

Each grammar also keeps a label table from (entry body, subfield table,
subject) to the env, or None, that the derivation returned. It holds at
most `LABEL_TABLE_SIZE` (256) entries and drops the oldest first. A mutant
shares every unchanged line with the base message the harness has just
labelled, so about half of a campaign's derivations become lookups.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import abnf, frontend
from .abnf import Alternation, CharCodes, CharRange, LiteralCI, Repetition, RuleRef, Sequence
from .errors import ZebuError
from .frontend import (
    REQUEST_LINE,
    STATUS_LINE,
    And,
    Annotated,
    AnnotatedGrammar,
    Cmp,
    FieldRef,
    IntLit,
    Mandatory,
    Not,
    Or,
    Shape,
    StrLit,
)


class ReferenceBudgetExceeded(ZebuError):
    pass


DEFAULT_BUDGET = 4_000_000
LABEL_TABLE_SIZE = 256  # labels kept per grammar; the oldest goes first

# env entry: dotted path -> (start, end, branch or None)
Env = "dict[str, tuple[int, int, int | None]]"


def derive_env(body, ag: AnnotatedGrammar, subject: bytes, table):
    """First full derivation of `subject` from `body` under the
    disambiguation contract; returns the annotation environment, or None
    when the subject is not derivable. The result is kept in the grammar's
    label table, so callers must not modify it."""
    labels = ag.memo("refcheck.labels")
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

    def gen(elem, pos, env, prefix):
        nonlocal steps
        steps -= 1
        if steps < 0:
            raise ReferenceBudgetExceeded("reference derivation budget exhausted")
        t = type(elem)
        if t is CharRange:
            if pos < n and elem.lo <= subject[pos] <= elem.hi:
                yield pos + 1, env
        elif t is RuleRef:
            hit = facts.get(id(elem)) or _learn(facts, elem, ag)
            yield from gen(hit[1], pos, env, prefix)
        elif t is Sequence:
            yield from seq(elem.items, 0, pos, env, prefix)
        elif t is Alternation:
            for branch in elem.branches:
                yield from gen(branch, pos, env, prefix)
        elif t is Repetition:
            hit = facts.get(id(elem)) or _learn(facts, elem, ag)
            members = hit[1]
            if members is None:
                yield from rep(elem, 0, pos, env, prefix)
                return
            limit = n - pos if elem.max is None else min(elem.max, n - pos)
            k = _run_length(subject, pos, limit, members)
            for end in range(pos + k, pos + elem.min - 1, -1):
                yield end, env
        elif t is LiteralCI:
            hit = facts.get(id(elem)) or _learn(facts, elem, ag)
            lit = hit[1]
            end = pos + len(lit)
            if end <= n and subject[pos:end].lower() == lit:
                yield end, env
        elif t is CharCodes:
            end = pos + len(elem.data)
            if subject[pos:end] == elem.data:
                yield end, env
        elif t is Annotated:
            path = prefix + (elem.name,)
            key = ".".join(path)
            sf = table.get(key)
            shape = sf.shape if sf is not None else Shape.RAW
            if shape in (Shape.ENUM, Shape.UNION):
                hit = facts.get(id(elem)) or _learn(facts, elem, ag)
                for i, branch in enumerate(hit[1]):
                    for end, env2 in gen(branch, pos, env, path):
                        yield end, (env2, key, (pos, end, i))
            else:
                for end, env2 in gen(elem.inner, pos, env, path):
                    yield end, (env2, key, (pos, end, None))
        else:
            raise TypeError(f"not a grammar element: {elem!r}")

    def seq(items, i, pos, env, prefix):
        if i == len(items):
            yield pos, env
            return
        for mid, env2 in gen(items[i], pos, env, prefix):
            yield from seq(items, i + 1, mid, env2, prefix)

    def rep(node, count, pos, env, prefix):
        if node.max is None or count < node.max:
            for mid, env2 in gen(node.inner, pos, env, prefix):
                if mid == pos:
                    if count + 1 <= node.min:
                        yield from rep(node, count + 1, mid, env2, prefix)
                    continue
                yield from rep(node, count + 1, mid, env2, prefix)
        if count >= node.min:
            yield pos, env

    try:
        for end, env in gen(body, 0, None, ()):
            if end == n:
                return _materialise(env)
    except RecursionError:
        raise ReferenceBudgetExceeded("recursion limit during reference derivation") from None
    return None


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
    a rule reference's body, a literal's lowercased bytes, an enum or union
    annotation's branches, a repetition's byte-run members (or None)."""
    if isinstance(elem, RuleRef):
        rule = abnf.resolve(elem.name, ag.base)
        if rule is None:
            raise ZebuError(f"undefined rule {elem.name!r} in reference validation")
        fact = rule.body
    elif isinstance(elem, LiteralCI):
        fact = elem.text.lower().encode("ascii")
    elif isinstance(elem, Annotated):
        alt = frontend.resolve_to_alternation(elem.inner, ag)
        fact = alt.branches if alt is not None else (elem.inner,)
    else:
        members = _byte_set(elem.inner, ag, set())
        fact = bytes(sorted(members)) if members is not None else None
    hit = facts[id(elem)] = (elem, fact)
    return hit


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


# --- structural scan ----------------------------------------------------------

@dataclass
class _RefHeaderLine:
    key: bytes
    value: bytes  # unfolded, leading delimiter whitespace stripped


def _scan_structure(raw: bytes):
    """(command_line, header_lines, ok, notes); independent re-statement of
    the line rules: strict CRLF, blank-line terminator, WSP continuations."""
    notes = []
    if not raw:
        return None, [], False, ["empty input"]
    # strict CRLF split
    segments = []
    pos, n = 0, len(raw)
    blank_at = None
    while pos < n:
        i_cr = raw.find(b"\r", pos)
        i_lf = raw.find(b"\n", pos)
        if i_cr == -1 and i_lf == -1:
            return None, [], False, ["final line lacks CRLF"]
        if i_cr == -1 or (i_lf != -1 and i_lf < i_cr):
            return None, [], False, ["bare LF"]
        if i_cr + 1 >= n or raw[i_cr + 1:i_cr + 2] != b"\n":
            return None, [], False, ["bare CR"]
        if i_cr == pos:
            blank_at = pos
            break
        segments.append(raw[pos:i_cr])
        pos = i_cr + 2
    if blank_at is None:
        return None, [], False, ["no blank line before body"]
    if not segments:
        return None, [], False, ["no command line"]
    if segments[0][:1] in (b" ", b"\t"):
        return None, [], False, ["continuation before command line"]

    command = segments[0]
    logical: list[list[bytes]] = []
    for seg in segments[1:]:
        if seg[:1] in (b" ", b"\t"):
            if not logical:
                notes.append("continuation before any header")
                return None, [], False, notes
            logical[-1].append(seg)
        else:
            logical.append([seg])

    headers = []
    for parts in logical:
        first = parts[0]
        colon = first.find(b":")
        if colon == -1:
            return None, [], False, ["header line without colon"]
        key = first[:colon].rstrip(b" \t")
        if not key:
            return None, [], False, ["empty header key"]
        value = first[colon + 1:]
        for cont in parts[1:]:
            value += b" " + cont.lstrip(b" \t")
        headers.append(_RefHeaderLine(key, value.lstrip(b" \t")))
    return command, headers, True, notes


# --- field extraction and constraint evaluation --------------------------------

def _env_value(ag, entry, env, subject, key):
    """Typed comparison value for a constraint operand: an int, a
    (bytes, ci_flag) pair, or None when unavailable."""
    hit = env.get(key)
    if hit is None:
        return None
    start, end, branch = hit
    table = ag.subfields.get(entry) or {}
    sf = table.get(key)
    if sf is None:
        return None
    if sf.shape in (Shape.UINT16, Shape.UINT32):
        text = subject[start:end]
        if not text.isdigit():
            return None
        return _uint_value(text, 16 if sf.shape is Shape.UINT16 else 32)
    if sf.shape is Shape.ENUM:
        return branch
    if sf.shape is Shape.RAW:
        return subject[start:end], sf.ci
    return None


def field_lookup(ag, kind: str, entries: dict):
    """The constraint operand lookup for a message of `kind` ("request" or
    "response") whose entries derived as `entries` (entry -> (env, subject),
    each header's first instance): a bound field reference's typed value,
    or None when the field is unavailable."""
    kind_value = kind.upper().encode(), True

    def lookup(ref: FieldRef):
        if ref.entry == frontend.BUILTIN_MESSAGE:
            return kind_value
        hit = entries.get(ref.entry)
        if hit is None:
            return None
        env, subject = hit
        return _env_value(ag, ref.entry, env, subject, ".".join(ref.sub_path))

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


def _eval_ref(expr, lookup):
    if isinstance(expr, And):
        result = True
        for item in expr.items:
            v = _eval_ref(item, lookup)
            if v is None:
                return None
            result = result and v
        return result
    if isinstance(expr, Or):
        result = False
        for item in expr.items:
            v = _eval_ref(item, lookup)
            if v is None:
                return None
            result = result or v
        return result
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
        if expr.op == "==":
            return a == b
        if expr.op == "!=":
            return a != b
        if expr.op == "<":
            return a < b
        if expr.op == "<=":
            return a <= b
        if expr.op == ">":
            return a > b
        return a >= b
    raise ZebuError(f"not a constraint expression: {expr!r}")


def _ref_operand(node, lookup):
    if isinstance(node, IntLit):
        return node.value
    if isinstance(node, StrLit):
        return node.value.encode("ascii", "replace"), True
    if isinstance(node, FieldRef):
        return lookup(node)
    raise ZebuError(f"not a constraint operand: {node!r}")


def _range_violations(ag, entry, env, subject) -> list[str]:
    out = []
    table = ag.subfields.get(entry) or {}
    for key, sf in table.items():
        if sf.shape not in (Shape.UINT16, Shape.UINT32):
            continue
        hit = env.get(key)
        if hit is None:
            continue
        start, end, _ = hit
        text = subject[start:end]
        if not text.isdigit():
            out.append(f"{entry}.{key}: non-numeric {text!r}")
            continue
        width = 16 if sf.shape is Shape.UINT16 else 32
        value = _uint_value(text, width)
        if value is None:
            out.append(f"{entry}.{key}: {text.lstrip(b'0').decode('ascii')} "
                       f"overflows uint{width}")
            continue
        if sf.range is not None and not sf.range.holds(value):
            out.append(f"{entry}.{key}: {value} outside declared range")
    return out


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

    problems: list[str] = []
    kind = None
    cmd_entry = None
    cmd_env = None
    for entry_name, rule, k in ((REQUEST_LINE, ag.request_line, Mandatory.REQUEST),
                                (STATUS_LINE, ag.status_line, Mandatory.RESPONSE)):
        if rule is None:
            continue
        env = derive_env(rule.body, ag, command, ag.subfields[entry_name])
        if env is not None:
            kind = k
            cmd_entry = entry_name
            cmd_env = env
            break
    if kind is None:
        return False, ["command line derivable from neither entry point"]
    problems.extend(_range_violations(ag, cmd_entry, cmd_env, command))

    by_key = _declared_keys(ag)
    by_decl: dict[str, list[_RefHeaderLine]] = {}
    for line in headers:
        decl = by_key.get(line.key.decode("latin-1").lower())
        if decl is not None:  # undeclared headers are skipped
            by_decl.setdefault(decl.name, []).append(line)

    envs: dict[str, tuple[dict, bytes]] = {}
    for decl in ag.headers:
        lines = by_decl.get(decl.name, [])
        if not lines:
            if decl.mandatory_in.covers(kind.value):
                problems.append(f"mandatory header {decl.name} missing")
            continue
        if len(lines) > 1 and not decl.multiple:
            problems.append(f"header {decl.name} duplicated")
        table = ag.subfields[decl.name]
        for i, line in enumerate(lines if decl.multiple else lines[:1]):
            env = derive_env(decl.body, ag, line.value, table)
            if env is None:
                problems.append(f"header {decl.name} value not derivable")
                continue
            problems.extend(_range_violations(ag, decl.name, env, line.value))
            if i == 0:
                envs[decl.name] = (env, line.value)

    lookup = field_lookup(ag, kind.value, {**envs, cmd_entry: (cmd_env, command)})
    block = ag.request_block if kind is Mandatory.REQUEST else ag.response_block
    for expr in block:
        if _eval_ref(expr, lookup) is False:
            problems.append(f"constraint failed: {frontend.expr_to_text(expr)}")
    for decl in ag.headers:
        if decl.name in envs:
            for expr in decl.local_constraints:
                if _eval_ref(expr, lookup) is False:
                    problems.append(
                        f"{decl.name} constraint failed: {frontend.expr_to_text(expr)}")

    return (not problems), problems
