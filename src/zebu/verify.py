"""Static consistency checks run before a grammar is compiled.

Checks: every referenced rule is defined, no rule is defined twice, the
rule-reference graph is acyclic, type annotations are consistent with
what the annotated rules can derive, and every constraint operand names a
subfield that compares, and never a number with bytes. Compilation
proceeds only when no ERROR-severity diagnostic is produced.

The omission, cycle and reachability checks read the grammar's one
reference graph (`frontend.rule_graph`), the one name resolution follows.
A spec may redefine a core rule, and the new definition holds inside the
other core rules too (`WSP` reads a redefined `SP`), so cycles and
reachability are judged through the core rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .abnf import Alternation, CharCodes, CharRange, LiteralCI, Repetition, RuleRef, Sequence
from .frontend import (
    BUILTIN_MESSAGE,
    COMMAND_LINE,
    LEAF_CODES,
    LEAF_HOLE,
    Annotated,
    AnnotatedGrammar,
    FieldRef,
    IntLit,
    Shape,
    Subfield,
    expr_to_text,
    iter_comparisons,
    leaf_mask,
    resolve_to_alternation,
    rule_def_shape,
    rule_graph,
)


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


class Code(enum.Enum):
    UNDEFINED_RULE = "UNDEFINED_RULE"
    DUPLICATE_RULE = "DUPLICATE_RULE"
    RULE_CYCLE = "RULE_CYCLE"
    TYPE_MISMATCH = "TYPE_MISMATCH"
    UNRESOLVED_REF = "UNRESOLVED_REF"
    UNREACHABLE_RULE = "UNREACHABLE_RULE"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    code: Code
    message: str
    span: tuple[int, int] = (0, 0)
    cycle_path: tuple[str, ...] = ()

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR


def format_diagnostic(diag: Diagnostic, filename: str = "<input>") -> str:
    line, col = diag.span
    return (f"{filename}:{line}:{col}: "
            f"{diag.severity.value}[{diag.code.value}]: {diag.message}")


def _error(code, message, span=(0, 0), cycle=()):
    return Diagnostic(Severity.ERROR, code, message, span, tuple(cycle))


def _warning(code, message, span=(0, 0)):
    return Diagnostic(Severity.WARNING, code, message, span)


# --- the four checks ---------------------------------------------------------

def check_no_omission(ag: AnnotatedGrammar) -> list[Diagnostic]:
    """One UNDEFINED_RULE per distinct referenced-but-undefined name, at
    the first rule or entry point that references it."""
    graph = rule_graph(ag)
    out = []
    seen = set()
    for node in [*graph.rules.values(), *graph.entries]:
        for name in node.missing:
            low = name.lower()
            if low not in seen:
                seen.add(low)
                out.append(_error(
                    Code.UNDEFINED_RULE,
                    f"rule {name!r} is referenced but never defined",
                    node.rule.span,
                ))
    return out


def check_no_duplicates(ag: AnnotatedGrammar) -> list[Diagnostic]:
    """One DUPLICATE_RULE per name defined more than once (case-insensitive),
    pointing at the second definition. Header key variants that collide
    across two headers after case folding are reported the same way."""
    out = []
    first: dict[str, str] = {}
    reported = set()
    for rule in ag.base.definitions:
        low = rule.name.lower()
        if low in first and low not in reported:
            reported.add(low)
            out.append(_error(
                Code.DUPLICATE_RULE,
                f"rule {rule.name!r} is defined more than once",
                rule.span,
            ))
        first.setdefault(low, rule.name)
    key_owner: dict[str, str] = {}
    for decl in ag.headers:
        for key in decl.keys:
            low = key.lower()
            owner = key_owner.get(low)
            if owner is not None and owner != decl.name:
                out.append(_error(
                    Code.DUPLICATE_RULE,
                    f"header key {key!r} of {decl.name!r} is already used by {owner!r}",
                    decl.span,
                ))
            key_owner.setdefault(low, decl.name)
    return out


def check_no_cycles(ag: AnnotatedGrammar) -> list[Diagnostic]:
    """One RULE_CYCLE per strongly connected component of size > 1 or
    self-loop in the rule-reference graph, with a witness path from the
    first member by name that the spec defines, at its definition."""
    graph = rule_graph(ag)
    out = []
    for comp in graph.components:
        if len(comp) > 1 or comp[0] in graph.rules[comp[0]].refs:
            # a cycle passes through a rule of the spec: core rules alone have none
            start = min(low for low in comp if low in ag.base)
            path = _witness_cycle(graph.rules, start, set(comp))
            names = tuple(graph.rules[low].rule.name for low in path)
            out.append(_error(
                Code.RULE_CYCLE,
                "rule cycle: " + " -> ".join(names),
                graph.rules[start].rule.span,
                cycle=names,
            ))
    return out


def _witness_cycle(rules, start, members) -> list[str]:
    # DFS within the SCC from start back to start
    stack = [(start, [start])]
    visited = set()
    while stack:
        node, path = stack.pop()
        for nxt in rules[node].refs:
            if nxt == start:
                return path + [start]
            if nxt in members and nxt not in visited:
                visited.add(nxt)
                stack.append((nxt, path + [nxt]))
    return [start, start]


_FINITE_LIMIT = 4096


def _finite_strings(elem, ag, stack=frozenset()) -> set[str] | None:
    """The finite set of strings `elem` derives, or None when unbounded,
    too large, or dependent on byte ranges wider than explicit sets."""
    if isinstance(elem, LiteralCI):
        return {elem.text}
    if isinstance(elem, CharCodes):
        try:
            return {elem.data.decode("ascii")}
        except UnicodeDecodeError:
            return None
    if isinstance(elem, CharRange):
        if elem.hi - elem.lo >= 16:
            return None
        return {chr(b) for b in range(elem.lo, elem.hi + 1)}
    if isinstance(elem, Annotated):
        return _finite_strings(elem.inner, ag, stack)
    if isinstance(elem, Alternation):
        out: set[str] = set()
        for branch in elem.branches:
            sub = _finite_strings(branch, ag, stack)
            if sub is None:
                return None
            out |= sub
            if len(out) > _FINITE_LIMIT:
                return None
        return out
    if isinstance(elem, Sequence):
        out = {""}
        for item in elem.items:
            sub = _finite_strings(item, ag, stack)
            if sub is None:
                return None
            out = {a + b for a in out for b in sub}
            if len(out) > _FINITE_LIMIT:
                return None
        return out
    if isinstance(elem, Repetition):
        if elem.max is None:
            return None
        sub = _finite_strings(elem.inner, ag, stack)
        if sub is None:
            return None
        out: set[str] = set()
        layer = {""}
        for i in range(elem.max):
            if i >= elem.min:
                out |= layer
            layer = {a + b for a in layer for b in sub}
            if len(layer) > _FINITE_LIMIT:
                return None
        out |= layer
        return out
    if isinstance(elem, RuleRef):
        low = elem.name.lower()
        node = rule_graph(ag).rules.get(low)
        if low in stack or node is None:
            return None
        return _finite_strings(node.rule.body, ag, stack | {low})
    return None


# the bits a leaf mask of decimal digits alone may hold
_DIGITS = LEAF_HOLE | LEAF_CODES | (1 << 0x3A) - (1 << 0x30)


def _digits_only(elem, ag) -> bool:
    """True when every terminal reachable from `elem` is a decimal digit."""
    return not leaf_mask(elem, ag) & ~_DIGITS


def check_type_annotations(ag: AnnotatedGrammar) -> list[Diagnostic]:
    """Validate subfield shapes against what the annotated rules derive.

    Every site of a subfield is judged. For uint16/uint32 fields over a
    finite literal set, every string must parse as a decimal unsigned
    integer within the width; digit runs defer the range check to parse
    time; anything else is a TYPE_MISMATCH. A subfield under an unbounded
    repetition draws one warning.
    """
    out = []
    for entry, table in ag.subfields.items():
        for sf in table.values():
            out.extend(_check_subfield(f"{entry}.{sf.key}", sf, ag))
    return out


def _check_subfield(where, sf: Subfield, ag) -> list[Diagnostic]:
    span = sf.sites[0].span
    out = [diag for site in sf.sites for diag in _check_site(where, sf, site, ag)]
    if sf.shape is Shape.ENUM and sf.children:
        out.append(_error(
            Code.TYPE_MISMATCH,
            f"enum subfield {where} cannot contain named subfields "
            f"({', '.join(sf.children)})",
            span,
        ))
    if (sf.shape is Shape.RAW or sf.width) and sf.children:
        out.append(_error(
            Code.TYPE_MISMATCH,
            f"subfield {where} nests named subfields but is not struct or union",
            span,
        ))
    if sf.repeated:
        out.append(_warning(
            Code.TYPE_MISMATCH,
            f"subfield {where} sits under an unbounded repetition; "
            f"captures report only the last iteration",
            span,
        ))
    return out


def _check_site(where, sf: Subfield, site: Annotated, ag) -> list[Diagnostic]:
    """The diagnostics of one declaration of subfield `sf`."""
    out = []
    shape = sf.shape

    def mismatch(message):
        out.append(_error(Code.TYPE_MISMATCH, f"subfield {where} {message}", site.span))

    def_shape = rule_def_shape(site.inner, ag)
    if site.shape is not None and def_shape is not None and site.shape is not def_shape:
        mismatch(f"is {site.shape.value} at its reference "
                 f"but {def_shape.value} at the rule definition")
    if shape in (Shape.ENUM, Shape.UNION) and resolve_to_alternation(site.inner, ag) is None:
        mismatch(f"is {shape.value} but its rule has no alternation body")
    if sf.width:
        limit = 1 << sf.width
        most = len(str(limit))  # digits; a shorter string cannot overflow
        try:
            strings = _finite_strings(site.inner, ag)
        except RecursionError:  # too deep to enumerate, so not finite
            strings = None
        if strings is not None:
            # int() refuses strings of more than 4 300 digits, so a longer
            # one is judged by its significant digits' count alone
            bad = sorted(
                s for s in strings
                if not (s.isascii() and s.isdigit()) or len(s) >= most and (
                    len(n := s.lstrip("0")) > most or int(n or "0") >= limit)
            )
            if bad:
                mismatch(f"is {shape.value} but derives {bad[0]!r}"
                         + (f" (+{len(bad) - 1} more)" if len(bad) > 1 else ""))
        elif not _digits_only(site.inner, ag):
            # unbounded and not a pure digit run: cannot be numeric
            mismatch(f"is {shape.value} but its rule does not derive numeric text")
        # unbounded digit runs defer the range check to parse time
    return out


# --- driver -------------------------------------------------------------------

def check_entry_points(ag: AnnotatedGrammar) -> list[Diagnostic]:
    return [_error(Code.UNDEFINED_RULE, f"no {name} entry point defined")
            for kind, name in COMMAND_LINE.items() if kind not in ag.command_lines]


def check_unreachable(ag: AnnotatedGrammar) -> list[Diagnostic]:
    graph = rule_graph(ag)
    reachable: set[str] = set()
    frontier = [node.refs for node in graph.entries]
    while frontier:
        for low in frontier.pop():
            if low not in reachable:
                reachable.add(low)
                frontier.append(graph.rules[low].refs)
    out = []
    for rule in ag.base:
        if rule.name.lower() not in reachable:
            out.append(_warning(
                Code.UNREACHABLE_RULE,
                f"rule {rule.name!r} is never referenced from any entry point",
                rule.span,
            ))
    return out


def check_constraint_refs(ag: AnnotatedGrammar) -> list[Diagnostic]:
    """Every constraint operand names a declared subfield that compares;
    struct and union subfields do not. A number (a uint or enum field, an
    integer literal) never compares with bytes (a raw field, a string
    literal, `message.kind`): the two are never equal."""
    out = []
    for expr in ag.all_constraints():
        for cmp in iter_comparisons(expr):
            operands = (cmp.lhs, cmp.rhs)
            types = set()  # of the operands that compare
            for operand in operands:
                if not isinstance(operand, FieldRef):
                    types.add(int if isinstance(operand, IntLit) else bytes)
                    continue
                path = ".".join(operand.path)
                if operand.entry is None:
                    out.append(_error(Code.UNRESOLVED_REF,
                                      f"constraint references unknown field {path!r}",
                                      operand.span))
                    continue
                sf = operand.subfield
                if operand.entry == BUILTIN_MESSAGE or sf.shape is Shape.RAW:
                    types.add(bytes)
                elif sf.shape in (Shape.STRUCT, Shape.UNION):
                    out.append(_error(Code.TYPE_MISMATCH,
                                      f"constraint operand {path!r} is a {sf.shape.value} "
                                      f"subfield; struct and union subfields do not compare",
                                      operand.span))
                else:
                    types.add(int)
            if types == {int, bytes}:
                span = next((x.span for x in operands if isinstance(x, FieldRef)), cmp.span)
                out.append(_error(Code.TYPE_MISMATCH,
                                  f"constraint '{expr_to_text(cmp)}' compares a number with "
                                  f"bytes, which are never equal", span))
    return out


def verify_all(ag: AnnotatedGrammar) -> list[Diagnostic]:
    """All checks in fixed order; compilation proceeds iff no ERROR.

    The cycle check runs even when omissions exist (undefined references
    are simply absent edges) so one grammar can report both.
    """
    out = []
    out.extend(check_entry_points(ag))
    out.extend(check_no_omission(ag))
    out.extend(check_no_duplicates(ag))
    out.extend(check_no_cycles(ag))
    out.extend(check_type_annotations(ag))
    out.extend(check_constraint_refs(ag))
    out.extend(check_unreachable(ag))
    return out


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.is_error for d in diags)
