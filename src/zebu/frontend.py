"""Annotation layer on top of ABNF: entry points, constraints, typed subfields.

A `.zebu` file is a list of ABNF rules where some rules are lifted into
parser entry points:

    protocol sip3261
    requestLine = Method:method SP Request-URI:uri:struct:lazy SP SIP-Version
    statusLine  = SIP-Version SP Status-Code:code:uint16 SP Reason-Phrase
    header CSeq = CSeq-Num:number:uint32 LWS Method:method
    header To { "To" / "t" } = to-spec { mandatory }

    request {
        mandatory Max-Forwards;
        CSeq.method == requestLine.method;
    }
    range CSeq-Num = 0 <= x < 2147483648

Subfields are named with a postfix on the annotated element,
`Elem:name[:shape][:lazy]` with shape one of uint16/uint32/struct/union/enum;
a shape may instead be given at a rule's definition via `{ enum }`.
Annotation blocks use `;` as the item separator, so `;` comments are not
recognized inside braces. The full dialect grammar lives in docs/dialect.md.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import NamedTuple

from . import abnf
from .abnf import (
    Alternation,
    CharCodes,
    CharRange,
    Element,
    ElementParser,
    Grammar,
    LiteralCI,
    Repetition,
    Rule,
    RuleRef,
    Scanner,
    Sequence,
)
from .errors import SourceError, ZebuError


class ZebuSyntaxError(SourceError):
    pass


class DuplicateEntryPoint(SourceError):
    pass


class UnknownAnnotation(SourceError):
    pass


class DuplicateSubfield(SourceError):
    pass


class UnresolvedFieldRef(ZebuError):
    def __init__(self, path: tuple[str, ...], span):
        super().__init__(f"unresolved field reference {'.'.join(path)!r}")
        self.path = path
        self.span = span


class Shape(enum.Enum):
    RAW = "raw"
    UINT16 = "uint16"
    UINT32 = "uint32"
    STRUCT = "struct"
    UNION = "union"
    ENUM = "enum"


class MessageKind(enum.Enum):
    """A message is a request or a response; its kind picks its command
    line (`COMMAND_LINE`), its constraint block (`AnnotatedGrammar.blocks`)
    and the headers it requires (`HeaderDecl.mandatory_in`)."""
    REQUEST = "request"
    RESPONSE = "response"


# In MessageKind order, whatever order a spec declares them in: a command
# line that both derive is a request.
COMMAND_LINE = {MessageKind.REQUEST: "requestLine", MessageKind.RESPONSE: "statusLine"}


_SHAPE_WORDS = {s.value: s for s in Shape if s is not Shape.RAW}
_UINT_WIDTHS = {Shape.UINT16: 16, Shape.UINT32: 32}


# --- annotated element ------------------------------------------------------

@dataclass(frozen=True)
class Annotated:
    """An element carrying a subfield annotation (name, optional shape, lazy)."""
    inner: Element
    name: str
    shape: Shape | None
    lazy: bool
    span: tuple[int, int] = field(default=(0, 0), compare=False)  # line, column of its `:`


# --- constraint expressions -------------------------------------------------

@dataclass
class FieldRef:
    path: tuple[str, ...]
    span: tuple[int, int]
    entry: str | None = None  # bound entry key, set by parse_zebu
    # the bound subfield's record; None while unbound, and for `message.kind`
    subfield: Subfield | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class StrLit:
    value: str


@dataclass
class Cmp:
    op: str  # == != < <= > >=
    lhs: object
    rhs: object
    span: tuple[int, int] = field(default=(0, 0), compare=False)  # line, column of `lhs`


@dataclass
class And:
    items: tuple


@dataclass
class Or:
    items: tuple


@dataclass
class Not:
    item: object


def iter_comparisons(expr):
    if isinstance(expr, Cmp):
        yield expr
    elif isinstance(expr, (And, Or)):
        for item in expr.items:
            yield from iter_comparisons(item)
    elif isinstance(expr, Not):
        yield from iter_comparisons(expr.item)


def iter_field_refs(expr):
    for cmp in iter_comparisons(expr):
        yield from (x for x in (cmp.lhs, cmp.rhs) if isinstance(x, FieldRef))


def expr_to_text(expr) -> str:
    if isinstance(expr, FieldRef):
        return ".".join(expr.path)
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, StrLit):
        return f'"{expr.value}"'
    if isinstance(expr, Cmp):
        return f"{expr_to_text(expr.lhs)} {expr.op} {expr_to_text(expr.rhs)}"
    if isinstance(expr, And):
        return " && ".join(_paren(i, (Or,)) for i in expr.items)
    if isinstance(expr, Or):
        return " || ".join(expr_to_text(i) for i in expr.items)
    if isinstance(expr, Not):
        return f"!({expr_to_text(expr.item)})"
    raise TypeError(repr(expr))


def _paren(expr, kinds) -> str:
    text = expr_to_text(expr)
    return f"({text})" if isinstance(expr, kinds) else text


def is_range_shaped(expr) -> bool:
    """True when the expression constrains exactly one field against
    integer literals only; violations of such constraints report as RANGE."""
    refs = {".".join(r.path) for r in iter_field_refs(expr)}
    if len(refs) != 1:
        return False
    return not any(isinstance(x, StrLit) for cmp in iter_comparisons(expr)
                   for x in (cmp.lhs, cmp.rhs))


# --- declarations -----------------------------------------------------------

@dataclass(frozen=True)
class RangeBound:
    lo: int
    hi: int
    hi_strict: bool

    def holds(self, value: int) -> bool:
        if value < self.lo:
            return False
        return value < self.hi if self.hi_strict else value <= self.hi


@dataclass
class HeaderDecl:
    name: str
    keys: tuple[str, ...]
    body: Element
    mandatory_in: frozenset[MessageKind] = frozenset()  # the kinds that require the header
    multiple: bool = False
    local_constraints: list = field(default_factory=list)
    span: tuple[int, int] = (0, 0)


@dataclass
class Subfield:
    """A subfield's one record: every site that declares its name, and
    the facts merged over all of them."""
    name: str
    path: tuple[str, ...]
    shape: Shape
    lazy: bool
    sites: tuple[Annotated, ...]  # each declaring node once, in source order
    children: tuple[str, ...] = ()
    range: RangeBound | None = None  # uint shapes: the declared range directive
    ci: bool = False  # every site derives from case-insensitive literals only
    repeated: bool = False  # some site sits under an unbounded repetition
    # union shape: the direct child names each alternation branch declares
    branch_children: tuple[tuple[str, ...], ...] = ()
    # uint shapes: 16 or 32 bits; 0 for every other shape
    width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.width = _UINT_WIDTHS.get(self.shape, 0)

    @property
    def key(self) -> str:
        return ".".join(self.path)

    @property
    def forced_lazily(self) -> bool:
        """A lazy top-level subfield declared at one site: a hole in its
        entry's pattern, with its own pattern run only when forced. At
        several sites, each compiles from its own element instead."""
        return self.lazy and len(self.path) == 1 and len(self.sites) == 1


@dataclass
class AnnotatedGrammar:
    base: Grammar
    protocol: str = "zebu"
    command_lines: dict[MessageKind, Rule] = field(default_factory=dict)
    headers: list[HeaderDecl] = field(default_factory=list)
    blocks: dict[MessageKind, list] = field(
        default_factory=lambda: {kind: [] for kind in MessageKind})
    range_constraints: dict[str, RangeBound] = field(default_factory=dict)
    rule_shapes: dict[str, Shape] = field(default_factory=dict)
    subfields: dict[str, dict[str, Subfield]] = field(default_factory=dict)
    source: str | None = None  # the .zebu text parse_zebu read
    _memos: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def memo(self, name: str) -> dict:
        """The grammar's memo table `name`, most often element id ->
        (element, fact).

        Grammar facts are computed once per grammar and kept here, keyed
        by element identity. Each entry holds its element, so no other
        live object can share the id; the grammar must gain no rules
        after the first fact is recorded."""
        table = self._memos.get(name)
        if table is None:
            table = self._memos[name] = {}
        return table

    def header(self, name: str) -> HeaderDecl | None:
        low = name.lower()
        for decl in self.headers:
            if decl.name.lower() == low:
                return decl
        return None

    def entry_points(self):
        for kind, name in COMMAND_LINE.items():
            if kind in self.command_lines:
                yield name, self.command_lines[kind].body
        for decl in self.headers:
            yield decl.name, decl.body

    def all_constraints(self):
        for kind in MessageKind:
            yield from self.blocks[kind]
        for decl in self.headers:
            yield from decl.local_constraints


# --- subfield collection ----------------------------------------------------

def rule_def_shape(elem: Element, ag: AnnotatedGrammar) -> Shape | None:
    """Shape attached at the definition of the rule `elem` references, if any."""
    if isinstance(elem, RuleRef):
        return ag.rule_shapes.get(elem.name.lower())
    return None


def collect_subfields(body: Element, ag: AnnotatedGrammar) -> dict[str, Subfield]:
    """Walk an entry-point body, expanding rule references, and return the
    full subfield namespace keyed by dotted path, in declaration order.

    Duplicate names are rejected at the second declaration unless the two
    sites lie in disjoint branches of one alternation (in which case they
    merge into one record and must agree on shape, laziness and declared
    range).
    """
    return _collect(body, (), ag, frozenset(), False)


def _collect(elem, prefix, ag, stack, repeated):
    if isinstance(elem, Annotated):
        path = prefix + (elem.name,)
        inner = _collect(elem.inner, path, ag, stack, repeated)
        shape = elem.shape or rule_def_shape(elem.inner, ag) or Shape.RAW
        branch_children = ()
        if shape is Shape.UNION:
            alt = resolve_to_alternation(elem.inner, ag)
            if alt is not None:
                branch_children = tuple(
                    _child_names(_collect(b, path, ag, stack, repeated), path)
                    for b in alt.branches)
        sf = Subfield(
            name=elem.name,
            path=path,
            shape=shape,
            lazy=elem.lazy,
            sites=(elem,),
            children=_child_names(inner, path),
            ci=not leaf_mask(elem.inner, ag) & LEAF_CODES,
            repeated=repeated,
            branch_children=branch_children,
        )
        if sf.width:
            sf.range = declared_range(elem.inner, ag)
        out = {sf.key: sf}
        out.update(inner)
        return out
    if isinstance(elem, Sequence):
        out = {}
        for item in elem.items:
            _merge_strict(out, _collect(item, prefix, ag, stack, repeated))
        return out
    if isinstance(elem, Alternation):
        out = {}
        for branch in elem.branches:
            _merge_branches(out, _collect(branch, prefix, ag, stack, repeated))
        return out
    if isinstance(elem, Repetition):
        return _collect(elem.inner, prefix, ag, stack, repeated or elem.max is None)
    if isinstance(elem, RuleRef):
        low = elem.name.lower()
        if low in stack:
            return {}
        graph = rule_graph(ag)
        if not graph.masks.get(low, 0) & LEAF_HOLE:
            return {}  # an undefined rule, or one that reaches no annotation
        return _collect(graph.rules[low].rule.body, prefix, ag, stack | {low}, repeated)
    return {}


def _child_names(table, path) -> tuple[str, ...]:
    return tuple(s.name for s in table.values() if len(s.path) == len(path) + 1)


def _union(old: tuple, new: tuple) -> tuple:
    return old + tuple(x for x in new if x not in old)


def _merge_strict(out, new):
    for key, sf in new.items():
        if key in out:
            raise DuplicateSubfield(f"duplicate subfield name {key!r}")
        out[key] = sf


def _merge_branches(out, new):
    for key, sf in new.items():
        old = out.get(key)
        if old is None:
            out[key] = sf
            continue
        if old.shape is not sf.shape or old.lazy != sf.lazy or old.range != sf.range:
            raise DuplicateSubfield(
                f"subfield {key!r} redeclared across alternation branches "
                f"with a different shape, laziness or declared range"
            )
        old.sites += tuple(s for s in sf.sites if all(s is not o for o in old.sites))
        old.children = _union(old.children, sf.children)
        old.ci = old.ci and sf.ci
        old.repeated = old.repeated or sf.repeated
        old.branch_children = tuple(
            _union(a, b) for a, b in zip_longest(old.branch_children, sf.branch_children,
                                                 fillvalue=()))


# A leaf mask: bit b (0-255) when a terminal reachable from an element holds
# byte b (a quoted literal's as written), plus the two flag bits below.
LEAF_HOLE = 1 << 256   # an annotation or an undefined rule is reachable
LEAF_CODES = 1 << 257  # a char code or char range is reachable


def leaf_mask(elem: Element, ag: AnnotatedGrammar) -> int:
    """The leaf mask of `elem` (see LEAF_HOLE): its own leaves, found by a
    walk that enters no rule, OR'd with the mask of every rule it names
    (`RuleGraph.masks`). Answers are memoised on the grammar
    (`AnnotatedGrammar.memo`) as (element, mask)."""
    memo = ag.memo("leaves")
    hit = memo.get(id(elem))
    if hit is not None:
        return hit[1]
    rule_masks = rule_graph(ag).masks
    mask, refs, _ = _own_leaves(elem, rule_masks)
    for low in refs:
        mask |= rule_masks[low]
    memo[id(elem)] = (elem, mask)
    return mask


def _own_leaves(elem: Element, rules: dict) -> tuple[int, list[str], list[str]]:
    """The leaf mask of `elem` without the rules it names, with LEAF_HOLE
    when it names one that is not a key of `rules`; the lowercased names it
    references that are keys of `rules`, and the others as written, each in
    source order."""
    mask = 0
    refs = []
    missing = []
    todo = [elem]
    while todo:
        e = todo.pop()
        kind = type(e)
        if kind is RuleRef:
            low = e.name.lower()
            if low in rules:
                refs.append(low)
            else:
                missing.append(e.name)
                mask |= LEAF_HOLE
        elif kind is LiteralCI:
            for b in e.text.encode("ascii"):
                mask |= 1 << b
        elif kind is Sequence:
            todo.extend(e.items)
        elif kind is Alternation:
            todo.extend(e.branches)
        elif kind is Repetition:
            todo.append(e.inner)
        elif kind is CharCodes:
            mask |= LEAF_CODES
            for b in e.data:
                mask |= 1 << b
        elif kind is CharRange:
            mask |= LEAF_CODES | (1 << e.hi + 1) - (1 << e.lo)
        else:
            mask |= LEAF_HOLE
            if kind is Annotated:
                todo.append(e.inner)
    # children go on the stack in order and come off last first, so the walk
    # meets the rule names, which are leaves, in reverse source order
    refs.reverse()
    missing.reverse()
    return mask, refs, missing


# --- the rule-reference graph --------------------------------------------------

class RefNode(NamedTuple):
    """A rule or an entry point of the reference graph: its definition, its
    own leaves, the lowercased names of the rules its body references, and
    the names that resolve to nothing, as written (`_own_leaves`)."""
    rule: Rule | HeaderDecl  # a header's declaration has a name, a body and a span too
    own: int
    refs: list[str]
    missing: list[str]


@dataclass(frozen=True)
class RuleGraph:
    """The rule-reference graph that `abnf.resolve` follows, core rules
    included: a spec's redefinition of a core rule holds inside the other
    core rules too. Its readers are the compiler, the derivation steps,
    the verifier, the leaf masks and the oracle's FIRST sets; the oracle
    resolves names itself (see `refcheck`)."""
    # by lowercased name: ag.base's first definitions in source order, then the core rules
    rules: dict[str, RefNode]
    entries: list[RefNode]  # the command lines, in COMMAND_LINE order, then the headers
    components: list[list[str]]  # strongly connected components of `rules`, successors first
    masks: dict[str, int]  # each rule's leaf mask


def rule_graph(ag: AnnotatedGrammar) -> RuleGraph:
    """The reference graph of `ag`, built once per grammar
    (`AnnotatedGrammar.memo`). A rule's leaf mask is the union of the own
    leaves of the rules it reaches, so one pass over the components,
    successors first, gives them all."""
    memo = ag.memo("rule graph")
    if memo:
        return memo["graph"]
    found = {}
    for grammar in (ag.base, abnf.core_rules()):
        for rule in grammar.definitions:
            found.setdefault(rule.name.lower(), rule)
    rules = {low: RefNode(rule, *_own_leaves(rule.body, found)) for low, rule in found.items()}
    entries = [ag.command_lines[kind] for kind in COMMAND_LINE if kind in ag.command_lines]
    entries = [RefNode(e, *_own_leaves(e.body, found)) for e in entries + ag.headers]
    components = strongly_connected({low: n.refs for low, n in rules.items()})
    masks = {}
    for comp in components:
        mask = 0
        for low in comp:
            mask |= rules[low].own
            for r in rules[low].refs:
                mask |= masks.get(r, 0)  # 0 for a member of `comp`: its own leaves are in
        for low in comp:
            masks[low] = mask
    graph = memo["graph"] = RuleGraph(rules, entries, components, masks)
    return graph


def follow_refs(elem: Element,
                ag: AnnotatedGrammar) -> tuple[Element, tuple[str, ...]] | None:
    """Follow `elem`'s chain of rule references through the rule graph to the
    first element that is not one. Returns that element and the lowercased
    names of the rules passed through, or None when the chain loops or names
    an undefined rule."""
    rules = rule_graph(ag).rules
    names: list[str] = []
    while isinstance(elem, RuleRef):
        low = elem.name.lower()
        node = rules.get(low)
        if low in names or node is None:
            return None
        names.append(low)
        elem = node.rule.body
    return elem, tuple(names)


def declared_range(elem: Element, ag: AnnotatedGrammar) -> RangeBound | None:
    """The range directive applying to `elem`: the first on its rule-reference
    chain; None when no directive names a rule on the chain."""
    chain = follow_refs(elem, ag)
    names = chain[1] if chain is not None else ()
    return next((ag.range_constraints[n] for n in names if n in ag.range_constraints), None)


def resolve_to_alternation(elem: Element, ag: AnnotatedGrammar) -> Alternation | None:
    """Follow rule references until an alternation body is found (for
    enum/union subfields); None when the element cannot supply one."""
    chain = follow_refs(elem, ag)
    return chain[0] if chain is not None and isinstance(chain[0], Alternation) else None


# --- parsing ----------------------------------------------------------------

class _ZebuElements(ElementParser):
    def postfix(self, elem: Element) -> Element:
        s = self.s
        if s.peek() != ":":
            return elem
        span = s.location()
        s.take()
        name = s.take_name("subfield name")
        shape = None
        lazy = False
        while s.peek() == ":":
            s.take()
            word = s.take_name("subfield tag")
            if word in _SHAPE_WORDS:
                if shape is not None:
                    s.error(f"subfield {name!r} given two shapes")
                shape = _SHAPE_WORDS[word]
            elif word == "lazy":
                lazy = True
            else:
                raise UnknownAnnotation(f"unknown subfield tag {word!r}", *s.location())
        return Annotated(elem, name, shape, lazy, span)


# The items each declaration's block takes, as docs/dialect.md lists them:
# flag words, a shape keyword, `mandatory <Header>` and constraints. The
# labels of the last three cannot be names, so only a flag word matches a
# bare word in `takes`.
_SHAPE = "<shape>"
_MANDATORY_HEADER = "mandatory <Header>"
_CONSTRAINT = "<constraint>"
_COMMAND_LINE_ITEMS = frozenset({_CONSTRAINT})
_HEADER_ITEMS = frozenset({"mandatory", "multiple", _CONSTRAINT})
_KIND_ITEMS = frozenset({_MANDATORY_HEADER, _CONSTRAINT})
_RULE_ITEMS = frozenset({_SHAPE})
_KEYWORDS = frozenset({"mandatory", "multiple", *_SHAPE_WORDS})

_BLOCK_WS = re.compile(r"[ \t\r\n]*")  # comments are not recognised inside braces
_CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")
_CHAINS = (("||", Or), ("&&", And))  # loosest first


@dataclass
class _Block:
    """The items one `{ ... }` block gave."""
    flags: set = field(default_factory=set)
    shape: Shape | None = None
    mandatory: list = field(default_factory=list)  # (header name, span)
    exprs: list = field(default_factory=list)


class _ZebuParser:
    def __init__(self, source: str):
        self.s = Scanner(source)
        self.elements = _ZebuElements(self.s)
        self.ag = AnnotatedGrammar(base=Grammar(), source=source)
        self._protocol_seen = False
        self._mandatory_decls: list[tuple[MessageKind, str, tuple[int, int]]] = []

    def parse(self) -> AnnotatedGrammar:
        s = self.s
        while True:
            s.skip_blank()
            if s.at_end():
                break
            span = s.location()
            name = s.take_name("rule or directive name")
            s.skip_inline()
            if name == "protocol":
                self._parse_protocol(span)
            elif name in COMMAND_LINE.values():
                self._parse_command_line(name, span)
            elif name == "header":
                self._parse_header(span)
            elif name in ("request", "response") and s.peek() == "{":
                self._parse_kind_block(MessageKind(name))
            elif name == "range":
                self._parse_range(span)
            else:
                self._parse_plain_rule(name, span)
            s.skip_inline()
            if not s.at_end() and not s.at_line_break():
                s.error(f"unexpected {s.peek()!r} after declaration")
        self._finish()
        return self.ag

    # directive parsers ----------------------------------------------------

    def _parse_protocol(self, span):
        if self._protocol_seen:
            raise ZebuSyntaxError("duplicate protocol directive", *span)
        self.ag.protocol = self.s.take_name("protocol name")
        self._protocol_seen = True

    def _parse_command_line(self, which, span):
        s = self.s
        s.expect("=", "'=' after entry point name")
        s.skip_inline()
        body = self.elements.parse_alternation()
        block = self._block(_COMMAND_LINE_ITEMS)
        kind = next(k for k, line in COMMAND_LINE.items() if line == which)
        if kind in self.ag.command_lines:
            raise DuplicateEntryPoint(f"second {which} declaration", *span)
        self.ag.command_lines[kind] = Rule(which, body, span)
        self.ag.blocks[kind].extend(block.exprs)

    def _parse_header(self, span):
        s = self.s
        name = s.take_name("header name")
        if name in COMMAND_LINE.values():
            raise DuplicateEntryPoint(f"header {name!r} takes a command line's name", *span)
        if name.lower() == BUILTIN_MESSAGE:
            raise DuplicateEntryPoint(f"header {name!r} takes the built-in message's name",
                                      *span)
        s.skip_inline()
        variants = None
        if s.eat("{"):
            self._skip_block_ws()
            variants = self.elements.parse_alternation()
            self._skip_block_ws()
            s.expect("}", "'}' closing the key variants")
            s.skip_inline()
        s.expect("=", "'=' after header name")
        s.skip_inline()
        body = self.elements.parse_alternation()
        block = self._block(_HEADER_ITEMS)
        if self.ag.header(name) is not None:
            raise DuplicateEntryPoint(f"second declaration of header {name!r}", *span)
        self.ag.headers.append(HeaderDecl(
            name=name,
            keys=(name,) if variants is None else _extract_keys(variants, span),
            body=body,
            mandatory_in=frozenset(MessageKind if "mandatory" in block.flags else ()),
            multiple="multiple" in block.flags,
            local_constraints=block.exprs,
            span=span,
        ))

    def _parse_kind_block(self, kind):
        block = self._block(_KIND_ITEMS, "block")
        self._mandatory_decls.extend((kind, target, span) for target, span in block.mandatory)
        self.ag.blocks[kind].extend(block.exprs)

    def _parse_range(self, span):
        s = self.s
        rule = s.take_name("rule name")
        s.skip_inline()
        s.expect("=", "'='")
        s.skip_inline()
        lo = s.take_int()
        s.skip_inline()
        if not (s.eat("<") and s.eat("=")):
            s.error("expected '<=' after the lower bound")
        s.skip_inline()
        if s.take_name("the range variable") != "x":
            s.error("range bounds must be written around 'x'")
        s.skip_inline()
        s.expect("<", "'<' or '<='")
        hi_strict = not s.eat("=")
        s.skip_inline()
        hi = s.take_int()
        if lo > hi:
            raise ZebuSyntaxError("empty range", *span)
        self.ag.range_constraints[rule.lower()] = RangeBound(lo, hi, hi_strict)

    def _parse_plain_rule(self, name, span):
        body = self.elements.parse_definition()
        block = self._block(_RULE_ITEMS)
        if block.shape is not None:
            self.ag.rule_shapes[name.lower()] = block.shape
        self.ag.base.add(Rule(name, body, span))

    # blocks -----------------------------------------------------------------

    def _block(self, takes: frozenset, what: str = "annotation block") -> _Block:
        """The `{ ... }` block that may follow a declaration, holding only
        the items in `takes`; an empty `_Block` when there is none. Every
        caller stands past inline whitespace."""
        s = self.s
        block = _Block()
        if not s.eat("{"):
            return block
        while True:
            self._skip_block_ws()
            if s.eat("}"):
                return block
            if s.at_end():
                s.error(f"unterminated {what}")
            self._block_item(block, takes)
            self._skip_block_ws()
            if not s.eat(";") and s.peek() != "}":
                s.error("expected ';' or '}' after annotation item")

    def _block_item(self, block: _Block, takes: frozenset) -> None:
        s = self.s
        save = s.pos
        if s.at_name():
            span = s.location()
            word = s.take_name()
            if word == "mandatory" and _MANDATORY_HEADER in takes:
                self._skip_block_ws()
                block.mandatory.append((s.take_name("header name"), span))
                return
            self._skip_block_ws()
            if s.peek() in (";", "}"):
                if word in _SHAPE_WORDS and _SHAPE in takes:
                    if block.shape is not None:
                        raise ZebuSyntaxError(f"second shape {word!r}: a rule takes one", *span)
                    block.shape = _SHAPE_WORDS[word]
                elif word in takes:
                    block.flags.add(word)
                elif word in _KEYWORDS:
                    raise UnknownAnnotation(f"{word!r} is not valid here", *span)
                else:
                    raise UnknownAnnotation(f"unknown annotation {word!r}", *span)
                return
            s.pos = save
        if _CONSTRAINT not in takes:
            raise UnknownAnnotation(
                "only shape keywords are allowed on plain rules", *s.location())
        block.exprs.append(self._parse_expr())

    def _skip_block_ws(self):
        s = self.s
        s.pos = _BLOCK_WS.match(s.text, s.pos).end()

    # constraint expressions --------------------------------------------------

    def _parse_expr(self, level: int = 0):
        """A `||` chain of `&&` chains of `!` and comparison terms."""
        if level == len(_CHAINS):
            return self._parse_not()
        op, node = _CHAINS[level]
        items = [self._parse_expr(level + 1)]
        while True:
            self._skip_block_ws()
            if not self.s.eat(op):
                break
            items.append(self._parse_expr(level + 1))
        return items[0] if len(items) == 1 else node(tuple(items))

    def _parse_not(self):
        self._skip_block_ws()
        if self.s.eat("!"):
            return Not(self._parse_not())
        return self._parse_cmp()

    def _parse_cmp(self):
        s = self.s
        self._skip_block_ws()
        if s.eat("("):
            inner = self._parse_expr()
            self._skip_block_ws()
            s.expect(")", "')'")
            return inner
        span = s.location()
        lhs = self._parse_operand()
        self._skip_block_ws()
        op = next((op for op in _CMP_OPS if s.eat(op)), None)
        if op is None:
            s.error("expected a comparison operator")
        rhs = self._parse_operand()
        return Cmp(op, lhs, rhs, span)

    def _parse_operand(self):
        s = self.s
        self._skip_block_ws()
        if s.at_int():
            return IntLit(s.take_int())
        if s.peek() == '"':
            return StrLit(s.take_quoted("string literal"))
        span = s.location()
        parts = [s.take_name("field reference")]
        while s.eat("."):
            parts.append(s.take_name("field path component"))
        return FieldRef(tuple(parts), span)

    # post-pass ---------------------------------------------------------------

    def _finish(self):
        ag = self.ag
        for kind, target, span in self._mandatory_decls:
            decl = ag.header(target)
            if decl is None:
                raise ZebuSyntaxError(
                    f"mandatory declaration names unknown header {target!r}", *span)
            decl.mandatory_in |= {kind}
        for entry, body in ag.entry_points():
            ag.subfields[entry] = collect_subfields(body, ag)
        for expr in ag.all_constraints():
            for ref in iter_field_refs(expr):
                _bind_ref(ref, ag)


def _extract_keys(pattern: Element, span) -> tuple[str, ...]:
    branches = pattern.branches if isinstance(pattern, Alternation) else (pattern,)
    if not all(isinstance(b, LiteralCI) for b in branches):
        raise ZebuSyntaxError("header key variants must be quoted literals", *span)
    for b in branches:
        # a line's key is what precedes its first colon, blanks stripped
        if ":" in b.text or b.text != b.text.strip(" \t"):
            raise ZebuSyntaxError(f"header key variant {b.text!r} holds a colon or an "
                                  "outer blank, so no line can carry it", *span)
    return tuple(b.text for b in branches)


def parse_zebu(source: str) -> AnnotatedGrammar:
    """Parse a `.zebu` file into an AnnotatedGrammar.

    Plain ABNF rules land in `.base`; annotated rules become entry points.
    Subfield namespaces are computed per entry point; a duplicate name is
    rejected at its second declaration. Every constraint field reference
    that names a declared subfield is bound to its entry and its subfield
    record; the rest stay unbound (`iter_unresolved`).
    """
    try:
        return _ZebuParser(source).parse()
    except RecursionError:
        raise ZebuSyntaxError("elements nested too deeply") from None


# --- field-reference resolution ----------------------------------------------

BUILTIN_MESSAGE = "message"
BUILTIN_KIND_PATH = (BUILTIN_MESSAGE, "kind")


def _bind_ref(ref: FieldRef, ag: AnnotatedGrammar) -> None:
    """Bind `ref` to the entry and subfield record it names, if any."""
    if ref.path == BUILTIN_KIND_PATH:
        ref.entry = BUILTIN_MESSAGE
        return
    if len(ref.path) < 2:
        return
    head = ref.path[0]
    if head in COMMAND_LINE.values():
        entry = head
    else:
        decl = ag.header(head)
        if decl is None:
            return
        entry = decl.name
    sf = ag.subfields.get(entry, {}).get(".".join(ref.path[1:]))
    if sf is not None:
        ref.entry, ref.subfield = entry, sf


def iter_unresolved(ag: AnnotatedGrammar):
    """Yield every FieldRef that `parse_zebu` left unbound."""
    for expr in ag.all_constraints():
        for ref in iter_field_refs(expr):
            if ref.entry is None:
                yield ref


def resolve_constraint_refs(ag: AnnotatedGrammar) -> AnnotatedGrammar:
    """Raise UnresolvedFieldRef for the first field reference that names no
    declared subfield; returns the same grammar otherwise."""
    for ref in iter_unresolved(ag):
        raise UnresolvedFieldRef(ref.path, ref.span)
    return ag


# --- graph utilities ------------------------------------------------------------

def strongly_connected(graph: dict) -> list[list]:
    """Strongly connected components of `graph` (node -> successors, every
    successor itself a key), in the order Tarjan's algorithm closes them;
    iterative, so deep graphs need no recursion."""
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    out = []
    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(graph[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(graph[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
    return out
