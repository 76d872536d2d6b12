"""Two-level message parsing: a line scanner plus per-header patterns.

`compile_grammar` adds the only thing a verified AnnotatedGrammar lacks:
its patterns. A CompiledGrammar is that grammar plus one entry table, a
CompiledEntry per command line and header holding its pattern, which
carries its lazy holes' own patterns, and its declaration. The patterns
are compiled for subjects without CR or LF (`pattern`'s line-free
compile), which are the only ones the engine hands them.

`index_message` is level one: a single scan of the head's lines that runs
no pattern. It finds the command line and the body, and sorts the value
spans of declared headers by header as it goes. Per line it makes a few
single-byte finds (memchr) and one dict lookup, whose key is a slice of the
line and its lowercase copy. For an undeclared header both are dropped at
once and nothing is kept. A value is unfolded from its span on first use.
Dedicated patterns then run on demand per requested header; lazy subfields
defer their own pattern until forced. A session counts pattern executions
so the cost model (independent of total header count) is observable.

Typed fields are read straight from a match's spans. Both matcher backends
give one span shape, `re`'s `Match.regs` (see `pattern.match_spans`), and
each entry, like each lazy subfield's pattern, has a capture reader built
once, with the entry: one function per subfield that indexes the span tuple
at its capture's slot, with its shape's checks, bounds and reason location
worked out beforehand.

Every pattern run, of a command line, a header instance or a lazy force,
goes through one outcome path, `ParsedMessage._outcome`: a BUDGET reason,
a SYNTAX reason, or the reader's value plus its conversion failures. A
command line and a header instance both parse into one record, a
ParsedEntry; a header parsed exactly when its record has no failures.

`validate` is the full validation that the mutation campaigns run.
What it needs of a grammar is built once, at compile time, as a ValidationPlan:
header ranks, each kind's mandatory headers and every constraint, with
their reasons and field references resolved. Per message it visits only the
headers the line scan found, in declaration order with each missing
mandatory one in its place: it parses them, forces their lazy subfields and
checks the constraints, accumulating every reason, not stopping at the first.

A session holds no exception object: it stores a failed command line or lazy
force as its reasons and raises a new exception from them on each call, so
reference counting frees the session, with no traceback holding it in a cycle.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field as dc_field
from functools import partial

from . import frontend, pattern as pat
from .errors import ZebuError
from .frontend import (
    COMMAND_LINE,
    And,
    AnnotatedGrammar,
    Cmp,
    FieldRef,
    HeaderDecl,
    IntLit,
    MessageKind,
    Not,
    Or,
    Shape,
    StrLit,
    Subfield,
    expr_to_text,
    is_range_shaped,
)
from .pattern import MatchBudgetExceeded, Pattern, compile_pattern
# every pattern run goes through this module-level name, so a tracer that
# wraps `engine.match_full` (perfbench's does) sees each one
from .pattern import match_spans as match_full


class ReasonCode(enum.Enum):
    SYNTAX = "SYNTAX"
    CONSTRAINT = "CONSTRAINT"
    RANGE = "RANGE"
    MANDATORY_MISSING = "MANDATORY_MISSING"
    DUPLICATE_HEADER = "DUPLICATE_HEADER"
    FOLDING = "FOLDING"
    BUDGET = "BUDGET"


@dataclass(frozen=True)
class Reason:
    code: ReasonCode
    location: str
    message: str


@dataclass
class Verdict:
    accepted: bool
    reasons: list[Reason]

    def report(self) -> str:
        if self.accepted:
            return "ACCEPT\n"
        return "".join(
            f"REJECT {r.code.value} {r.location} {r.message}\n" for r in self.reasons
        )


class MessageSyntaxError(ZebuError):
    def __init__(self, reasons):
        super().__init__("; ".join(r.message for r in reasons))
        self.reasons = list(reasons)


class MessageTypeError(MessageSyntaxError):
    pass


class ForceFailed(MessageSyntaxError):
    pass


class UnknownHeader(ZebuError):
    pass


class UnknownSubfield(ZebuError):
    pass


class DuplicateHeader(ZebuError):
    def __init__(self, name, count):
        super().__init__(f"header {name!r} appears {count} times but multiple is not set")
        self.header = name
        self.count = count


class HeaderNotParsed(ZebuError):
    pass


# --- typed values ------------------------------------------------------------

class _AbsentType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ABSENT"


ABSENT = _AbsentType()


# not frozen, as a frozen dataclass pays a slow __setattr__ per instance and
# every uint read makes one; like the other typed values, read-only by contract
@dataclass(slots=True, unsafe_hash=True)
class U16:
    value: int


@dataclass(slots=True, unsafe_hash=True)
class U32:
    value: int


@dataclass(frozen=True)
class EnumTag:
    branch: int


class RawSlice:
    """Zero-copy view of a span of the unfolded value; equality is by content."""

    __slots__ = ("source", "start", "end")

    def __init__(self, source: bytes, start: int, end: int):
        self.source = source
        self.start = start
        self.end = end

    @property
    def data(self) -> bytes:
        return self.source[self.start:self.end]

    def __eq__(self, other):
        if isinstance(other, RawSlice):
            return self.data == other.data
        return NotImplemented

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"RawSlice({self.data!r})"


@dataclass(slots=True)
class StructVal:
    fields: dict

    def get(self, name):
        return self.fields.get(name, ABSENT)


@dataclass(slots=True)
class UnionVal:
    branch: int
    fields: dict

    def get(self, name):
        return self.fields.get(name, ABSENT)


class LazyPending:
    """Handle for a declared-lazy subfield; forcing it runs its own pattern.
    `field` is its entry's `lazy_fields` item. `outcome` is None until then,
    and after it the typed value or, when forcing failed, the list of its
    reasons."""

    __slots__ = ("field", "source", "span", "outcome")

    def __init__(self, field: tuple, source: bytes, span: tuple[int, int]):
        self.field = field
        self.source = source
        self.span = span
        self.outcome = None

    def __repr__(self):
        return f"LazyPending({self.field[1]} @ {self.span})"


# --- line scan ------------------------------------------------------------------

def index_message(raw: bytes, by_key: dict[bytes, str]) -> tuple[int, dict, int]:
    """Scan the head's lines once, without running any pattern.

    Returns (cmd_end, values, body): the command line is raw[:cmd_end] and
    the body raw[body:]. `values` maps each declared header present, by
    name, to its instances' value spans in source order, as [start, end]
    lists running from after the colon to the end of the last continuation
    line. `by_key` maps each lowercased key variant to its header's name.

    Raises MessageSyntaxError with a framing fault (empty input, no CRLF
    terminator, bare CR or LF, no empty line) alone, or else with every
    line that begins the message or precedes any header with a blank, has
    no colon or has an empty key, in line order.
    """
    find = raw.find
    cmd_end = find(b"\r")
    # with no CR at all, an LF at offset 0 would pass the first test
    if find(b"\n") != cmd_end + 1 or cmd_end < 0:
        raise MessageSyntaxError([_framing_fault(raw, 0)])
    if cmd_end == 0:
        raise MessageSyntaxError([Reason(ReasonCode.SYNTAX, "line 1", "no command line")])
    faults = []  # (offset, code, message) of each faulty line
    if raw[0] in b" \t":
        faults.append((0, ReasonCode.FOLDING, "message starts with a continuation line"))
    values: dict[str, list[list[int]]] = {}
    last = None      # the span a continuation line extends
    skipped = [0, 0]  # stands in for it after an undeclared header
    pos = cmd_end + 2
    while True:
        cr = find(b"\r", pos)
        if find(b"\n", pos) != cr + 1:
            raise MessageSyntaxError([_framing_fault(raw, pos)])
        if cr == pos:
            break
        if raw[pos] in b" \t":
            if last is not None:
                last[1] = cr
            else:
                faults.append((pos, ReasonCode.FOLDING, "continuation line before any header"))
        else:
            colon = find(b":", pos, cr)
            if colon > pos:
                name = by_key.get(raw[pos:colon].rstrip(b" \t").lower())
                if name is None:
                    last = skipped
                else:
                    last = [colon + 1, cr]
                    values.setdefault(name, []).append(last)
            else:
                faults.append((pos, ReasonCode.SYNTAX, "empty header key" if colon == pos
                               else "header line has no colon"))
        pos = cr + 2
    if faults:
        raise MessageSyntaxError(_line_faults(raw, faults))
    return cmd_end, values, cr + 2


def _framing_fault(raw: bytes, pos: int) -> Reason:
    """Why no CRLF ends the line at `pos`; every line before it is framed."""
    if not raw:
        return Reason(ReasonCode.SYNTAX, "message", "empty input")
    if pos == len(raw):
        return Reason(ReasonCode.SYNTAX, "message",
                      "headers are not terminated by an empty line")
    cr = raw.find(b"\r", pos)
    lf = raw.find(b"\n", pos)
    if cr == lf == -1:
        line = raw.count(b"\n", 0, pos) + 1
        return Reason(ReasonCode.SYNTAX, f"line {line}", "final line lacks a CRLF terminator")
    if cr == -1 or -1 < lf < cr:
        return Reason(ReasonCode.SYNTAX, f"offset {lf}", "bare LF outside CRLF")
    return Reason(ReasonCode.SYNTAX, f"offset {cr}", "bare CR outside CRLF")


def _line_faults(raw: bytes, faults) -> list[Reason]:
    """The faulty lines' reasons, located by line number in one pass."""
    reasons, line, counted = [], 1, 0
    for pos, code, message in faults:
        line += raw.count(b"\n", counted, pos)
        counted = pos
        reasons.append(Reason(code, f"line {line}", message))
    return reasons


def unfolded_value(raw: bytes, start: int, end: int) -> bytes:
    """The header value in raw[start:end]: each physical segment without its
    leading blanks, the segments joined by one space."""
    # skip the leading blanks by offset, so a one-line value is sliced once
    while start < end and raw[start] in b" \t":
        start += 1
    value = raw[start:end]
    if b"\r" not in value:
        return value
    return b" ".join([seg.lstrip(b" \t") for seg in value.split(b"\r\n")]).lstrip(b" \t")


# --- compiled grammar -----------------------------------------------------------

@dataclass
class CompiledEntry:
    """One entry point's pattern, as `compile_pattern` returns it: the
    entry's own, with the own pattern of each lazy hole forced on demand in
    its `lazy`. `decl` is the header declaration, or None for a command
    line.

    `read` gives the top-level fields of a match of `pattern` from (spans,
    source, errors), appending conversion failures to `errors`; a lazy
    field reads as a LazyPending over its hole. `lazy_fields` holds, per
    hole, what forcing it runs: (its own pattern, the location of its
    reasons, the read of its value from a match). Both are plain
    attributes, as every pattern run reads one and a cached_property is
    read on a slower path."""

    name: str
    pattern: Pattern
    table: dict[str, Subfield]
    decl: HeaderDecl | None
    lazy_fields: dict[str, tuple] = dc_field(init=False, repr=False, compare=False)
    read: object = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.lazy_fields = {key: (p, f"{self.name}.{key}",
                                  _reader(p, self.table, self.table[key], f"{self.name}.{key}"))
                            for key, p in self.pattern.lazy.items()}
        self.read = partial(_read_fields, tuple(
            (sf.name, _pending_reader(self.pattern, sf.key, self.lazy_fields[sf.key])
             if sf.key in self.lazy_fields
             else _reader(self.pattern, self.table, sf, f"{self.name}.{sf.key}"))
            for sf in self.table.values() if len(sf.path) == 1))


@dataclass
class CompiledGrammar:
    """A verified AnnotatedGrammar plus its patterns.

    `entries` holds one CompiledEntry per entry point, keyed by name in
    `ag.entry_points()` order: requestLine, statusLine, then each header.
    `by_key` maps each lowercased header key variant to the name of the
    header that declares it, so the line scan assigns every header line to
    one entry. `plan` is what `validate` needs of the grammar."""

    ag: AnnotatedGrammar
    entries: dict[str, CompiledEntry]
    by_key: dict[bytes, str] = dc_field(init=False, repr=False, compare=False)
    plan: ValidationPlan = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.by_key = {}
        for entry in self.entries.values():
            for key in entry.decl.keys if entry.decl is not None else ():
                self.by_key.setdefault(key.lower().encode("ascii"), entry.name)
        self.plan = ValidationPlan(self)

    def named_patterns(self):
        """(name, pattern) for every pattern: each command line's and
        header's own, then those of its lazy subfields."""
        for entry in self.entries.values():
            where = f"{'entry' if entry.decl is None else 'header'} {entry.name}"
            yield where, entry.pattern
            for key, (p, _, _) in entry.lazy_fields.items():
                yield f"{where} lazy subfield {key}", p

    def header(self, name: str) -> CompiledEntry | None:
        """The declared header called `name`, in any case."""
        decl = self.ag.header(name)
        return None if decl is None else self.entries[decl.name]


class ValidationPlan:
    """What `validate` needs of a grammar beyond its entries: `rank`, each
    header's place in declaration order; per command line (None when none
    matched), `mandatory`, each header its kind requires with the reason its
    absence gives, and `constraints`, its kind's block constraints and then
    the local ones in declaration order, as (owner, holds, reason). `owner`
    is None in a block, and a local constraint applies only when its header's
    first instance parsed. `holds(msg, kind, found)` is None when a field it
    reads is unavailable (absent, unparsed, or of the other kind)."""

    def __init__(self, grammar: CompiledGrammar):
        headers = grammar.ag.headers
        self.rank = {decl.name: i for i, decl in enumerate(headers)}
        # keyed by name, as a str hashes in C and a MessageKind in Python
        lines = {**_KIND_OF_LINE, None: None}
        self.mandatory = {line: {d.name: Reason(ReasonCode.MANDATORY_MISSING, d.name,
                                                f"mandatory header {d.name!r} is missing")
                                 for d in headers if kind in d.mandatory_in}
                          for line, kind in lines.items()}

        def planned(owner, expr):
            code = ReasonCode.RANGE if is_range_shaped(expr) else ReasonCode.CONSTRAINT
            return owner, _holds(expr), Reason(
                code, owner or "block", f"constraint failed: {expr_to_text(expr)}")
        local = [planned(d.name, expr) for d in headers for expr in d.local_constraints]
        self.constraints = {
            line: [planned(None, expr) for expr in grammar.ag.blocks.get(kind, ())] + local
            for line, kind in lines.items()}


def compile_grammar(ag: AnnotatedGrammar) -> CompiledGrammar:
    """Compile a verified AnnotatedGrammar's patterns."""
    frontend.resolve_constraint_refs(ag)
    if len(ag.command_lines) < len(MessageKind):
        raise ZebuError("grammar must define requestLine and statusLine")
    decls = {decl.name: decl for decl in ag.headers}
    entries = {}
    for name, body in ag.entry_points():
        table = ag.subfields[name]
        entries[name] = CompiledEntry(
            name, compile_pattern(body, ag, table=table, line_free=True), table,
            decls.get(name))
    return CompiledGrammar(ag, entries)


# --- capture readers --------------------------------------------------------------
#
# A read function takes (spans, source, errors): the span tuple of a match
# over `source`, and the list to which a failed conversion appends its
# reason. It returns the subfield's typed value, or ABSENT.

def _read_fields(fields: tuple, spans, source, errors) -> dict:
    """The value of each (name, read) in `fields`, by name; a loop, as a
    comprehension would make a function and a frame per match."""
    values = {}
    for name, read in fields:
        values[name] = read(spans, source, errors)
    return values


def _pending_reader(pattern: Pattern, key: str, lazy: tuple):
    """Read a lazy subfield's hole as a LazyPending over its span."""
    slot = pattern.capture_index[key] + 1

    def read(spans, source, errors):
        span = spans[slot]
        return ABSENT if span[0] < 0 else LazyPending(lazy, source, span)
    return read


def _reader(pattern: Pattern, table: dict[str, Subfield], sf: Subfield, location: str):
    """Read `sf` from a match of `pattern`; a failed conversion's reason
    is located at `location`."""
    cid = pattern.capture_index.get(sf.key)
    if cid is None:
        return lambda spans, source, errors: ABSENT
    slot = cid + 1
    shape = sf.shape
    if shape is Shape.RAW:
        def read(spans, source, errors):
            start, end = spans[slot]
            return ABSENT if start < 0 else RawSlice(source, start, end)
        return read

    width = sf.width
    if width:
        limit, typed = 1 << width, U16 if width == 16 else U32
        most = len(str(limit))  # digits
        bound = sf.range
        outside = None if bound is None else (
            f" outside {bound.lo} <= x {'<' if bound.hi_strict else '<='} {bound.hi}")
        # the values that read: lo <= x < hi
        lo, hi = (0, limit) if bound is None else (
            bound.lo, min(limit, bound.hi + (not bound.hi_strict)))

        def read(spans, source, errors):
            start, end = spans[slot]
            if start < 0:
                return ABSENT
            text = source[start:end]
            if end - start <= most and text.isdigit() and lo <= (value := int(text)) < hi:
                return typed(value)
            # overflow is decided on the digits first: int() refuses very long strings
            digits = text.lstrip(b"0")
            if not text.isdigit():
                failure = Reason(ReasonCode.SYNTAX, location,
                                 f"captured value {text!r} is not an unsigned decimal integer")
            elif len(digits) > most or (value := int(digits or b"0")) >= limit:
                failure = Reason(ReasonCode.RANGE, location,
                                 f"value {digits.decode('ascii')} overflows uint{width}")
            elif lo <= value < hi:
                return typed(value)
            else:
                failure = Reason(ReasonCode.RANGE, location, f"value {value}{outside}")
            errors.append(failure)
            return ABSENT
        return read

    def children(names):
        return tuple((child, _reader(pattern, table, table[f"{sf.key}.{child}"],
                                     f"{location}.{child}")) for child in names)

    if shape is Shape.STRUCT:
        fields = children(sf.children)

        def read(spans, source, errors):
            if spans[slot][0] < 0:
                return ABSENT
            return StructVal(_read_fields(fields, spans, source, errors))
        return read

    if shape is not Shape.ENUM and shape is not Shape.UNION:
        raise ZebuError(f"unhandled shape {shape}")
    # the slots of the branches' captures, in branch order
    branches = []
    while (branch_cid := pattern.capture_index.get(f"{sf.key}#{len(branches)}")) is not None:
        branches.append(branch_cid + 1)
    per_branch = tuple(map(children, sf.branch_children))
    tags = [EnumTag(branch) for branch in range(len(branches))]  # shared: they are frozen

    def read(spans, source, errors):
        span = spans[slot]
        if span[0] < 0:
            return ABSENT
        # the branch taken spans what the subfield does; under a repetition
        # another branch's capture may be left from an earlier iteration
        for branch, branch_slot in enumerate(branches):
            if spans[branch_slot] == span:
                break
        if shape is Shape.ENUM:
            return tags[branch]
        return UnionVal(branch, _read_fields(per_branch[branch], spans, source, errors))
    return read


# --- parsed views ----------------------------------------------------------------

@dataclass(slots=True)
class ParsedEntry:
    """A command line or header instance after its pattern ran: its entry,
    the value the pattern ran over, the top-level fields read from the
    match, and the reasons it failed. A header parsed when `failures` is
    empty; a command line with a failed conversion still gives its other
    fields."""

    entry: CompiledEntry
    value: bytes
    fields: dict
    failures: list[Reason]

    def get_subfield(self, name: str):
        """Memoized typed value of a top-level subfield; LazyPending for an
        unforced lazy field; ABSENT for an optional subfield the match did
        not exercise. A nested field is read with `ParsedMessage.select`."""
        if self.failures:
            raise HeaderNotParsed(f"header {self.entry.name!r} failed to parse")
        if "." in name or name not in self.entry.table:
            raise UnknownSubfield(f"header {self.entry.name!r} has no top-level subfield "
                                  f"{name!r}; ParsedMessage.select reads nested paths")
        return self.fields.get(name, ABSENT)


_KIND_OF_LINE = {name: kind for kind, name in COMMAND_LINE.items()}


class ParsedMessage:
    """Single-owner session over one raw message: its line scan, memo
    tables, and the pattern-execution counter."""

    def __init__(self, grammar: CompiledGrammar, raw: bytes):
        self.grammar = grammar
        self.raw = raw
        self._cmd_end, self._values, self._body = index_message(raw, grammar.by_key)
        self._exec = 0
        self._lazy_exec = 0
        # the command line's record, or the reasons it matches neither command line
        self._command: ParsedEntry | list[Reason] | None = None
        # each header instance parsed, by the offset of its value
        self._parsed: dict[int, ParsedEntry] = {}

    # counters ------------------------------------------------------------

    @property
    def exec_counter(self) -> int:
        """Header-level plus lazy-subfield pattern executions so far."""
        return self._exec

    @property
    def lazy_exec_counter(self) -> int:
        return self._lazy_exec

    def _outcome(self, pattern: Pattern, subject: bytes, location: str, read,
                 mismatch: str) -> tuple:
        """Run `pattern` over `subject`. Returns (value, failures): None and
        a BUDGET reason when the step budget runs out, None and a SYNTAX
        reason worded by `mismatch` (formatted with the subject) when it
        does not match, or else `read`'s value and its conversion failures."""
        self._exec += 1
        try:
            spans = match_full(pattern, subject, pat.DEFAULT_MATCH_BUDGET)
        except MatchBudgetExceeded as exc:
            return None, [Reason(ReasonCode.BUDGET, location, str(exc))]
        if spans is None:
            return None, [Reason(ReasonCode.SYNTAX, location, mismatch.format(subject))]
        failures: list[Reason] = []
        return read(spans, subject, failures), failures

    # command line ----------------------------------------------------------

    def message_type(self) -> MessageKind:
        """REQUEST or RESPONSE, deciding with at most two pattern runs."""
        return _KIND_OF_LINE[self.command_fields().entry.name]

    def command_fields(self) -> ParsedEntry:
        """The command line's record. When it matches neither command line,
        every call raises a new MessageTypeError with the reasons of the
        first, which alone runs patterns."""
        command = self._command
        if command is None:
            subject = self.raw[:self._cmd_end]
            # the request line first; a budget reason ends the search
            for name in COMMAND_LINE.values():
                entry = self.grammar.entries[name]
                fields, failures = self._outcome(
                    entry.pattern, subject, "command line", entry.read,
                    "matches neither the request line nor the status line")
                if fields is not None or failures[0].code is ReasonCode.BUDGET:
                    break
            command = self._command = (failures if fields is None
                                       else ParsedEntry(entry, subject, fields, failures))
        if type(command) is list:
            raise MessageTypeError(command)
        return command

    # headers ------------------------------------------------------------------

    def _header(self, name: str) -> CompiledEntry:
        entry = self.grammar.header(name)
        if entry is None:
            raise UnknownHeader(f"header {name!r} is not declared in the grammar")
        return entry

    def header_count(self, name: str) -> int:
        return len(self._values.get(self._header(name).name, ()))

    def parse_header(self, name: str) -> ParsedEntry | None:
        """Parse the first instance of a declared header; None when absent.

        Raises DuplicateHeader when the header appears more than once and
        is not declared `multiple`.
        """
        entry = self._header(name)
        count = len(self._values.get(entry.name, ()))
        if count > 1 and not entry.decl.multiple:
            raise DuplicateHeader(entry.name, count)
        return self._parse_instance(entry, 0)

    def parse_header_nth(self, name: str, index: int) -> ParsedEntry | None:
        """Indexed access for `multiple` headers, in source order; None for
        an index outside 0..count-1."""
        return self._parse_instance(self._header(name), index)

    def _parse_instance(self, entry: CompiledEntry, index: int) -> ParsedEntry | None:
        instances = self._values.get(entry.name, ())
        if not 0 <= index < len(instances):
            return None
        start, end = instances[index]
        parsed = self._parsed.get(start)
        if parsed is None:
            value = unfolded_value(self.raw, start, end)
            fields, failures = self._outcome(
                entry.pattern, value, f"{entry.name}[{index}]" if index else entry.name,
                entry.read, "value {!r} does not match the header grammar")
            parsed = self._parsed[start] = ParsedEntry(entry, value, fields or {}, failures)
        return parsed

    # lazy forcing -----------------------------------------------------------------

    def force_lazy(self, pending: LazyPending):
        """Run the subfield's own pattern over its raw span exactly once;
        later calls return the memoized value without a pattern run. When
        it fails, every call raises a new ForceFailed with its reasons."""
        outcome = pending.outcome
        if outcome is None:
            pattern, location, read = pending.field
            start, end = pending.span
            self._lazy_exec += 1
            value, failures = self._outcome(pattern, pending.source[start:end], location, read,
                                            "lazy value {!r} does not match its grammar")
            outcome = pending.outcome = failures or value
        if type(outcome) is list:
            raise ForceFailed(outcome)
        return outcome

    # selectors ----------------------------------------------------------------------

    def select(self, selector: str):
        """Resolve a dotted `Entry.sub.sub` selector, forcing lazy fields.

        Returns ABSENT when the path is valid but unexercised. Raises
        UnknownSubfield for a path not present in the grammar, UnknownHeader
        for an undeclared header, DuplicateHeader when a header not declared
        `multiple` appears more than once, and ForceFailed when a lazy field
        on the path does not match its own pattern.
        """
        head, *rest = selector.split(".")
        entry = (self.grammar.entries[head] if head in COMMAND_LINE.values()
                 else self._header(head))
        if not rest or ".".join(rest) not in entry.table:
            raise UnknownSubfield(f"no subfield {selector!r}")
        if entry.decl is None:
            try:
                parsed = self.command_fields()
            except MessageTypeError:
                return ABSENT
            if parsed.entry is not entry:
                return ABSENT
        else:
            parsed = self.parse_header(head)
            if parsed is None or parsed.failures:
                return ABSENT
        return self._walk(parsed.fields, rest)

    def _walk(self, fields: dict, path: list[str]):
        current = fields.get(path[0], ABSENT)
        for name in path[1:]:
            if isinstance(current, LazyPending):
                current = self.force_lazy(current)
            if isinstance(current, (StructVal, UnionVal)):
                current = current.get(name)
            else:
                return ABSENT
        if isinstance(current, LazyPending):
            current = self.force_lazy(current)
        return current

    def body(self) -> bytes:
        return self.raw[self._body:]


# --- full validation ---------------------------------------------------------------

def validate(grammar: CompiledGrammar, raw: bytes,
             session: ParsedMessage | None = None) -> Verdict:
    """Index, type the command line, parse every declared header present,
    force lazy subfields, check mandatory/multiplicity rules, and evaluate
    block constraints. Reasons are exhaustive, not first-failure: the
    command line's, then each header's in declaration order (a missing
    mandatory one in its place), then the constraints'.

    Passing an existing session reuses its memo tables and counter."""
    try:
        msg = session if session is not None else ParsedMessage(grammar, raw)
    except MessageSyntaxError as exc:
        return Verdict(False, exc.reasons)
    plan = grammar.plan
    reasons: list[Reason] = []
    # by entry name, what constraints read: the command line, and each
    # header's first instance if it parsed
    found: dict[str, ParsedEntry] = {}
    kind = line = None
    try:
        command = msg.command_fields()
    except MessageTypeError as exc:
        reasons.extend(exc.reasons)
    else:
        line = command.entry.name
        kind = _KIND_OF_LINE[line]
        found[line] = command
        reasons += command.failures
        _force_all(msg, command, reasons)

    values, entries, parse = msg._values, grammar.entries, msg._parse_instance
    mandatory = plan.mandatory[line]
    missing = mandatory.keys() - values.keys()
    for name in sorted(values.keys() | missing if missing else values,
                       key=plan.rank.__getitem__):
        instances = values.get(name)
        if instances is None:
            reasons.append(mandatory[name])
            continue
        entry = entries[name]
        count = len(instances)
        if count > 1 and not entry.decl.multiple:
            reasons.append(Reason(ReasonCode.DUPLICATE_HEADER, name,
                                  f"header {name!r} appears {count} times"))
            count = 1  # constraints still use the first instance
        # most headers appear once; a constant tuple saves building a range
        for i in range(count) if count > 1 else (0,):
            parsed = parse(entry, i)
            if parsed.failures:
                reasons += parsed.failures
                continue
            if entry.lazy_fields:
                _force_all(msg, parsed, reasons)
            if i == 0:
                found[name] = parsed

    for owner, holds, reason in plan.constraints[line]:
        if (owner is None or owner in found) and holds(msg, kind, found) is False:
            reasons.append(reason)
    return Verdict(not reasons, reasons)


def _force_all(msg: ParsedMessage, parsed: ParsedEntry, reasons: list[Reason]) -> None:
    """Force the record's lazy fields, in field order."""
    for key in parsed.entry.lazy_fields:
        value = parsed.fields.get(key)
        if isinstance(value, LazyPending):
            try:
                msg.force_lazy(value)
            except ForceFailed as exc:
                reasons.extend(exc.reasons)


# --- constraints -------------------------------------------------------------------

_OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _holds(expr):
    """`expr` as a function of (msg, kind, found), three-valued. Every item
    of an And or Or is evaluated: a field read forces nothing new."""
    if isinstance(expr, (And, Or)):
        items = [_holds(item) for item in expr.items]
        combine = all if isinstance(expr, And) else any

        def holds(msg, kind, found):
            verdicts = [item(msg, kind, found) for item in items]
            return None if None in verdicts else combine(verdicts)
        return holds
    if isinstance(expr, Not):
        inner = _holds(expr.item)
        return lambda msg, kind, found: (
            None if (verdict := inner(msg, kind, found)) is None else not verdict)
    if not isinstance(expr, Cmp):
        raise ZebuError(f"not a constraint expression: {expr!r}")
    lhs, rhs = _operand(expr.lhs), _operand(expr.rhs)
    op, mismatch = _OPS[expr.op], expr.op == "!="

    def holds(msg, kind, found):
        left, right = lhs(msg, kind, found), rhs(msg, kind, found)
        if left is None or right is None:
            return None
        (a, a_ci), (b, b_ci) = left, right
        if a is None or type(a) is not type(b):
            return mismatch  # a number, bytes and a structure are never equal
        return op(a.lower(), b.lower()) if a_ci and b_ci else op(a, b)
    return holds


def _operand(node):
    """`node` as a function of (msg, kind, found) giving (value, ci), the
    value a number, bytes or None (neither) and `ci` true when bytes compare
    in any case; or None when the field is unavailable."""
    if isinstance(node, IntLit):
        value = (node.value, False)
    elif isinstance(node, StrLit):
        value = (node.value.encode("ascii", "replace"), True)
    elif not isinstance(node, FieldRef):
        raise ZebuError(f"not a constraint operand: {node!r}")
    elif node.entry == frontend.BUILTIN_MESSAGE:
        return lambda msg, kind, found: None if kind is None else (kind.name.encode(), True)
    else:
        name, path, ci = node.entry, list(node.subfield.path), node.subfield.ci

        def get(msg, kind, found):
            parsed = found.get(name)
            if parsed is None:
                return None
            try:
                value = msg._walk(parsed.fields, path)
            except ForceFailed:
                return None
            if isinstance(value, (U16, U32)):
                return value.value, False
            if isinstance(value, EnumTag):
                return value.branch, False
            if isinstance(value, RawSlice):
                return value.data, ci
            return None if value is ABSENT else (None, False)
        return get
    return lambda msg, kind, found: value
