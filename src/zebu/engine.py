"""Two-level message parsing: a line scanner plus per-header patterns.

`compile_grammar` adds the only thing a verified AnnotatedGrammar lacks:
its patterns. A CompiledGrammar is that grammar plus one entry table, a
CompiledEntry per command line and header holding its pattern, its lazy
subfields' patterns and its declaration.

`index_message` is level one: a single scan of the head's lines that runs
no pattern. It finds the command line and the body, and sorts the value
spans of declared headers by header as it goes. Per line it makes a few
single-byte finds (memchr) and one dict lookup; an undeclared header costs
nothing more and builds nothing. A value is unfolded from its span on first
use. Dedicated patterns then run on demand per requested header; lazy
subfields defer their own pattern until forced. A session counts pattern
executions so the cost model (independent of total header count) is
observable.

Typed fields are read straight from a match's spans. Both matcher backends
give one span shape, `re`'s `Match.regs` (see `pattern.match_spans`), and
each entry, like each lazy subfield's pattern, has a capture reader built
once, on first use: one function per subfield that indexes the span tuple
at its capture's slot, with its shape's checks, bounds and reason location
worked out beforehand.

Every pattern run, of a command line, a header instance or a lazy force,
goes through one outcome path, `ParsedMessage._outcome`: a BUDGET reason,
a SYNTAX reason, or the reader's value plus its conversion failures. A
command line and a header instance both parse into one record, a
ParsedEntry; a header parsed exactly when its record has no failures.

`validate` is the full-validation driver used by the mutation campaigns:
it parses every declared header present, forces lazy subfields, checks
mandatory/multiplicity rules, and evaluates the request/response block
constraints, accumulating every reason rather than stopping at the first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field
from functools import cached_property

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
from .pattern import MatchBudgetExceeded, Pattern, compile_pattern, compile_subfield_pattern
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


@dataclass(frozen=True)
class U16:
    value: int


@dataclass(frozen=True)
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


@dataclass
class StructVal:
    fields: dict

    def get(self, name):
        return self.fields.get(name, ABSENT)


@dataclass
class UnionVal:
    branch: int
    fields: dict

    def get(self, name):
        return self.fields.get(name, ABSENT)


class LazyPending:
    """Handle for a declared-lazy subfield; forcing it runs its own pattern.
    `outcome` is None until then, and after it the typed value or the
    ForceFailed that forcing raises."""

    __slots__ = ("entry_name", "key", "source", "span", "outcome")

    def __init__(self, entry_name: str, key: str, source: bytes, span: tuple[int, int]):
        self.entry_name = entry_name
        self.key = key
        self.source = source
        self.span = span
        self.outcome = None

    def __repr__(self):
        return f"LazyPending({self.entry_name}.{self.key} @ {self.span})"


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
    """One entry point's patterns: the entry's own and one per lazy
    subfield forced on demand. `decl` is the header declaration, or None
    for a command line."""

    name: str
    pattern: Pattern
    table: dict[str, Subfield]
    lazy_patterns: dict[str, Pattern]
    decl: HeaderDecl | None

    @cached_property
    def reader(self) -> tuple:
        """(name, read) per top-level subfield of a match of `pattern`; a
        lazy one reads as a LazyPending over its hole."""
        return tuple(
            (sf.name, _pending_reader(self.pattern, self.name, sf.key)
             if sf.name in self.lazy_patterns
             else _reader(self.pattern, self.table, sf, f"{self.name}.{sf.key}"))
            for sf in self.table.values() if len(sf.path) == 1)

    @cached_property
    def lazy_readers(self) -> dict:
        """Per lazy subfield, the read of its value from a match of its own
        pattern."""
        return {key: _reader(p, self.table, self.table[key], f"{self.name}.{key}")
                for key, p in self.lazy_patterns.items()}

    def read(self, spans: tuple, source: bytes, errors: list[Reason]) -> dict:
        """The top-level fields of a match of `pattern` over `source`;
        conversion failures are appended to `errors`."""
        return {name: get(spans, source, errors) for name, get in self.reader}


@dataclass
class CompiledGrammar:
    """A verified AnnotatedGrammar plus its patterns.

    `entries` holds one CompiledEntry per entry point, keyed by name in
    `ag.entry_points()` order: requestLine, statusLine, then each header.
    `by_key` maps each lowercased header key variant to the name of the
    header that declares it, so the line scan assigns every header line to
    one entry."""

    ag: AnnotatedGrammar
    entries: dict[str, CompiledEntry]
    by_key: dict[bytes, str] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.by_key = {}
        for entry in self.entries.values():
            for key in entry.decl.keys if entry.decl is not None else ():
                self.by_key.setdefault(key.lower().encode("ascii"), entry.name)

    def named_patterns(self):
        """(name, pattern) for every pattern: each command line's and
        header's own, then those of its lazy subfields."""
        for entry in self.entries.values():
            where = f"{'entry' if entry.decl is None else 'header'} {entry.name}"
            yield where, entry.pattern
            for name, p in entry.lazy_patterns.items():
                yield f"{where} lazy subfield {name}", p

    def header(self, name: str) -> CompiledEntry | None:
        """The declared header called `name`, in any case."""
        decl = self.ag.header(name)
        return None if decl is None else self.entries[decl.name]


def compile_grammar(ag: AnnotatedGrammar) -> CompiledGrammar:
    """Compile a verified AnnotatedGrammar's patterns."""
    frontend.resolve_constraint_refs(ag)
    if len(ag.command_lines) < len(MessageKind):
        raise ZebuError("grammar must define requestLine and statusLine")
    decls = {decl.name: decl for decl in ag.headers}
    entries = {}
    for name, body in ag.entry_points():
        table = ag.subfields[name]
        entry_pattern = compile_pattern(body, ag, table=table)
        lazy_patterns = {sf.name: compile_subfield_pattern(sf, ag, table)
                         for sf in table.values() if sf.forced_lazily}
        entries[name] = CompiledEntry(name, entry_pattern, table, lazy_patterns,
                                      decls.get(name))
    return CompiledGrammar(ag, entries)


# --- capture readers --------------------------------------------------------------
#
# A read function takes (spans, source, errors): the span tuple of a match
# over `source`, and the list to which a failed conversion appends its
# reason. It returns the subfield's typed value, or ABSENT.

_UINT_DIGITS = {16: len(str(1 << 16)), 32: len(str(1 << 32))}


def _read_absent(spans, source, errors):
    return ABSENT


def _pending_reader(pattern: Pattern, entry_name: str, key: str):
    """Read a lazy subfield's hole as a LazyPending over its span."""
    slot = pattern.capture_index[key] + 1

    def read(spans, source, errors):
        span = spans[slot]
        return ABSENT if span[0] < 0 else LazyPending(entry_name, key, source, span)
    return read


def _reader(pattern: Pattern, table: dict[str, Subfield], sf: Subfield, location: str):
    """Read `sf` from a match of `pattern`; a failed conversion's reason
    is located at `location`."""
    cid = pattern.capture_index.get(sf.key)
    if cid is None:
        return _read_absent
    slot = cid + 1
    shape = sf.shape
    if shape is Shape.RAW:
        def read(spans, source, errors):
            start, end = spans[slot]
            return ABSENT if start < 0 else RawSlice(source, start, end)
        return read

    if shape is Shape.UINT16 or shape is Shape.UINT32:
        width = 16 if shape is Shape.UINT16 else 32
        limit, most, typed = 1 << width, _UINT_DIGITS[width], U16 if width == 16 else U32
        bound = sf.range
        outside = None if bound is None else (
            f" outside {bound.lo} <= x {'<' if bound.hi_strict else '<='} {bound.hi}")

        def read(spans, source, errors):
            start, end = spans[slot]
            if start < 0:
                return ABSENT
            text = source[start:end]
            if not text.isdigit():
                errors.append(Reason(
                    ReasonCode.SYNTAX, location,
                    f"captured value {text!r} is not an unsigned decimal integer"))
                return ABSENT
            # overflow is decided on the digits first: int() refuses very long strings
            digits = text.lstrip(b"0")
            if len(digits) > most or (value := int(digits or b"0")) >= limit:
                errors.append(Reason(
                    ReasonCode.RANGE, location,
                    f"value {digits.decode('ascii')} overflows uint{width}"))
                return ABSENT
            if bound is not None and not bound.holds(value):
                errors.append(Reason(ReasonCode.RANGE, location, f"value {value}{outside}"))
                return ABSENT
            return typed(value)
        return read

    def children(names):
        return tuple((child, _reader(pattern, table, table[f"{sf.key}.{child}"],
                                     f"{location}.{child}")) for child in names)

    if shape is Shape.STRUCT:
        fields = children(sf.children)

        def read(spans, source, errors):
            if spans[slot][0] < 0:
                return ABSENT
            return StructVal({name: get(spans, source, errors) for name, get in fields})
        return read

    if shape is not Shape.ENUM and shape is not Shape.UNION:
        raise ZebuError(f"unhandled shape {shape}")
    # the slots of the branches' captures, in branch order
    branches = []
    while (branch_cid := pattern.capture_index.get(f"{sf.key}#{len(branches)}")) is not None:
        branches.append(branch_cid + 1)
    per_branch = tuple(map(children, sf.branch_children))

    def read(spans, source, errors):
        if spans[slot][0] < 0:
            return ABSENT
        for branch, branch_slot in enumerate(branches):
            if spans[branch_slot][0] >= 0:
                break
        else:
            errors.append(Reason(ReasonCode.SYNTAX, location, "no alternation branch recorded"))
            return ABSENT
        if shape is Shape.ENUM:
            return EnumTag(branch)
        fields = per_branch[branch] if branch < len(per_branch) else ()
        return UnionVal(branch, {name: get(spans, source, errors) for name, get in fields})
    return read


# --- parsed views ----------------------------------------------------------------

@dataclass
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
        # the command line's record, or the MessageTypeError that typing it raised
        self._command: ParsedEntry | MessageTypeError | None = None
        self._parsed: dict[tuple[str, int], ParsedEntry] = {}

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
        """The command line's record; raises MessageTypeError when it
        matches neither command line."""
        if self._command is None:
            subject = self.raw[:self._cmd_end]
            # the request line first; a budget reason ends the search
            for name in COMMAND_LINE.values():
                entry = self.grammar.entries[name]
                fields, failures = self._outcome(
                    entry.pattern, subject, "command line", entry.read,
                    "matches neither the request line nor the status line")
                if fields is not None or failures[0].code is ReasonCode.BUDGET:
                    break
            self._command = (MessageTypeError(failures) if fields is None
                             else ParsedEntry(entry, subject, fields, failures))
        if isinstance(self._command, MessageTypeError):
            raise self._command
        return self._command

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
        if not count:
            return None
        if count > 1 and not entry.decl.multiple:
            raise DuplicateHeader(entry.name, count)
        return self._parse_instance(entry, 0)

    def parse_header_nth(self, name: str, index: int) -> ParsedEntry | None:
        """Indexed access for `multiple` headers, in source order."""
        return self._parse_instance(self._header(name), index)

    def _parse_instance(self, entry: CompiledEntry, index: int) -> ParsedEntry | None:
        memo_key = (entry.name, index)
        parsed = self._parsed.get(memo_key)
        if parsed is None:
            instances = self._values.get(entry.name, ())
            if index >= len(instances):
                return None
            value = unfolded_value(self.raw, *instances[index])
            fields, failures = self._outcome(
                entry.pattern, value, f"{entry.name}[{index}]" if index else entry.name,
                entry.read, "value {!r} does not match the header grammar")
            parsed = ParsedEntry(entry, value, fields or {}, failures)
            self._parsed[memo_key] = parsed
        return parsed

    # lazy forcing -----------------------------------------------------------------

    def force_lazy(self, pending: LazyPending):
        """Run the subfield's own pattern over its raw span exactly once;
        later calls return the memoized value without a pattern run."""
        if pending.outcome is None:
            entry = self.grammar.entries[pending.entry_name]
            s, e = pending.span
            self._lazy_exec += 1
            value, failures = self._outcome(
                entry.lazy_patterns[pending.key], pending.source[s:e],
                f"{pending.entry_name}.{pending.key}", entry.lazy_readers[pending.key],
                "lazy value {!r} does not match its grammar")
            pending.outcome = ForceFailed(failures) if failures else value
        if isinstance(pending.outcome, ForceFailed):
            raise pending.outcome
        return pending.outcome

    # selectors ----------------------------------------------------------------------

    def select(self, selector: str):
        """Resolve a dotted `Entry.sub.sub` selector, forcing lazy fields.

        Raises UnknownSubfield for a path not present in the grammar;
        returns ABSENT when the path is valid but unexercised.
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
    block constraints. Reasons are exhaustive, not first-failure.

    Passing an existing session reuses its memo tables and counter."""
    reasons: list[Reason] = []
    try:
        msg = session if session is not None else ParsedMessage(grammar, raw)
    except MessageSyntaxError as exc:
        return Verdict(False, exc.reasons)

    kind = None
    command = None
    try:
        command = msg.command_fields()
        kind = msg.message_type()
        reasons.extend(command.failures)
        _force_all(msg, command, reasons)
    except MessageTypeError as exc:
        reasons.extend(exc.reasons)

    first_instances: dict[str, ParsedEntry] = {}
    for decl in grammar.ag.headers:
        entry = grammar.entries[decl.name]
        count = len(msg._values.get(decl.name, ()))
        if count == 0:
            if kind in decl.mandatory_in:
                reasons.append(Reason(
                    ReasonCode.MANDATORY_MISSING, decl.name,
                    f"mandatory header {decl.name!r} is missing"))
            continue
        if count > 1 and not decl.multiple:
            reasons.append(Reason(
                ReasonCode.DUPLICATE_HEADER, decl.name,
                f"header {decl.name!r} appears {count} times"))
            count = 1  # constraints still use the first instance
        for i in range(count):
            parsed = msg._parse_instance(entry, i)
            if parsed.failures:
                reasons.extend(parsed.failures)
                continue
            _force_all(msg, parsed, reasons)
            if i == 0:
                first_instances[decl.name] = parsed

    def lookup(ref: FieldRef):
        return _lookup(ref, msg, kind, command, first_instances)

    for expr in grammar.ag.blocks.get(kind, ()):
        _check_constraint(expr, lookup, "block", reasons)
    for decl in grammar.ag.headers:
        if decl.name in first_instances:
            for expr in decl.local_constraints:
                _check_constraint(expr, lookup, decl.name, reasons)

    return Verdict(not reasons, reasons)


def _force_all(msg: ParsedMessage, parsed: ParsedEntry, reasons: list[Reason]) -> None:
    """Force the record's lazy fields, in field order."""
    for key in parsed.entry.lazy_patterns:
        value = parsed.fields.get(key)
        if isinstance(value, LazyPending):
            try:
                msg.force_lazy(value)
            except ForceFailed as exc:
                reasons.extend(exc.reasons)


def _lookup(ref: FieldRef, msg, kind, command, first_instances):
    """Returns (typed value, ci_flag) or None when unavailable."""
    if ref.entry == frontend.BUILTIN_MESSAGE:
        if kind is None:
            return None
        name = kind.name.encode()
        return RawSlice(name, 0, len(name)), True
    if ref.entry in COMMAND_LINE.values():
        parsed = command if command is not None and command.entry.name == ref.entry else None
    else:
        parsed = first_instances.get(ref.entry)
    if parsed is None:
        return None
    try:
        value = msg._walk(parsed.fields, ref.sub_path)
    except ForceFailed:
        return None
    if value is ABSENT:
        return None
    return value, parsed.entry.table[".".join(ref.sub_path)].ci


def _check_constraint(expr, lookup, location, reasons):
    verdict = _eval(expr, lookup)
    if verdict is False:
        code = ReasonCode.RANGE if is_range_shaped(expr) else ReasonCode.CONSTRAINT
        reasons.append(Reason(code, location, f"constraint failed: {expr_to_text(expr)}"))


def _eval(expr, lookup):
    """Three-valued evaluation: None when a referenced field is unavailable
    (absent, unparsed, or the wrong message kind), in which case the
    constraint does not apply."""
    if isinstance(expr, And):
        out = True
        for item in expr.items:
            v = _eval(item, lookup)
            if v is None:
                return None
            out = out and v
        return out
    if isinstance(expr, Or):
        out = False
        for item in expr.items:
            v = _eval(item, lookup)
            if v is None:
                return None
            out = out or v
        return out
    if isinstance(expr, Not):
        v = _eval(expr.item, lookup)
        return None if v is None else not v
    if isinstance(expr, Cmp):
        lhs = _operand(expr.lhs, lookup)
        rhs = _operand(expr.rhs, lookup)
        if lhs is None or rhs is None:
            return None
        return _compare(expr.op, lhs, rhs)
    raise ZebuError(f"not a constraint expression: {expr!r}")


def _operand(node, lookup):
    if isinstance(node, IntLit):
        return node.value
    if isinstance(node, StrLit):
        return node
    if isinstance(node, FieldRef):
        hit = lookup(node)
        if hit is None:
            return None
        return hit  # (typed value, ci flag)
    raise ZebuError(f"not a constraint operand: {node!r}")


def _compare(op, lhs, rhs):
    lnum, lbytes, lci = _comparable(lhs)
    rnum, rbytes, rci = _comparable(rhs)
    if lnum is not None and rnum is not None:
        return _apply(op, lnum, rnum)
    if lbytes is not None and rbytes is not None:
        if lci and rci:
            lbytes = lbytes.lower()
            rbytes = rbytes.lower()
        return _apply(op, lbytes, rbytes)
    # type mismatch: never equal
    return op == "!="


def _comparable(side):
    """Returns (numeric, bytes, case_insensitive)."""
    if isinstance(side, int):
        return side, None, False
    if isinstance(side, StrLit):
        return None, side.value.encode("ascii", "replace"), True
    value, ci = side
    if isinstance(value, (U16, U32)):
        return value.value, None, False
    if isinstance(value, EnumTag):
        return value.branch, None, False
    if isinstance(value, RawSlice):
        return None, value.data, ci
    return None, None, False


def _apply(op, a, b):
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b
