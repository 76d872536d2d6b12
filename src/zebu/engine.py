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

`validate` is the full-validation driver used by the mutation campaigns:
it parses every declared header present, forces lazy subfields, checks
mandatory/multiplicity rules, and evaluates the request/response block
constraints, accumulating every reason rather than stopping at the first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field

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
from .pattern import MatchBudgetExceeded, Pattern, compile_pattern, compile_subfield_pattern, match_full


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
    """Handle for a declared-lazy subfield; forcing it runs its own pattern."""

    __slots__ = ("entry_name", "key", "source", "span", "value", "failure")

    def __init__(self, entry_name: str, key: str, source: bytes, span: tuple[int, int]):
        self.entry_name = entry_name
        self.key = key
        self.source = source
        self.span = span
        self.value = None
        self.failure = None

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
    top_fields: tuple[Subfield, ...] = dc_field(init=False, repr=False)

    def __post_init__(self):
        self.top_fields = tuple(sf for sf in self.table.values() if len(sf.path) == 1)


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


# --- typed conversion -----------------------------------------------------------

_UINT_DIGITS = {16: len(str(1 << 16)), 32: len(str(1 << 32))}


def _convert(entry: CompiledEntry, pattern: Pattern, res, source: bytes,
             sf: Subfield, location: str, errors: list[Reason]):
    span = res.span(pattern, sf.key)
    if span is None:
        return ABSENT
    start, end = span
    shape = sf.shape
    if shape is Shape.RAW:
        return RawSlice(source, start, end)
    if shape in (Shape.UINT16, Shape.UINT32):
        text = source[start:end]
        if not text.isdigit():
            errors.append(Reason(
                ReasonCode.SYNTAX, location,
                f"captured value {text!r} is not an unsigned decimal integer"))
            return ABSENT
        # overflow is decided on the digits first: int() refuses very long strings
        digits = text.lstrip(b"0")
        width = 16 if shape is Shape.UINT16 else 32
        value = int(digits or b"0") if len(digits) <= _UINT_DIGITS[width] else None
        if value is None or value >= (1 << width):
            errors.append(Reason(
                ReasonCode.RANGE, location,
                f"value {digits.decode('ascii')} overflows uint{width}"))
            return ABSENT
        bound = sf.range
        if bound is not None and not bound.holds(value):
            op = "<" if bound.hi_strict else "<="
            errors.append(Reason(
                ReasonCode.RANGE, location,
                f"value {value} outside {bound.lo} <= x {op} {bound.hi}"))
            return ABSENT
        return U16(value) if width == 16 else U32(value)
    if shape is Shape.ENUM:
        branch = _matched_branch(pattern, res, sf.key)
        if branch is None:
            errors.append(Reason(
                ReasonCode.SYNTAX, location, "no alternation branch recorded"))
            return ABSENT
        return EnumTag(branch)
    if shape is Shape.STRUCT:
        fields = {}
        for child in sf.children:
            child_sf = entry.table[f"{sf.key}.{child}"]
            fields[child] = _convert(entry, pattern, res, source, child_sf,
                                     f"{location}.{child}", errors)
        return StructVal(fields)
    if shape is Shape.UNION:
        branch = _matched_branch(pattern, res, sf.key)
        if branch is None:
            errors.append(Reason(
                ReasonCode.SYNTAX, location, "no alternation branch recorded"))
            return ABSENT
        per_branch = sf.branch_children
        fields = {}
        for child in per_branch[branch] if branch < len(per_branch) else ():
            child_sf = entry.table[f"{sf.key}.{child}"]
            fields[child] = _convert(entry, pattern, res, source, child_sf,
                                     f"{location}.{child}", errors)
        return UnionVal(branch, fields)
    raise ZebuError(f"unhandled shape {shape}")


def _matched_branch(pattern: Pattern, res, key: str) -> int | None:
    i = 0
    while True:
        cid = pattern.capture_index.get(f"{key}#{i}")
        if cid is None:
            return None
        if cid in res.captures:
            return i
        i += 1


# --- parsed views ----------------------------------------------------------------

class HeaderState(enum.Enum):
    PARSED_OK = "ok"
    PARSE_FAILED = "failed"


@dataclass
class ParsedHeader:
    name: str
    instance: int
    raw_value: bytes
    state: HeaderState
    failures: list[Reason]
    fields: dict
    _entry: CompiledEntry

    def get_subfield(self, name: str):
        """Memoized typed value of a top-level subfield; LazyPending for an
        unforced lazy field; ABSENT for an optional subfield the match did
        not exercise. A nested field is read with `ParsedMessage.select`."""
        if self.state is not HeaderState.PARSED_OK:
            raise HeaderNotParsed(f"header {self.name!r} is in state {self.state.value}")
        if "." in name or name not in self._entry.table:
            raise UnknownSubfield(f"header {self.name!r} has no top-level subfield "
                                  f"{name!r}; ParsedMessage.select reads nested paths")
        return self.fields.get(name, ABSENT)


@dataclass
class ParsedCommandLine:
    kind: MessageKind
    fields: dict
    failures: list[Reason]
    entry: CompiledEntry


class ParsedMessage:
    """Single-owner session over one raw message: its line scan, memo
    tables, and the pattern-execution counter."""

    def __init__(self, grammar: CompiledGrammar, raw: bytes):
        self.grammar = grammar
        self.raw = raw
        self._cmd_end, self._values, self._body = index_message(raw, grammar.by_key)
        self._exec = 0
        self._lazy_exec = 0
        self._command: ParsedCommandLine | None = None
        self._command_error: MessageTypeError | None = None
        self._parsed: dict[tuple[str, int], ParsedHeader] = {}

    # counters ------------------------------------------------------------

    @property
    def exec_counter(self) -> int:
        """Header-level plus lazy-subfield pattern executions so far."""
        return self._exec

    @property
    def lazy_exec_counter(self) -> int:
        return self._lazy_exec

    def _run(self, pattern: Pattern, subject: bytes, location: str,
             lazy: bool = False):
        self._exec += 1
        if lazy:
            self._lazy_exec += 1
        try:
            return match_full(pattern, subject, pat.DEFAULT_MATCH_BUDGET)
        except MatchBudgetExceeded as exc:
            raise _Budget(Reason(ReasonCode.BUDGET, location, str(exc))) from None

    # command line ----------------------------------------------------------

    def message_type(self) -> MessageKind:
        """REQUEST or RESPONSE, deciding with at most two pattern runs."""
        return self._parse_command().kind

    def command_fields(self) -> ParsedCommandLine:
        return self._parse_command()

    def _parse_command(self) -> ParsedCommandLine:
        if self._command is not None:
            return self._command
        if self._command_error is not None:
            raise self._command_error
        subject = self.raw[:self._cmd_end]
        try:
            for kind, name in COMMAND_LINE.items():
                entry = self.grammar.entries[name]
                res = self._run(entry.pattern, subject, "command line")
                if res.matched:
                    failures: list[Reason] = []
                    fields = self._materialize(entry, entry.pattern, res,
                                               subject, failures)
                    self._command = ParsedCommandLine(kind, fields, failures, entry)
                    return self._command
        except _Budget as b:
            self._command_error = MessageTypeError([b.reason])
            raise self._command_error from None
        self._command_error = MessageTypeError([Reason(
            ReasonCode.SYNTAX, "command line",
            "matches neither the request line nor the status line")])
        raise self._command_error

    def _materialize(self, entry: CompiledEntry, pattern: Pattern, res,
                     subject: bytes, failures: list[Reason]) -> dict:
        fields = {}
        for sf in entry.top_fields:
            if sf.lazy and sf.name in entry.lazy_patterns:
                span = res.span(pattern, sf.key)
                fields[sf.name] = (
                    ABSENT if span is None
                    else LazyPending(entry.name, sf.key, subject, span))
            else:
                fields[sf.name] = _convert(entry, pattern, res, subject, sf,
                                           f"{entry.name}.{sf.key}", failures)
        return fields

    # headers ------------------------------------------------------------------

    def _header(self, name: str) -> CompiledEntry:
        entry = self.grammar.header(name)
        if entry is None:
            raise UnknownHeader(f"header {name!r} is not declared in the grammar")
        return entry

    def header_count(self, name: str) -> int:
        return len(self._values.get(self._header(name).name, ()))

    def parse_header(self, name: str) -> ParsedHeader | None:
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

    def parse_header_nth(self, name: str, index: int) -> ParsedHeader | None:
        """Indexed access for `multiple` headers, in source order."""
        return self._parse_instance(self._header(name), index)

    def _parse_instance(self, entry: CompiledEntry, index: int) -> ParsedHeader | None:
        memo_key = (entry.name, index)
        if memo_key in self._parsed:
            return self._parsed[memo_key]
        instances = self._values.get(entry.name, ())
        if index >= len(instances):
            return None
        value = unfolded_value(self.raw, *instances[index])
        location = f"{entry.name}[{index}]" if index else entry.name
        try:
            res = self._run(entry.pattern, value, location)
        except _Budget as b:
            parsed = ParsedHeader(entry.name, index, value, HeaderState.PARSE_FAILED,
                                  [b.reason], {}, entry)
            self._parsed[memo_key] = parsed
            return parsed
        if not res.matched:
            parsed = ParsedHeader(
                entry.name, index, value, HeaderState.PARSE_FAILED,
                [Reason(ReasonCode.SYNTAX, location,
                        f"value {value!r} does not match the header grammar")],
                {}, entry)
        else:
            failures: list[Reason] = []
            fields = self._materialize(entry, entry.pattern, res, value, failures)
            state = HeaderState.PARSE_FAILED if failures else HeaderState.PARSED_OK
            parsed = ParsedHeader(entry.name, index, value, state, failures,
                                  fields, entry)
        self._parsed[memo_key] = parsed
        return parsed

    # lazy forcing -----------------------------------------------------------------

    def force_lazy(self, pending: LazyPending):
        """Run the subfield's own pattern over its raw span exactly once;
        later calls return the memoized value without a pattern run."""
        if pending.value is not None:
            return pending.value
        if pending.failure is not None:
            raise pending.failure
        entry = self.grammar.entries[pending.entry_name]
        sub_pattern = entry.lazy_patterns[pending.key]
        s, e = pending.span
        subject = pending.source[s:e]
        location = f"{pending.entry_name}.{pending.key}"
        try:
            res = self._run(sub_pattern, subject, location, lazy=True)
        except _Budget as b:
            pending.failure = ForceFailed([b.reason])
            raise pending.failure from None
        if not res.matched:
            pending.failure = ForceFailed([Reason(
                ReasonCode.SYNTAX, location,
                f"lazy value {subject!r} does not match its grammar")])
            raise pending.failure
        errors: list[Reason] = []
        sf = entry.table[pending.key]
        value = _convert(entry, sub_pattern, res, subject, sf, location, errors)
        if errors:
            pending.failure = ForceFailed(errors)
            raise pending.failure
        pending.value = value
        return value

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
                cmd = self._parse_command()
            except MessageTypeError:
                return ABSENT
            if cmd.entry is not entry:
                return ABSENT
            return self._walk(cmd.fields, rest)
        parsed = self.parse_header(head)
        if parsed is None or parsed.state is not HeaderState.PARSED_OK:
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


class _Budget(Exception):
    def __init__(self, reason: Reason):
        self.reason = reason


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
        kind = command.kind
        reasons.extend(command.failures)
        _force_all(msg, command.fields, reasons)
    except MessageTypeError as exc:
        reasons.extend(exc.reasons)

    first_instances: dict[str, ParsedHeader] = {}
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
            if parsed.state is not HeaderState.PARSED_OK:
                reasons.extend(parsed.failures)
                continue
            _force_all(msg, parsed.fields, reasons)
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


def _force_all(msg: ParsedMessage, fields: dict, reasons: list[Reason]) -> None:
    for value in fields.values():
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
        if command is None or command.entry.name != ref.entry:
            return None
        entry, fields = command.entry, command.fields
    else:
        parsed = first_instances.get(ref.entry)
        if parsed is None:
            return None
        entry, fields = parsed._entry, parsed.fields
    try:
        value = msg._walk(fields, ref.sub_path)
    except ForceFailed:
        return None
    if value is ABSENT:
        return None
    return value, entry.table[".".join(ref.sub_path)].ci


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
