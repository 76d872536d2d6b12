"""RFC 2234/5234 ABNF parsing into an element AST.

The parser covers the rule syntax used by RFC message grammars: quoted
case-insensitive strings, %d/%x char-code terminals and ranges, groups,
optional brackets, and every repetition shorthand (n*m, n*, *m, *, bare n).
Shorthands are normalized at parse time; `[X]` becomes a 0*1 repetition.
Semantic checks (undefined rules, duplicates, cycles) are left to the
verifier.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Union

from .errors import SourceError


class AbnfSyntaxError(SourceError):
    pass


# --- AST ------------------------------------------------------------------

@dataclass(frozen=True)
class LiteralCI:
    """Quoted string terminal; matches case-insensitively."""
    text: str


@dataclass(frozen=True)
class CharCodes:
    """Explicit character-code sequence (%x.. / %d..); matches exact bytes."""
    data: bytes


@dataclass(frozen=True)
class CharRange:
    """Single byte in an inclusive range (%x41-5A style)."""
    lo: int
    hi: int


@dataclass(frozen=True)
class RuleRef:
    name: str


@dataclass(frozen=True)
class Sequence:
    items: tuple["Element", ...]


@dataclass(frozen=True)
class Alternation:
    branches: tuple["Element", ...]


@dataclass(frozen=True)
class Repetition:
    min: int
    max: Optional[int]  # None = unbounded
    inner: "Element"


Element = Union[LiteralCI, CharCodes, CharRange, RuleRef, Sequence, Alternation, Repetition]


@dataclass(frozen=True)
class Rule:
    name: str
    body: Element
    span: tuple[int, int]  # (line, col), 1-based


class Grammar:
    """Ordered collection of rules with case-insensitive lookup.

    Duplicate definitions are retained in `definitions` (the verifier
    reports them); lookup resolves to the first definition.
    """

    def __init__(self, definitions: list[Rule] | None = None):
        self.definitions: list[Rule] = list(definitions or [])
        self._by_name: dict[str, Rule] = {}
        for rule in self.definitions:
            self._by_name.setdefault(rule.name.lower(), rule)

    def add(self, rule: Rule) -> None:
        self.definitions.append(rule)
        self._by_name.setdefault(rule.name.lower(), rule)

    def get(self, name: str) -> Optional[Rule]:
        return self._by_name.get(name.lower())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._by_name

    def __iter__(self) -> Iterator[Rule]:
        # Source order; duplicates beyond the first are skipped.
        seen = set()
        for rule in self.definitions:
            key = rule.name.lower()
            if key not in seen:
                seen.add(key)
                yield rule

    def __len__(self) -> int:
        return len(self._by_name)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grammar):
            return NotImplemented
        return self.definitions == other.definitions

    def to_text(self) -> str:
        return "".join(f"{r.name} = {to_abnf(r.body)}\n" for r in self.definitions)


def resolve(name: str, grammar: Grammar) -> Optional[Rule]:
    """Look up a rule, falling back to the built-in core rules."""
    rule = grammar.get(name)
    if rule is None:
        rule = core_rules().get(name)
    return rule


# --- pretty printer -------------------------------------------------------

def to_abnf(elem: Element) -> str:
    """Render an element back to ABNF text (reparseable)."""
    return _print(elem, 0)


# precedence levels: 0 alternation, 1 sequence, 2 atom/repetition
def _print(elem: Element, level: int) -> str:
    if isinstance(elem, Alternation):
        text = " / ".join(_print(b, 1) for b in elem.branches)
        return f"( {text} )" if level > 0 else text
    if isinstance(elem, Sequence):
        text = " ".join(_print(i, 2) for i in elem.items)
        return f"( {text} )" if level > 1 else text
    if isinstance(elem, Repetition):
        if (elem.min, elem.max) == (0, 1):
            return f"[ {_print(elem.inner, 0)} ]"
        if elem.min == elem.max:
            prefix = str(elem.min)
        elif elem.max is None:
            prefix = "*" if elem.min == 0 else f"{elem.min}*"
        elif elem.min == 0:
            prefix = f"*{elem.max}"
        else:
            prefix = f"{elem.min}*{elem.max}"
        inner = _print(elem.inner, 2)
        if inner[0] not in "([" and isinstance(elem.inner, Repetition):
            inner = f"( {_print(elem.inner, 0)} )"  # avoid 1*(2X) -> 1*32X
        return prefix + inner
    if isinstance(elem, LiteralCI):
        return f'"{elem.text}"'
    if isinstance(elem, CharCodes):
        return "%x" + ".".join(f"{b:02X}" for b in elem.data)
    if isinstance(elem, CharRange):
        return f"%x{elem.lo:02X}-{elem.hi:02X}"
    if isinstance(elem, RuleRef):
        return elem.name
    raise TypeError(f"not an ABNF element: {elem!r}")


# --- scanner --------------------------------------------------------------

_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_DIGITS = frozenset("0123456789")

# Each token is one match from the scanner's position. Inline whitespace
# is spaces, tabs, comments and line continuations: a line break (CRLF, CR
# or LF) followed by a space, a tab or the end of the input.
_INLINE = re.compile(r"(?:[ \t]+|;[^\r\n]*|(?:\r\n?|\n)(?=[ \t]|\Z))*")
_BLANK = re.compile(r"(?:[ \t\r\n]+|;[^\r\n]*)*")
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9-]*")
_INT = {10: re.compile(r"[0-9]*"), 16: re.compile(r"[0-9A-Fa-f]*")}
_QUOTED = re.compile(r'"[ !#-~]*')  # up to the first character not printable or a quote
_LINE_FEED = re.compile(r"\n")


class Scanner:
    """Cursor over source text. Each token is one precompiled regex match
    from `pos`; `location` turns an offset into a line and column."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.n = len(text)
        # the offset each line starts at: 0, then one past every LF
        self._line_starts = [0] + [m.end() for m in _LINE_FEED.finditer(text)]

    def at_end(self) -> bool:
        return self.pos >= self.n

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < self.n else ""

    def take(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def eat(self, token: str) -> bool:
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, ch: str, what: str = "") -> None:
        if not self.eat(ch):
            found = repr(self.peek()) if not self.at_end() else "end of input"
            self.error(f"expected {what or repr(ch)}, found {found}")

    def location(self, pos: int | None = None) -> tuple[int, int]:
        """The 1-based line and column of offset `pos` (default: here).
        Only LF starts a line; a CR alone is one more column."""
        p = self.pos if pos is None else pos
        line = bisect_right(self._line_starts, p)
        return line, p - self._line_starts[line - 1] + 1

    def error(self, message: str, pos: int | None = None) -> None:
        line, col = self.location(pos)
        raise AbnfSyntaxError(message, line, col)

    def skip_inline(self) -> None:
        """Whitespace inside a rule body; stops before a line break that
        starts a line with no indent."""
        self.pos = _INLINE.match(self.text, self.pos).end()

    def skip_blank(self) -> None:
        """Whitespace between rules, blank lines and comments included."""
        self.pos = _BLANK.match(self.text, self.pos).end()

    def at_line_break(self) -> bool:
        return self.peek() in ("\r", "\n")

    def take_name(self, what: str = "rule name") -> str:
        m = _NAME.match(self.text, self.pos)
        if m is None:
            self.error(f"expected {what}")
        self.pos = m.end()
        return m.group()

    def at_name(self) -> bool:
        return self.peek() in _NAME_START

    def at_int(self) -> bool:
        return self.peek() in _DIGITS

    def take_int(self, base: int = 10, what: str = "an integer",
                 at: int | None = None) -> int:
        """An unsigned integer: one or more ASCII digits of `base` (10 or
        16). A missing integer is an error that names `what` and points at
        `at` (default: here)."""
        start = self.pos
        self.pos = _INT[base].match(self.text, start).end()
        if start == self.pos:
            self.error(f"expected {what}", at)
        try:
            return int(self.text[start:self.pos], base)
        except ValueError:  # more decimal digits than int() converts
            self.error("integer has too many digits", start)

    def take_quoted(self, what: str) -> str:
        """The text between double quotes, printable ASCII on one line; the
        scanner sits on the opening quote. Errors name `what` and point at
        the opening quote."""
        start = self.pos
        end = _QUOTED.match(self.text, start).end()
        stop = self.text[end:end + 1]
        if stop == '"':
            self.pos = end + 1
            return self.text[start + 1:end]
        if stop in ("", "\r", "\n"):
            self.error(f"unterminated {what}", start)
        self.error(f"non-printable character in {what}", start)


# --- element parser -------------------------------------------------------

class ElementParser:
    """Recursive-descent parser for ABNF rule bodies.

    The zebu frontend subclasses this and overrides `postfix` to accept
    subfield annotations; plain ABNF rejects them.
    """

    def __init__(self, scanner: Scanner):
        self.s = scanner

    def parse_alternation(self) -> Element:
        branches = [self.parse_sequence()]  # each ends past inline whitespace
        while self.s.peek() == "/":
            self.s.take()
            self.s.skip_inline()
            branches.append(self.parse_sequence())
        return branches[0] if len(branches) == 1 else Alternation(tuple(branches))

    def parse_sequence(self) -> Element:
        items = [self.parse_repetition()]
        while True:
            self.s.skip_inline()
            ch = self.s.peek()
            if not ch or ch in ("/", ")", "]", "}") or self.s.at_line_break():
                break
            if ch == "{":
                break  # zebu annotation block terminates the body
            items.append(self.parse_repetition())
        return items[0] if len(items) == 1 else Sequence(tuple(items))

    def parse_repetition(self) -> Element:
        s = self.s
        start = s.pos
        lo: Optional[int] = None
        hi: Optional[int] = None
        explicit = False
        if s.at_int():
            lo = s.take_int()
            explicit = True
        if s.peek() == "*":
            s.take()
            if lo is None:
                lo = 0
            if s.at_int():
                hi = s.take_int()
            explicit = True
        elif explicit:
            hi = lo  # bare n means exactly n
        if explicit:
            if hi is not None and lo is not None and lo > hi:
                s.error(f"bad repetition bounds {lo}*{hi}", start)
            inner = self.parse_element()
            return self.postfix(Repetition(lo or 0, hi, inner))
        return self.parse_element_with_postfix()

    def parse_element_with_postfix(self) -> Element:
        return self.postfix(self.parse_element())

    def parse_element(self) -> Element:
        s = self.s
        ch = s.peek()
        if ch == "(":
            s.take()
            s.skip_inline()
            inner = self.parse_alternation()
            s.expect(")", "')'")
            return inner
        if ch == "[":
            s.take()
            s.skip_inline()
            inner = self.parse_alternation()
            s.expect("]", "']'")
            return Repetition(0, 1, inner)
        if ch == '"':
            start = s.pos
            text = s.take_quoted("quoted string")
            if not text:
                s.error("empty quoted string (use %x codes for explicit bytes)", start)
            return LiteralCI(text)
        if ch == "%":
            return self._parse_numval()
        if ch == "<":
            s.error("prose rules <...> are not supported")
        if ch in _NAME_START:
            return RuleRef(s.take_name())
        found = repr(ch) if ch else "end of input"
        s.error(f"expected an element, found {found}")
        raise AssertionError  # unreachable

    def postfix(self, elem: Element) -> Element:
        return elem

    def parse_definition(self) -> Element:
        """A rule definition after its name: `=` and the body."""
        s = self.s
        s.skip_inline()
        if s.text.startswith("=/", s.pos):
            s.error("incremental alternatives (=/) are not supported")
        s.expect("=", "'=' after rule name")
        s.skip_inline()
        return self.parse_alternation()

    def _parse_numval(self) -> Element:
        s = self.s
        start = s.pos
        s.take()  # %
        base_ch = s.peek()
        if base_ch in ("x", "X"):
            base = 16
        elif base_ch in ("d", "D"):
            base = 10
        elif base_ch in ("b", "B"):
            s.error("%b binary terminals are not supported", start)
        else:
            s.error("expected %x or %d", start)
        s.take()

        def take_num() -> int:
            value = s.take_int(base, "a character code", start)
            if value > 0xFF:  # named without its value, which may have thousands of digits
                s.error("character code exceeds one byte", start)
            return value

        first = take_num()
        if s.peek() == "-":
            s.take()
            hi = take_num()
            if hi < first:
                s.error("descending character range", start)
            return CharRange(first, hi)
        codes = [first]
        while s.peek() == ".":
            s.take()
            codes.append(take_num())
        return CharCodes(bytes(codes))


# --- rule-list parser -----------------------------------------------------

def parse_abnf(source: str) -> Grammar:
    """Parse a sequence of ABNF rule definitions.

    Raises AbnfSyntaxError with line/column on malformed input. Duplicate
    or undefined rule names are not errors here; run the verifier for
    semantic checks.
    """
    s = Scanner(source)
    parser = ElementParser(s)
    grammar = Grammar()
    while True:
        s.skip_blank()
        if s.at_end():
            break
        span = s.location()
        name = s.take_name()
        try:
            body = parser.parse_definition()
        except RecursionError:
            raise AbnfSyntaxError("elements nested too deeply") from None
        s.skip_inline()
        if not s.at_end() and not s.at_line_break():
            s.error(f"unexpected {s.peek()!r} after rule body")
        grammar.add(Rule(name, body, span))
    return grammar


_CORE_TEXT = """\
ALPHA  = %x41-5A / %x61-7A
DIGIT  = %x30-39
HEXDIG = DIGIT / "A" / "B" / "C" / "D" / "E" / "F"
DQUOTE = %x22
SP     = %x20
HTAB   = %x09
WSP    = SP / HTAB
CR     = %x0D
LF     = %x0A
CRLF   = CR LF
VCHAR  = %x21-7E
OCTET  = %x00-FF
CHAR   = %x01-7F
"""


@lru_cache(maxsize=1)
def core_rules() -> Grammar:
    """The built-in core rule set every grammar may reference."""
    return parse_abnf(_CORE_TEXT)
