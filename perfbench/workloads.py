"""The benchmark's workloads: seeded inputs, timed batches, and checks.

Each workload builds a fixed list of operations (a round) from the seed
before any timing starts. A run repeats whole rounds, so the share of
failed operations is the same in every run, whatever its length. A round
runs as batches of `batch` operations; `run_batch(lo, hi, lat)` runs
operations lo..hi-1, appends each one's wall time in ns to `lat`, and
returns their outputs.

The checks never compare against a stored copy of today's output. They
compare against the values the generator put into a message, against the
independent reference validator (`zebu.refcheck`), or against properties
of the method (exec counters, campaign tallies, determinism).

Every call into zebu goes through a module attribute (`engine.validate`,
`mutate.run_campaign`, ...) looked up at the start of a batch, so that the
traced run can wrap those attributes (see spans.py).
"""

from __future__ import annotations

import random
import string
import time
from dataclasses import dataclass

import machine
from zebu import artifact, engine, mutate, refcheck
from zebu.engine import ABSENT, MessageKind, ReasonCode, RawSlice, U32
from zebu.frontend import parse_zebu
from zebu.verify import verify_all

SPEC = "src/zebu/grammars/sip-subset.zebu"

_clock = time.perf_counter_ns
_ALNUM = string.ascii_lowercase + string.digits


# --- set-up: spec text -> artifact -> loaded grammar ----------------------------

SETUP_PHASES = ("frontend.parse_zebu", "verify.verify_all", "engine.compile_grammar",
                "artifact.serialize", "artifact.deserialize")


class Setup:
    """What `zebu compile` followed by `zebu parse`/`zebu mutate` pays: spec
    text -> parse_zebu -> verify_all -> compile_grammar -> serialize ->
    deserialize. `repeat()` times it once more, so that the run can report
    the median of set-ups spread over its whole length. Times are divided by
    the machine's slowdown measured around each set-up."""

    def __init__(self, spec_text: str):
        self.spec_text = spec_text
        self.totals_s: list[float] = []
        self.phases_s = {name: [] for name in SETUP_PHASES}
        self.ag, self.grammar, self.artifact = self._once()

    def repeat(self) -> None:
        _, _, data = self._once()
        if data != self.artifact:
            raise RuntimeError("compiling the same spec twice gave different artifacts")

    def _once(self):
        before = machine.slowdown()
        t0 = _clock()
        ag = parse_zebu(self.spec_text)
        t1 = _clock()
        diagnostics = verify_all(ag)
        t2 = _clock()
        compiled = engine.compile_grammar(ag)
        t3 = _clock()
        data = artifact.serialize(compiled)
        t4 = _clock()
        grammar = artifact.deserialize(data)
        t5 = _clock()
        scale = 1e9 * (before + machine.slowdown()) / 2
        self.totals_s.append((t5 - t0) / scale)
        for name, a, b in zip(SETUP_PHASES, (t0, t1, t2, t3, t4), (t1, t2, t3, t4, t5)):
            self.phases_s[name].append((b - a) / scale)
        if any(d.is_error for d in diagnostics):
            raise RuntimeError(f"bundled grammar has verifier errors: {diagnostics}")
        if artifact.serialize(grammar) != data:
            raise RuntimeError("artifact round trip is not byte-identical")
        return ag, grammar, data


# --- shared pieces -----------------------------------------------------------------

class Workload:
    """A round of `size` operations run in batches of `batch`."""

    name: str
    batch: int
    size: int

    def final_check(self) -> list:
        """Checks made once after the last round; a list of errors."""
        return []

    def counters(self) -> dict:
        """Session counters summed over one round, with `messages`."""
        return {}


METHODS = ("INVITE", "ACK", "OPTIONS", "BYE", "CANCEL", "REGISTER")
STATUSES = ((200, "OK"), (180, "Ringing"), (404, "Not Found"),
            (486, "Busy Here"), (503, "Service Unavailable"))


def _tok(rng: random.Random, lo: int = 1, hi: int = 8) -> str:
    return "".join(rng.choice(_ALNUM) for _ in range(rng.randint(lo, hi)))


def _host(rng: random.Random) -> str:
    return f"{_tok(rng, 2, 10)}.{rng.choice(('example.com', 'example.org', 'test'))}"


def _raw(command: str, headers: list) -> bytes:
    return (command + "\r\n" + "".join(f"{k}: {v}\r\n" for k, v in headers)
            + "\r\n").encode("ascii")


# --- select-wide -------------------------------------------------------------------

SELECT_MAX_WIDTH = 200


@dataclass(frozen=True)
class SelectCase:
    raw: bytes
    kind: MessageKind
    host: bytes | None      # From.uri.host as generated; None when From is absent
    number: int             # CSeq.number as generated
    width: int              # undeclared extension headers carried

    @property
    def expected_exec(self) -> int:
        # request line matches on the first try, a status line on the second;
        # From costs its header pattern plus the lazy uri; CSeq one pattern
        return (1 if self.kind is MessageKind.REQUEST else 2) + (2 if self.host else 0) + 1

    @property
    def expected_lazy(self) -> int:
        return 1 if self.host else 0


def _fold(value: str, rng: random.Random) -> str:
    """Split a value across a continuation line at one of its spaces."""
    spaces = [i for i, c in enumerate(value) if c == " "]
    if not spaces:
        return value
    at = rng.choice(spaces)
    return value[:at] + "\r\n" + rng.choice((" ", "\t", "  ")) + value[at + 1:]


def make_select_inputs(seed: int, n: int = 400) -> list[SelectCase]:
    """Requests and responses carrying 0..200 extension headers.

    Widths are spread evenly over 0..200 and the shares of responses (1/2),
    messages without From (1/5) and messages with a folded line (1/4) are
    fixed, so the seed moves only contents, orders and positions."""
    rng = random.Random(f"select-wide:{seed}")
    widths = [round(i * SELECT_MAX_WIDTH / max(1, n - 1)) for i in range(n)]
    responses = [i % 2 == 1 for i in range(n)]
    no_from = [i % 5 == 4 for i in range(n)]
    folded = [i % 4 == 0 for i in range(n)]
    for column in (widths, responses, no_from, folded):
        rng.shuffle(column)
    cases = []
    for width, response, lacks_from, fold in zip(widths, responses, no_from, folded):
        method = rng.choice(METHODS)
        number = rng.randrange(0, 2**31)
        host = _host(rng)
        if response:
            code, phrase = rng.choice(STATUSES)
            command = f"SIP/2.0 {code} {phrase}"
        else:
            command = f"{method} sip:{_tok(rng)}@{_host(rng)} SIP/2.0"
        headers = [
            ("Via", f"SIP/2.0/UDP {_host(rng)};branch=z9hG4bK{_tok(rng, 6, 12)}"),
            ("To", f"{_tok(rng)} <sip:{_tok(rng)}@{_host(rng)}>"),
            ("Call-ID", f"{_tok(rng, 8, 16)}@{_host(rng)}"),
            ("CSeq", f"{number} {method}"),
        ]
        if not response:
            headers.append(("Max-Forwards", str(rng.randint(0, 70))))
        if not lacks_from:
            key = "f" if rng.random() < 0.1 else "From"
            headers.append((key, f"<sip:{_tok(rng)}@{host}>;tag={_tok(rng, 4, 10)}"))
        for _ in range(width):
            words = " ".join(_tok(rng) for _ in range(rng.randint(1, 4)))
            headers.append((f"X-{_tok(rng, 2, 8)}", words))
        rng.shuffle(headers)
        if fold:
            at = rng.choice([i for i, (_, v) in enumerate(headers) if " " in v])
            key, value = headers[at]
            headers[at] = (key, _fold(value, rng))
        kind = MessageKind.RESPONSE if response else MessageKind.REQUEST
        cases.append(SelectCase(_raw(command, headers), kind,
                                None if lacks_from else host.encode("ascii"),
                                number, width))
    return cases


def check_select(case: SelectCase, observed: tuple) -> str | None:
    """Return a description of the first wrong output, or None."""
    kind, host, number, execs, lazy = observed
    if kind is not case.kind:
        return f"message_type {kind} != {case.kind}"
    if case.host is None:
        if host is not ABSENT:
            return f"From.uri.host {host!r} on a message without From"
    elif not isinstance(host, RawSlice) or host.data != case.host:
        return f"From.uri.host {host!r} != {case.host!r}"
    if not isinstance(number, U32) or number.value != case.number:
        return f"CSeq.number {number!r} != {case.number}"
    if execs != case.expected_exec or lazy != case.expected_lazy:
        return (f"exec/lazy counters {execs}/{lazy} != "
                f"{case.expected_exec}/{case.expected_lazy} at width {case.width}")
    return None


class SelectWide(Workload):
    """ParsedMessage, message_type(), select From.uri.host and CSeq.number."""

    name = "select-wide"
    batch = 100

    def __init__(self, setup: Setup, seed: int, n: int = 400):
        self.grammar = setup.grammar
        self.cases = make_select_inputs(seed, n)
        self.size = len(self.cases)
        self.last_outputs = []

    def run_batch(self, lo: int, hi: int, lat: list) -> list:
        grammar = self.grammar
        parsed_message = engine.ParsedMessage
        out = []
        for case in self.cases[lo:hi]:
            t = _clock()
            msg = parsed_message(grammar, case.raw)
            kind = msg.message_type()
            host = msg.select("From.uri.host")
            number = msg.select("CSeq.number")
            lat.append(_clock() - t)
            out.append((kind, host, number, msg.exec_counter, msg.lazy_exec_counter))
        return out

    def check_round(self, outputs: list) -> tuple[list, int]:
        self.last_outputs = outputs
        errors = [e for c, o in zip(self.cases, outputs) if (e := check_select(c, o))]
        return errors, 0

    def counters(self) -> dict:
        return {"exec": sum(o[3] for o in self.last_outputs),
                "lazy": sum(o[4] for o in self.last_outputs),
                "messages": len(self.last_outputs)}


# --- validate-mixed ----------------------------------------------------------------

FAMILIES = (mutate.MutRule.CHARSET, mutate.MutRule.REPETITION,
            mutate.MutRule.CONSTRAINT, mutate.MutRule.TORTURE)


@dataclass(frozen=True)
class MixedCase:
    raw: bytes
    valid: bool             # refcheck's label, computed here rather than trusted
    rule: str


def make_mixed_inputs(ag, seed: int, n: int = 400) -> list[MixedCase]:
    """n distinct mutants, a quarter from each family (torture mutants are
    the valid quarter), labelled by the reference validator."""
    campaign_seed = f"perfbench-mixed:{seed}"
    cases = []
    for i in range(n):
        family = FAMILIES[i % len(FAMILIES)]
        m = mutate.make_mutant(ag, i, campaign_seed, {family: 1.0})
        valid, _ = refcheck.reference_validate(ag, m.data)
        if valid != (m.ground_truth == "VALID"):
            raise RuntimeError(f"mutant {i} label {m.ground_truth} disagrees with refcheck")
        cases.append(MixedCase(m.data, valid, m.rule.value))
    return cases


def check_verdict(case: MixedCase, accepted: bool) -> str | None:
    if accepted != case.valid:
        label = "VALID" if case.valid else "INVALID"
        return f"{case.rule} mutant labelled {label} got accepted={accepted}: {case.raw!r}"
    return None


def _session_counters(grammar, raws) -> dict:
    """Exec/lazy counters of full validation, read from a session per message."""
    execs = lazy = 0
    for raw in raws:
        try:
            session = engine.ParsedMessage(grammar, raw)
        except engine.MessageSyntaxError:
            continue
        engine.validate(grammar, raw, session)
        execs += session.exec_counter
        lazy += session.lazy_exec_counter
    return {"exec": execs, "lazy": lazy, "messages": len(raws)}


class ValidateMixed(Workload):
    """Full validate(grammar, raw) over a stream of distinct mutants."""

    name = "validate-mixed"
    batch = 100

    def __init__(self, setup: Setup, seed: int, n: int = 400):
        self.grammar = setup.grammar
        self.cases = make_mixed_inputs(setup.ag, seed, n)
        self.size = len(self.cases)

    def run_batch(self, lo: int, hi: int, lat: list) -> list:
        grammar = self.grammar
        validate = engine.validate
        out = []
        for case in self.cases[lo:hi]:
            t = _clock()
            accepted = validate(grammar, case.raw).accepted
            lat.append(_clock() - t)
            out.append(accepted)
        return out

    def check_round(self, outputs: list) -> tuple[list, int]:
        errors = [e for c, o in zip(self.cases, outputs) if (e := check_verdict(c, o))]
        return errors, 0

    def counters(self) -> dict:
        return _session_counters(self.grammar, [c.raw for c in self.cases])


# --- validate-long -----------------------------------------------------------------

LONG_SITES = ("via", "to", "from")
# 40 counts per site, spread log-evenly over 10..600, stay below the matcher's
# recursion ceiling (about 950 repetitions); 1000 and 10000 lie above it.
LONG_SHORT_COUNTS = tuple(round(10 * 60 ** (k / 39)) for k in range(40))
LONG_LONG_COUNTS = (1000, 10000)
LONG_LONG_SEED = "validate-long:fixed"
LONG_BATCH = len(LONG_SITES) * (len(LONG_SHORT_COUNTS) + len(LONG_LONG_COUNTS)) // 6


@dataclass(frozen=True)
class LongCase:
    raw: bytes
    site: str
    count: int
    expect: tuple           # (selector, expected value) pairs


def make_long_message(rng: random.Random, site: str, count: int) -> LongCase:
    """A request that is valid by construction, with `count` repetitions at
    one site: Via `;name=value` params, To display-name tokens, or From
    generic params after its tag."""
    method = rng.choice(METHODS)
    number = rng.randrange(0, 2**31)
    to_host, from_host = _host(rng), _host(rng)
    tag = _tok(rng, 4, 10)
    via_params = "".join(f";{_tok(rng, 1, 3)}={_tok(rng, 1, 3)}"
                         for _ in range(count if site == "via" else 1))
    display = " ".join(_tok(rng) for _ in range(count if site == "to" else 1))
    from_params = "".join(f";{_tok(rng, 1, 3)}={_tok(rng, 1, 3)}"
                          for _ in range(count if site == "from" else 0))
    headers = [
        ("Via", f"SIP/2.0/UDP {_host(rng)}{via_params}"),
        ("Max-Forwards", "70"),
        ("To", f"{display} <sip:{_tok(rng)}@{to_host}>"),
        ("From", f"<sip:{_tok(rng)}@{from_host}>;tag={tag}{from_params}"),
        ("Call-ID", f"{_tok(rng, 8, 16)}@{_host(rng)}"),
        ("CSeq", f"{number} {method}"),
    ]
    raw = _raw(f"{method} sip:{_tok(rng)}@{_host(rng)} SIP/2.0", headers)
    expect = (("CSeq.number", U32(number)),
              ("To.uri.host", to_host.encode("ascii")),
              ("From.uri.host", from_host.encode("ascii")),
              ("From.tag", tag.encode("ascii")))
    return LongCase(raw, site, count, expect)


def make_long_inputs(seed: int) -> list[LongCase]:
    """Each site with the 40 short counts (contents from the seed) and the
    two long counts. The long messages hit today's length ceiling, so they
    are built from a fixed seed: which operations fail must not depend on
    --seed.

    The 126 messages form six batches of LONG_BATCH, each holding one long
    message and every sixth short one in count order, so that every batch
    costs about the same and per-batch rates are comparable."""
    rng = random.Random(f"validate-long:{seed}")
    fixed = random.Random(LONG_LONG_SEED)
    short = sorted((make_long_message(rng, site, count)
                    for site in LONG_SITES for count in LONG_SHORT_COUNTS),
                   key=lambda c: c.count)
    long = [make_long_message(fixed, site, count)
            for site in LONG_SITES for count in LONG_LONG_COUNTS]
    cases = []
    for b, heavy in enumerate(long):
        batch = short[b::len(long)] + [heavy]
        rng.shuffle(batch)
        cases += batch
    return cases


def check_long_verdict(case: LongCase, verdict) -> tuple[str | None, bool]:
    """(error, failed): every message is valid, so a rejection is allowed
    only as a resource failure, a BUDGET reason, and counts as failed."""
    if verdict.accepted:
        return None, False
    codes = {r.code for r in verdict.reasons}
    if codes == {ReasonCode.BUDGET}:
        return None, True
    return (f"valid {case.site}x{case.count} message rejected with "
            f"{sorted(c.value for c in codes)}"), False


def check_long_fields(grammar, case: LongCase) -> str | None:
    msg = engine.ParsedMessage(grammar, case.raw)
    for selector, want in case.expect:
        got = msg.select(selector)
        if isinstance(got, RawSlice):
            got = got.data
        if got != want:
            return f"{case.site}x{case.count}: {selector} {got!r} != {want!r}"
    return None


class ValidateLong(Workload):
    """validate over valid requests with 10..10000 repetitions at one site."""

    name = "validate-long"
    batch = LONG_BATCH

    def __init__(self, setup: Setup, seed: int):
        self.grammar = setup.grammar
        self.cases = make_long_inputs(seed)
        self.size = len(self.cases)
        self.accepted = [False] * self.size

    def run_batch(self, lo: int, hi: int, lat: list) -> list:
        grammar = self.grammar
        validate = engine.validate
        out = []
        for case in self.cases[lo:hi]:
            t = _clock()
            verdict = validate(grammar, case.raw)
            lat.append(_clock() - t)
            out.append(verdict)
        return out

    def check_round(self, outputs: list) -> tuple[list, int]:
        errors, failed = [], 0
        for i, (case, verdict) in enumerate(zip(self.cases, outputs)):
            error, fail = check_long_verdict(case, verdict)
            if error:
                errors.append(error)
            failed += fail
            self.accepted[i] = verdict.accepted
        return errors, failed

    def final_check(self) -> list:
        return [e for case, ok in zip(self.cases, self.accepted)
                if ok and (e := check_long_fields(self.grammar, case))]

    def counters(self) -> dict:
        return _session_counters(self.grammar, [c.raw for c in self.cases])


# --- campaign ------------------------------------------------------------------------

CAMPAIGN_N = 1000
CAMPAIGN_SAMPLE = range(0, CAMPAIGN_N, 50)


def check_campaign(report, n: int) -> list:
    errors = []
    if report.missed:
        errors.append(f"campaign missed {report.missed} invalid mutants")
    if report.false_rejects:
        errors.append(f"campaign false-rejected {report.false_rejects} valid mutants")
    emitted = sum(t.emitted for t in report.per_rule.values())
    if emitted != n or report.total != n:
        errors.append(f"family tallies sum to {emitted} (total {report.total}), not {n}")
    return errors


class Campaign(Workload):
    """mutate.run_campaign against the loaded grammar's validate, DEFAULT_MIX."""

    name = "campaign"
    batch = 25

    def __init__(self, setup: Setup, seed: int, n: int = CAMPAIGN_N):
        self.ag = setup.ag
        self.grammar = setup.grammar
        self.size = self.n = n
        # acceptance tests use integer seeds; this string seed is not one of them
        self.seed = f"perfbench-campaign:{seed}"
        self.sample = {}
        self.first_report = None

    def run_batch(self, lo: int, hi: int, lat: list) -> list:
        """One report for mutants lo..hi-1 of the campaign; the sub-range
        form is the one parallel campaigns use, and its reports merge."""
        grammar = self.grammar
        validate = engine.validate
        sample, clock = self.sample, _clock

        def target(raw):
            return validate(grammar, raw).accepted

        def sink(index, mutant):
            nonlocal last
            now = clock()
            lat.append(now - last)
            last = now
            if index in CAMPAIGN_SAMPLE:
                sample[index] = mutant.data

        last = clock()
        return [mutate.run_campaign(self.ag, target, self.n, self.seed, sink=sink,
                                    index_range=range(lo, hi))]

    def check_round(self, reports: list) -> tuple[list, int]:
        report = mutate.MutationReport(seed=self.seed)
        for part in reports:
            report.merge(part)
        errors = check_campaign(report, self.n)
        rendered = report.render()
        if self.first_report is None:
            self.first_report = rendered
        elif rendered != self.first_report:
            errors.append("a repeated campaign round produced another report")
        return errors, 0

    def final_check(self) -> list:
        errors = []
        for index, data in sorted(self.sample.items()):
            again = mutate.make_mutant(self.ag, index, self.seed).data
            if again != data:
                errors.append(f"mutant {index} regenerated to other bytes")
        return errors


WORKLOADS = {w.name: w for w in (SelectWide, ValidateMixed, ValidateLong, Campaign)}
