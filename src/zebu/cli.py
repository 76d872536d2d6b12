"""Command-line front end: check, compile, parse, mutate, bench.

    zebu check <spec.zebu>
    zebu compile <spec.zebu> -o <artifact>
    zebu parse <artifact> <message> [--field Header.sub]...
    zebu mutate <artifact-or-spec> --count N --seed S --out DIR
                [--mix charset=1,repetition=1,constraint=1,torture=1] [--jobs J]
    zebu bench <artifact> <corpusDir> --headers A,B [--iters N]

Message files are raw bytes with CRLF line endings. The bench corpus
directory must hold the four canonical shapes invite1.msg (minimal),
invite2.msg / invite3.msg (34 headers, target header first/last), and
bye.msg (7 headers, no From).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

from . import artifact, mutate
from .engine import (
    ABSENT,
    DuplicateHeader,
    EnumTag,
    LazyPending,
    MessageSyntaxError,
    ParsedMessage,
    RawSlice,
    StructVal,
    U16,
    U32,
    UnionVal,
    UnknownHeader,
    UnknownSubfield,
    compile_grammar,
    validate,
)
from .errors import SourceError, ZebuError
from .frontend import AnnotatedGrammar, parse_zebu
from .pattern import interpreter_reason
from .verify import format_diagnostic, has_errors, verify_all

BENCH_SHAPES = ("invite1.msg", "invite2.msg", "invite3.msg", "bye.msg")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ZebuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zebu",
        description="ABNF-based protocol message parser toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify a grammar specification")
    p.add_argument("spec", type=Path)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compile", help="compile a grammar to an artifact")
    p.add_argument("spec", type=Path)
    p.add_argument("-o", "--out", type=Path, required=True)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("parse", help="validate a message and print fields")
    p.add_argument("artifact", type=Path)
    p.add_argument("message", type=Path)
    p.add_argument("--field", action="append", default=[],
                   help="dotted selector, e.g. From.uri.host (repeatable)")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("mutate", help="run a mutation robustness campaign")
    p.add_argument("source", type=Path, help="artifact or .zebu specification")
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--seed", default="0")
    p.add_argument("--mix", default=None,
                   help="rule weights, e.g. charset=1,torture=2")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("bench", help="timing and counter table over the corpus")
    p.add_argument("artifact", type=Path)
    p.add_argument("corpus", type=Path)
    p.add_argument("--headers", default="",
                   help="comma-separated header names to request")
    p.add_argument("--iters", type=_positive_int, default=200)
    p.set_defaults(func=cmd_bench)
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise _Unreadable(f"cannot read {path}: {exc.strerror}") from None


class _Unreadable(ZebuError):
    pass


def _load_spec(path: Path) -> tuple[AnnotatedGrammar | None, int]:
    """Read, parse and verify the spec at `path`, printing every diagnostic
    to stderr. Returns (grammar, 0), or (None, exit status) when the file
    cannot be read (2) or fails to parse or verify (1)."""
    try:
        text = _read(path).decode("utf-8")
    except _Unreadable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 2
    except UnicodeDecodeError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None, 2
    try:
        ag = parse_zebu(text)
    except SourceError as exc:
        print(f"{path}:{exc.line or 0}:{exc.col or 0}: error[SYNTAX]: "
              f"{exc.message}", file=sys.stderr)
        return None, 1
    diags = verify_all(ag)
    for diag in diags:
        print(format_diagnostic(diag, str(path)), file=sys.stderr)
    return (None, 1) if has_errors(diags) else (ag, 0)


# --- commands -----------------------------------------------------------------


def cmd_check(args) -> int:
    return _load_spec(args.spec)[1]


def cmd_compile(args) -> int:
    ag, status = _load_spec(args.spec)
    if ag is None:
        return status
    compiled = compile_grammar(ag)
    for line in _interpreter_warnings(compiled):
        print(line, file=sys.stderr)
    try:
        artifact.save(compiled, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 3
    return 0


def _interpreter_warnings(compiled) -> list[str]:
    """One line per pattern that `match_full` runs on the budgeted
    interpreter, giving the reason its backend decision recorded: the
    repetition the ambiguity guard flags, or the `re.compile` error."""
    return [f"warning: {where}: {why} runs on the budgeted interpreter"
            for where, p in compiled.named_patterns()
            if (why := interpreter_reason(p)) is not None]


def _render_value(value) -> str:
    if value is ABSENT:
        return "ABSENT"
    if isinstance(value, RawSlice):
        return value.data.decode("latin-1")
    if isinstance(value, (U16, U32)):
        return str(value.value)
    if isinstance(value, EnumTag):
        return f"branch:{value.branch}"
    if isinstance(value, StructVal):
        inner = ", ".join(f"{k}={_render_value(v)}" for k, v in value.fields.items())
        return "{" + inner + "}"
    if isinstance(value, UnionVal):
        inner = ", ".join(f"{k}={_render_value(v)}" for k, v in value.fields.items())
        return f"{{branch:{value.branch} {inner}}}"
    if isinstance(value, LazyPending):
        return "LAZY_PENDING"
    return repr(value)


def cmd_parse(args) -> int:
    grammar = artifact.deserialize(_read(args.artifact))
    raw = _read(args.message)
    session = None
    try:
        session = ParsedMessage(grammar, raw)
    except MessageSyntaxError:
        session = None
    for selector in args.field:
        if session is None:
            print(f"{selector} = ABSENT")
            continue
        try:
            value = session.select(selector)
        except (UnknownSubfield, UnknownHeader) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (MessageSyntaxError, DuplicateHeader):
            # the verdict below gives the reason
            value = ABSENT
        print(f"{selector} = {_render_value(value)}")
    verdict = validate(grammar, raw, session=session)
    sys.stdout.write(verdict.report())
    print(f"exec_counter {session.exec_counter if session else 0}")
    return 0 if verdict.accepted else 1


def _load_for_mutation(path: Path) -> str | None:
    """The verified .zebu text of a spec file or an artifact. None when a
    spec is unusable; its diagnostics are printed as `zebu check` prints
    them."""
    if path.suffix != ".zebu":
        return artifact.verified_source(_read(path)).source
    ag, _ = _load_spec(path)
    return None if ag is None else ag.source


def _mutate_worker(packed):
    source_text, n, seed, mix_values, lo, hi, out_dir = packed
    ag = parse_zebu(source_text)
    compiled = compile_grammar(ag)
    mix = {mutate.MutRule(k): v for k, v in mix_values.items()}
    out = Path(out_dir) if out_dir else None
    manifest: list[str] = []

    def sink(index, mutant):
        if out is not None:
            (out / f"{index:06d}.raw").write_bytes(mutant.data)
        manifest.append(
            f"{index:06d} {mutant.rule.value} {mutant.ground_truth} "
            f"{mutant.seed} {mutant.provenance}")

    report = mutate.run_campaign(
        ag, lambda raw: validate(compiled, raw).accepted,
        n, seed, mix, sink=sink, index_range=range(lo, hi))
    return report, manifest


def cmd_mutate(args) -> int:
    source_text = _load_for_mutation(args.source)
    if source_text is None:
        return 2
    mix = mutate.parse_mix(args.mix) if args.mix else dict(mutate.DEFAULT_MIX)
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    n = args.count
    mix_values = {rule.value: weight for rule, weight in mix.items()}
    jobs = min(args.jobs, n)
    chunk = -(-n // jobs)
    ranges = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    tasks = [(source_text, n, args.seed, mix_values, lo, hi, str(args.out))
             for lo, hi in ranges]
    report = mutate.MutationReport(seed=args.seed)
    manifest: list[str] = []
    try:
        if jobs == 1:
            results = [_mutate_worker(task) for task in tasks]
        else:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_mutate_worker, tasks))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for partial, lines in results:
        report.merge(partial)
        manifest.extend(lines)
    manifest.sort()
    try:
        (args.out / "manifest.txt").write_text("\n".join(manifest) + "\n")
        (args.out / "report.txt").write_text(report.render())
    except OSError as exc:
        print(f"error: cannot write outputs: {exc.strerror}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render())
    return 0 if report.missed == 0 and report.false_rejects == 0 else 1


def cmd_bench(args) -> int:
    grammar = artifact.deserialize(_read(args.artifact))
    headers = [h for h in args.headers.split(",") if h]
    corpus = {}
    for name in BENCH_SHAPES:
        path = args.corpus / name
        if not path.is_file():
            print(f"error: corpus shape {name} missing from {args.corpus}",
                  file=sys.stderr)
            return 2
        corpus[name] = _read(path)

    rows = {}
    warmup = max(1, args.iters // 10)
    for name, raw in corpus.items():
        times = []
        session = None
        for i in range(args.iters + warmup):
            t0 = time.perf_counter_ns()
            session = ParsedMessage(grammar, raw)
            try:
                session.message_type()
            except MessageSyntaxError:
                pass
            for header in headers:
                try:
                    session.parse_header(header)
                except ZebuError:
                    pass
            elapsed = time.perf_counter_ns() - t0
            if i >= warmup:
                times.append(elapsed)
        rows[name] = (
            len(raw),
            session.exec_counter,
            session.lazy_exec_counter,
            statistics.mean(times) / 1000.0,
            statistics.median(times) / 1000.0,
        )

    print(f"{'message':<14} {'bytes':>6} {'exec':>5} {'lazy':>5} "
          f"{'mean_us':>9} {'median_us':>10}")
    for name in BENCH_SHAPES:
        size, execs, lazy, mean, median = rows[name]
        print(f"{name:<14} {size:>6} {execs:>5} {lazy:>5} "
              f"{mean:>9.1f} {median:>10.1f}")

    if rows["invite2.msg"][1] != rows["invite3.msg"][1]:
        print("error: exec counter differs between invite2 and invite3 shapes",
              file=sys.stderr)
        return 1
    print("counter property: invite2 == invite3 exec counter "
          f"({rows['invite2.msg'][1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
