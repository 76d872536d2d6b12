"""ABNF-based protocol message parser toolkit.

Compiles RFC-style ABNF grammars with annotations (entry points, typed
subfields, constraints) into executable message parsers with two-level
lazy parsing, and measures parser robustness with a grammar-driven
mutation harness.
"""

from .abnf import Grammar, core_rules, parse_abnf
from .engine import (
    ABSENT,
    CompiledGrammar,
    MessageKind,
    ParsedMessage,
    Verdict,
    compile_grammar,
    validate,
)
from .frontend import AnnotatedGrammar, parse_zebu, resolve_constraint_refs
from .mutate import MutationReport, derive_valid, run_campaign
from .pattern import Pattern, compile_pattern
from .refcheck import reference_match
from .verify import Diagnostic, verify_all

__version__ = "0.1.0"

__all__ = [
    "ABSENT",
    "AnnotatedGrammar",
    "CompiledGrammar",
    "Diagnostic",
    "Grammar",
    "MessageKind",
    "MutationReport",
    "ParsedMessage",
    "Pattern",
    "Verdict",
    "compile_grammar",
    "compile_pattern",
    "core_rules",
    "derive_valid",
    "parse_abnf",
    "parse_zebu",
    "reference_match",
    "resolve_constraint_refs",
    "run_campaign",
    "validate",
    "verify_all",
]
