"""Grammar artifact file format: the verified spec as canonical JSON.

An artifact is `{"formatVersion": 2, "protocol": ..., "source": ...}`:
the `.zebu` text that compiled cleanly, with sorted keys and no
timestamps, so compiling the same source twice yields byte-identical
files. Loading checks the document, then parses, verifies and compiles
the source again, so a loaded grammar is the same object graph as a
fresh compile and re-serializing it is a byte-identical round trip.
"""

from __future__ import annotations

import json

from .engine import CompiledGrammar, compile_grammar
from .errors import ZebuError
from .frontend import AnnotatedGrammar, parse_zebu
from .verify import format_diagnostic, verify_all

FORMAT_VERSION = 2
_KEYS = {"formatVersion", "protocol", "source"}


class ArtifactError(ZebuError):
    pass


def serialize(grammar: CompiledGrammar) -> bytes:
    ag = grammar.ag
    if not isinstance(ag.source, str):
        raise ArtifactError("grammar carries no source text to store")
    doc = {"formatVersion": FORMAT_VERSION, "protocol": ag.protocol, "source": ag.source}
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("ascii")


def deserialize(data: bytes) -> CompiledGrammar:
    """Load an artifact; a malformed document or a source that does not
    verify raises ArtifactError."""
    ag = verified_source(data)
    try:
        return compile_grammar(ag)
    except ZebuError as exc:
        raise ArtifactError(f"artifact source does not compile: {exc}") from None


def verified_source(data: bytes) -> AnnotatedGrammar:
    """The artifact's source, parsed and verified; raises ArtifactError."""
    try:
        doc = json.loads(data)
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise ArtifactError(f"not a grammar artifact: {exc}") from None
    version = doc.get("formatVersion") if isinstance(doc, dict) else None
    if version == 1:
        raise ArtifactError("artifact formatVersion 1 is no longer read; "
                            "recompile it from its .zebu source")
    if version != FORMAT_VERSION:
        raise ArtifactError(f"unsupported artifact formatVersion {version!r}")
    if set(doc) != _KEYS:
        raise ArtifactError(f"malformed grammar artifact: keys {sorted(doc)}, "
                            f"expected {sorted(_KEYS)}")
    if not isinstance(doc["source"], str):
        raise ArtifactError("malformed grammar artifact: source is not a string")
    try:
        ag = parse_zebu(doc["source"])
    except ZebuError as exc:
        raise ArtifactError(f"artifact source does not parse: {exc}") from None
    if doc["protocol"] != ag.protocol:
        raise ArtifactError(f"artifact protocol {doc['protocol']!r} differs from "
                            f"its source's {ag.protocol!r}")
    errors = [d for d in verify_all(ag) if d.is_error]
    if errors:
        raise ArtifactError("artifact source fails verification: "
                            + format_diagnostic(errors[0], "source"))
    return ag


def save(grammar: CompiledGrammar, path) -> None:
    data = serialize(grammar)
    with open(path, "wb") as fh:
        fh.write(data)


def load(path) -> CompiledGrammar:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
