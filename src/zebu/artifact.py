"""Grammar artifact file format: a canonical JSON document.

The compiled grammar (structural pattern trees, capture maps, constraint
ASTs, flags) serializes with sorted keys, ordered lists for everything
whose order is semantic, and no timestamps, so compiling the same source
twice yields byte-identical files and loading then re-serializing is a
byte-identical round trip.
"""

from __future__ import annotations

import json

from .engine import CompiledEntry, CompiledGrammar, CompiledHeader
from .errors import ZebuError
from .frontend import (
    And,
    Cmp,
    FieldRef,
    IntLit,
    Mandatory,
    Not,
    Or,
    RangeBound,
    Shape,
    StrLit,
    Subfield,
)
from .pattern import PAlt, PBytes, PCap, PClass, PLit, PRep, PSeq, Pattern

FORMAT_VERSION = 1


class ArtifactError(ZebuError):
    pass


# --- encoding ---------------------------------------------------------------

def _enc_node(node) -> dict:
    t = type(node)
    if t is PLit:
        return {"t": "lit", "text": node.data.decode("ascii")}
    if t is PBytes:
        return {"t": "bytes", "hex": node.data.hex()}
    if t is PClass:
        return {"t": "class", "runs": _runs(node.members)}
    if t is PSeq:
        return {"t": "seq", "items": [_enc_node(i) for i in node.items]}
    if t is PAlt:
        return {"t": "alt", "branches": [_enc_node(b) for b in node.branches]}
    if t is PRep:
        return {"t": "rep", "min": node.min, "max": node.max,
                "inner": _enc_node(node.inner)}
    if t is PCap:
        return {"t": "cap", "id": node.cid, "inner": _enc_node(node.inner)}
    raise ArtifactError(f"cannot encode pattern node {node!r}")


def _runs(members: frozenset[int]) -> list[list[int]]:
    runs = []
    for b in sorted(members):
        if runs and b == runs[-1][1] + 1:
            runs[-1][1] = b
        else:
            runs.append([b, b])
    return runs


def _enc_range(bound: RangeBound) -> dict:
    return {"lo": bound.lo, "hi": bound.hi, "strict": bound.hi_strict}


def _enc_pattern(p: Pattern) -> dict:
    return {
        "root": _enc_node(p.root),
        "captures": [[key, cid] for key, cid in p.capture_index.items()],
        "ranges": [[key, _enc_range(b)] for key, b in sorted(p.deferred_ranges.items())],
    }


def _enc_expr(expr) -> dict:
    if isinstance(expr, Cmp):
        return {"t": "cmp", "op": expr.op,
                "lhs": _enc_expr(expr.lhs), "rhs": _enc_expr(expr.rhs)}
    if isinstance(expr, And):
        return {"t": "and", "items": [_enc_expr(i) for i in expr.items]}
    if isinstance(expr, Or):
        return {"t": "or", "items": [_enc_expr(i) for i in expr.items]}
    if isinstance(expr, Not):
        return {"t": "not", "item": _enc_expr(expr.item)}
    if isinstance(expr, IntLit):
        return {"t": "int", "v": expr.value}
    if isinstance(expr, StrLit):
        return {"t": "str", "v": expr.value}
    if isinstance(expr, FieldRef):
        return {"t": "field", "path": list(expr.path),
                "entry": expr.entry, "sub": list(expr.sub_path)}
    raise ArtifactError(f"cannot encode constraint {expr!r}")


def _enc_subfield(sf: Subfield) -> dict:
    return {
        "name": sf.name,
        "path": list(sf.path),
        "shape": sf.shape.value,
        "lazy": sf.lazy,
        "children": list(sf.children),
    }


def _enc_entry(entry: CompiledEntry) -> dict:
    return {
        "name": entry.name,
        "pattern": _enc_pattern(entry.pattern),
        "table": [_enc_subfield(sf) for sf in entry.table.values()],
        "lazy": [[name, _enc_pattern(p)] for name, p in entry.lazy_patterns.items()],
        "branchChildren": [
            [key, [list(children) for children in per_branch]]
            for key, per_branch in sorted(entry.branch_children.items())
        ],
        "ci": sorted(entry.ci_fields),
    }


def _enc_header(ch: CompiledHeader) -> dict:
    return {
        "name": ch.name,
        "keys": list(ch.keys),
        "mandatory": ch.mandatory_in.value,
        "multiple": ch.multiple,
        "entry": _enc_entry(ch.entry),
        "localConstraints": [_enc_expr(e) for e in ch.local_constraints],
    }


def serialize(grammar: CompiledGrammar) -> bytes:
    doc = {
        "formatVersion": FORMAT_VERSION,
        "protocol": grammar.protocol,
        "source": grammar.source,
        "requestLine": _enc_entry(grammar.request_line),
        "statusLine": _enc_entry(grammar.status_line),
        "headers": [_enc_header(ch) for ch in grammar.headers],
        "requestConstraints": [_enc_expr(e) for e in grammar.request_constraints],
        "responseConstraints": [_enc_expr(e) for e in grammar.response_constraints],
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("ascii")


# --- decoding ---------------------------------------------------------------

def _dec_node(doc: dict):
    t = doc["t"]
    if t == "lit":
        return PLit(doc["text"].encode("ascii"))
    if t == "bytes":
        return PBytes(bytes.fromhex(doc["hex"]))
    if t == "class":
        members = set()
        for lo, hi in doc["runs"]:
            members.update(range(lo, hi + 1))
        return PClass(frozenset(members))
    if t == "seq":
        return PSeq(tuple(_dec_node(i) for i in doc["items"]))
    if t == "alt":
        return PAlt(tuple(_dec_node(b) for b in doc["branches"]))
    if t == "rep":
        return PRep(doc["min"], doc["max"], _dec_node(doc["inner"]))
    if t == "cap":
        return PCap(doc["id"], _dec_node(doc["inner"]))
    raise ArtifactError(f"unknown pattern node type {t!r}")


def _dec_pattern(doc: dict) -> Pattern:
    return Pattern(
        root=_dec_node(doc["root"]),
        capture_index={key: cid for key, cid in doc["captures"]},
        deferred_ranges={
            key: RangeBound(r["lo"], r["hi"], r["strict"])
            for key, r in doc["ranges"]
        },
    )


def _dec_expr(doc: dict):
    t = doc["t"]
    if t == "cmp":
        return Cmp(doc["op"], _dec_expr(doc["lhs"]), _dec_expr(doc["rhs"]))
    if t == "and":
        return And(tuple(_dec_expr(i) for i in doc["items"]))
    if t == "or":
        return Or(tuple(_dec_expr(i) for i in doc["items"]))
    if t == "not":
        return Not(_dec_expr(doc["item"]))
    if t == "int":
        return IntLit(doc["v"])
    if t == "str":
        return StrLit(doc["v"])
    if t == "field":
        ref = FieldRef(tuple(doc["path"]), (0, 0))
        ref.entry = doc["entry"]
        ref.sub_path = tuple(doc["sub"])
        return ref
    raise ArtifactError(f"unknown constraint node type {t!r}")


def _dec_subfield(doc: dict) -> Subfield:
    return Subfield(
        name=doc["name"],
        path=tuple(doc["path"]),
        shape=Shape(doc["shape"]),
        lazy=doc["lazy"],
        element=None,
        span=(0, 0),
        children=tuple(doc["children"]),
    )


def _dec_entry(doc: dict) -> CompiledEntry:
    table = {}
    for sub in doc["table"]:
        sf = _dec_subfield(sub)
        table[sf.key] = sf
    return CompiledEntry(
        name=doc["name"],
        pattern=_dec_pattern(doc["pattern"]),
        table=table,
        lazy_patterns={name: _dec_pattern(p) for name, p in doc["lazy"]},
        branch_children={
            key: tuple(tuple(children) for children in per_branch)
            for key, per_branch in doc["branchChildren"]
        },
        ci_fields=frozenset(doc["ci"]),
    )


def _dec_header(doc: dict) -> CompiledHeader:
    return CompiledHeader(
        name=doc["name"],
        keys=tuple(doc["keys"]),
        mandatory_in=Mandatory(doc["mandatory"]),
        multiple=doc["multiple"],
        entry=_dec_entry(doc["entry"]),
        local_constraints=[_dec_expr(e) for e in doc["localConstraints"]],
    )


def deserialize(data: bytes) -> CompiledGrammar:
    """Load an artifact; any malformed document raises ArtifactError."""
    try:
        doc = json.loads(data)
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise ArtifactError(f"not a grammar artifact: {exc}") from None
    version = doc.get("formatVersion") if isinstance(doc, dict) else None
    if version != FORMAT_VERSION:
        raise ArtifactError(f"unsupported artifact formatVersion {version!r}")
    try:
        return CompiledGrammar(
            protocol=doc["protocol"],
            request_line=_dec_entry(doc["requestLine"]),
            status_line=_dec_entry(doc["statusLine"]),
            headers=[_dec_header(h) for h in doc["headers"]],
            request_constraints=[_dec_expr(e) for e in doc["requestConstraints"]],
            response_constraints=[_dec_expr(e) for e in doc["responseConstraints"]],
            source=doc.get("source"),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ArtifactError(
            f"malformed grammar artifact: {type(exc).__name__} {exc}") from None


def save(grammar: CompiledGrammar, path) -> None:
    data = serialize(grammar)
    with open(path, "wb") as fh:
        fh.write(data)


def load(path) -> CompiledGrammar:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
