from __future__ import annotations

from importlib import resources
from pathlib import Path

import pytest
from hypothesis import settings

from zebu.engine import compile_grammar
from zebu.frontend import parse_zebu

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus" / "sip"

# `--hypothesis-profile agreement` runs the regex/interpreter agreement
# property, `--hypothesis-profile robustness` the front end's robustness
# property, `--hypothesis-profile framing` the engine/oracle framing
# property, and `--hypothesis-profile backends` the typed layer's
# cross-backend property, with 3 000 examples each; CI does, on every
# Python it tests
settings.register_profile("agreement", max_examples=3000)
settings.register_profile("robustness", max_examples=3000)
settings.register_profile("framing", max_examples=3000)
settings.register_profile("backends", max_examples=3000)


def grammar_text(name: str) -> str:
    return (resources.files("zebu") / "grammars" / name).read_text()


@pytest.fixture(scope="session")
def sip_source() -> str:
    return grammar_text("sip-subset.zebu")


@pytest.fixture(scope="session")
def rtsp_source() -> str:
    return grammar_text("rtsp-subset.zebu")


@pytest.fixture(scope="session")
def sip_ag(sip_source):
    return parse_zebu(sip_source)


@pytest.fixture(scope="session")
def rtsp_ag(rtsp_source):
    return parse_zebu(rtsp_source)


@pytest.fixture(scope="session")
def sip(sip_ag):
    return compile_grammar(sip_ag)


@pytest.fixture(scope="session")
def rtsp(rtsp_ag):
    return compile_grammar(rtsp_ag)


def sip_request(method=b"INVITE", uri=b"sip:bob@example.com",
                cseq=b"314159", cseq_method=None, extra=(), drop=(),
                folds=False) -> bytes:
    cseq_method = method if cseq_method is None else cseq_method
    headers = {
        "Via": b"Via: SIP/2.0/UDP pc33.example.com;branch=z9hG4bK776",
        "Max-Forwards": b"Max-Forwards: 70",
        "To": b"To: Bob <sip:bob@example.com>",
        "From": b"From: <sip:alice@example.com>;tag=1928301774",
        "Call-ID": b"Call-ID: a84b4c76e66710@pc33.example.com",
        "CSeq": b"CSeq: " + cseq + b" " + cseq_method,
        "Content-Length": b"Content-Length: 0",
    }
    for name in drop:
        headers.pop(name)
    lines = [method + b" " + uri + b" SIP/2.0"]
    lines.extend(headers.values())
    lines.extend(extra)
    return b"\r\n".join(lines) + b"\r\n\r\n"


def sip_response(code=b"200", reason=b"OK", drop=()) -> bytes:
    headers = {
        "Via": b"Via: SIP/2.0/UDP pc33.example.com;branch=z9hG4bK776",
        "To": b"To: <sip:bob@example.com>",
        "From": b"From: <sip:alice@example.com>;tag=19",
        "Call-ID": b"Call-ID: a84b@pc33.example.com",
        "CSeq": b"CSeq: 314159 INVITE",
    }
    for name in drop:
        headers.pop(name)
    lines = [b"SIP/2.0 " + code + b" " + reason]
    lines.extend(headers.values())
    return b"\r\n".join(lines) + b"\r\n\r\n"
