"""graph6 parsing/emission, DOT export, corpus streaming, and JSON reports.

graph6 records: N(n) is one byte n+63 for n < 63, else '~' followed by three
bytes carrying n in 18 bits (6 bits each, value+63).  The upper triangle is
listed in column order x(0,1), x(0,2), x(1,2), x(0,3), ..., packed into 6-bit
groups (MSB first), zero-padded, each group stored as value+63.
"""

from __future__ import annotations

import binascii
import functools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, IO, Iterable, Iterator

from .core import VERTEX_CAP, Graph
from .errors import CapacityError, FormatError

HEADER = ">>graph6<<"
_N_CAP = 258048  # largest n for the 4-byte N(n) form


_VALID = re.compile("[?-~]*")
# graph6 byte (value + 63) <-> the base64 letter of the same 6-bit value
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_B64 = bytes.maketrans(bytes(range(63, 127)), _B64)
_FROM_B64 = bytes.maketrans(_B64, bytes(range(63, 127)))
_CHUNK = 1 << 16  # body bytes per decode/encode step (a multiple of 4), bounds the bit string


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 record (optional '>>graph6<<' header allowed)."""
    s = text.strip()
    if s.startswith(HEADER):
        s = s[len(HEADER):]
    if not s:
        raise FormatError("empty record")
    bad = _VALID.match(s).end()
    if bad < len(s):
        raise FormatError(f"byte {ord(s[bad])!r} outside graph6 range 63..126", offset=bad)
    if s[0] == "~":
        if len(s) < 4:
            raise FormatError("truncated long-form vertex count", offset=len(s))
        if s[1] == "~":
            raise FormatError("8-byte vertex counts unsupported", offset=1)
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        if n > VERTEX_CAP:
            raise FormatError(f"vertex count {n} above the cap of {VERTEX_CAP}", offset=1)
        pos = 4
    else:
        n = ord(s[0]) - 63
        pos = 1
    body = s[pos:]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise FormatError(
            f"bit vector truncated: need {nbytes} bytes, got {len(body)}",
            offset=pos + len(body),
        )
    if len(body) > nbytes:
        raise FormatError("trailing garbage after bit vector", offset=pos + nbytes)
    pad = 6 * nbytes - nbits
    if pad and (ord(body[-1]) - 63) & ((1 << pad) - 1):
        raise FormatError("nonzero padding bits", offset=pos + nbytes - 1)
    rows = [0] * n
    bits, at, end, lo = "", 0, 0, 0
    for j in range(1, n):  # column j is x(0,j) .. x(j-1,j), bits[at:at + j]
        while at + j > end:  # decode the next chunk of the body
            b64 = body[lo:lo + _CHUNK].encode("ascii").translate(_TO_B64)
            data = binascii.a2b_base64(b64 + b"A" * (-len(b64) % 4))
            bits, at = bits[at:] + f"{int.from_bytes(data, 'big'):0{8 * len(data)}b}", 0
            end, lo = len(bits), lo + _CHUNK
        col = int(bits[at:at + j][::-1], 2)
        at += j
        if col:
            rows[j] |= col
            bit = 1 << j
            while col:
                low = col & -col
                col ^= low
                rows[low.bit_length() - 1] |= bit
    return Graph(n, rows)


def emit_graph6(g: Graph) -> str:
    """Canonical graph6 encoding: shortest N(n) form, zero padding."""
    n = g.n
    if n >= _N_CAP:
        raise CapacityError(f"graph6 emission capped below {_N_CAP} vertices")
    if n < 63:
        head = chr(n + 63)
    else:
        head = "~" + chr((n >> 12 & 63) + 63) + chr((n >> 6 & 63) + 63) + chr((n & 63) + 63)
    out, parts, size = [head], [], 0
    for j in range(1, n):  # column j, bit i first
        parts.append(f"{g.row(j) & ((1 << j) - 1):0{j}b}"[::-1])
        size += j
        if size >= 6 * _CHUNK:  # encode whole 6-bit groups, carry the rest
            bits = "".join(parts)
            cut = size - size % 6
            out.append(_encode_bits(bits[:cut]))
            parts, size = [bits[cut:]], size - cut
    out.append(_encode_bits("".join(parts)))
    return "".join(out)


def _encode_bits(bits: str) -> str:
    """graph6 body text of a '0'/'1' string, zero-padded to whole 6-bit groups."""
    nbytes = (len(bits) + 5) // 6
    bits += "0" * (-len(bits) % 24)
    data = int(bits or "0", 2).to_bytes(len(bits) // 8, "big")
    return binascii.b2a_base64(data, newline=False)[:nbytes].translate(_FROM_B64).decode()


def emit_dot(g: Graph, labels: dict[int, str] | None = None) -> str:
    """Render as a DOT ``graph`` block with deterministic edge order."""

    def name(v: int) -> str:
        return f'"{labels[v]}"' if labels and v in labels else str(v)

    lines = ["graph {"]
    for v in range(g.n):
        lines.append(f"  {name(v)};")
    for u, v in g.edges():
        lines.append(f"  {name(u)} -- {name(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def stream_corpus(source: str | Path | IO[str] | Iterable[str]) -> Iterator[tuple[int, Graph]]:
    """Yield (record_number, Graph) for each non-blank graph6 line.

    Record numbers are 1-based.  A malformed record raises a positioned
    FormatError.
    A path is read line by line, so memory does not grow with the file.
    """
    if isinstance(source, (str, Path)):
        with open(source) as lines:
            yield from stream_corpus(lines)
        return
    record = 0
    for line in source:
        line = line.strip()
        if not line:
            continue
        record += 1
        try:
            yield record, parse_graph6(line)
        except FormatError as exc:
            raise FormatError(exc.message, offset=exc.offset, record=record) from exc


_STATUSES = ("checked", "vacuous")


@dataclass
class Report:
    """Structured outcome of one check, serializable to JSON.

    Invariants: ``passed`` may only be True when status is "checked", and a
    counterexample is present exactly when a checked run failed.
    """

    check_id: str
    params: dict[str, Any] = field(default_factory=dict)
    passed: bool = False
    status: str = "checked"
    witness: Any = None
    counterexample: str | None = None
    runtime_ms: int = 0

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}")
        if self.passed and self.status != "checked":
            raise ValueError("pass=true requires status=checked")
        failed_checked = not self.passed and self.status == "checked"
        if (self.counterexample is not None) != failed_checked:
            raise ValueError("counterexample present iff a checked run failed")

    @property
    def is_failure(self) -> bool:
        return self.status == "checked" and not self.passed

    def to_dict(self) -> dict[str, Any]:
        return {
            "check_id": self.check_id,
            "params": self.params,
            "pass": self.passed,
            "status": self.status,
            "witness": self.witness,
            "counterexample": self.counterexample,
            "runtime_ms": self.runtime_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def checked(
    check_id: str, host: Graph, passed: bool, params: dict[str, Any], witness: Any = None
) -> Report:
    """A checked verdict on ``host``; a failed one carries the host as its graph6 counterexample."""
    return Report(check_id, params, passed, "checked", witness,
                  None if passed else emit_graph6(host))


def timed(check: Callable[..., Report]) -> Callable[..., Report]:
    """Stamp the wall time of the whole call, in milliseconds, on the Report it returns."""

    @functools.wraps(check)
    def run(*args: Any, **kwargs: Any) -> Report:
        start = perf_counter()
        rep = check(*args, **kwargs)
        rep.runtime_ms = int((perf_counter() - start) * 1000)
        return rep

    return run
