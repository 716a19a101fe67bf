"""graph6 parsing/emission, DOT export, corpus streaming, and JSON reports.

graph6 records: N(n) is one byte n+63 for n < 63, else '~' followed by three
bytes carrying n in 18 bits (6 bits each, value+63).  The upper triangle is
listed in column order x(0,1), x(0,2), x(1,2), x(0,3), ..., packed into 6-bit
groups (MSB first), zero-padded, each group stored as value+63.

The codec works per edge: the parser jumps from one body byte other than '?'
to the next with ``bytes.find`` and turns each set bit into an edge, and the
emitter adds each edge's bit to an all-'?' body, with one step per column.
"""

from __future__ import annotations

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
_NONZERO = bytes(int(b != 63) for b in range(256))  # '?' -> 0, any other byte -> 1
_CHUNK = 1 << 16  # body bytes per parse step, bounds the working copies of the body


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
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - pos < nbytes:
        raise FormatError(
            f"bit vector truncated: need {nbytes} bytes, got {len(s) - pos}",
            offset=len(s),
        )
    if len(s) - pos > nbytes:
        raise FormatError("trailing garbage after bit vector", offset=pos + nbytes)
    pad = 6 * nbytes - nbits
    if pad and (ord(s[-1]) - 63) & ((1 << pad) - 1):
        raise FormatError("nonzero padding bits", offset=pos + nbytes - 1)
    rows = [0] * n
    j, start = 1, 0  # column j holds bits start .. start + j - 1 of the body
    for lo in range(0, nbytes, _CHUNK):
        raw = s[pos + lo:pos + lo + _CHUNK].encode("ascii")
        nonzero = raw.translate(_NONZERO)
        k = nonzero.find(1)
        while k >= 0:
            v = raw[k] - 63
            last = 6 * (lo + k) + 5  # the bit number of the byte's LSB
            while v:  # MSB first, so that the bit numbers p ascend
                b = v.bit_length() - 1
                v ^= 1 << b
                p = last - b
                while p >= start + j:
                    start += j
                    j += 1
                i = p - start
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k = nonzero.find(1, k + 1)
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
    # one buffer for head and body, so that the record is copied once, by decode
    out = bytearray(b"?") * (len(head) + (n * (n - 1) // 2 + 5) // 6)
    out[:len(head)] = head.encode("ascii")
    start = 6 * len(head)  # bit numbers count from the head's first byte
    for j in range(1, n):  # column j holds x(i, j) at bit start + i
        col = g.row(j) & ((1 << j) - 1)
        while col:
            low = col & -col
            col ^= low
            p = start + low.bit_length() - 1
            out[p // 6] += 32 >> p % 6
        start += j
    return out.decode("ascii")


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
    A path is read line by line, so memory does not grow with the file.  It
    is decoded as latin-1, one character per byte of the same value, so a
    byte outside graph6's ASCII range reaches ``parse_graph6``'s byte check
    in its own record, after the earlier records are yielded.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="latin-1") as lines:
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
