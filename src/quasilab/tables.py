"""Cayley table text format and group spec strings.

Interchange format::

    # optional comments anywhere ('#' to end of line)
    order 3
    0 2 1
    1 0 2
    2 1 0

Group specs are products of cyclic groups: "Z4", "Z2xZ2", "Z3xZ9"
(case-insensitive, 'x' separates factors).
"""

from __future__ import annotations

import itertools
import re
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .abelian import AbelianGroup, cyclic, direct_product
from .errors import GroupSpecError, TableFormatError
from .quasigroup import Quasigroup, from_table

__all__ = [
    "parse_table_text",
    "format_table",
    "read_table",
    "write_table",
    "parse_group_spec",
]


def parse_table_text(text: str, label: Optional[str] = None) -> Quasigroup:
    return _parse_lines((text,), label)


def _parse_lines(chunks: Iterable[str], label: Optional[str]) -> Quasigroup:
    """Parse the table text that ``chunks`` hold in order, each a whole
    number of lines.  The chunks are read only as far as the declared order
    allows: a row beyond it is refused before the next chunk is read."""
    lines = (line for chunk in chunks for raw in chunk.splitlines()
             if (line := raw.split("#", 1)[0].strip()))
    first = next(lines, None)
    if first is None:
        raise TableFormatError("empty table text")
    head = first.split()
    if len(head) != 2 or head[0].lower() != "order":
        raise TableFormatError(f"first line must be 'order n', got {first!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise TableFormatError(f"bad order {head[1]!r}") from None
    if n < 1:
        raise TableFormatError(f"order must be positive, got {n}")
    body = list(itertools.islice(lines, n + 1))
    if len(body) > n:
        raise TableFormatError(f"expected {n} rows, got more than {n}")
    if len(body) != n:
        raise TableFormatError(f"expected {n} rows, got {len(body)}")
    rows = []
    for i, line in enumerate(body):
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise TableFormatError(f"row {i}: non-integer entry in {line!r}") from None
        if len(row) != n:
            raise TableFormatError(f"row {i}: expected {n} entries, got {len(row)}")
        rows.append(row)
    return from_table(n, rows, label=label)


def format_table(q: Quasigroup, comments: Iterable[str] = ()) -> str:
    out = [f"# {c}" for c in comments]
    out.append(f"order {q.order}")
    out.extend(" ".join(str(int(v)) for v in row) for row in q.table)
    return "\n".join(out) + "\n"


def read_table(path: Union[str, Path]) -> Quasigroup:
    """Read a table file line by line, so that a file longer than its
    declared order allows is refused after at most one line too many."""
    p = Path(path)

    def decoded(f) -> Iterator[str]:
        offset = 0
        for raw in f:
            try:
                yield raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise TableFormatError(f"{p}: not UTF-8 text at byte {offset + exc.start}") from None
            offset += len(raw)

    with p.open("rb") as f:
        return _parse_lines(decoded(f), label=p.name)


def write_table(path: Union[str, Path], q: Quasigroup, comments: Iterable[str] = ()) -> None:
    Path(path).write_text(format_table(q, comments))


_FACTOR_RE = re.compile(r"^z(\d+)$")


def parse_group_spec(spec: str) -> AbelianGroup:
    """Build the abelian group named by a spec like 'Z4' or 'Z2xZ2'."""
    parts = spec.strip().lower().split("x")
    orders = []
    for part in parts:
        m = _FACTOR_RE.match(part.strip())
        if not m:
            raise GroupSpecError(f"bad group spec {spec!r}: factor {part.strip()!r} is not Z<n>")
        try:
            k = int(m.group(1))
        except ValueError:   # beyond Python's limit on the digits of an int
            raise GroupSpecError(f"bad group spec: a cyclic order of {len(m.group(1))} digits is too large") from None
        if k < 1:
            raise GroupSpecError(f"bad group spec {spec!r}: cyclic order must be >= 1")
        orders.append(k)
    return direct_product([cyclic(k) for k in orders])
