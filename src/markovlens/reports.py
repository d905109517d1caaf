"""Report emission: atomic CSV/JSON writers with reproducible formatting."""

from __future__ import annotations

import csv
import io
import json
import os


def _atomic_write(path: str, text: str) -> None:
    """Write through a new sibling file and os.replace, so that a reader sees the old file or
    the whole new one; the file gets the mode open() gives, 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows) -> None:
    """CSV with a header row, quoted as csv.writer quotes it, then rows of numbers and None,
    one join each: floats at 17 significant digits (round-trip exact), None as an empty
    cell, and a row of one empty cell as "" (as csv.writer writes it, not a blank line)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(header)
    for row in rows:
        line = ",".join(["" if v is None else format(v, ".17g") if isinstance(v, float)
                         else str(v) for v in row])
        buf.write(line + "\n" if line or len(row) != 1 else '""\n')
    _atomic_write(path, buf.getvalue())


def write_json(path: str, obj) -> None:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    _atomic_write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
