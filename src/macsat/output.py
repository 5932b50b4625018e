"""Deterministic writers for the CLI's output: the CLI chooses every field,
column and metadata key, and these functions only format them.

Metadata rides in '#'-prefixed lines (CSV) or a "meta" object (JSON), with the
timestamp omitted under --no-timestamp, so identical configs reproduce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from . import __version__


def config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _generated() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S")


def csv_text(header: str, rows, meta: dict | None = None, no_timestamp: bool = False) -> str:
    """A CSV file of formatted rows under its column header, preceded by a
    '#' header of `meta` in key order; meta=None writes a side file with no
    '#' header."""
    lines = []
    if meta is not None:
        lines.append(f"# macsat {__version__}")
        if not no_timestamp:
            lines.append(f"# generated {_generated()}")
        lines += [f"# {key} = {meta[key]}" for key in sorted(meta)]
    lines.append(header)
    lines += rows
    return "\n".join(lines) + "\n"


def json_record(record: dict, meta: dict, no_timestamp: bool = False) -> str:
    obj = {"meta": {"tool": f"macsat {__version__}", **meta}}
    if not no_timestamp:
        obj["meta"]["generated"] = _generated()
    obj.update(record)
    return json.dumps(obj, indent=2) + "\n"


def emit(text: str, path: str | None):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
