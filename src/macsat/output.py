"""Output containers and deterministic emitters shared by the CLI commands.

Data sections are formatted with fixed numeric precision so identical configs
reproduce byte-identical files; metadata rides in '#'-prefixed lines (CSV) or
a "meta" object (JSON), with the timestamp omitted under --no-timestamp.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

from . import __version__


def config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def metadata_lines(meta: dict, no_timestamp: bool) -> list[str]:
    lines = [f"# macsat {__version__}"]
    if not no_timestamp:
        lines.append(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}")
    for key in sorted(meta):
        lines.append(f"# {key} = {meta[key]}")
    return lines


@dataclass
class AcprBoundary:
    """Boundary polyline in the (h1, h2) gain plane."""

    kind: str  # "mac" | "bp" | "map"
    points: list  # (h1, h2) pairs
    meta: dict = field(default_factory=dict)

    def csv(self, no_timestamp: bool = False) -> str:
        lines = metadata_lines({"kind": self.kind, **self.meta}, no_timestamp)
        lines.append("h1,h2")
        for h1, h2 in self.points:
            lines.append(f"{h1:.8f},{h2:.8f}")
        return "\n".join(lines) + "\n"

    def json(self, no_timestamp: bool = False) -> str:
        obj = {
            "meta": {"tool": f"macsat {__version__}", "kind": self.kind, **self.meta},
            "points": [[round(h1, 8), round(h2, 8)] for h1, h2 in self.points],
        }
        if not no_timestamp:
            obj["meta"]["generated"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        return json.dumps(obj, indent=2) + "\n"


def gexit_csv(curve, no_timestamp: bool = False) -> str:
    meta = {"ratio": curve.ratio, "ensemble": curve.ensemble, **curve.metadata}
    lines = metadata_lines(meta, no_timestamp)
    lines.append("alpha,g,branch")
    for alpha, g in curve.samples:
        lines.append(f"{alpha:.6f},{g:.8e},stable")
    return "\n".join(lines) + "\n"


def json_record(record: dict, meta: dict, no_timestamp: bool = False) -> str:
    obj = {"meta": {"tool": f"macsat {__version__}", **meta}}
    if not no_timestamp:
        obj["meta"]["generated"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    obj.update(record)
    return json.dumps(obj, indent=2) + "\n"


def emit(text: str, path: str | None):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
