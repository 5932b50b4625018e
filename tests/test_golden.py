"""Golden CLI outputs: each case reruns a command with --no-timestamp and must
reproduce the committed bytes under tests/golden/ exactly.

The files hold serial (--jobs 1) output, so the --jobs 2 sweeps are compared
against the same bytes.  Regenerate them only when a change of output is
intended, and only the cases whose output changed, with

    PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]

(no names regenerates every case).
"""

import sys
from pathlib import Path

import pytest

from macsat.cli import main

GOLDEN = Path(__file__).parent / "golden"

FAST = {
    "threshold_A1.json": ["threshold", "--grid-bins", "129", "--tol", "0.02", "--ratio", "1"],
    "threshold_A0.8.json": ["threshold", "--grid-bins", "129", "--tol", "0.02", "--ratio", "0.8"],
    "threshold_genie.json": ["threshold", "--grid-bins", "129", "--tol", "0.02", "--genie"],
    "coupled_threshold_3642.json": [
        "coupled-threshold", "--ensemble", "3,6,4,2", "--grid-bins", "65", "--tol", "0.1",
    ],
    "map_bound.json": ["map-bound", "--grid-bins", "129", "--step", "0.1", "--lattice", "16"],
    "gexit.csv": ["gexit", "--grid-bins", "129", "--lattice", "16", "--alphas", "0:2:0.25"],
    "gexit_3642.csv": [
        "gexit", "--ensemble", "3,6,4,2", "--ratio", "0.9", "--alphas", "0:1.6:0.8",
        "--grid-bins", "65", "--lattice", "8",
    ],
    "gexit_3642_A1.csv": [
        "gexit", "--ensemble", "3,6,4,2", "--ratio", "1", "--alphas", "0:1.6:0.4",
        "--grid-bins", "65", "--lattice", "8",
    ],
    "capacity.csv": ["capacity", "--ray-list", "0.5,1,2"],
    "acpr.csv": ["acpr", "--ray-list", "0.8,1", "--grid-bins", "65", "--tol", "0.1"],
    "simulate.jsonl": ["simulate", "--n", "600", "--frames", "4", "--alpha", "1.9"],
}

SLOW = {
    "coupled_threshold_3622_A0.9.json": [
        "coupled-threshold", "--ensemble", "3,6,2,2", "--grid-bins", "65", "--tol", "0.1",
        "--ratio", "0.9",
    ],
    "map_bound_rays.csv": [
        "map-bound", "--ray-list", "0.8,1", "--grid-bins", "129", "--step", "0.1",
        "--lattice", "16",
    ],
    "acpr_3642.csv": [
        "acpr", "--ensemble", "3,6,4,2", "--ray-list", "0.9,1", "--grid-bins", "65",
        "--tol", "0.1",
    ],
}

# the sweeps that fan out over a worker pool
PARALLEL = ["capacity.csv", "acpr.csv", "acpr_3642.csv", "map_bound_rays.csv", "simulate.jsonl"]

CASES = {**FAST, **SLOW}


def _params(names):
    return [
        pytest.param(name, marks=pytest.mark.slow) if name in SLOW else name for name in names
    ]


def run_case(name, out: Path, extra=()) -> bytes:
    code = main(CASES[name] + ["--no-timestamp", *extra, "--output", str(out)])
    assert code == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", _params(CASES))
def test_golden_bytes(name, tmp_path):
    assert run_case(name, tmp_path / name) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", _params(PARALLEL))
def test_two_jobs_match_serial(name, tmp_path):
    assert run_case(name, tmp_path / name, ["--jobs", "2"]) == (GOLDEN / name).read_bytes()


def regenerate(names) -> int:
    unknown = [name for name in names if name not in CASES]
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"valid cases: {', '.join(CASES)}", file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    for name in names or CASES:
        run_case(name, GOLDEN / name)
        print("wrote", GOLDEN / name)
    return 0


def test_regenerate_rejects_unknown_name(capsys):
    assert regenerate(["no_such_case.csv"]) == 2
    err = capsys.readouterr().err
    assert "no_such_case.csv" in err and "threshold_A1.json" in err


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
