"""Golden CLI outputs: each case reruns a command with --no-timestamp and must
reproduce the committed bytes under tests/golden/ exactly, for its output and
for the side file it writes, if any.

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
    "coupled_threshold_3642_profile.json": [
        "coupled-threshold", "--ensemble", "3,6,4,2", "--grid-bins", "65", "--tol", "0.1",
        "--profile-alpha", "1.3",
    ],
    "map_bound.json": ["map-bound", "--grid-bins", "129", "--step", "0.1", "--lattice", "16"],
    "map_bound_A2.json": [
        "map-bound", "--ratio", "2", "--grid-bins", "129", "--step", "0.1", "--lattice", "16",
    ],
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
    "capacity.json": ["capacity", "--ray-list", "0.5,1,2", "--json"],
    "acpr.csv": ["acpr", "--ray-list", "0.8,1", "--grid-bins", "65", "--tol", "0.1"],
    "simulate.jsonl": ["simulate", "--n", "600", "--frames", "4", "--alpha", "1.9"],
    "simulate_summary.jsonl": [
        "simulate", "--n", "600", "--frames", "3", "--alpha", "1.7", "--seed", "3",
    ],
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
PARALLEL = [
    "capacity.csv", "acpr.csv", "acpr_3642.csv", "map_bound_rays.csv", "simulate.jsonl",
    "simulate_summary.jsonl",
]

CASES = {**FAST, **SLOW}

# side files: case -> (flag naming the file, golden file)
SIDE_FILES = {
    "coupled_threshold_3642_profile.json": ("--profile-out", "coupled_profile_3642.csv"),
    "simulate_summary.jsonl": ("--summary-out", "simulate_summary.csv"),
}


def _params(names):
    return [
        pytest.param(name, marks=pytest.mark.slow) if name in SLOW else name for name in names
    ]


def run_case(name, out_dir: Path, extra=()) -> dict:
    """Run case `name` with its files written under out_dir; returns the bytes
    of each, keyed by golden file name."""
    files = [name]
    argv = CASES[name] + ["--no-timestamp", *extra, "--output", str(out_dir / name)]
    if name in SIDE_FILES:
        flag, side = SIDE_FILES[name]
        argv += [flag, str(out_dir / side)]
        files.append(side)
    assert main(argv) == 0
    return {f: (out_dir / f).read_bytes() for f in files}


def assert_golden(written: dict):
    for f, got in written.items():
        assert got == (GOLDEN / f).read_bytes(), f


@pytest.mark.parametrize("name", _params(CASES))
def test_golden_bytes(name, tmp_path):
    assert_golden(run_case(name, tmp_path))


@pytest.mark.parametrize("name", _params(PARALLEL))
def test_two_jobs_match_serial(name, tmp_path):
    assert_golden(run_case(name, tmp_path, ["--jobs", "2"]))


def regenerate(names) -> int:
    unknown = [name for name in names if name not in CASES]
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"valid cases: {', '.join(CASES)}", file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    for name in names or CASES:
        for f in run_case(name, GOLDEN):
            print("wrote", GOLDEN / f)
    return 0


def test_regenerate_rejects_unknown_name(capsys):
    assert regenerate(["no_such_case.csv"]) == 2
    err = capsys.readouterr().err
    assert "no_such_case.csv" in err
    assert all(name in err for name in ("threshold_A1.json", "capacity.json", "simulate_summary.jsonl"))


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
