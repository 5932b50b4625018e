import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import macsat
from macsat.cli import build_parser, main


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestThresholdCommand:
    def test_json_record_fields(self, tmp_path):
        code, text = run_cli(
            [
                "threshold",
                "--ensemble",
                "reg36",
                "--ratio",
                "1",
                "--grid-bins",
                "257",
                "--tol",
                "0.05",
                "--no-timestamp",
            ],
            tmp_path,
            "thr.json",
        )
        assert code == 0
        rec = json.loads(text)
        assert {"ensemble", "A", "alpha_bp", "iters", "tol"} <= set(rec)
        assert "config_hash" in rec["meta"]

    def test_deterministic_reruns(self, tmp_path):
        args = [
            "threshold",
            "--ensemble",
            "reg36",
            "--grid-bins",
            "257",
            "--tol",
            "0.05",
            "--no-timestamp",
        ]
        _, t1 = run_cli(args, tmp_path, "a.json")
        _, t2 = run_cli(args, tmp_path, "b.json")
        assert t1 == t2


class TestCapacityCommand:
    def test_csv_layout(self, tmp_path):
        code, text = run_cli(
            ["capacity", "--rates", "0.5,0.5", "--ray-list", "1.0", "--no-timestamp"],
            tmp_path,
            "cap.csv",
        )
        assert code == 0
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "h1,h2"
        h1, h2 = (float(t) for t in lines[1].split(","))
        assert h1 == pytest.approx(1.26, abs=0.01)
        assert h2 == pytest.approx(h1)

    def test_infeasible_ray_is_numeric_failure(self, tmp_path):
        code, _ = run_cli(
            ["capacity", "--rates", "0.5,0.5", "--ray-list", "1e-9"], tmp_path, "x.csv"
        )
        assert code == 3


class TestMapBoundCommand:
    def test_ray_list_matches_single_ray_bound(self, tmp_path):
        # the ray sweep's point on A = 1 is the alpha_bar of the one-ray run
        # (golden map_bound.json), on both axes
        code, text = run_cli(
            ["map-bound", "--ray-list", "1", "--grid-bins", "129", "--step", "0.1",
             "--lattice", "16", "--no-timestamp"],
            tmp_path,
            "map.csv",
        )  # fmt: skip
        assert code == 0
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert lines == ["h1,h2", "1.26443385,1.26443385"]
        golden = json.loads((Path(__file__).parent / "golden" / "map_bound.json").read_text())
        assert abs(float(lines[1].split(",")[0]) - golden["alpha_bar"]) <= 5e-7


class TestConfigHandling:
    def test_config_file_fills_defaults(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("grid_bins=257\ntol=0.05\n")
        code, text = run_cli(
            ["threshold", "--ensemble", "reg36", "--config", str(cfg), "--no-timestamp"],
            tmp_path,
            "t.json",
        )
        assert code == 0
        assert json.loads(text)["tol"] == 0.05

    def test_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("tol=0.2\ngrid_bins=257\n")
        for tol in ("0.05", "0.005"):  # 0.005 is the default: it wins all the same
            code, text = run_cli(
                ["threshold", "--config", str(cfg), "--tol", tol, "--no-timestamp"],
                tmp_path,
                "t.json",
            )
            assert code == 0
            assert json.loads(text)["tol"] == float(tol)

    def test_flag_beats_config_from_sys_argv(self, tmp_path):
        # `python -m macsat.cli` passes no argv, so main reads sys.argv itself
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("tol=0.2\n")
        src = str(Path(macsat.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = ["threshold", "--config", str(cfg), "--tol", "0.005", "--grid-bins", "65"]
        out = subprocess.run(
            [sys.executable, "-m", "macsat.cli", *argv, "--no-timestamp"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(out.stdout)["tol"] == 0.005

    def test_missing_config_file(self, tmp_path):
        assert main(["threshold", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_bad_config_line_reports_position(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tol=0.1\nnot a pair\n")
        assert main(["threshold", "--config", str(cfg)]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_unknown_ensemble(self, tmp_path):
        assert main(["threshold", "--ensemble", "zzz"]) == 2

    def test_ensemble_file(self, tmp_path):
        ens = tmp_path / "e.cfg"
        ens.write_text("kind=regular\nl=3\nr=6\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, text = run_cli(
                [
                    "threshold",
                    "--ensemble",
                    str(ens),
                    "--grid-bins",
                    "257",
                    "--tol",
                    "0.05",
                    "--no-timestamp",
                ],
                tmp_path,
                "t.json",
            )
        assert code == 0
        # the ensemble file is closed once read
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestSimulateCommand:
    def test_jsonl_plus_summary(self, tmp_path):
        code, text = run_cli(
            [
                "simulate",
                "--ensemble",
                "reg36",
                "--n",
                "600",
                "--alpha",
                "1.9",
                "--frames",
                "3",
                "--iters",
                "30",
                "--no-timestamp",
            ],
            tmp_path,
            "sim.jsonl",
        )
        assert code == 0
        lines = text.strip().splitlines()
        records = [json.loads(l) for l in lines if not l.startswith("#")]
        assert len(records) == 6  # one line per (frame, user)
        assert {"frame", "user", "bit_errors", "iters", "decoded"} <= set(records[0])
        assert {r["user"] for r in records} == {1, 2}
        summary = json.loads(lines[-1].lstrip("# "))
        assert "ber" in summary and "config_hash" in summary

    def test_seeded_reruns_identical(self, tmp_path):
        args = [
            "simulate",
            "--ensemble",
            "reg36",
            "--n",
            "600",
            "--alpha",
            "1.7",
            "--frames",
            "2",
            "--iters",
            "20",
            "--seed",
            "5",
            "--no-timestamp",
        ]
        _, t1 = run_cli(args, tmp_path, "s1.jsonl")
        _, t2 = run_cli(args, tmp_path, "s2.jsonl")
        assert t1 == t2

    def test_coupled_size_is_the_flag_not_an_ensemble_key(self, tmp_path, capsys):
        ens = tmp_path / "c.ens"
        ens.write_text("kind=coupled\nl=3\nr=6\nL=2\nw=2\nM=120\n")
        args = ["simulate", "--ensemble", str(ens), "--alpha", "1.9", "--frames", "1", "--iters", "5"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "'M'" in err and "--m-per-position" in err and "Traceback" not in err
        ens.write_text("kind=coupled\nl=3\nr=6\nL=2\nw=2\n")
        code, text = run_cli(args + ["--m-per-position", "120"], tmp_path, "c.jsonl")
        assert code == 0
        assert json.loads(text.strip().splitlines()[-1].lstrip("# "))["n"] == 5 * 120


class TestGexitCommand:
    def test_csv_columns(self, tmp_path):
        code, text = run_cli(
            [
                "gexit",
                "--ensemble",
                "reg36",
                "--alphas",
                "0:0.4:0.2",
                "--grid-bins",
                "513",
                "--lattice",
                "64",
                "--no-timestamp",
            ],
            tmp_path,
            "g.csv",
        )
        assert code == 0
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert rows[0] == "alpha,g,branch"
        assert len(rows) == 4
        for row in rows[1:]:
            alpha, g, branch = row.split(",")
            assert branch == "stable"
            assert float(g) <= 1e-6


class TestConfigHash:
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["coupled-threshold", "--ensemble", "3,6,4,2", "--grid-bins", "65", "--tol", "0.1",
              "--profile-alpha", "1.3"], "--profile-out"),
            (["simulate", "--n", "600", "--frames", "1", "--alpha", "1.9"], "--summary-out"),
        ],
        ids=["profile-out", "summary-out"],
    )
    def test_side_file_path_leaves_hash(self, tmp_path, argv, flag):
        # where a side file goes is not part of the resolved config
        hashes = set()
        for side in ("one.csv", "two.csv"):
            code, text = run_cli(
                argv + ["--no-timestamp", flag, str(tmp_path / side)], tmp_path, "out"
            )
            assert code == 0 and (tmp_path / side).exists()
            hashes.add(text.split('"config_hash": "')[1][:16])
        assert len(hashes) == 1

    @pytest.mark.parametrize(
        "argv,flags,config",
        [
            (["capacity", "--ray-list", "1"], ["--jobs", "2"], "jobs=2\n"),
            (["threshold", "--ensemble", "reg36"], ["--grid-bins", "129", "--tol", "0.05"],
             "tol=0.05\ngrid_bins=129\n"),
            (["threshold", "--grid-bins", "65", "--tol", "0.1"], ["--genie"], "genie=true\n"),
            # the two values a command cannot run without may come from the file
            (["simulate", "--n", "600", "--frames", "1"], ["--alpha", "1.9"], "alpha=1.9\n"),
            (["coupled-threshold", "--grid-bins", "65", "--tol", "0.1"],
             ["--ensemble", "3,6,4,2"], "ensemble=3,6,4,2\n"),
            # the list flags parse alike from either source
            (["capacity"], ["--ray-list", "0.5,1"], "ray_list=0.5,1\n"),
            (["gexit", "--grid-bins", "65", "--lattice", "8"], ["--alphas", "0:0.4:0.2"],
             "alphas=0:0.4:0.2\n"),
        ],
        ids=[
            "capacity-jobs", "threshold-grid-tol", "threshold-genie", "simulate-alpha",
            "coupled-threshold-ensemble", "capacity-ray-list", "gexit-alphas",
        ],
    )
    def test_config_file_hashes_like_flags(self, tmp_path, argv, flags, config):
        # the hash is of the resolved config, wherever a value came from
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        texts = []
        for extra in (flags, ["--config", str(cfg)]):
            code, text = run_cli(argv + extra + ["--no-timestamp"], tmp_path, "out")
            assert code == 0
            texts.append(text)
        assert texts[0] == texts[1]


def scipy_modules_after(code: str) -> list[str]:
    """The scipy modules loaded in a fresh interpreter that ran `code`, so
    that only what the package itself pulls in is seen."""
    src = str(Path(macsat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    report = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def scipy_modules_of_command(argv: list[str]) -> list[str]:
    argv = argv + ["--no-timestamp"]
    return scipy_modules_after(f"from macsat.cli import main; main({argv!r})")


def assert_loads_only_scipy_sparse(argv: list[str]):
    loaded = scipy_modules_of_command(argv)
    assert "scipy.sparse" in loaded
    assert {m.split(".")[1] for m in loaded if "." in m} & {"special", "fft", "linalg", "signal"} == set()


class TestImport:
    # scipy.sparse costs about 0.2 s and 20 MB in every process that loads
    # it, each --jobs worker included; only the function-node operator needs
    # it.  scipy.special, scipy.fft and scipy.linalg would add about 14 MB
    # more, scipy.signal about a second and 45 MB more

    def test_cli_import_leaves_out_scipy(self):
        assert scipy_modules_after("import macsat.cli") == []

    def test_simulate_leaves_out_scipy(self):
        assert scipy_modules_of_command(["simulate", "--n", "600", "--frames", "2", "--alpha", "1.9"]) == []

    def test_capacity_leaves_out_scipy(self):
        assert scipy_modules_of_command(["capacity", "--ray-list", "1"]) == []

    def test_threshold_loads_scipy_on_use(self):
        assert_loads_only_scipy_sparse(["threshold", "--grid-bins", "65", "--tol", "0.1"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["coupled-threshold", "--ensemble", "3,6,4,2", "--grid-bins", "65", "--tol", "0.1"],
            ["map-bound", "--grid-bins", "65", "--step", "0.1", "--lattice", "8"],
            ["gexit", "--grid-bins", "65", "--lattice", "8", "--alphas", "0:0.4:0.2"],
        ],
        ids=["coupled-threshold", "map-bound", "gexit"],
    )
    def test_density_evolution_loads_only_scipy_sparse(self, argv):
        assert_loads_only_scipy_sparse(argv)


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gexit", "--lattice", "100"],
            ["map-bound", "--lattice", "100"],
            ["threshold", "--ratio", "-1"],
            ["coupled-threshold", "--ensemble", "3,6,4,2", "--ratio", "-1"],
            ["simulate", "--alpha", "1.9", "--ratio", "-1"],
            ["capacity", "--rates", "1.5,0.5"],
            # a bisection or sweep step <= 0 would never end (or raise)
            ["threshold", "--tol", "0"],
            ["threshold", "--tol", "-1"],
            ["threshold", "--tol", "nan"],
            ["coupled-threshold", "--ensemble", "3,6,4,2", "--tol", "0"],
            ["capacity", "--tol", "0"],
            ["acpr", "--tol", "-0.5"],
            ["map-bound", "--step", "0"],
            ["map-bound", "--step", "-0.1"],
            # below the rounding of the swept alphas a step never advances
            # (map-bound) or repeats samples (gexit)
            ["map-bound", "--step", "1e-13"],
            ["gexit", "--alphas", "0:2:1e-13"],
            ["gexit", "--alphas", "0:1e-9:1e-11"],
            # sizes and counts must be positive; graphs, grids and coupled
            # ensembles the constructors reject are config errors too
            ["simulate", "--alpha", "1.9", "--frames", "0"],
            ["simulate", "--alpha", "1.9", "--iters", "0"],
            ["simulate", "--alpha", "1.9", "--n", "0"],
            ["simulate", "--alpha", "1.9", "--n", "601"],
            ["simulate", "--alpha", "1.9", "--ensemble", "3,6,2,2", "--m-per-position", "7"],
            ["capacity", "--rays", "-3"],
            ["capacity", "--rays", "0"],
            ["threshold", "--half-range", "-1"],
            ["threshold", "--ensemble", "3,6,4,0"],
            ["threshold", "--ensemble", "3,x,4,2"],
            ["threshold", "--ensemble", "reg63"],
            # each threshold command takes its own kind of ensemble
            ["threshold", "--ensemble", "3,6,4,2"],
            ["coupled-threshold", "--ensemble", "reg36"],
            # numbers must be numbers, and finite
            ["capacity", "--ray-list", "abc"],
            ["acpr", "--ray-list", "x"],
            ["capacity", "--ray-list", "nan"],
            ["gexit", "--alphas", "0:1:nan"],
            ["threshold", "--ratio", "inf"],
            ["simulate", "--alpha", "inf"],
            ["threshold", "--half-range", "inf"],
            # a seed must fit the generators' 64-bit keys with its offsets, a
            # pool needs a worker, and a profile needs a file to go to
            ["simulate", "--alpha", "1.9", "--seed", "-1"],
            ["simulate", "--alpha", "1.9", "--seed", "18446744073709551615"],
            ["capacity", "--ray-list", "1", "--jobs", "-3"],
            [
                "coupled-threshold", "--ensemble", "3,6,4,2", "--grid-bins", "65", "--tol", "0.1",
                "--profile-alpha", "1.3",
            ],
            # text that is no number, for each kind of numeric flag
            ["threshold", "--ratio", "abc"],
            ["threshold", "--tol", "z"],
            ["simulate", "--alpha", "1.9", "--n", "x"],
            ["simulate", "--alpha", "1.9", "--seed", "y"],
            # a gain is nonnegative, so an alpha grid starts at 0 or above
            ["gexit", "--alphas=-1:1:0.5"],
            # lists and grids are checked as they are parsed
            ["capacity", "--ray-list", ""],
            ["capacity", "--ray-list", "1,-2"],
            ["map-bound", "--ray-list", "0"],
            ["gexit", "--alphas", "0:1"],
            ["gexit", "--alphas", "1:0:0.5"],
            ["threshold", "--grid-bins", "8"],
            ["acpr", "--grid-bins", "1"],
            # the rays come as a count or as a list, not both
            ["capacity", "--rays", "4", "--ray-list", "1"],
            ["acpr", "--ray-list", "1", "--rays", "4"],
            # a lattice is a positive size
            ["gexit", "--lattice", "0"],
            ["map-bound", "--lattice", "0"],
            # the size of a coupled graph does not size an uncoupled one, nor
            # the reverse
            ["simulate", "--alpha", "1.9", "--m-per-position", "60"],
            ["simulate", "--alpha", "1.9", "--ensemble", "3,6,2,2", "--n", "600"],
            # a rate pair is two numbers
            ["capacity", "--rates", "0.5,x"],
        ],
    )
    def test_bad_input_is_config_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "invalid _" not in err  # argparse naming a private type function

    @pytest.mark.parametrize("rays", [[], ["--ray-list", "1,2"]], ids=["one-ray", "ray-list"])
    def test_step_too_coarse_for_the_area_is_numeric_failure(self, rays, capsys):
        # the upward sweep decodes at its first sample, alpha = 2, so the
        # curve has two samples and no area to bound
        argv = ["map-bound", "--grid-bins", "129", "--lattice", "16", "--step", "2"]
        assert main(argv + rays) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "2 curve samples" in err and "finer --step" in err

    def test_n_with_coupled_ensemble_names_its_size_flag(self, capsys):
        argv = ["simulate", "--alpha", "1.9", "--ensemble", "3,6,2,2", "--n", "1200"]
        assert main(argv) == 2
        assert "--m-per-position" in capsys.readouterr().err

    # inputs that cannot be read and outputs that cannot be written; each
    # output is refused before any computation runs
    UNUSABLE_PATHS = {
        "config_is_directory": ["threshold", "--config", "{dir}"],
        "config_not_utf8": ["threshold", "--config", "{dir}/latin1.cfg"],
        "ensemble_is_directory": ["threshold", "--ensemble", "{dir}"],
        "output_in_missing_directory": ["threshold", "--output", "{dir}/no/x.json"],
        "output_is_directory": ["threshold", "--output", "{dir}"],
        # an empty path names no file
        "output_empty": ["capacity", "--ray-list", "1", "--output", ""],
        "summary_empty": ["simulate", "--alpha", "1.9", "--summary-out", ""],
        "profile_empty": [
            "coupled-threshold", "--ensemble", "3,6,4,2", "--profile-alpha", "1.3", "--profile-out", "",
        ],
        "summary_in_missing_directory": [
            "simulate", "--alpha", "1.9", "--summary-out", "{dir}/no/s.csv",
        ],
        "profile_in_missing_directory": [
            "coupled-threshold", "--ensemble", "3,6,4,2", "--profile-alpha", "1.3",
            "--profile-out", "{dir}/no/p.csv",
        ],
        # two outputs that would overwrite each other, by any name of the file
        "summary_is_output": [
            "simulate", "--alpha", "1.9", "--summary-out", "{dir}/s", "--output", "{dir}/./s",
        ],
        "profile_is_output": [
            "coupled-threshold", "--ensemble", "3,6,4,2", "--profile-alpha", "1.3",
            "--profile-out", "{dir}/p.csv", "--output", "{dir}/p.csv",
        ],
        # stdout is one destination: `-` or an unset --output
        "summary_and_output_to_stdout": ["simulate", "--alpha", "1.9", "--summary-out", "-"],
        "profile_and_output_to_stdout": [
            "coupled-threshold", "--ensemble", "3,6,4,2", "--profile-alpha", "1.3",
            "--profile-out", "-", "--output", "-",
        ],
    }  # fmt: skip

    @pytest.mark.parametrize("case", list(UNUSABLE_PATHS))
    def test_unusable_path_is_config_error(self, case, tmp_path, capsys, monkeypatch):
        import macsat.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("computation ran before the paths were checked")

        for name in ("bp_threshold", "coupled_run", "simulate_joint", "build_regular", "ray_boundary"):
            monkeypatch.setattr(cli, name, never)
        (tmp_path / "latin1.cfg").write_bytes("tol=0.1 # \xe9t\xe9\n".encode("latin-1"))
        argv = [arg.format(dir=tmp_path) for arg in self.UNUSABLE_PATHS[case]]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not (tmp_path / "no").exists()

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--n", "600", "--frames", "1"], ["coupled-threshold", "--grid-bins", "65"]],
        ids=["simulate-alpha", "coupled-threshold-ensemble"],
    )
    def test_missing_required_value_is_config_error(self, argv, tmp_path, capsys):
        # neither a flag nor a config key gives the value
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol=0.1\n")
        for extra in ([], ["--config", str(cfg)]):
            assert main(argv + extra) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "Traceback" not in err

    def test_bad_degree_field_in_ensemble_file_is_config_error(self, tmp_path, capsys):
        ens = tmp_path / "bad.ens"
        ens.write_text("kind=irregular\nlambda={}\nrho=[0, 0, 0, 0, 0, 0, 1]\n")
        assert main(["threshold", "--ensemble", str(ens)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_tolerance_finer_than_the_doubles_ends(self, capsys):
        # the bisection stops at adjacent doubles instead of looping forever
        assert main(["capacity", "--ray-list", "1", "--tol", "1e-20"]) == 0

    # a config value passes the same types, ranges and choices as its flag,
    # and a key must name a flag in full
    @pytest.mark.parametrize(
        "argv,line",
        [
            (["threshold"], "tol=0"),
            (["map-bound"], "step=0"),
            (["map-bound"], "step=1e-13"),
            (["gexit"], "alphas=0:2:1e-13"),
            (["simulate", "--alpha", "1.9"], "mode=foo"),
            (["threshold"], "genie=maybe"),
            (["threshold"], "t=0.05"),
            (["threshold"], "func=x"),
            (["capacity"], "ray_list=1,x"),
            (["gexit"], "alphas=0:1"),
            (["threshold"], "grid_bins=8"),
            # a key and a flag cannot give the rays two ways either
            (["capacity", "--ray-list", "1"], "rays=4"),
            (["acpr", "--rays", "4"], "ray_list=1"),
            # an empty path, as for the flags
            (["capacity", "--ray-list", "1"], "output="),
            (["simulate", "--alpha", "1.9"], "summary_out="),
            (["coupled-threshold", "--ensemble", "3,6,4,2", "--profile-alpha", "1.3"], "profile_out="),
            (["simulate", "--alpha", "1.9"], "m_per_position=60"),
            (["simulate", "--alpha", "1.9", "--ensemble", "3,6,2,2"], "n=600"),
        ],
        ids=[
            "threshold-tol", "map-bound-step", "map-bound-tiny-step", "gexit-tiny-step", "simulate-mode", "threshold-genie",
            "threshold-prefix", "threshold-reserved", "capacity-ray-list", "gexit-alphas",
            "threshold-grid-bins", "capacity-rays-key", "acpr-ray-list-key", "capacity-output",
            "simulate-summary-out", "coupled-threshold-profile-out", "simulate-uncoupled-m",
            "simulate-coupled-n",
        ],
    )
    def test_bad_config_value_is_config_error(self, argv, line, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(argv + ["--config", str(cfg)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    # (command, flag, value) for each flag a command does not read
    UNREAD = [
        ("threshold", "--seed", "1"), ("coupled-threshold", "--seed", "1"),
        ("capacity", "--seed", "1"), ("acpr", "--seed", "1"), ("gexit", "--seed", "1"),
        ("map-bound", "--seed", "1"),
        ("threshold", "--jobs", "2"), ("coupled-threshold", "--jobs", "2"), ("gexit", "--jobs", "2"),
        ("capacity", "--half-range", "20"), ("capacity", "--grid-bins", "65"),
        ("simulate", "--half-range", "20"), ("simulate", "--grid-bins", "65"),
    ]  # fmt: skip

    @pytest.mark.parametrize("cmd,flag,value", UNREAD, ids=[" ".join(u[:2]) for u in UNREAD])
    def test_unread_flag_is_config_error(self, cmd, flag, value, tmp_path, capsys, monkeypatch):
        # a flag that changes nothing would only change the hash; it is refused
        # while the arguments are parsed, before the output paths are checked
        import macsat.cli as cli

        def never(args):
            raise AssertionError(f"{cmd} accepted {flag}")

        monkeypatch.setattr(cli, "_check_outputs", never)
        key = flag[2:].replace("-", "_")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        for argv, named in (([cmd, flag, value], flag), ([cmd, "--config", str(cfg)], repr(key))):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert named in err and "Traceback" not in err


class TestFlags:
    COMMON = {"config", "output", "no_timestamp"}
    GRID = {"half_range", "grid_bins"}
    FLAGS = {
        "threshold": {"ensemble", "ratio", "tol", "genie"} | GRID,
        "coupled-threshold": {"ensemble", "ratio", "tol", "profile_out", "profile_alpha"} | GRID,
        "capacity": {"rates", "rays", "ray_list", "tol", "json", "jobs"},
        "acpr": {"ensemble", "rays", "ray_list", "tol", "json", "jobs"} | GRID,
        "gexit": {"ensemble", "ratio", "alphas", "lattice"} | GRID,
        "map-bound": {"ensemble", "ratio", "ray_list", "step", "lattice", "jobs"} | GRID,
        "simulate": {
            "ensemble", "n", "m_per_position", "alpha", "ratio", "mode", "frames", "iters",
            "summary_out", "seed", "jobs",
        },
    }  # fmt: skip

    def test_each_command_takes_the_flags_it_reads(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: {a.dest for a in p._actions if a.dest != "help"}
            for name, p in sub.choices.items()
        }
        assert got == {name: flags | self.COMMON for name, flags in self.FLAGS.items()}
        assert sum(map(len, got.values())) == 73
