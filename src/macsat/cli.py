"""Command-line surface: reproducible figure-generating sweeps.

Every command reads an optional key=value config file, lets flags override
individual keys, and embeds the resolved-config hash in its output header.
Each command takes only the flags it reads, so one computation has one hash.
Every command is deterministic given its config; `simulate` draws its codes,
codewords and noise from `--seed`, the one seeded command.  Exit codes:
0 success, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, output
from .channel import (
    ChannelPoint,
    InfeasibleRayError,
    QuadratureError,
    mac_acpr_point,
    ray_boundary,
)
from .coupled import coupled_run
from .densities import DensityGrid, default_grid
from .ensembles import (
    CoupledSpec,
    design_rate,
    named_ensemble,
    parse_ensemble_config,
    read_key_values,
)
from .gexit import KERNEL_ORDER, LATTICE_BINS_DEFAULT, MapBoundError, bp_gexit_curve
from .gexit import MAP_STEP_MIN, map_bound_alpha, map_bound_sweep
from .jointde import BracketError, bp_threshold, threshold_alpha
from .mcsim import build_coupled, build_joint, build_regular, simulate_joint

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    pass


# the hash is of the resolved config: the parsed flags, the config file's keys
# parsed among them, so a key hashes alike from a flag or a file; where the
# outputs go and how many workers compute them never move it
HASH_EXCLUDED = {
    "output", "profile_out", "summary_out", "config", "no_timestamp", "func", "command", "jobs"
}


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of an input file; any failure to read it is a config
    error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _config_argv(args: argparse.Namespace) -> list[str]:
    """The config file's lines as flag tokens for the command's own parser,
    which types and checks them like the command line's: `key=value` becomes
    `--key=value`, and a boolean key becomes `--key` or nothing.  Keys are the
    first parse's attributes, so a config key never prefix-matches a flag."""
    path = args.config
    try:
        fields = read_key_values(_read_text(path, "config file"), where=f"{path}:")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    tokens = []
    for key, value in fields.items():
        key = key.replace("-", "_")
        if key in ("func", "command", "config") or key not in vars(args):
            raise ConfigError(f"unknown config key {key!r} for command {args.command}")
        flag = "--" + key.replace("_", "-")
        if not isinstance(getattr(args, key), bool):
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes"):
            tokens.append(flag)
        elif value.lower() not in ("0", "false", "no"):
            raise ConfigError(f"bad value for {key}: {value!r}")
    return tokens


def _check_outputs(args):
    """Every file the command will write has a non-empty name in an existing
    directory, and no two outputs share a file or stdout, checked before any
    computation runs."""
    taken = {}
    for flag in ("output", "profile_out", "summary_out"):
        path = getattr(args, flag, None)
        if path is None and flag != "output":  # no side file
            continue
        name = "--" + flag.replace("_", "-")
        if path == "":
            raise ConfigError(f"{name} is an empty path")
        if path in (None, "-"):
            dest = "stdout"
        elif os.path.isdir(path):
            raise ConfigError(f"{name} {path} is a directory")
        elif not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"{name} {path}: no directory {os.path.dirname(path)}")
        else:
            dest = os.path.realpath(path)
        if dest in taken:
            raise ConfigError(f"{taken[dest]} and {name} both write to {dest}")
        taken[dest] = name


def _ensemble(spec_str: str):
    if spec_str is None:
        raise ConfigError("--ensemble is required, as a flag or a config key")
    if os.path.exists(spec_str):
        try:
            return parse_ensemble_config(_read_text(spec_str, "ensemble file"))
        except (ValueError, KeyError, TypeError) as exc:  # TypeError: a non-list degree field
            raise ConfigError(f"bad ensemble file {spec_str}: {exc}") from exc
    try:
        if spec_str.count(",") == 3:
            return CoupledSpec(*(int(t) for t in spec_str.split(",")))
        return named_ensemble(spec_str)
    except KeyError:
        raise ConfigError(f"cannot resolve ensemble {spec_str!r}") from None
    except ValueError as exc:
        raise ConfigError(f"bad ensemble {spec_str!r}: {exc}") from exc


def _grid(args) -> DensityGrid:
    default = default_grid()
    half = default.half_range if args.half_range is None else args.half_range
    bins = default.n_bins if args.grid_bins is None else args.grid_bins
    try:
        return DensityGrid(bin_width=2.0 * half / (bins - 1), half_range=half)
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc


def _rays(args):
    # --ray-list, or --rays (default 16) tangent-spaced ratios, which cover
    # both asymptotes of the boundary
    return args.ray_list or np.tan(np.linspace(0.06, np.pi / 2 - 0.06, args.rays or 16))


@contextmanager
def _pmap(jobs: int):
    """The map a sweep fans out with: builtin map, or for jobs > 1 the map of a
    pool of that many spawned workers, shut down when the block exits."""
    if jobs <= 1:
        yield map
        return
    with multiprocessing.get_context("spawn").Pool(jobs) as pool:
        yield pool.map


def _number(kind, noun: str, holds):
    """An argparse type: kind(text) when that parses and holds(value), else
    ArgumentTypeError naming `noun`, so argparse never reports the name of a
    type function.  Comparisons reject nan."""

    def parse(text: str):
        try:
            value = kind(text)
            if holds(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {noun}, got {text!r}")

    return parse


# --ratio and the gains
_nonnegative = _number(float, "a finite number >= 0", lambda v: 0 <= v < math.inf)
# --tol and --half-range: a bisection with a zero or negative width would
# never end (one finer than the doubles ends at adjacent doubles)
_positive = _number(float, "a finite number > 0", lambda v: 0 < v < math.inf)
# map-bound --step: the sweep rounds each alpha to 12 decimals, so a smaller
# step would never advance it
_map_step = _number(float, f"a finite number >= {MAP_STEP_MIN:g}", lambda v: MAP_STEP_MIN <= v < math.inf)
# the sizes and counts (--n, --frames, --rays, ...)
_positive_int = _number(int, "an integer > 0", lambda v: v > 0)
# --seed: the seeded generators' 64-bit keys hold it and the small offsets the
# graph and frame streams add to it
_seed = _number(int, "an integer in [0, 2**63)", lambda v: 0 <= v < 2**63)
_grid_bins = _number(int, "an odd integer >= 3", lambda v: v >= 3 and v % 2 == 1)
# --ray-list: ratios h2/h1
_ray_list = _number(
    lambda text: tuple(float(t) for t in text.split(",")),
    "comma-separated finite ratios > 0",
    lambda rays: all(0 < r < math.inf for r in rays),
)
# --alphas lo:hi:step: a gain is nonnegative, so the grid starts at 0 or
# above; the grid is rounded to GEXIT_ALPHA_DECIMALS, so a finer step would
# repeat samples
GEXIT_ALPHA_DECIMALS = 10
_alpha_range = _number(
    lambda text: tuple(float(t) for t in text.split(":")),
    f"finite lo:hi:step with 0 <= lo < hi and step >= 1e-{GEXIT_ALPHA_DECIMALS}",
    lambda g: len(g) == 3 and 0 <= g[0] < g[1] < math.inf and 10.0**-GEXIT_ALPHA_DECIMALS <= g[2] < math.inf,
)


def _lattice(args, grid: DensityGrid) -> int:
    if grid.k_max % args.lattice:
        raise ConfigError(f"lattice {args.lattice} must divide the grid half-width {grid.k_max}")
    return args.lattice


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _boundary_text(args, digest: str, kind: str, pts, meta: dict) -> str:
    """A sweep's boundary polyline: CSV, or JSON under --json."""
    meta = {"kind": kind, **meta, "config_hash": digest}
    if getattr(args, "json", False):  # map-bound has no --json
        points = [[round(h1, 8), round(h2, 8)] for h1, h2 in pts]
        return output.json_record({"points": points}, meta, args.no_timestamp)
    rows = [f"{h1:.8f},{h2:.8f}" for h1, h2 in pts]
    return output.csv_text("h1,h2", rows, meta, args.no_timestamp)


def cmd_threshold(args, digest: str) -> str:
    """threshold and coupled-threshold: the BP threshold of an uncoupled or an
    (l,r,L,w) ensemble, and for the latter an optional entropy profile."""
    coupled = args.command == "coupled-threshold"
    ens = _ensemble(args.ensemble)
    if isinstance(ens, CoupledSpec) != coupled:
        want = "an (l,r,L,w) ensemble" if coupled else "an uncoupled ensemble; see coupled-threshold"
        raise ConfigError(f"{args.command} expects {want}")
    grid = _grid(args)
    if coupled and (args.profile_out is None) != (args.profile_alpha is None):
        raise ConfigError("--profile-out and --profile-alpha go together")
    res = bp_threshold(ens, args.ratio, tol=args.tol, grid=grid, genie=not coupled and args.genie)
    if coupled and args.profile_out:
        rows = []
        positions = range(-ens.L, ens.L + 1)

        def profile(it, ent_a, ent_b):
            rows.extend(f"{it},{p},{a:.8e},{b:.8e}" for p, a, b in zip(positions, ent_a, ent_b))

        coupled_run(ChannelPoint(args.profile_alpha, args.ratio), ens, grid, profile=profile)
        text = output.csv_text("iteration,position,entropy_a,entropy_b", rows)
        output.emit(text, args.profile_out)
    meta = {"config_hash": digest, "grid_bins": grid.n_bins, "design_rate": round(design_rate(ens), 6)}
    rec = {
        "ensemble": str(ens),
        "A": res.ratio,
        "alpha_bp": res.alpha,
        "iters": res.iterations,
        "tol": res.tol,
    }
    return output.json_record(rec, meta, args.no_timestamp)


def cmd_capacity(args, digest: str) -> str:
    try:
        rates = tuple(float(t) for t in args.rates.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad rates {args.rates!r}, expected R1,R2") from exc
    if len(rates) != 2 or not all(0.0 < r < 1.0 for r in rates):
        raise ConfigError("rates must be R1,R2 with each rate in (0, 1)")
    with _pmap(args.jobs) as pmap:
        pts = ray_boundary(partial(mac_acpr_point, rates, tol=args.tol), _rays(args), pmap)
    return _boundary_text(args, digest, "mac", pts, {"rates": args.rates})


def cmd_acpr(args, digest: str) -> str:
    ens = _ensemble(args.ensemble)
    grid = _grid(args)
    with _pmap(args.jobs) as pmap:
        job = partial(threshold_alpha, ens, tol=args.tol, grid=grid)
        pts = ray_boundary(job, _rays(args), pmap)
    return _boundary_text(args, digest, "bp", pts, {"ensemble": str(ens), "grid_bins": grid.n_bins})


def cmd_gexit(args, digest: str) -> str:
    ens = _ensemble(args.ensemble)
    grid = _grid(args)
    bins = _lattice(args, grid)
    lo, hi, step = args.alphas
    alphas = list(np.round(np.arange(lo, hi + step / 2, step), GEXIT_ALPHA_DECIMALS))
    samples = bp_gexit_curve(ens, args.ratio, alphas, grid=grid, bins=bins)
    meta = {
        "ratio": args.ratio,
        "ensemble": str(ens),
        "grid_bins": grid.n_bins,
        "lattice_bins": bins,
        "order": KERNEL_ORDER,
        "positions": (
            "all (2L+1, boundaries included)" if isinstance(ens, CoupledSpec) else "single"
        ),
        "config_hash": digest,
    }
    rows = [f"{alpha:.6f},{g:.8e},stable" for alpha, g in samples]
    return output.csv_text("alpha,g,branch", rows, meta, args.no_timestamp)


def cmd_map_bound(args, digest: str) -> str:
    ens = _ensemble(args.ensemble)
    if isinstance(ens, CoupledSpec):
        raise ConfigError("map-bound applies to uncoupled ensembles")
    grid = _grid(args)
    bins = _lattice(args, grid)
    if args.ray_list:
        with _pmap(args.jobs) as pmap:
            job = partial(map_bound_alpha, ens, grid=grid, step=args.step, bins=bins)
            pts = ray_boundary(job, args.ray_list, pmap)
        meta = {"ensemble": str(ens), "grid_bins": grid.n_bins}
        return _boundary_text(args, digest, "map", pts, meta)
    bound, samples = map_bound_sweep(ens, args.ratio, grid=grid, step=args.step, bins=bins)
    meta = {
        "config_hash": digest,
        "grid_bins": grid.n_bins,
        "lattice": args.lattice,
    }
    rec = {
        "ensemble": str(ens),
        "A": args.ratio,
        "alpha_bar": round(bound, 6),
        "area_target": round(2 * design_rate(ens), 6),
        "samples": len(samples),
    }
    return output.json_record(rec, meta, args.no_timestamp)


def cmd_simulate(args, digest: str) -> str:
    if args.alpha is None:
        raise ConfigError("--alpha is required, as a flag or a config key")
    ens = _ensemble(args.ensemble)
    ch = ChannelPoint(args.alpha, args.ratio)
    try:
        if isinstance(ens, CoupledSpec):
            if args.n is not None:
                raise ConfigError("--n sizes an uncoupled ensemble; use --m-per-position")
            build = partial(build_coupled, ens, args.m_per_position or 60)
        elif args.m_per_position is not None:
            raise ConfigError("--m-per-position sizes a coupled ensemble; use --n")
        else:
            lam = np.nonzero(ens.lambda_coeffs)[0]
            rho = np.nonzero(ens.rho_coeffs)[0]
            if lam.size != 1 or rho.size != 1:
                raise ConfigError("simulate supports regular ensembles")
            build = partial(build_regular, args.n or 20000, int(lam[0]), int(rho[0]))
        g1, g2 = build(args.seed), build(args.seed + 1)
    except ValueError as exc:
        raise ConfigError(f"cannot build the code graphs: {exc}") from exc
    inst = build_joint(g1, g2, args.seed + 2)
    with _pmap(args.jobs) as pmap:
        res = simulate_joint(
            inst,
            ch,
            mode=args.mode,
            max_iters=args.iters,
            num_frames=args.frames,
            seed=args.seed,
            pmap=pmap,
        )

    lines = []
    for fr in res.frames:
        for user in (1, 2):
            lines.append(
                json.dumps(
                    {
                        "frame": fr.frame,
                        "user": user,
                        "bit_errors": fr.bit_errors[user - 1],
                        "iters": fr.iterations,
                        "decoded": fr.decoded,
                    }
                )
            )
    summary = {
        "ber": [res.ber(1), res.ber(2)],
        "ci1": list(res.ber_confidence(1)),
        "ci2": list(res.ber_confidence(2)),
        "mode": res.mode,
        "frames": len(res.frames),
        "n": res.n_bits,
        "config_hash": digest,
    }
    if args.summary_out:
        rows = []
        for user in (1, 2):
            lo, hi = res.ber_confidence(user)
            rows.append(f"{user},{res.ber(user):.6e},{lo:.6e},{hi:.6e},{len(res.frames)},{res.n_bits}")
        output.emit(output.csv_text("user,ber,ci_lo,ci_hi,frames,n", rows), args.summary_out)
    return "\n".join(lines) + "\n# " + json.dumps(summary) + "\n"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="macsat", description=__doc__)
    ap.add_argument("--version", action="version", version=f"macsat {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="BP threshold of an uncoupled ensemble")
    p.add_argument("--ensemble", default="reg36")
    p.add_argument("--ratio", type=_nonnegative, default=1.0, help="A = h2/h1")
    p.add_argument("--tol", type=_positive, default=5e-3)
    p.add_argument("--genie", action="store_true", help="pin the partner to +inf (single-user)")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("coupled-threshold", help="BP threshold of an (l,r,L,w) ensemble")
    p.add_argument("--ensemble", default=None, help="file or l,r,L,w")
    p.add_argument("--ratio", type=_nonnegative, default=1.0)
    p.add_argument("--tol", type=_positive, default=5e-3)
    p.add_argument("--profile-out", help="also write a per-position entropy profile CSV")
    p.add_argument(
        "--profile-alpha", type=_nonnegative, default=None, help="alpha for the profile run"
    )
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("capacity", help="MAC-ACPR boundary for a rate pair")
    p.add_argument("--rates", default="0.5,0.5")
    p.add_argument("--tol", type=_positive, default=1e-4)
    p.add_argument("--json", action="store_true", help="emit a JSON array instead of CSV")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("acpr", help="BP-ACPR boundary of an ensemble")
    p.add_argument("--ensemble", default="reg36")
    p.add_argument("--tol", type=_positive, default=5e-3)
    p.add_argument("--json", action="store_true", help="emit a JSON array instead of CSV")
    p.set_defaults(func=cmd_acpr)

    p = sub.add_parser("gexit", help="BP-GEXIT curve along one ray")
    p.add_argument("--ensemble", default="reg36")
    p.add_argument("--ratio", type=_nonnegative, default=1.0)
    p.add_argument("--alphas", type=_alpha_range, default="0:2:0.01", help="lo:hi:step")
    p.add_argument("--lattice", type=_positive_int, default=LATTICE_BINS_DEFAULT, help="kernel lattice half-width")
    p.set_defaults(func=cmd_gexit)

    p = sub.add_parser("map-bound", help="area-theorem MAP bound along one ray")
    p.add_argument("--ensemble", default="reg36")
    p.add_argument("--ratio", type=_nonnegative, default=1.0)
    p.add_argument("--ray-list", type=_ray_list, help="emit the MAP boundary over these rays as CSV")
    p.add_argument("--step", type=_map_step, default=0.01)
    p.add_argument("--lattice", type=_positive_int, default=LATTICE_BINS_DEFAULT)
    p.set_defaults(func=cmd_map_bound)

    p = sub.add_parser("simulate", help="finite-length joint BP Monte-Carlo")
    p.add_argument("--ensemble", default="reg36")
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--m-per-position", type=_positive_int, default=None)
    p.add_argument("--alpha", type=_nonnegative, default=None)
    p.add_argument("--ratio", type=_nonnegative, default=1.0)
    p.add_argument("--mode", choices=("all_plus_one", "random"), default="random")
    p.add_argument("--frames", type=_positive_int, default=100)
    p.add_argument("--iters", type=_positive_int, default=200)
    p.add_argument("--summary-out", help="also write a summary CSV")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_simulate)

    # the flags of several commands: each command takes the ones it reads
    for name, p in sub.choices.items():
        p.add_argument("--config", help="key=value config file; flags override")
        p.add_argument("--output", "-o", help="output path (default stdout)")
        p.add_argument("--no-timestamp", action="store_true", help="byte-stable headers")
        if name in ("capacity", "acpr"):  # one way to give the rays
            rays = p.add_mutually_exclusive_group()
            rays.add_argument("--rays", type=_positive_int, default=None, help="number of rays (default 16)")
            rays.add_argument("--ray-list", type=_ray_list, help="explicit comma-separated ratios")
        # density evolution runs on a grid; a sweep fans out over a worker pool
        if name in ("threshold", "coupled-threshold", "acpr", "gexit", "map-bound"):
            p.add_argument("--half-range", type=_positive, default=None, help="grid LLR half range")
            p.add_argument("--grid-bins", type=_grid_bins, default=None, help="odd number of LLR bins")
        if name in ("capacity", "acpr", "map-bound", "simulate"):
            p.add_argument("--jobs", type=_positive_int, default=1, help="worker pool size for sweeps")
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    try:
        try:
            args = ap.parse_args(argv)
            if args.config is not None:
                # config keys go right after the command name, so the command
                # line's own flags come later and win
                at = argv.index(args.command) + 1
                args = ap.parse_args(argv[:at] + _config_argv(args) + argv[at:])
        except SystemExit as exc:
            return EXIT_CONFIG if exc.code not in (0, None) else 0
        _check_outputs(args)
        resolved = {k: v for k, v in vars(args).items() if k not in HASH_EXCLUDED}
        text = args.func(args, output.config_hash(resolved))
        output.emit(text, args.output)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BracketError, MapBoundError, QuadratureError, InfeasibleRayError) as exc:
        print(f"numeric failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
