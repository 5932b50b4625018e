"""Degree-distribution and coupled-ensemble specifications."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

MAX_DEGREE = 64


def _as_degree_poly(coeffs, name: str) -> np.ndarray:
    c = np.asarray(coeffs, dtype=np.float64)
    if c.ndim != 1 or c.size < 2 or c.size > MAX_DEGREE + 1:
        raise ValueError(f"{name}: need degree coefficients in 1..{MAX_DEGREE}")
    if c[0] != 0.0:
        raise ValueError(f"{name}: degree-0 coefficient must be 0")
    if np.any(c < 0):
        raise ValueError(f"{name}: coefficients must be nonnegative")
    if abs(c.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name}: coefficients must sum to 1")
    return c


@dataclass(frozen=True)
class EnsembleSpec:
    """Edge-perspective degree polynomials, stored densely by degree.

    lambda_coeffs[i] is the fraction of edges attached to degree-i variable
    nodes, rho_coeffs[i] the same for check nodes.
    """

    lambda_coeffs: np.ndarray
    rho_coeffs: np.ndarray
    name: str = ""

    def __post_init__(self):
        object.__setattr__(
            self, "lambda_coeffs", _as_degree_poly(self.lambda_coeffs, "lambda")
        )
        object.__setattr__(self, "rho_coeffs", _as_degree_poly(self.rho_coeffs, "rho"))
        self.lambda_coeffs.flags.writeable = False
        self.rho_coeffs.flags.writeable = False

    @property
    def node_lambda(self) -> np.ndarray:
        """Node-perspective variable distribution L_i = (lambda_i/i) / sum_j (lambda_j/j)."""
        lam = self.lambda_coeffs
        degrees = np.arange(lam.size, dtype=np.float64)
        degrees[0] = 1.0  # avoid 0/0; coefficient there is 0
        frac = lam / degrees
        return frac / frac.sum()

    def __str__(self):
        return self.name or f"lambda={self.lambda_coeffs.tolist()},rho={self.rho_coeffs.tolist()}"


def regular(l: int, r: int) -> EnsembleSpec:
    """(l, r)-regular ensemble: lambda(x) = x^(l-1), rho(x) = x^(r-1)."""
    if not (2 <= l < r):
        raise ValueError("need 2 <= l < r")
    lam = np.zeros(l + 1)
    lam[l] = 1.0
    rho = np.zeros(r + 1)
    rho[r] = 1.0
    return EnsembleSpec(lam, rho, name=f"reg{l}{r}")


def design_rate(spec: EnsembleSpec | CoupledSpec) -> float:
    """1 - int(rho)/int(lambda) with int(p) = sum_i p_i / i, or for an
    (l, r, L, w) ensemble
    (1 - l/r) - (l/r) * [(w+1) - 2 sum_{i=0}^{w} (i/w)^r] / (2L + 1)."""
    if isinstance(spec, CoupledSpec):
        l, r, L, w = spec.l, spec.r, spec.L, spec.w
        ratio = l / r
        boundary = (w + 1) - 2.0 * sum((i / w) ** r for i in range(w + 1))
        return (1.0 - ratio) - ratio * boundary / (2 * L + 1)
    degrees = np.arange(max(spec.lambda_coeffs.size, spec.rho_coeffs.size))
    degrees[0] = 1
    int_lam = (spec.lambda_coeffs / degrees[: spec.lambda_coeffs.size]).sum()
    int_rho = (spec.rho_coeffs / degrees[: spec.rho_coeffs.size]).sum()
    if int_lam <= 0:
        raise ZeroDivisionError("lambda integrates to zero")
    return 1.0 - int_rho / int_lam


@dataclass(frozen=True)
class CoupledSpec:
    """(l, r, L, w) spatially coupled ensemble.

    Variable positions run over [-L, L]; the w-wide smoothing window couples
    neighbouring positions.  M (variables per position) only matters for the
    finite Monte-Carlo instantiation.
    """

    l: int
    r: int
    L: int
    w: int
    M: int = 0

    def __post_init__(self):
        if self.l < 2 or self.r <= self.l:
            raise ValueError("need l >= 2 and r > l")
        if self.w < 1 or self.L < 1:
            raise ValueError("need w >= 1 and L >= 1")
        if self.M and (self.l * self.M) % self.r != 0:
            raise ValueError("l*M must be divisible by r")

    @property
    def n_positions(self) -> int:
        return 2 * self.L + 1

    def __str__(self):
        s = f"coupled({self.l},{self.r},{self.L},{self.w}"
        return s + (f",M={self.M})" if self.M else ")")


def parse_ensemble_config(text: str):
    """Parse the key-value ensemble file format.

    Fields: kind=regular|irregular|coupled, lambda=[...], rho=[...], l, r, L, w
    (and optionally M).  Returns an EnsembleSpec or CoupledSpec.
    """
    fields = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        fields[key.strip()] = value.strip()

    kind = fields.get("kind")
    if kind == "regular":
        return regular(int(fields["l"]), int(fields["r"]))
    if kind == "irregular":
        lam = np.asarray(json.loads(fields["lambda"]), dtype=float)
        rho = np.asarray(json.loads(fields["rho"]), dtype=float)
        return EnsembleSpec(lam, rho)
    if kind == "coupled":
        return CoupledSpec(
            l=int(fields["l"]),
            r=int(fields["r"]),
            L=int(fields["L"]),
            w=int(fields["w"]),
            M=int(fields.get("M", 0)),
        )
    raise ValueError(f"unknown ensemble kind {kind!r}")


def named_ensemble(name: str):
    """Resolve shorthand names like reg36 / reg48 used on the command line."""
    if name.startswith("reg") and len(name) == 5 and name[3:].isdigit():
        return regular(int(name[3]), int(name[4]))
    raise KeyError(name)
