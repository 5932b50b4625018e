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
    neighbouring positions.  The size of a finite instance is not part of the
    ensemble: `mcsim.build_coupled` takes it.
    """

    l: int
    r: int
    L: int
    w: int

    def __post_init__(self):
        if self.l < 2 or self.r <= self.l:
            raise ValueError("need l >= 2 and r > l")
        if self.w < 1 or self.L < 1:
            raise ValueError("need w >= 1 and L >= 1")

    @property
    def n_positions(self) -> int:
        return 2 * self.L + 1

    def __str__(self):
        return f"coupled({self.l},{self.r},{self.L},{self.w})"


def read_key_values(text: str, where: str = "line ") -> dict[str, str]:
    """The stripped key=value pairs of `text`, one a line, skipping blank and
    '#' lines; a later key wins.  A line without '=' raises ValueError naming
    it as `where` followed by its number."""
    fields = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{where}{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        fields[key.strip()] = value.strip()
    return fields


# the keys each kind of ensemble file takes besides `kind`
_KEYS = {"regular": ("l", "r"), "irregular": ("lambda", "rho"), "coupled": ("l", "r", "L", "w")}


def parse_ensemble_config(text: str):
    """Parse the key-value ensemble file format into an EnsembleSpec or
    CoupledSpec: kind=regular with keys l, r; kind=irregular with lambda=[...]
    and rho=[...], edge-perspective coefficients indexed by degree; or
    kind=coupled with l, r, L, w.  A key the kind does not read raises
    ValueError: the size of a simulated coupled graph is not part of the
    ensemble but `simulate --m-per-position`.
    """
    fields = read_key_values(text)
    kind = fields.pop("kind", None)
    if kind not in _KEYS:
        raise ValueError(f"unknown ensemble kind {kind!r}")
    unread = sorted(fields.keys() - set(_KEYS[kind]))
    if unread:
        hint = "; the coupled graph size is simulate --m-per-position" if "M" in unread else ""
        raise ValueError(f"a {kind} ensemble takes no key {', '.join(map(repr, unread))}{hint}")
    if kind == "irregular":
        return EnsembleSpec(*(np.asarray(json.loads(fields[k]), dtype=float) for k in _KEYS[kind]))
    sizes = [int(fields[k]) for k in _KEYS[kind]]
    return regular(*sizes) if kind == "regular" else CoupledSpec(*sizes)


def named_ensemble(name: str):
    """Resolve shorthand names like reg36 / reg48 used on the command line."""
    if name.startswith("reg") and len(name) == 5 and name[3:].isdigit():
        return regular(int(name[3]), int(name[4]))
    raise KeyError(name)
