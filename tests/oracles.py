"""Reference implementations the tests compare the package against.

They evaluate the same quantities as the production kernels pointwise and in
the most direct form, so they are slow and live here rather than in src/.
"""

import numpy as np

from macsat.channel import ChannelPoint, gauss_hermite
from macsat.gexit import INF_LLR, KERNEL_ORDER, LOG2E


def boxplus_scalar(x: float, y: float) -> float:
    """Exact two-argument box-plus, the oracle for the quantized table."""
    if x == 0.0 or y == 0.0:
        return 0.0
    if np.isinf(x):
        return y if x > 0 else -y
    if np.isinf(y):
        return x if y > 0 else -x
    s = np.sign(x) * np.sign(y)
    ax, ay = abs(x), abs(y)
    return float(s * (min(ax, ay) + np.log1p(np.exp(-(ax + ay))) - np.log1p(np.exp(-abs(ax - ay)))))


def lift(u: float, v: float) -> np.ndarray:
    """Extrinsic pair (u, v) lifted to the posterior 4-vector over symbols."""
    su = 1.0 / (1.0 + np.exp(-u))
    sv = 1.0 / (1.0 + np.exp(-v))
    return np.array([su * sv, su * (1 - sv), (1 - su) * sv, (1 - su) * (1 - sv)])


def gexit_kernel(x: int, u: float, v: float, ch: ChannelPoint, order: int = KERNEL_ORDER) -> float:
    """Kernel kappa_x(u, v) at one point, the oracle for the kernel lattice:
    quadrature of dp/dalpha against the posterior log ratio.

    The term -log2(lift[x]) is constant in y and integrates against dp/dalpha
    to exactly zero (the quadrature nodes are symmetric), so it is dropped;
    this also gives the correct analytic limit when lift[x] = 0 at infinite
    extrinsic LLRs.
    """
    uu = np.clip(u, -INF_LLR, INF_LLR)
    vv = np.clip(v, -INF_LLR, INF_LLR)
    y_off, w = gauss_hermite(order)
    mu = ch.means()
    s = ch.slopes()
    y = mu[x] + y_off
    g = -0.5 * (y[:, None] - mu[None, :]) ** 2  # (Q, 4)
    lse = np.logaddexp(
        np.logaddexp(uu + vv + g[:, 0], uu + g[:, 1]),
        np.logaddexp(vv + g[:, 2], g[:, 3]),
    )
    log_z = np.logaddexp(0.0, uu) + np.logaddexp(0.0, vv)
    integrand = (lse - log_z - g[:, x]) * LOG2E
    return float((w * y_off * s[x]) @ integrand)
