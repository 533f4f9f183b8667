"""Closed-form analytics for the jumping random walk.

Stationary distribution, steady-state jump probability, exact (conjugate
gradients, any n) and asymptotic expected hitting times to the top node,
extreme-value predictors for the largest degrees under a Pareto tail, and
the Poisson machinery behind the stopping rules.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .graph import Graph, check_k, exact_top_k
from .generators import ParetoTail
from .walk import check_alpha

_CG_RTOL = 1e-12  # hitting_time_exact's CG stops at residual norm _CG_RTOL * |w|
_CG_SLACK = 100  # iterations allowed beyond the n - 1 of exact arithmetic


class UnreachableTargetError(RuntimeError):
    """The hitting-time system is singular: some state cannot reach the target."""


@dataclass(frozen=True)
class StationaryDist:
    alpha: float
    probs: np.ndarray

    def max_prob(self) -> float:
        return float(self.probs.max())


def stationary(g: Graph, alpha: float) -> StationaryDist:
    """Stationary distribution of the walk: probs[i] = (d_i+alpha)/(2|E|+n*alpha).

    Requires alpha > 0, or alpha == 0 on a graph without isolated nodes
    (otherwise the walk's long-run distribution is undefined).
    """
    check_alpha(alpha)
    if alpha == 0.0 and (g.n == 0 or g.degrees.min() == 0):
        raise ValueError("alpha=0 with an isolated node: stationary law undefined")
    e = math.frexp(g.d_max + alpha)[1]  # units of 2**e > d_max + alpha: exact, and no overflow
    denom = math.ldexp(2.0 * g.m_edges, -e) + g.n * math.ldexp(alpha, -e)
    return StationaryDist(alpha, np.ldexp(g.degrees + alpha, -e) / denom)


def jump_probability(g: Graph, alpha: float) -> float:
    """Steady-state probability that a step is a jump: n*alpha/(2|E|+n*alpha)."""
    check_alpha(alpha)
    e = math.frexp(g.d_max + alpha)[1]  # units of 2**e, as in stationary
    jumps = g.n * math.ldexp(alpha, -e)
    return jumps / (math.ldexp(2.0 * g.m_edges, -e) + jumps) if alpha else 0.0


def expected_return_time_max(g: Graph, alpha: float) -> float:
    """Expected return time to the largest-degree node, 1/pi_max."""
    return 1.0 / stationary(g, alpha).max_prob()


def return_time_from_constants(n: float, avg_degree: float, alpha: float,
                               d_max: float) -> float:
    """Return-time formula (2|E|+n*alpha)/(d_max+alpha) with 2|E| = n*avg_degree.

    Convenience for checking published summary figures without the graph.
    """
    return (n * avg_degree + n * alpha) / (d_max + alpha)


def hitting_time_exact(g: Graph, alpha: float, target: int,
                       nu: int | np.ndarray | None = None) -> float:
    """Exact expected hitting time to `target` by conjugate gradients, any n.

    Solves (D_w - A - (alpha/n) 11^T) h = w = d + alpha, target row and column
    zeroed, by CG (Hestenes & Stiefel 1952); the walk's reversibility makes it SPD.

    Parameters
    ----------
    nu : None for the uniform initial distribution, an int for a fixed
        start node, or a length-n probability vector. Mass on the target
        contributes hitting time 0.
    """
    check_alpha(alpha)
    target = g.check_node(target, "target")
    src = np.repeat(np.arange(g.n), g.degrees)
    if alpha == 0.0:  # seen: the nodes that reach the target along edges
        seen, size = np.arange(g.n) == target, 0
        while size < seen.sum() < g.n:  # one hop further per pass
            size = seen.sum()
            seen |= np.bincount(src, seen[g.neighbors], g.n) > 0
        if g.degrees.min() == 0 or not seen.all():
            raise UnreachableTargetError(
                "unreachable target: alpha=0 and the graph does not connect "
                "every node to the target")
    # solve in units of 2**e > max(w): exact, so h is unchanged, and no huge alpha overflows
    e = math.frexp(g.d_max + alpha)[1]
    w, jump = np.ldexp(g.degrees + alpha, -e), np.ldexp(alpha, -e) / g.n

    def kernel(x):  # x[target] is 0 on every call, so only its row is zeroed
        y = w * x - np.ldexp(np.bincount(src, x[g.neighbors], g.n), -e) - jump * x.sum()
        y[target] = 0.0
        return y

    b = np.where(np.arange(g.n) == target, 0.0, w)
    h, r, p = np.zeros(g.n), b.copy(), b.copy()
    rr, tol = b @ b, _CG_RTOL ** 2 * (b @ b)
    for _ in range(g.n + _CG_SLACK):
        if rr <= tol:
            break
        kp = kernel(p)
        curv = p @ kp
        if not curv > 0.0:  # the system is singular in double precision
            break
        step = rr / curv
        h += step * p
        r -= step * kp
        rr, rr_old = r @ r, rr
        p = r + rr / rr_old * p
    if not (rr <= tol and np.isfinite(h).all() and h.min() >= 0.0
            and np.abs(kernel(h) - b).max() <= 1e-6 * w.max() * max(1.0, np.abs(h).max())):
        raise UnreachableTargetError("singular hitting-time system: solve did not converge")

    if nu is None:
        return float(h.sum() / g.n)
    if np.isscalar(nu):
        return float(h[g.check_node(nu, "start node")])
    nu = np.asarray(nu, dtype=np.float64)
    if nu.shape != (g.n,):
        raise ValueError(f"nu must have length n={g.n}")
    if not (abs(nu.sum() - 1.0) <= 1e-9 and nu.min() >= 0.0):
        raise ValueError("nu must be a probability vector")
    return float(nu @ h)


def hitting_time_asymptotic(g: Graph, alpha: float) -> float:
    """Leading-term expected hitting time to the top-degree node.

    (sum of the other degrees + (n-1)*alpha) / (d_max + 2*alpha*(1-1/n)),
    valid from any initial distribution; the vanishing remainder is not
    computed. The target is the unique max-degree node under the
    (-degree, id) tie rule.
    """
    check_alpha(alpha)
    if g.n < 2:
        raise ValueError("need at least 2 nodes")
    top = exact_top_k(g, 1)[0]
    e = math.frexp(g.d_max + alpha)[1]  # units of 2**e, as in stationary
    rest, d, a = np.ldexp([g.degrees.sum() - top.degree, top.degree, alpha], -e).tolist()
    return (rest + (g.n - 1) * a) / (d + 2.0 * a * (1.0 - 1.0 / g.n))


@dataclass(frozen=True)
class EvtPrediction:
    """Predicted largest degrees and their normalizing constants.

    d1 is the predicted maximum; dj[i] predicts the (i+2)-th largest, so
    dj covers ranks 2..k. delta = 1/gamma; a_n and b_n are the usual
    extreme-value normalizing sequences for the Pareto tail.
    """

    d1: float
    dj: np.ndarray
    delta: float
    a_n: float
    b_n: float

    def degree_at_rank(self, j: int) -> float:
        if j < 1:
            raise ValueError(f"rank must be >= 1, got {j}")
        if j == 1:
            return self.d1
        return float(self.dj[j - 2])


_MAX_VARIANTS = ("median", "mode", "mean")


def evt_predict(tail: ParetoTail, n: int, k: int,
                max_variant: str = "median") -> EvtPrediction:
    """Predict the k largest degrees of n i.i.d. Pareto-tailed draws.

    For ranks j = 2..k the prediction is the high quantile at exceedance
    (j-1)/n:  n^(1/gamma) * [C^(1/gamma) (j-1)^(-1/gamma) - C^(1/gamma) + 1].
    The maximum replaces (j-1) with a location statistic of the Frechet
    limit; the default is the median, log(2) (natural log), the variant
    flag switches to the mode or the mean, which are documented as less
    robust and are not the tested path.
    """
    gamma, c = tail.gamma, tail.c
    if gamma <= 1.0:
        raise ValueError(f"gamma must be > 1 (finite mean), got {gamma}")
    check_k(k, n)
    if not n <= sys.float_info.max:
        raise ValueError(f"n must be at most the largest float, got {n}")
    if max_variant not in _MAX_VARIANTS:
        raise ValueError(f"max_variant must be one of {_MAX_VARIANTS}")
    delta = 1.0 / gamma
    n_d = float(n) ** delta
    c_d = c ** delta
    if max_variant == "median":
        factor = math.log(2.0) ** (-delta)
    elif max_variant == "mode":
        factor = (1.0 + delta) ** (-delta)
    else:
        factor = math.gamma(1.0 - delta)
    d1 = n_d * (c_d * factor - c_d + 1.0)
    ranks = np.arange(2, k + 1, dtype=np.float64)
    dj = n_d * (c_d * (ranks - 1.0) ** (-delta) - c_d + 1.0)
    return EvtPrediction(d1=d1, dj=dj, delta=delta,
                         a_n=delta * c_d * n_d, b_n=c_d * n_d)


def poisson_error_bound(pis, m: int) -> float:
    """Upper bound on the probability of missing a true top-k node.

    2 * (1 - prod_j (1 - exp(-m * pi_j))) for the given top-k stationary
    probabilities. The raw value can exceed 1; clamp only for display.
    """
    pis = np.asarray(pis, dtype=np.float64)
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if not np.all((pis > 0.0) & (pis < 1.0)):
        raise ValueError("stationary probabilities must lie strictly in (0, 1)")
    return float(2.0 * (1.0 - np.prod(1.0 - np.exp(-float(m) * pis))))


def expected_correct_count(pis, m: int, mode: str = "exact") -> float:
    """Expected number of true top-k nodes seen in m i.i.d. samples.

    mode="exact" evaluates sum_j (1 - (1-pi_j)^m); mode="poisson" its
    Poisson approximation sum_j (1 - exp(-m*pi_j)).
    """
    pis = np.asarray(pis, dtype=np.float64)
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if mode == "exact":
        return float(np.sum(1.0 - (1.0 - pis) ** float(m)))
    if mode == "poisson":
        return float(np.sum(1.0 - np.exp(-float(m) * pis)))
    raise ValueError(f"mode must be 'exact' or 'poisson', got {mode!r}")
