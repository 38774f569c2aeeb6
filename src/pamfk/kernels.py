"""Closed-form covariance kernels for the mollified fractional noise.

Everything here is deterministic: the autocovariance of the symmetric
epsilon-derivative dW_eps, the two segment integrals S2 and S3 with their
convergence bounds, the pointwise kernels f_eps / h_eps / rho, the two
path inner products, and the exact per-path variance of the difference
between the mollified integral and the rough increment sum.

All integrals of |.|^{2H}-type kernels have elementary antiderivatives;
closed forms are the default evaluation path and adaptive Simpson
quadrature is kept as an independent oracle, selectable per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fbm import HurstParameter, increment_covariance
from .quadrature import adaptive_simpson
from .walk import WalkPath, Site

QUAD_TOL = 1e-9


def _g(h: HurstParameter, s: float) -> float:
    """Antiderivative of |s|^{2H}: sgn(s) |s|^{2H+1} / (2H+1)."""
    p = h.two_h + 1.0
    return (1.0 if s >= 0 else -1.0) * abs(s) ** p / p


def _g2(h: HurstParameter, s: float) -> float:
    """Second antiderivative of |s|^{2H}: |s|^{2H+2} / ((2H+1)(2H+2))."""
    p = h.two_h
    return abs(s) ** (p + 2.0) / ((p + 1.0) * (p + 2.0))


def eps_autocov(h: HurstParameter, alpha: float, beta: float,
                epsilon: float) -> float:
    """E[dW_eps(alpha) dW_eps(beta)] at one site (cross-site is zero)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    p = h.two_h
    gamma = alpha - beta
    return (abs(gamma + 2.0 * epsilon) ** p + abs(-gamma + 2.0 * epsilon) ** p
            - 2.0 * abs(gamma) ** p) / (8.0 * epsilon ** 2)


@dataclass(frozen=True)
class SegmentKernelInput:
    """One segment [t1, t2] with the mollification width and global horizon."""

    hurst: HurstParameter
    t1: float
    t2: float
    epsilon: float
    horizon: float | None = None

    def __post_init__(self) -> None:
        if self.t1 < 0 or self.t2 <= self.t1:
            raise ValueError("need 0 <= t1 < t2")
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must be in (0, 1]")
        if self.horizon is not None and self.t2 > self.horizon:
            raise ValueError("t2 must not exceed the horizon")

    @property
    def length(self) -> float:
        return self.t2 - self.t1

    @property
    def t_max(self) -> float:
        return self.horizon if self.horizon is not None else self.t2


@dataclass(frozen=True)
class KernelEval:
    """Kernel value together with its limit and the guaranteed error bound."""

    value: float
    target: float
    bound: float

    @property
    def within_bound(self) -> bool:
        return abs(self.value - self.target) <= self.bound


def _s2_bound(h: HurstParameter, epsilon: float, t_max: float) -> float:
    p = h.two_h
    low = 4.0 * (2.0 * epsilon) ** p
    high = 2.0 ** p * (2.0 + p * t_max ** (p - 1.0)) * epsilon
    if h.h < 0.5:
        return low
    if h.h > 0.5:
        return high
    return min(low, high)


def s2(inp: SegmentKernelInput, method: str = "closed") -> KernelEval:
    """Double integral of the dW_eps autocovariance over the segment square.

    Converges to length^{2H} as epsilon goes to 0; the bound field is the
    guaranteed rate (4 (2 eps)^{2H} below H=1/2, O(eps) above).
    """
    h, eps, t = inp.hurst, inp.epsilon, inp.length
    if method == "closed":
        value = (_g2(h, t + 2 * eps) + _g2(h, t - 2 * eps)
                 - 2 * _g2(h, t) - 2 * _g2(h, 2 * eps)) / (4 * eps ** 2)
    elif method == "quad":
        def inner(s: float) -> float:
            return (_g(h, s + 2 * eps) + _g(h, s - 2 * eps)
                    - 2 * _g(h, s)) / (4 * eps ** 2)
        value = adaptive_simpson(inner, 0.0, t, tol=QUAD_TOL, kinks=[2 * eps])
    else:
        raise ValueError(f"unknown method {method!r}")
    return KernelEval(value, t ** h.two_h, _s2_bound(h, eps, inp.t_max))


def s2_alternative_bound(inp: SegmentKernelInput) -> float:
    """The H > 1/2 bound 2 t (2H+1) eps^{2H-1}, linear in the segment length."""
    return (2.0 * inp.length * (inp.hurst.two_h + 1.0)
            * inp.epsilon ** (inp.hurst.two_h - 1.0))


def s3(inp: SegmentKernelInput, method: str = "closed") -> KernelEval:
    """Cross term between the rough increment and the mollified integral.

    Also converges to length^{2H}; the bound is 2 eps^{2H} / (2H+1) for
    H <= 1/2 and (H t^{2H-1} + 1/(2H+1)) eps above, valid for eps > t too.
    """
    h, eps, t = inp.hurst, inp.epsilon, inp.length
    p = h.two_h
    if method == "closed":
        value = (_g(h, t + eps) - _g(h, t - eps) - 2 * _g(h, eps)) / (2 * eps)
    elif method == "quad":
        t1, t2 = inp.t1, inp.t2

        def integrand(theta: float) -> float:
            return (abs(t2 - theta + eps) ** p + abs(theta - t1 + eps) ** p
                    - abs(t2 - theta - eps) ** p
                    - abs(theta - t1 - eps) ** p) / (4 * eps)
        value = adaptive_simpson(integrand, t1, t2, tol=QUAD_TOL,
                                 kinks=[t2 - eps, t1 + eps])
    else:
        raise ValueError(f"unknown method {method!r}")
    if h.h <= 0.5:
        bound = 2.0 * eps ** p / (p + 1.0)
    else:
        bound = (h.h * t ** (p - 1.0) + 1.0 / (p + 1.0)) * eps
    return KernelEval(value, t ** p, bound)


def f_eps(gamma: float, h: HurstParameter, epsilon: float) -> float:
    """Second-derivative-type kernel of the mollified covariance."""
    p = h.two_h
    return (abs(gamma + 2 * epsilon) ** p + abs(gamma - 2 * epsilon) ** p
            - 2 * abs(gamma) ** p) / (4 * epsilon ** 2)


def f_eps_antiderivative(gamma: float, h: HurstParameter,
                         epsilon: float) -> float:
    return (_g(h, gamma + 2 * epsilon) + _g(h, gamma - 2 * epsilon)
            - 2 * _g(h, gamma)) / (4 * epsilon ** 2)


def h_eps(r: float, h: HurstParameter, epsilon: float) -> float:
    """Difference-quotient kernel; same eps -> 0 limit as f_eps."""
    p = h.two_h
    sgn = 1.0 if r >= epsilon else -1.0
    return p / (2 * epsilon) * (abs(r + epsilon) ** (p - 1.0)
                                - sgn * abs(r - epsilon) ** (p - 1.0))


def rho(r: float, h: HurstParameter, epsilon: float) -> float:
    """Smoothed power kernel (|r+eps|^{2H} - |r-eps|^{2H}) / (4 eps)."""
    p = h.two_h
    return (abs(r + epsilon) ** p - abs(r - epsilon) ** p) / (4 * epsilon)


@dataclass(frozen=True)
class InnerProductInput:
    """Occupation intervals of one site along a reversed path up to time s.

    intervals are the [t_i, t_{i+1}] (disjoint, ascending) on which the
    reversed path sits at the evaluation site.
    """

    hurst: HurstParameter
    epsilon: float
    s: float
    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        prev_hi = -1.0
        for lo, hi in self.intervals:
            if lo < 0 or hi <= lo or hi > self.s + 1e-12:
                raise ValueError("intervals must be ascending inside [0, s]")
            if lo < prev_hi:
                raise ValueError("intervals must be disjoint")
            prev_hi = hi

    @classmethod
    def from_reversed_path(cls, reversed_path: WalkPath, s: float,
                           site: Site, hurst: HurstParameter,
                           epsilon: float) -> "InnerProductInput":
        """Collect the occupation intervals of `site` on [0, s]."""
        intervals = []
        for lo, hi, seg_site in reversed_path.segments():
            if lo >= s:
                break
            if seg_site == tuple(site):
                intervals.append((lo, min(hi, s)))
        return cls(hurst, epsilon, s, tuple(intervals))


def inner_geX_ge(inp: InnerProductInput) -> float:
    """<g^{eps,X}, g^eps> = 1/2 sum over intervals of the f_eps integral."""
    h, eps = inp.hurst, inp.epsilon
    return 0.5 * sum(f_eps_antiderivative(hi, h, eps)
                     - f_eps_antiderivative(lo, h, eps)
                     for lo, hi in inp.intervals)


def inner_gX_ge(inp: InnerProductInput) -> float:
    """<g^X, g^eps> via the telescoping four-term display."""
    h, eps = inp.hurst, inp.epsilon
    p = h.two_h
    total = 0.0
    for lo, hi in inp.intervals:
        total += (abs(hi + eps) ** p - abs(lo + eps) ** p
                  + abs(lo - eps) ** p - abs(hi - eps) ** p) / (4 * eps)
    return total


def _aa_second_antiderivative(h: HurstParameter, eps: float,
                              gamma: float) -> float:
    """Second antiderivative of the dW_eps autocovariance kernel."""
    return (_g2(h, gamma + 2 * eps) + _g2(h, gamma - 2 * eps)
            - 2 * _g2(h, gamma)) / (8 * eps ** 2)


def _aa_term(h: HurstParameter, eps: float, a: float, b: float,
             c: float, d: float, method: str) -> float:
    """E[int_a^b dW_eps ds * int_c^d dW_eps ds] for one fBm."""
    if method == "closed":
        k2 = lambda gamma: _aa_second_antiderivative(h, eps, gamma)
        return k2(b - c) - k2(b - d) - k2(a - c) + k2(a - d)

    def outer(s: float) -> float:
        return (f_eps_antiderivative(s - c, h, eps)
                - f_eps_antiderivative(s - d, h, eps)) / 2.0
    kinks = [x + off for x in (c, d) for off in (-2 * eps, 0.0, 2 * eps)]
    return adaptive_simpson(outer, a, b, tol=QUAD_TOL, kinks=kinks)


def _ab_term(h: HurstParameter, eps: float, a: float, b: float,
             c: float, d: float, method: str) -> float:
    """E[int_a^b dW_eps ds * (W(d) - W(c))] for one fBm."""
    if method == "closed":
        g = lambda s: _g(h, s)
        return (g(b - c + eps) - g(a - c + eps)
                + g(b - d - eps) - g(a - d - eps)
                - g(b - d + eps) + g(a - d + eps)
                - g(b - c - eps) + g(a - c - eps)) / (4 * eps)

    def integrand(s: float) -> float:
        return increment_covariance(h, s + eps, s - eps, d, c) / (2 * eps)
    kinks = [x + off for x in (c, d) for off in (-eps, eps)]
    return adaptive_simpson(integrand, a, b, tol=QUAD_TOL, kinks=kinks)


def _pair_sum(path: WalkPath, term) -> float:
    """Sum of term(a, b, c, d) over ordered pairs of same-site segments.

    Fields at distinct sites are independent, so every path quadratic
    form below is this sum with its own per-pair covariance term.
    """
    total = 0.0
    for segs in path.segments_by_site().values():
        for (a, b) in segs:
            for (c, d) in segs:
                total += term(a, b, c, d)
    return total


def prop41_variance(path: WalkPath, h: HurstParameter, epsilon: float,
                    method: str = "closed") -> float:
    """Exact E| int dW_eps(s, X(s)) ds - sum of rough increments |^2.

    Gaussian quadratic form over the path's occupation segments, grouped
    by site (fields at distinct sites are independent).  method="quad"
    swaps the closed-form double integrals for adaptive quadrature and
    serves as the independent oracle.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")

    def term(a: float, b: float, c: float, d: float) -> float:
        aa = _aa_term(h, epsilon, a, b, c, d, method)
        bb = increment_covariance(h, b, a, d, c)
        ab = _ab_term(h, epsilon, a, b, c, d, method)
        return aa + bb - 2.0 * ab
    return _pair_sum(path, term)


def path_increment_variance(path: WalkPath, h: HurstParameter) -> float:
    """Variance of the rough increment sum along the path (exact)."""
    return _pair_sum(path, lambda a, b, c, d:
                     increment_covariance(h, b, a, d, c))


def smooth_integral_variance(path: WalkPath, h: HurstParameter,
                             epsilon: float, method: str = "closed") -> float:
    """Variance of the mollified integral along the path (exact)."""
    return _pair_sum(path, lambda a, b, c, d:
                     _aa_term(h, epsilon, a, b, c, d, method))


def kernel_sweep_rows(hursts: Sequence[float], epsilons: Sequence[float],
                      lengths: Sequence[float],
                      horizon: float | None = None) -> list[dict]:
    """Tabulate s2/s3 against their bounds over a parameter sweep."""
    rows = []
    for hv in hursts:
        h = HurstParameter(hv)
        for eps in epsilons:
            for t in lengths:
                inp = SegmentKernelInput(h, 0.0, t, eps, horizon)
                for name, ev in (("s2", s2(inp)), ("s3", s3(inp))):
                    rows.append({
                        "kernel": name, "H": hv, "eps": eps,
                        "t1": 0.0, "t2": t,
                        "value": ev.value, "target": ev.target,
                        "bound": ev.bound,
                        "within_bound": ev.within_bound,
                    })
    return rows
