"""Adaptive Simpson quadrature with kink-aware subdivision.

The covariance kernels integrated in this package are built from
|.|^{2H} terms, which have cusps where their argument vanishes.  The
integrator accepts a list of interior kink locations and splits the
domain there before recursing, so the usual error estimate stays
reliable near the singular points.
"""

from __future__ import annotations

from typing import Callable, Iterable


# Bisections of every kink-free piece before an error estimate may accept
# it; coarser 3- and 5-point Simpson sums can agree by chance.
MIN_DEPTH = 2


class QuadratureError(RuntimeError):
    """Raised when the recursion limit is hit before reaching tolerance."""


def _simpson(f: Callable[[float], float], a: float, fa: float, b: float,
             fb: float, m: float, fm: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(f, a, fa, m, fm, lm, flm)
    right = _simpson(f, m, fm, b, fb, rm, frm)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise QuadratureError(
            f"adaptive Simpson failed to converge on [{a}, {b}] "
            f"(residual {abs(err):.3e}, tol {tol:.3e})")
    return (_adaptive(f, a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1)
            + _adaptive(f, m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1))


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-9, kinks: Iterable[float] = (),
                     max_depth: int = 256) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    kinks: interior points where the integrand is non-smooth; the domain
    is split there first, each piece is cut into 2**MIN_DEPTH equal parts
    and every part gets a proportional share of the tolerance budget.
    """
    if b < a:
        return -adaptive_simpson(f, b, a, tol, kinks, max_depth)
    if a == b:
        return 0.0
    pts = [a]
    # drop kinks that would create sliver pieces too thin to integrate
    gap = 1e-9 * (b - a)
    for k in sorted(k for k in kinks if a < k < b):
        if k - pts[-1] > gap and b - k > gap:
            pts.append(k)
    pts.append(b)
    splits = 2 ** MIN_DEPTH
    pts = [lo + (hi - lo) * k / splits
           for lo, hi in zip(pts[:-1], pts[1:]) for k in range(splits)] + [b]
    fpts = [f(x) for x in pts]
    total = 0.0
    width = b - a
    for lo, hi, flo, fhi in zip(pts[:-1], pts[1:], fpts[:-1], fpts[1:]):
        piece_tol = max(tol * (hi - lo) / width, 1e-300)
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        whole = _simpson(f, lo, flo, hi, fhi, mid, fmid)
        total += _adaptive(f, lo, flo, hi, fhi, mid, fmid, whole,
                           piece_tol, max_depth)
    return total
