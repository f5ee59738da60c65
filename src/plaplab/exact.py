"""Closed-form reference solutions and residual verifiers.

Five solution families:

* heat mode: u(x, t) = exp((1-p) t) sin x, the one-dimensional reduction of
  the normalized p-diffusion with sine initial data;
* the self-similar source-type solution of the parabolic p-Laplace equation
  (compactly supported for p > 2, full support for subquadratic p);
* the radial eigenfunction u(x) = |x|^{(p+1)/(p-1)} of
  lam_p u^{(p-1)/(p+1)} = Delta_p u on the unit ball;
* the radial torsion profile solving -Delta_p v = c with constant boundary
  values;
* the fundamental profile |x|^{(p-n)/(p-1)}, p-harmonic off the origin for
  p > n.

Residuals plug either exact radial derivatives (analytic mode, identically
zero up to rounding) or second-order difference quotients at spacing h
(discrete mode, defect O(h^2)) into the governing equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import PlapError


class SolutionId(Enum):
    HEAT_MODE = "heat_mode"
    BARENBLATT = "barenblatt"
    RADIAL_ELLIPTIC = "radial_elliptic"
    TORSION_RADIAL = "torsion"
    FUNDAMENTAL = "fundamental"


class SingularPointError(PlapError, ValueError):
    """Residual requested inside the solution's singular set: a usage error."""


@dataclass(frozen=True)
class ExactSolution:
    """One closed-form solution. Only the self-similar solution reads ``A`` and
    only the torsion profile ``c``; another solution must keep each at 1. Heat
    mode, the one-dimensional mode sin x, reads no dimension ``n`` and must
    keep it at 1. Only heat mode and the self-similar solution read a time t
    (``reads_time``); an elliptic profile rejects a time other than the
    default of ``eval``, ``eval_radial`` and ``residual``."""

    id: SolutionId
    p: float
    n: int = 1
    A: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        for name in ("p", "A", "c"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value}")
        sid = self.id
        for name, reads in (("A", sid is SolutionId.BARENBLATT),
                            ("c", sid is SolutionId.TORSION_RADIAL),
                            ("n", sid is not SolutionId.HEAT_MODE)):
            if not reads and (value := getattr(self, name)) != 1:
                raise ValueError(f"{sid.value} does not read {name}; it must keep its "
                                 f"default 1, got {value}")
        if self.n not in (1, 2, 3):
            raise ValueError(f"n must be 1, 2 or 3, got {self.n}")
        if sid is SolutionId.HEAT_MODE and self.p < 1:
            raise ValueError("heat mode requires p >= 1")
        if sid is SolutionId.BARENBLATT:
            crit = 2.0 * self.n / (self.n + 1.0)
            if self.p <= crit:
                raise ValueError(f"requires p > 2n/(n+1) = {crit:.6g}, got {self.p}")
            if self.p == 2.0:
                raise ValueError("requires p != 2 (the p = 2 member is the Gaussian)")
            if self.A <= 0:
                raise ValueError("requires A > 0")
        if sid in (SolutionId.RADIAL_ELLIPTIC, SolutionId.TORSION_RADIAL) and self.p <= 1:
            raise ValueError("requires p > 1")
        if sid is SolutionId.TORSION_RADIAL and self.c <= 0:
            raise ValueError("torsion requires c > 0")
        if sid is SolutionId.FUNDAMENTAL and self.p <= self.n:
            raise ValueError(f"fundamental profile requires p > n, got p={self.p}, n={self.n}")

    @property
    def reads_time(self) -> bool:
        return self.id in (SolutionId.HEAT_MODE, SolutionId.BARENBLATT)

    def _check_time(self, t, default) -> None:
        """The time rules of every evaluation: a solution that reads no time
        takes only the default (an error, not ignored), and heat mode no
        negative time."""
        if t != default and not self.reads_time:
            raise ValueError(f"{self.id.value} does not read t; only heat-mode and barenblatt do")
        if self.id is SolutionId.HEAT_MODE and t is not None and t < 0:
            raise ValueError("t must be >= 0")

    # -- derived constants --------------------------------------------------

    @property
    def lambda_p(self) -> float:
        if self.id is SolutionId.BARENBLATT:
            return self.n * (self.p - 2.0) + self.p
        if self.id is SolutionId.RADIAL_ELLIPTIC:
            return (self.n + 1.0) * ((self.p + 1.0) / (self.p - 1.0)) ** (self.p - 1.0)
        raise ValueError(f"lambda_p undefined for {self.id.value}")

    @property
    def gamma_p(self) -> float:
        """Sign encodes the regime: > 0 below p = 2, < 0 above."""
        return (2.0 - self.p) / self.p * self.lambda_p ** (1.0 / (1.0 - self.p))

    def support_radius(self, t: float) -> float:
        """Free-boundary radius at time t (infinite in the fast-diffusion range)."""
        if self.id is not SolutionId.BARENBLATT:
            raise ValueError("support radius applies to the self-similar solution")
        if self.p < 2.0:
            return math.inf
        g = self.gamma_p
        return t ** (1.0 / self.lambda_p) * (self.A / abs(g)) ** ((self.p - 1.0) / self.p)

    # -- evaluation ----------------------------------------------------------

    def eval(self, x, t: float = 0.0) -> float:
        """Exact value at a point x (scalar in 1D or length-n vector)."""
        return float(self.eval_radial(np.array([self._radius(x)]), t)[0])

    def _radius(self, x) -> float:
        """The radius of a point x (scalar in 1D or length-n vector); in heat
        mode, which has no singular set, its signed first coordinate."""
        v = np.atleast_1d(np.asarray(x, dtype=float))
        return float(v[0] if self.id is SolutionId.HEAT_MODE else np.linalg.norm(v))

    def eval_radial(self, r: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Vectorized value from the radius (an elliptic profile takes no time)."""
        self._check_time(t, 0.0)
        r = np.asarray(r, dtype=float)
        sid = self.id
        if sid is SolutionId.HEAT_MODE:
            return np.exp((1.0 - self.p) * t) * np.sin(r)
        if sid is SolutionId.BARENBLATT:
            if t <= 0:
                raise ValueError("self-similar solution needs t > 0")
            lam, _, kappa, _, _, base = self._similarity(r, t)
            return t ** (-self.n / lam) * np.where(base > 0.0, base, 0.0) ** kappa
        coef, a = self._power_law()
        return coef * r ** a

    def _similarity(self, r, t: float):
        """(lam, m, kappa, gamma, s, H) of the self-similar solution at radius r
        and time t: the similarity variable s = r t^(-1/lam) and the profile's
        base H = A + gamma s^m, so that u = t^(-n/lam) max(H, 0)^kappa."""
        lam, g = self.lambda_p, self.gamma_p
        m, kappa = self.p / (self.p - 1.0), (self.p - 1.0) / (self.p - 2.0)
        s = r * t ** (-1.0 / lam)
        return lam, m, kappa, g, s, self.A + g * s ** m

    def _power_law(self) -> tuple[float, float]:
        """(coef, a) of the elliptic profiles u = coef * r**a: the radial
        eigenfunction, the torsion profile and the fundamental profile."""
        p = self.p
        if self.id is SolutionId.RADIAL_ELLIPTIC:
            return 1.0, (p + 1.0) / (p - 1.0)
        if self.id is SolutionId.TORSION_RADIAL:
            return -(p - 1.0) / p * (self.c / self.n) ** (1.0 / (p - 1.0)), p / (p - 1.0)
        return 1.0, (p - self.n) / (p - 1.0)


def _radial_plaplacian(p: float, n: int, r: float, u1: float, u2: float) -> float:
    """Delta_p of a radial profile from u'(r), u''(r), valid where u' != 0."""
    lower = (n - 1.0) * u1 / r if n > 1 else 0.0
    return abs(u1) ** (p - 2.0) * ((p - 1.0) * u2 + lower)


def _barenblatt_derivatives(sol: ExactSolution, r: float, t: float):
    """(u_t, u_r, u_rr) inside the positivity set, r > 0."""
    lam, m, kappa, g, s, H = sol._similarity(r, t)
    if H <= 0:
        raise SingularPointError(f"point outside the support: |x| = {r:.6g}, "
                                 f"support radius {sol.support_radius(t):.6g}")
    tn = t ** (-sol.n / lam)
    u_r = tn * t ** (-1.0 / lam) * kappa * g * m * s ** (m - 1.0) * H ** (kappa - 1.0)
    u_rr = tn * t ** (-2.0 / lam) * kappa * g * m * (
        (m - 1.0) * s ** (m - 2.0) * H ** (kappa - 1.0)
        + (kappa - 1.0) * g * m * s ** (2.0 * m - 2.0) * H ** (kappa - 2.0)
    )
    u_t = (-sol.n / lam) * tn / t * H ** kappa - tn / (lam * t) * kappa * g * m * s ** m * H ** (
        kappa - 1.0
    )
    return u_t, u_r, u_rr


def _check_clearance(sol: ExactSolution, r: float, t: Optional[float], clearance: float):
    """The checks of a residual's point and time, in both modes."""
    if not (math.isfinite(clearance) and clearance > 0):
        raise ValueError(f"clearance must be > 0 and finite, got {clearance}")
    sol._check_time(t, None)
    if sol.id is SolutionId.HEAT_MODE:
        return
    if r < clearance:
        raise SingularPointError(f"|x| = {r:.3g} inside clearance {clearance:.3g} of the origin")
    if sol.id is SolutionId.BARENBLATT:
        if t is None or t <= 0:
            raise ValueError("self-similar solution needs t > 0")
        if sol.p > 2.0 and abs((edge := sol.support_radius(t)) - r) < clearance:
            raise SingularPointError(f"point inside clearance {clearance:.3g} of the free "
                                     f"boundary: |x| = {r:.6g}, support radius {edge:.6g}")


def residual(
    sol: ExactSolution,
    x,
    t: Optional[float] = None,
    mode: str = "analytic",
    h: Optional[float] = None,
    clearance: float = 1e-3,
) -> float:
    """Defect of the exact solution in its governing equation at one point.

    ``analytic`` plugs exact derivatives (must vanish to rounding);
    ``discrete`` plugs central difference quotients at spacing h and is
    second-order accurate. The point must keep ``clearance`` distance from the
    solution's singular set (origin for the radial profiles, additionally the
    free boundary for the compactly supported self-similar solution).
    """
    r = sol._radius(x)
    _check_clearance(sol, abs(r), t, clearance)
    if mode == "analytic":
        return _residual_analytic(sol, r, t)
    if mode != "discrete":
        raise ValueError("mode must be 'analytic' or 'discrete'")
    if h is None or not (math.isfinite(h) and h > 0):
        raise ValueError(f"discrete mode needs a spacing h > 0 and finite, got {h}")
    if sol.id is not SolutionId.HEAT_MODE and h >= clearance:
        raise ValueError("stencil spacing must stay below the clearance")
    return _residual_discrete(sol, r, t, h)


def _governing_defect(sol: ExactSolution, r, t, u, u_t, u1, u2) -> float:
    p, n = sol.p, sol.n
    sid = sol.id
    if sid is SolutionId.HEAT_MODE:
        return u_t - (p - 1.0) * u2
    dp = _radial_plaplacian(p, n, r, u1, u2)
    if sid is SolutionId.BARENBLATT:
        return u_t - dp
    if sid is SolutionId.RADIAL_ELLIPTIC:
        return sol.lambda_p * u ** ((p - 1.0) / (p + 1.0)) - dp
    if sid is SolutionId.TORSION_RADIAL:
        return -dp - sol.c
    return -dp  # fundamental profile: p-harmonic


def _residual_analytic(sol: ExactSolution, r: float, t) -> float:
    if sol.id is SolutionId.HEAT_MODE:  # r is the signed coordinate
        tt = 0.0 if t is None else t
        u = sol.eval(r, tt)  # u_t = (1 - p) u and u_xx = -u
        return _governing_defect(sol, r, tt, u, (1.0 - sol.p) * u, None, -u)
    if sol.id is SolutionId.BARENBLATT:
        u_t, u1, u2 = _barenblatt_derivatives(sol, r, t)
        return _governing_defect(sol, r, t, None, u_t, u1, u2)
    coef, a = sol._power_law()
    u1, u2 = coef * a * r ** (a - 1.0), coef * a * (a - 1.0) * r ** (a - 2.0)
    return _governing_defect(sol, r, t, coef * r ** a, None, u1, u2)


def _residual_discrete(sol: ExactSolution, r: float, t, h: float) -> float:
    def val(rr, tt):
        return float(sol.eval_radial(np.array([rr]), 0.0 if tt is None else tt)[0])

    u0 = val(r, t)
    up, um = val(r + h, t), val(r - h, t)
    u1 = (up - um) / (2.0 * h)
    u2 = (up - 2.0 * u0 + um) / (h * h)
    u_t = None
    if sol.id in (SolutionId.HEAT_MODE, SolutionId.BARENBLATT):
        tt = 0.0 if t is None else t
        if sol.id is SolutionId.BARENBLATT and tt - h <= 0:
            raise ValueError("time stencil leaves t > 0; increase t or decrease h")
        if tt - h >= 0:
            u_t = (val(r, tt + h) - val(r, tt - h)) / (2.0 * h)
        else:
            u_t = (val(r, tt + h) - val(r, tt)) / h  # first order within h of t = 0
    return _governing_defect(sol, r, t, u0, u_t, u1, u2)


# -- closed-form sup differences ----------------------------------------------


def sup_diff_closed_form(sol1: ExactSolution, sol2: ExactSolution, points, times) -> float:
    """max |u_1 - u_2| over the product of ``points`` (coordinates in heat mode,
    radii otherwise) and ``times``; neither may be empty."""
    if sol1.id is not sol2.id:
        raise ValueError("solutions must belong to the same family")
    pts = np.asarray(points, float)
    times = tuple(float(t) for t in times)
    if not (pts.size and times):
        raise ValueError("need nonempty point and time sets")
    best = 0.0
    for t in times:
        d = np.max(np.abs(sol1.eval_radial(pts, t) - sol2.eval_radial(pts, t)))
        best = max(best, float(d))
    return best
