"""Diffusion-matrix algebra for the six p-Laplace-type operator families.

Every family produces matrices of the rank-one-update form

    A(xi) = s * I + c * (xi ⊗ xi) / |xi|^2,

so eigenvalues are {s + c (along xi), s (transverse)} and the symmetric PSD
square root is closed-form:

    A(xi)^{1/2} = sqrt(s) * I + (sqrt(s + c) - sqrt(s)) * (xi ⊗ xi)/|xi|^2.

The coefficient pair (s, c) per family; a regularized row at eps = 0 is the
singular member, and the solver's singular-gradient nodes take eps = eps_num:

    normalized          s = 1                        c = (p-2)
    variational         s = |xi|^{p-2}               c = (p-2) s
    general (p, p')     s = |xi|^{p'-2}              c = (p-2) s
    regularized (p, p') s = w^{(p'-2)/2}             c = s (p-2) |xi|^2 / w,   w = |xi|^2 + eps^2
    biased infinity     s = 0                        c = 1
    biased inf. (reg.)  s = eps1                     c = |xi|^2 / (|xi|^2 + eps1^2)

Spectral norms of square-root differences (the closeness gap between two
members evaluated at the same gradient) follow from the same structure and
never need an eigensolver.

The biased members also carry the first-order coefficients a and eps2 of
a sqrt(|xi|^2 + eps2^2); the source f of the first-order term belongs to the
problem (``evolve.Problem.source``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import SingularGradientError


class Family(Enum):
    NORMALIZED = "normalized"
    VARIATIONAL = "variational"
    GENERAL_PQ = "general_pq"
    REGULARIZED_PQ = "regularized_pq"
    BIASED_INFINITY = "biased_infinity"
    BIASED_INFINITY_REGULARIZED = "biased_infinity_regularized"


_BIASED = (Family.BIASED_INFINITY, Family.BIASED_INFINITY_REGULARIZED)

# the OperatorSpec fields each family reads (the module table's parameters and
# the biased families' first-order a, eps2)
_READS = {
    Family.NORMALIZED: ("p",),
    Family.VARIATIONAL: ("p",),
    Family.GENERAL_PQ: ("p", "p_prime"),
    Family.REGULARIZED_PQ: ("p", "p_prime", "eps"),
    Family.BIASED_INFINITY: ("a",),
    Family.BIASED_INFINITY_REGULARIZED: ("a", "eps1", "eps2"),
}


class PerturbationAxis(Enum):
    """Which struct field a closeness sweep perturbs.

    P and P_PRIME shift the exponent by the sweep value (perturbed = base +
    value); EPS and EPS1_EPS2 set the regularization parameter(s) to the sweep
    value directly, with the base member at zero.
    """

    P = "p"
    P_PRIME = "p_prime"
    EPS = "eps"
    EPS1_EPS2 = "eps1_eps2"


# the fields each axis adds its value to, and whether the base member must
# hold them at 0 (the regularizations, which the value then sets); an axis
# applies to the families that read all of its fields (``_READS``)
_AXIS_FIELDS = {
    PerturbationAxis.P: (("p",), False),
    PerturbationAxis.P_PRIME: (("p_prime",), False),
    PerturbationAxis.EPS: (("eps",), True),
    PerturbationAxis.EPS1_EPS2: (("eps1", "eps2"), True),
}


@dataclass(frozen=True)
class OperatorSpec:
    """One member of the diffusion family.

    ``a`` and ``eps2`` are the coefficients of the first-order term
    a sqrt(|xi|^2 + eps2^2). A family reads only its fields in ``_READS``;
    every other field must keep its default.
    """

    family: Family
    p: float = 2.0
    p_prime: float = 2.0
    eps: float = 0.0
    eps1: float = 0.0
    eps2: float = 0.0
    a: float = 0.0

    def __post_init__(self):
        f = self.family
        for fld in fields(self)[1:]:  # after the family
            value = getattr(self, fld.name)
            if not math.isfinite(value):
                raise ValueError(f"{fld.name} must be finite, got {value}")
            if fld.name not in _READS[f] and value != fld.default:
                raise ValueError(f"{f.value} does not read {fld.name}; it must keep its "
                                 f"default {fld.default}, got {value}")
        if f in (Family.NORMALIZED, Family.REGULARIZED_PQ):
            if self.p < 1:
                raise ValueError(f"{f.value} requires p >= 1, got {self.p}")
        elif f in (Family.VARIATIONAL, Family.GENERAL_PQ):
            if self.p <= 1:
                raise ValueError(f"{f.value} requires p > 1, got {self.p}")
        if f is Family.GENERAL_PQ and self.p_prime <= 1:
            raise ValueError(f"general_pq requires p' > 1, got {self.p_prime}")
        if f is Family.REGULARIZED_PQ:
            if self.p_prime < 2:
                raise ValueError(f"regularized_pq requires p' >= 2, got {self.p_prime}")
            if self.eps < 0:
                raise ValueError("eps must be >= 0")
        if f is Family.BIASED_INFINITY_REGULARIZED and (self.eps1 < 0 or self.eps2 < 0):
            raise ValueError("eps1, eps2 must be >= 0")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def normalized(p: float, **kw) -> "OperatorSpec":
        return OperatorSpec(Family.NORMALIZED, p=p, **kw)

    @staticmethod
    def variational(p: float, **kw) -> "OperatorSpec":
        return OperatorSpec(Family.VARIATIONAL, p=p, **kw)

    @staticmethod
    def general_pq(p: float, p_prime: float, **kw) -> "OperatorSpec":
        return OperatorSpec(Family.GENERAL_PQ, p=p, p_prime=p_prime, **kw)

    @staticmethod
    def regularized_pq(p: float, p_prime: float, eps: float, **kw) -> "OperatorSpec":
        return OperatorSpec(Family.REGULARIZED_PQ, p=p, p_prime=p_prime, eps=eps, **kw)

    @staticmethod
    def biased_infinity(a: float = 0.0, **kw) -> "OperatorSpec":
        return OperatorSpec(Family.BIASED_INFINITY, a=a, **kw)

    @staticmethod
    def biased_infinity_regularized(a: float, eps1: float, eps2: float, **kw) -> "OperatorSpec":
        return OperatorSpec(
            Family.BIASED_INFINITY_REGULARIZED, a=a, eps1=eps1, eps2=eps2, **kw
        )

    # -- structural properties --------------------------------------------

    @property
    def regularization(self) -> float:
        """The eps of the module table's regularized row: eps, or eps1 (0 for
        the families without one)."""
        return self.eps if self.family is Family.REGULARIZED_PQ else self.eps1

    @property
    def everywhere_defined(self) -> bool:
        """True when A extends continuously to xi = 0."""
        return self.regularization > 0

    @property
    def growth_exponent(self) -> float:
        """Exponent p'_eff with |A(xi)| ~ |xi|^{p'_eff - 2} at large and small |xi|."""
        if self.family is Family.VARIATIONAL:
            return self.p
        if self.family in (Family.GENERAL_PQ, Family.REGULARIZED_PQ):
            return self.p_prime
        return 2.0


# the ufunc ``x ** e`` takes for these scalar exponents e (numpy's fast path);
# np.power need not round as it does
_POWER_UFUNCS = {0.5: np.sqrt, 2.0: np.square}


def _power(base, e: float, out):
    """base ** e, into ``out`` when it is given."""
    if out is None:
        return base ** e
    ufunc = _POWER_UFUNCS.get(e)
    return ufunc(base, out=out) if ufunc is not None else np.power(base, e, out=out)


def rank_one_coeff_arrays(spec: OperatorSpec, r2, out=None, eps=None, work=None, params=None):
    """(s, c) with A = s I + c P(xi) at squared magnitudes r2 = |xi|^2, for
    ``spec``'s family at regularization ``eps`` (None: ``spec.regularization``).

    eps > 0 is the module table's regularized row with p' the growth exponent:
    defined at r2 = 0, s one Python float where it is one at every r2. eps = 0
    is the singular member, for r2 > 0 only. c is computed into ``out`` and
    a table s and the temporaries into the pair of arrays ``work``, where
    given (a float s leaves the first array to a temporary); otherwise into
    new arrays, or numpy scalars for a Python float r2.

    ``params`` = (eps, eps * eps, p - 2), each a float or an array of r2's
    shape, gives the values the formula reads, for a batch of members that
    take ``spec``'s branches at ``eps``; None takes them from ``spec`` and
    ``eps``. So the branches are taken once for the whole batch.
    """
    if eps is None:
        eps = spec.regularization
    eps_v, eps_sq, p2 = (eps, eps * eps, spec.p - 2.0) if params is None else params
    s_out, w_out = (None, None) if work is None else work
    if eps > 0.0:
        if spec.family in _BIASED:
            return eps_v, np.divide(r2, np.add(r2, eps_sq, out=out), out=out)
        w = np.add(r2, eps_sq, out=w_out)
        if spec.growth_exponent == 2.0:  # s = w ** 0 = 1, so c = (p - 2) r2 / w
            return 1.0, np.divide(np.multiply(r2, p2, out=s_out), w, out=out)
        s = _power(w, (spec.growth_exponent - 2.0) / 2.0, s_out)
        c = np.multiply(s, p2, out=out)
        return s, np.divide(np.multiply(c, r2, out=out), w, out=out)
    if spec.family in _BIASED:  # c = r2 / r2 = 1
        s = np.empty_like(r2) if s_out is None else s_out
        c = np.empty_like(r2) if out is None else out
        s[...], c[...] = 0.0, 1.0
        return s, c
    s = _power(r2, (spec.growth_exponent - 2.0) / 2.0, s_out)  # exactly 1 at growth exponent 2
    return s, np.multiply(s, p2, out=out)


def rank_one_coeffs(spec: OperatorSpec, r2: float) -> tuple[float, float]:
    """``rank_one_coeff_arrays`` at one squared magnitude r2 = |xi|^2.

    r2 = 0 is admitted only for everywhere-defined members (there c = 0).
    """
    if r2 < 0:
        raise ValueError("r2 must be >= 0")
    if r2 == 0.0 and not spec.everywhere_defined:
        raise SingularGradientError(f"{spec.family.value} operator is singular at xi = 0")
    s, c = rank_one_coeff_arrays(spec, float(r2))
    return float(s), float(c)


def _as_xi(xi) -> np.ndarray:
    v = np.asarray(xi, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size not in (1, 2, 3):
        raise ValueError("xi must be a vector of dimension 1, 2 or 3")
    return v


def _assemble(v: np.ndarray, s: float, c: float, r2: float) -> np.ndarray:
    n = v.size
    out = s * np.eye(n)
    if c != 0.0 and r2 > 0.0:
        out += (c / r2) * np.outer(v, v)
    return out


def diffusion_matrix(spec: OperatorSpec, xi) -> np.ndarray:
    """A(xi): symmetric PSD n x n diffusion matrix of the family member."""
    v = _as_xi(xi)
    r2 = float(v @ v)
    s, c = rank_one_coeffs(spec, r2)
    return _assemble(v, s, c, r2)


def _sqrt_eigenvalues(spec: OperatorSpec, r2: float) -> tuple[float, float]:
    """The eigenvalues (sqrt(s), sqrt(s + c)) of A(xi)^{1/2} at r2 = |xi|^2,
    transverse and along xi."""
    s, c = rank_one_coeffs(spec, r2)
    return math.sqrt(max(s, 0.0)), math.sqrt(max(s + c, 0.0))


def sqrt_matrix(spec: OperatorSpec, xi) -> np.ndarray:
    """Closed-form symmetric PSD square root of ``diffusion_matrix``."""
    v = _as_xi(xi)
    r2 = float(v @ v)
    rs, rsc = _sqrt_eigenvalues(spec, r2)
    return _assemble(v, rs, rsc - rs, r2)


def c1_gap(spec_a: OperatorSpec, spec_b: OperatorSpec, xi) -> float:
    """Spectral norm of sqrt(A_a(xi)) - sqrt(A_b(xi)).

    Both square roots share the eigenbasis {xi-direction, its complement}, so
    the norm is the larger of the two eigenvalue gaps; in dimension one only
    the xi-direction exists.
    """
    v = _as_xi(xi)
    r2 = float(v @ v)
    trans_a, along_a = _sqrt_eigenvalues(spec_a, r2)
    trans_b, along_b = _sqrt_eigenvalues(spec_b, r2)
    along = abs(along_a - along_b)
    return along if v.size == 1 else max(along, abs(trans_a - trans_b))


def perturb_spec(spec: OperatorSpec, axis: PerturbationAxis, value: float) -> OperatorSpec:
    """The family member at perturbation ``value`` along ``axis`` (see enum doc)."""
    if value <= 0:
        raise ValueError("perturbation value must be > 0")
    names, from_zero = _AXIS_FIELDS[axis]
    label = "/".join(names)
    if not set(names) <= set(_READS[spec.family]):
        raise ValueError(f"{label} perturbation needs a family that reads {label}, "
                         f"got {spec.family.value}")
    if from_zero and any(getattr(spec, name) != 0.0 for name in names):
        raise ValueError(f"{label} sweep requires the base member at {' = '.join(names)} = 0")
    return replace(spec, **{name: getattr(spec, name) + value for name in names})


# -- closeness certification ------------------------------------------------


@dataclass(frozen=True)
class C1Params:
    """Candidate closeness envelope gap <= c_A * eps^alpha * (1 + |xi|^beta).

    ``k`` is the test-function exponent; the admissible window for beta is
    beta > (2 - k) / (2 (k - 1)).
    """

    alpha: float
    beta: float
    c_A: float
    k: float = 4.0

    def __post_init__(self):
        for fld in fields(self):
            if not math.isfinite(value := getattr(self, fld.name)):
                raise ValueError(f"{fld.name} must be finite, got {value}")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.c_A < 0:
            raise ValueError("c_A must be >= 0")
        if self.k <= 2:
            raise ValueError("k must be > 2")
        if self.beta <= (2.0 - self.k) / (2.0 * (self.k - 1.0)):
            raise ValueError(
                f"beta = {self.beta} violates beta > (2-k)/(2(k-1)) = "
                f"{(2.0 - self.k) / (2.0 * (self.k - 1.0)):.6g}"
            )


@dataclass(frozen=True)
class C1CertifyReport:
    max_ratio: float
    worst_xi: np.ndarray
    worst_eps: float
    passed: bool


def c1_certify(
    base_spec: OperatorSpec,
    axis: PerturbationAxis,
    eps_list: Iterable[float],
    xi_mags: Iterable[float],
    candidate: C1Params,
    dim: int = 2,
) -> C1CertifyReport:
    """Scan gap / (eps^alpha (1 + |xi|^beta)) over a perturbation and xi grid.

    ``c1_gap`` depends on xi only through |xi| (and on whether dim = 1), so
    one direction, xi = m e_1 in R^dim, covers every magnitude m.
    Passes iff the maximal ratio stays below the candidate constant c_A.
    """
    mags = np.asarray(list(xi_mags), dtype=float)
    if mags.size == 0 or not np.all(np.isfinite(mags) & (mags > 0)):
        raise ValueError("xi magnitudes must be a nonempty list of finite positive values")
    eps_list = [float(eps) for eps in eps_list]
    if not eps_list:
        raise ValueError("eps list must be nonempty")
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    e1 = np.eye(dim)[0]
    worst = (-1.0, None, None)
    for eps in eps_list:
        spec_eps = perturb_spec(base_spec, axis, eps)
        denom_eps = eps ** candidate.alpha
        for m in mags:
            xi = m * e1
            ratio = c1_gap(spec_eps, base_spec, xi) / (denom_eps * (1.0 + m ** candidate.beta))
            if ratio > worst[0] or math.isnan(ratio):  # a NaN ratio fails
                worst = (ratio, xi, eps)
    max_ratio, worst_xi, worst_eps = worst
    return C1CertifyReport(
        max_ratio=float(max_ratio),
        worst_xi=worst_xi,
        worst_eps=float(worst_eps),
        passed=bool(max_ratio <= candidate.c_A),
    )
