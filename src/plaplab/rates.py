"""Predicted sup-norm convergence exponents for each operator family.

The master exponent is

    nu = alpha * theta / (1 + (1 - theta) * max(beta, 0)),

where theta is the equi-Hoelder exponent of the solution family and
(alpha, beta) the closeness envelope parameters. Every case is a window
(alpha, beta) of this formula, and ``family_rate`` evaluates each one through
``theoretical_rate``, the formula's one statement; a case whose window is open
reports the supremum, at the window's end point, with ``attained=False``, and
the empirical comparison then only checks the one-sided bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import CaseNotApplicableError


class FamilyCase(Enum):
    NORMALIZED = "normalized"
    VARIATIONAL_SINGULAR = "variational_singular"        # p < 2, q <= 2
    VARIATIONAL_DEGENERATE = "variational_degenerate"    # p > 2, q >= 2
    GENERAL_PQ_SINGULAR = "general_pq_singular"          # p' < 2, q' <= 2
    GENERAL_PQ_DEGENERATE = "general_pq_degenerate"      # p' > 2, q' >= 2
    GENERAL_PQ_MATCHED = "general_pq_matched"            # p' = q'
    REGULARIZED = "regularized"                          # eps -> 0, p' >= 2
    BIASED_INFINITY = "biased_infinity"                  # eps1 -> 0


# the variational and general (p, p') cases read one exponent pair each: the
# prime that marks it ("" for (p, q), "'" for (p', q')), and the singular
# case's rate detail (None for a degenerate case)
_PAIRED = {
    FamilyCase.VARIATIONAL_SINGULAR: ("", "rate |p-q|^theta (beta < 0 window)"),
    FamilyCase.VARIATIONAL_DEGENERATE: ("", None),
    FamilyCase.GENERAL_PQ_SINGULAR: ("'", "rate (|p-q|+|p'-q'|)^theta"),
    FamilyCase.GENERAL_PQ_DEGENERATE: ("'", None),
}


# the parameters of ``family_rate`` each case reads (a paired case its pair, in
# order); another one given is an error
_READS = {FamilyCase.NORMALIZED: ("p", "q"), FamilyCase.GENERAL_PQ_MATCHED: ("q_prime",),
          FamilyCase.REGULARIZED: ("p", "p_prime", "m"), FamilyCase.BIASED_INFINITY: ("m",)}
_READS |= {case: ("p_prime", "q_prime") if mark else ("p", "q")
           for case, (mark, _) in _PAIRED.items()}


@dataclass(frozen=True)
class RatePrediction:
    nu_sup: float
    attained: bool
    case: FamilyCase
    detail: str = ""


def theoretical_rate(alpha: float, beta: float, theta: float) -> float:
    """nu = alpha*theta / (1 + (1-theta) max(beta, 0))."""
    _check_finite(alpha=alpha, beta=beta, theta=theta)
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if not (0.0 < theta <= 1.0):
        raise ValueError("theta must lie in (0, 1]")
    return alpha * theta / (1.0 + (1.0 - theta) * max(beta, 0.0))


def _check_finite(**values: Optional[float]) -> None:
    """A parameter that is given must be finite: no case's window holds an
    infinite or NaN one, and the formulas would return NaN for it."""
    bad = [f"{k} = {v}" for k, v in values.items() if v is not None and not math.isfinite(v)]
    _require(not bad, f"parameters must be finite, got {', '.join(bad)}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CaseNotApplicableError(msg)


def family_rate(
    case: FamilyCase,
    *,
    theta: float,
    p: Optional[float] = None,
    q: Optional[float] = None,
    p_prime: Optional[float] = None,
    q_prime: Optional[float] = None,
    m: Optional[float] = None,
) -> RatePrediction:
    """Predicted exponent for one rate-theorem case.

    ``m`` is the free Young-inequality parameter of the regularization cases;
    when omitted, the supremum over its admissible interval is returned (and
    flagged as an open bound). A case reads only its parameters in ``_READS``;
    another one given is an error.
    """
    given = {"p": p, "q": q, "p_prime": p_prime, "q_prime": q_prime, "m": m}
    _check_finite(theta=theta, **given)
    _require(0.0 < theta <= 1.0, "theta must lie in (0, 1]")
    _require(case in _READS, f"unknown case {case}")
    unread = [k for k, v in given.items() if v is not None and k not in _READS[case]]
    _require(not unread, f"{case.value} does not read {', '.join(unread)}")

    alpha, beta, attained, detail = _window(case, theta, given)
    return RatePrediction(theoretical_rate(alpha, beta, theta), attained, case, detail)


def _window(case: FamilyCase, theta: float, given: dict) -> tuple[float, float, bool, str]:
    """The case's window (alpha, beta) of the master exponent, whether its rate
    is attained, and the rate's detail; a parameter outside the case's
    validity window is an error."""
    p, q, p_prime, q_prime, m = given.values()
    if case is FamilyCase.NORMALIZED:
        _require(p is None or p >= 1, "normalized case needs p >= 1")
        _require(q is None or q >= 1, "normalized case needs q >= 1")
        return 1.0, 0.0, True, "rate |p-q|^theta"

    if case in _PAIRED:
        mark, singular = _PAIRED[case]
        a, b = (given[k] for k in _READS[case])
        if singular is not None:
            _require(a is not None and 1 < a < 2, f"requires 1 < p{mark} < 2")
            _require(b is None or 1 < b <= 2, f"requires 1 < q{mark} <= 2")
            return 1.0, 0.0, True, singular  # every beta <= 0 of the window gives theta
        _require(a is not None and a > 2, f"requires p{mark} > 2")
        _require(b is not None and b >= 2, f"requires q{mark} >= 2")
        return 1.0, b / 2.0 - 1.0, theta == 1.0, f"sup over beta > q{mark}/2 - 1"

    if case is FamilyCase.GENERAL_PQ_MATCHED:
        _require(q_prime is not None and q_prime > 1, "requires q' > 1")
        return 1.0, q_prime / 2.0 - 1.0, True, "matched p' = q', beta = q'/2 - 1"

    if case is FamilyCase.REGULARIZED:
        _require(p_prime is not None and p_prime >= 2, "requires p' >= 2")
        _require(p is None or p >= 1, "requires p >= 1")
        if p_prime == 2.0:
            if m is None:
                return 0.5, 0.0, False, "p'=2: sup over m in (0, 1/2)"
            _require(0 < m < 0.5, "p'=2 requires m in (0, 1/2)")
            return m, 0.0, False, f"p'=2, m = {m}"
        if 2.0 < p_prime < 3.0:
            return p_prime - 2.0, 0.0, True, "2<p'<3: nu=(p'-2)theta"
        if m is None:
            return 1.0, p_prime - 4.0, False, "p'>=3: sup over m in (0, 1)"
        _require(0 < m < 1, "requires m in (0, 1)")
        return m, max(p_prime - 4.0, p_prime / 2.0 - 1.0 - m), False, f"m = {m}"

    # the biased infinity case: the eps1-exponent alpha ranges over (0, 1/2);
    # eps2 enters at rate 1
    if m is None:
        return 0.5, 0.0, False, "sup over alpha in (0, 1/2)"
    _require(0 < m < 0.5, "alpha parameter must lie in (0, 1/2)")
    return m, 0.0, False, f"alpha = {m}"
