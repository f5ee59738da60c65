"""Numerical laboratory for p-Laplace-type parabolic equations.

Builds the singular/degenerate diffusion families (normalized, variational,
general (p, p'), their regularizations, and the biased infinity Laplacian),
integrates the associated Cauchy-Dirichlet or periodic problems with a
monotone explicit scheme, and measures sup-norm convergence rates under
parameter perturbations against the closed-form exponent predictions.
"""

__version__ = "0.1.0"

from .errors import (
    BlowUpError,
    BudgetExceededError,
    CaseNotApplicableError,
    CflViolationError,
    GridMismatchError,
    PlapError,
    SingularGradientError,
)
from .evolve import Problem, SolveResult, SolveStats, SolverControls, cfl_dt, solve, step
from .exact import (
    ExactSolution,
    SingularPointError,
    SolutionId,
    residual,
    sup_diff_closed_form,
)
from .grid import (
    Boundary,
    GridSpec,
    ScalarField,
    load_field,
    restrict_to,
    save_field,
    sup_diff,
)
from .harness import (
    FitResult,
    HarnessError,
    HolderEstimate,
    RateFit,
    SweepPlan,
    TheoryVerdict,
    compare_theory,
    estimate_holder,
    fit_loglog,
    run_sweep,
    write_fit_summary,
    write_rate_table,
)
from .operators import (
    C1CertifyReport,
    C1Params,
    Family,
    OperatorSpec,
    PerturbationAxis,
    c1_certify,
    c1_gap,
    diffusion_matrix,
    perturb_spec,
    sqrt_matrix,
)
from .rates import FamilyCase, RatePrediction, family_rate, theoretical_rate

__all__ = [name for name in dir() if not name.startswith("_")]
