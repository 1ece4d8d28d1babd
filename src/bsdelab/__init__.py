"""Numerical laboratory for scalar terminal-value stochastic equations.

Parse drivers and payoffs as expressions, certify growth/continuity
conditions by sampling, regularise drivers by penalised suprema, bound
solutions by backward ODEs, solve on a binomial tree or by least-squares
Monte Carlo, and run ordering/bounding checks with closed-form oracles.
"""

from .certificates import (
    CertificateError,
    ContinuityZ,
    ConvexityZ,
    LocalLipschitzZ,
    MixedSubLinear,
    OneSidedLinear,
    OneSidedOsgoodY,
    OneSidedSuperLinear,
    QuadGrowth,
    SampleGrid,
    SubLinearDiffZ,
    check_certificate,
)
from .envelopes import (
    EnvelopeError,
    EnvelopeGrid,
    LipschitzEnvelope,
    envelope_family_values,
    linearize_phi,
    sup_convolution_generator,
    sup_convolution_generator_alpha,
)
from .expressions import (
    EvalDomainError,
    Expression,
    ExpressionError,
    ParseError,
    parse_expression,
    parse_univariate,
)
from .generators import (
    Generator,
    TerminalCondition,
    WeightFn,
)
from .ode_bounds import (
    BihariResult,
    BlowUpError,
    BoundEnvelope,
    NonPositiveError,
    TimeGrid,
    bihari_sequence,
    gronwall_cap,
    osgood_diagnostic,
    sandwich_envelope,
    solve_growth_ode,
)
from .report import VerificationReport
from .solver import (
    DiscreteSolution,
    ImplicitStepError,
    PathEnsemble,
    PicardDivergenceError,
    RankDeficientError,
    SolverError,
    TreeModel,
    solve_mc_regression,
    solve_tree,
)
from .transforms import (
    exp_transform_generator,
    exp_transform_solution,
    gamma_for_band,
    inverse_exp_transform,
    qs_bounds,
)
from .verify import (
    SubstrateMismatchError,
    comparison_check,
    indicator_premise_check,
    monotone_family_check,
    one_sided_dominance_check,
    one_step_residual,
    sandwich_check,
    transform_residual_check,
    uniqueness_smoke_check,
)

__version__ = "0.1.0"
