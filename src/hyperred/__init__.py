"""Exact differential reduction and epsilon expansion of hypergeometric functions."""

from .errors import (CriterionViolation, DegeneratePoles, HyperredError,
                     NoFactorization, NotIntegerShift, NotTriangular, ParseError,
                     PoleAtEpsZero, SingularStep, UncancelledPole, UnsupportedClass,
                     VerificationFailure)
from .expansion import (EpsilonExpansion, F3Report, FactorizationReport, epsilon_expand,
                        f3_parametrization_check, factorization_conditions,
                        gauss_triangular_system, three_f2_system, verify_expansion)
from .gpl import GplCombo, PolyLogExpr
from .grammar import parse_hyper, parse_input
from .hyper import HyperFn, SymHyperFn
from .mb import (DiagramPreset, HyperSum, HyperTerm, MBRepr, check_dim,
                 count_master_integrals, dressed_propagator_shift, get_preset,
                 mb_to_hyper)
from .poly import Poly
from .ratfunc import RatFunc
from .reduction import (ExceptionalReport, OpMatrix, ReductionResult, detect_exceptional,
                        ode_operator, reduce_to_basis, step_matrix, verify_reduction)
from .scalars import EpsLin, Linear, LinearForm
from .series import BiSeries, series_of_hyper
from .theta import ThetaOp

__version__ = "0.1.0"
