"""Exact 2-adic certificates and reductions for sums of squares of
rational polynomials.

The library decides, with machine-checkable evidence, whether a
positive rational polynomial is a sum of four squares of rational
polynomials, and otherwise computes an h whose square can be split off
so that the difference is certified a sum of at most four squares.
"""

from .certifier import (INCONCLUSIVE, NOT_SOS4, SOS4, Sos4Certificate,
                        certify_sos4, complete_square_split, verify_certificate)
from .hensel import (HenselFactors, RootStatus, RootWitness, hensel_split,
                     newton_refine, reduce_mod2, verify_root_witness,
                     z2_root_status)
from .newton_polygon import (NewtonDiagram, Segment, eisenstein_irreducible,
                             factor_degree_divisor, is_pure, newton_diagram)
from .padic import PadicApprox, is_square_in_q2, ord2, padic_sqrt
from .ratpoly import (PositivityCertificate, RatPoly, SearchDepthExceeded,
                      count_distinct_and_real_roots, discriminant,
                      epsilon_below_infimum, hankel_matrix,
                      is_positive_on_reals, is_squarefree, perturbation_bound,
                      poly_gcd, power_sums, rank_signature,
                      squarefree_decomposition, sturm_real_root_count,
                      sylvester_resultant)
from .reduction import (InconclusiveReport, NonTermination, ObstructionReport,
                        ReductionResult, palindromic_counterexample,
                        reduce_auto, reduce_constant_three_mod_four,
                        reduce_cyclotomic_power, reduce_iterative,
                        reduce_multiple_of_four, reduce_odd_valuation,
                        reduce_twice_odd_degree, square_plus_8a_minus_1)
from .serialize import parse_poly

__all__ = [
    "INCONCLUSIVE", "NOT_SOS4", "SOS4", "Sos4Certificate", "certify_sos4",
    "complete_square_split", "verify_certificate", "HenselFactors",
    "RootStatus", "RootWitness", "hensel_split", "newton_refine",
    "reduce_mod2", "verify_root_witness", "z2_root_status", "NewtonDiagram",
    "Segment", "eisenstein_irreducible", "factor_degree_divisor", "is_pure",
    "newton_diagram", "PadicApprox", "is_square_in_q2", "ord2", "padic_sqrt",
    "PositivityCertificate", "RatPoly", "SearchDepthExceeded",
    "count_distinct_and_real_roots", "discriminant", "epsilon_below_infimum",
    "hankel_matrix", "is_positive_on_reals", "is_squarefree",
    "perturbation_bound", "poly_gcd", "power_sums", "rank_signature",
    "squarefree_decomposition", "sturm_real_root_count", "sylvester_resultant",
    "InconclusiveReport", "NonTermination",
    "ObstructionReport", "ReductionResult", "palindromic_counterexample",
    "reduce_auto", "reduce_constant_three_mod_four", "reduce_cyclotomic_power",
    "reduce_iterative", "reduce_multiple_of_four", "reduce_odd_valuation",
    "reduce_twice_odd_degree", "square_plus_8a_minus_1", "parse_poly",
]
