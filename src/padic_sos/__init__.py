"""Exact 2-adic certificates and reductions for sums of squares of
rational polynomials.

The library decides, with machine-checkable evidence, whether a
positive rational polynomial is a sum of four squares of rational
polynomials, and otherwise computes an h whose square can be split off
so that the difference is certified a sum of at most four squares.

Submodules load on first use (PEP 562): ``import padic_sos`` runs no
module body, and ``padic_sos.certify_sos4`` imports ``certifier`` when
it is first read.  Nothing is cached here, so every read returns what
the defining module holds at that moment.
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "certifier": ("INCONCLUSIVE", "NOT_SOS4", "SOS4", "Sos4Certificate",
                  "certify_sos4", "complete_square_split", "verify_certificate"),
    "hensel": ("HenselFactors", "RootStatus", "RootWitness", "hensel_split",
               "newton_refine", "verify_root_witness", "z2_root_status"),
    "newton_polygon": ("NewtonDiagram", "Segment", "eisenstein_irreducible",
                       "newton_diagram", "pure_slope"),
    "padic": ("PadicApprox", "is_square_in_q2", "ord2", "padic_sqrt"),
    "ratpoly": ("PositivityCertificate", "RatPoly",
                "count_distinct_and_real_roots", "discriminant",
                "epsilon_below_infimum", "hankel_matrix", "is_positive_on_reals",
                "is_squarefree", "perturbation_bound", "poly_gcd", "power_sums",
                "rank_signature", "squarefree_decomposition",
                "sturm_real_root_count", "sylvester_resultant"),
    "reduction": ("InconclusiveReport", "NonTermination", "ObstructionReport",
                  "ReductionResult", "palindromic_counterexample", "reduce_auto",
                  "reduce_constant_three_mod_four", "reduce_cyclotomic_power",
                  "reduce_iterative", "reduce_multiple_of_four",
                  "reduce_odd_valuation", "reduce_twice_odd_degree",
                  "square_plus_8a_minus_1"),
    "serialize": ("parse_poly",),
    "f2": (),
    "zpoly": (),
    "cli": (),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
