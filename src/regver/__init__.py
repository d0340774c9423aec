"""Exact-arithmetic symbolic verifier for polylogarithmic regulator forms.

The package builds the graded-commutative algebra of formal Dolbeault
monomials, the twisted-complex calculus on top of it, the specialization
to rational-function arguments, an exact residue calculus on products of
projective lines with a projective space, and the finite homological
algebra (Smith normal form, normalized cubical complexes, simple
complexes) used to organize everything.  The `regver` CLI batch-runs the
identity suites and emits machine-readable reports.
"""

from .combinatorics import (RationalPoly, factorial, lhs_a, rhs_a,
                            verify_alternating_binomial,
                            verify_factorial_lemma, verify_odd_binomial_poly)
from .deligne import (DeligneElement, build_t, deligne_diff,
                      verify_differential_recursion,
                      verify_product_expansion, verify_raw_differential,
                      verify_s_derivative_identities)
from .forms import (FormExpr, Symbol, d, del_, delbar, gen, substitute_zero,
                    symbols, to_json_obj, to_latex)
from .homology import (ChainComplex, ChainMap, CubicalGroup, TwoArrowDiagram,
                       associated_complex, decomposition_check, homology,
                       normalized_complex, simple_of_diagram, simple_of_map,
                       verify_les_exactness)
from .logforms import (build_g, build_goncharov, build_m, build_t_log, build_w,
                       log_symbols, verify_goncharov_boundary,
                       verify_goncharov_equals_wang, verify_mixed_boundary,
                       verify_vanishing_on_diagonal, verify_wang_boundary)
from .matrices import IntMatrix, invariant_factors, smith_normal_form
from .report import Report
from .residues import (Ambient, CoordFunction, FaceDivisor, WedgeElement,
                       residue_tuple, restrict, valuation)

__version__ = "0.1.0"
