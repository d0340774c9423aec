"""Exact-arithmetic symbolic verifier for polylogarithmic regulator forms.

The package holds the alternating Wang and Goncharov forms by the kind
counts of their orbit representatives (regver.counts), where the Dolbeault
derivations and the twisted-complex calculus act, and writes them out as
canonical monomials (regver.forms).  It specializes them to rational
functions, and adds an exact residue calculus on products of projective
lines with a projective space (regver.residues: one residue of the top
wedge per coordinate divisor, read as an integer by one slot reduction
of sparse exponent rows along the divisor's coordinate and the target's
basis; the boundary sweeps build T_(N-1) only in a failing
payload) and the finite homological algebra (Smith normal form, cubical
and simple complexes).  The `regver` CLI batch-runs the identity suites
and emits machine-readable reports.
"""

from .combinatorics import (factorial, lhs_a, rhs_a, verify_binomial,
                            verify_factorial_lemma)
from .deligne import (build_t, verify_differential_recursion,
                      verify_product_expansion, verify_raw_differential,
                      verify_s_derivative_identities)
from .forms import FormExpr, Symbol, symbols, to_json_obj, to_latex
from .homology import (ChainComplex, ChainMap, CubicalGroup, TwoArrowDiagram,
                       associated_complex, decomposition_check, homology,
                       normalized_complex, simple_of_diagram, simple_of_map,
                       verify_les_exactness)
from .logforms import (build_goncharov, build_m, build_t_log, log_symbols,
                       verify_goncharov_boundary, verify_goncharov_equals_wang,
                       verify_mixed_boundary, verify_vanishing_on_diagonal,
                       verify_wang_boundary)
from .matrices import IntMatrix, invariant_factors, smith_normal_form
from .report import Report
from .residues import Ambient, CoordFunction, FaceDivisor, residue_tuple

__version__ = "0.1.0"
