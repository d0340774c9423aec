"""Exact-arithmetic symbolic verifier for polylogarithmic regulator forms.

The package holds the alternating Wang and Goncharov forms by the kind
counts of their orbit representatives (regver.counts), where the Dolbeault
derivations and the twisted-complex calculus act, and writes them out as
canonical monomials (regver.forms), a format with no arithmetic of its
own.  It specializes them to rational functions, and adds an exact
residue calculus on products of projective lines with a projective space
(regver.residues: one residue of the top wedge per coordinate divisor,
read as an integer by one slot reduction of sparse exponent rows along
the divisor's coordinate and the target's basis, with one sign rule for
every face; the boundary sweeps build T_(N-1) only in a failing payload)
and the finite homological algebra (Smith normal form, cubical and
simple complexes).  The `regver` CLI batch-runs the identity suites and
emits machine-readable reports.  Every function here is entered by some
command, script or failing report (tests/test_api.py); what only tests
use lives in the tests' oracles.

Importing the package loads none of its modules: import a name from the
module that defines it (`from regver.deligne import t_counts`).  The CLI
(regver.cli) imports each layer when a command first runs it.
"""

__version__ = "0.1.0"
