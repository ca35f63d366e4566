"""Spectra and eigenfunctions of weight-band subgraphs of the binary cube.

Closed-form eigenvalues (via exact Krawtchouk polynomials and certified
tridiagonal eigensolves) with multiplicities, explicit eigenfunction
synthesis, entropy-based boundary bounds, and a brute-force dense oracle
to cross-check all of it.
"""

from .bounds import (
    BoundsReport,
    ball_bound,
    entropy,
    entropy_inv,
    modls_bound,
)
from .eigenfunctions import (
    EigenFunction,
    SemiSymBasis,
    build_basis,
    synthesize,
)
from .errors import (
    BudgetExceededError,
    InvalidDegreeError,
    InvalidParameterError,
)
from .hamming import (
    InducedGraph,
    OracleSpectrum,
    build_graph,
    incidence_matrix,
    oracle_spectrum,
)
from .krawtchouk import (
    KrawtchoukPoly,
    RootList,
    build,
    eval_exact,
    first_root,
    roots,
)
from .spectrum import (
    SpectrumTable,
    TridiagonalSym,
    VerifyReport,
    coupling_matrix,
    full_spectrum,
    lambda_set,
    max_eigenvalue,
    verify_against_oracle,
)

__version__ = "0.1.0"
