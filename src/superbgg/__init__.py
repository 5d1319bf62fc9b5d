"""superbgg: exact Kostant cohomology and BGG resolutions for gl(m|n), osp(m|2n).

Everything is exact: matrix realizations of the basic classical Lie
superalgebras, parabolic decompositions with dual bases, highest-weight and
Kac modules with contravariant forms, super chain complexes of the
nilradical nbar with their boundary and coboundary, the quabla operator,
and the decidable criteria for the existence of resolutions by
generalised Verma modules.  Every integral value, weight coordinates
included, is a Python int, and a Fraction only where a value is not
integral.
"""

from .algebra import (
    AdjointOperation,
    LieSuperalgebra,
    ParabolicDecomposition,
    build_adjoint_operation,
    build_algebra,
    build_parabolic,
    casimir_eigenvalue,
    check_star_condition,
)
from .bgg import (
    BGGVerdict,
    ResolutionShape,
    WeylCoset,
    bgg_verdict,
    natural_resolution_shape,
    kac_resolution,
    reproduce,
    weyl_coset,
)
from .chains import ChainComplex, ChainMap, ChainSpace
from .homology import (
    HomologyReport,
    KostantAnalysis,
    LDecomposition,
    PredicateReport,
    decompose_levi,
    multiplicity_criterion,
)
from .modules import (
    HWModule,
    KacModule,
    build_irrep,
    build_kac_module,
)

__version__ = "0.1.0"

__all__ = [
    "AdjointOperation", "BGGVerdict", "ChainComplex", "ChainMap",
    "ChainSpace", "HWModule", "HomologyReport", "KacModule",
    "KostantAnalysis", "LDecomposition", "LieSuperalgebra",
    "ParabolicDecomposition", "PredicateReport", "ResolutionShape",
    "WeylCoset", "bgg_verdict", "build_adjoint_operation", "build_algebra",
    "build_irrep", "build_kac_module", "build_parabolic",
    "casimir_eigenvalue", "check_star_condition", "decompose_levi",
    "kac_resolution", "multiplicity_criterion", "natural_resolution_shape",
    "reproduce", "weyl_coset",
]
