"""splinelab: tensor-product spline orthoprojectors on nested interval filtrations.

Builds arbitrary nested partitions of a box (a, b]^d, the clamped B-spline
spaces over them, and the L2 orthoprojectors in Kronecker form, then measures
the quantitative behavior that drives martingale-style convergence: geometric
decay of the dual basis, uniform L1 boundedness, weak-type (1,1) inequalities
for the intrinsic maximal operator with explicit constants, and pointwise
limits of martingale spline sequences, including measures with Dirac parts
and filtrations that stop refining.
"""

__version__ = "0.1.0"

from .bspline import (
    QuadratureRule,
    SplineSpace1D,
    TensorSpline,
    atom_quadrature,
    basis_moments,
    knot_vector,
)
from .filtration import (
    AtomSet,
    Filtration1D,
    FiltrationSpec,
    Interval,
    Partition1D,
    Rectangle,
    TensorFiltration,
    atom_of,
    build_filtration,
)
from .maximal import (
    MaximalField,
    WeakTypeReport,
    covering_constant,
    covering_report,
    covering_series_bound,
    hl_maximal,
    maximal_field,
    superlevel_measure,
    weak_series_total,
)
from .measures import (
    HybridMeasure,
    compile_masses,
    density_catalog,
)
from .nondense import (
    LimitDualTable,
    detect_v_sets,
    frozen_subspace,
    limit_dual_table,
)
from .projector import (
    DecayProfile,
    GramSystem,
    TensorProjector,
    decay_profile,
    operator_norm_inf,
)
from .sequences import (
    ConvergenceProbe,
    MartingaleSplineSequence,
    convergence_probe,
    make_sequence,
    sample_probe_points,
    verify_martingale_property,
)
