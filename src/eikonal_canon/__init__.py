"""Wave dynamics, eikonal block representations and canonical forms on metric graphs."""

__version__ = "0.1.0"

from .metric_graph import (
    BallTrace,
    Edge,
    MetricGraph,
    Position,
    covered_intervals,
    eccentricity,
    metric_ball,
    validate_graph,
)
from .impulse import (
    Hydra,
    HydraSegment,
    ScatterEvent,
    propagate,
    self_intersections,
    wave_eval,
)
from .partition import (
    Cell,
    DeterminationSet,
    Family,
    LinearTimeFn,
    Partition,
    build_partition,
    critical_points,
    determination_set,
    lattice_closure,
)
from .frames import AlphaSet, BetaFrame, alpha_set, family_frames, gram_schmidt
from .representation import (
    BlockTerm,
    CanonicalBlock,
    ParametricRepr,
    apply_projector,
    build_parametric,
    evaluate_at,
    projector_block,
    sigma_ac,
)
from .projalg import (
    Verdict,
    connection_test,
    equivalence_classes,
    gram_matrix,
    irreducible_reduction,
    word_span_dim,
)
from .canonical import (
    CanonicalForm,
    boundary_map,
    canonicalize,
    equivalent_forms,
    junction,
    recanonicalize,
    split_blocks,
)
from .spectrum import (
    QuotientGraph,
    Segment,
    SpectrumModel,
    boundary_clusters,
    build_spectrum,
    gamma_coordinates,
    quotient_graph,
)
from .fd_oracle import (
    ControlSignal,
    GridSpec,
    Snapshot,
    compare_snapshots,
    convolution_snapshot,
    fd_wave,
)

__all__ = [name for name in dir() if not name.startswith("_")]
