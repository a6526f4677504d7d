"""Branching wavefunctionals over labeled-graph space geometries."""

__version__ = "0.1.0"

# numpy imports `numpy.random` on first use; importing it with the package
# keeps that cost out of the first run that draws a sample.
import numpy.random  # noqa: F401

from .born import (
    CountReport,
    DepthExceeded,
    Refinement,
    build_refinement,
    count_estimate,
    sample_selflocation,
)
from .branching import (
    AsymmetrySummary,
    BranchEvent,
    BranchNode,
    BranchTree,
    EmptySupport,
    asymmetry_experiment,
    degenerate_initial_state,
    irreversibility_scan,
    is_degenerate,
    track,
)
from .dynamics import (
    Generator,
    LocalObservable,
    NumericalFailure,
    RewriteRule,
    RuleFileError,
    TruncationExceeded,
    apply_rule,
    evolve,
    expand_reachable,
    find_matches,
    interference_term,
    rul1_dumps,
    rul1_loads,
)
from .macrostates import (
    MacroPartition,
    builtin_classifiers,
    degree_histogram_partition,
    partition_by_name,
    total_matter_partition,
    verify_projector_algebra,
    vertex_count_partition,
)
from .spacegraph import (
    Associability,
    AssocKind,
    FieldConfig,
    Phase,
    SpaceGraph,
    SpaceState,
    VertexField,
    canonicalize,
    classify_associability,
    common_subgraph_size,
    gauge_equivalent,
    is_isomorphic,
    ssg1_dumps,
    ssg1_loads,
)
from .wavefunctional import (
    DensitizedView,
    NoChargedField,
    UnknownLabel,
    Wavefunctional,
    ZeroState,
    gauge_absorb,
    gauge_rotate,
    inner_product,
    macro_weight,
    macro_weights,
    norm,
    normalize,
    project,
    reconstruct,
    restricted_sq_norm,
    wfn1_dumps,
    wfn1_loads,
)
