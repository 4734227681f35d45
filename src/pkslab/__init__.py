"""pkslab: a computational laboratory for the Peres-Kochen-Specker system
in quantum measure theory."""

from .rays import (
    PERES_RAYS,
    Basis,
    Ray,
    RayType,
    Symmetry,
    are_orthogonal,
    enumerate_bases,
    enumerate_orthogonal_pairs,
    ray_index,
    symmetry_group,
)
from .colourings import (
    Colouring,
    HomogeneousEvent,
    act_on_colouring,
    gamma_p,
    gamma_p_prime,
    is_consistent,
    peres_walkthrough,
    pks_events,
    pks_sets_containing,
    verify_ks_theorem,
)
from .coevents import (
    ClassicalMeasure,
    CoEvent,
    GramMeasure,
    SupportCoevent,
    classical_coevents,
    is_preclusive,
    phi_m,
    primitive_preclusive_coevents,
    transported_coevent,
    truth_set_is_filter,
)
from .measure import (
    Context,
    EventUnion,
    InitialState,
    Ordering,
    verify_pks_zero,
)
from .explorer import (
    CoverageVerdict,
    ZeroEventRecord,
    ZeroScan,
    coverage_check,
    last_ray_021_construction,
    ordering_search,
    scan_zero_events,
)

__version__ = "0.1.0"
