"""Max-plus timing analysis and simulation of asynchronous cellular automata.

The package splits into layers: exact max-plus arithmetic (:mod:`semiring`),
spectral theory of irreducible matrices (:mod:`spectral`), timing networks
and their dependency matrices (:mod:`network`), trajectory iteration and
periodic-regime detection (:mod:`trajectory`), synchronous and asynchronous
cellular automata (:mod:`ca`), deterministic plot and graph exports
(:mod:`render`), and a command line front end (:mod:`cli`).
"""

from ._version import __version__
from .errors import (
    CapExceededError,
    ConfigError,
    DimensionError,
    KleeneStarDivergenceError,
    NetworkError,
    NoCircuitError,
    ReducibleMatrixError,
    RuleError,
    ScalarError,
    StateUndefinedError,
    TropicalError,
    VerificationError,
)
from .semiring import (
    EPS,
    E,
    MaxPlusMatrix,
    canonical,
    is_eps,
    unit_vector,
)
from .spectral import (
    CriticalGraph,
    SccDecomposition,
    SpectralSummary,
    analyze,
    build_graph,
    max_cycle_mean,
    scc_decompose,
)
from .network import (
    NetworkSpec,
    TimingParameters,
    build_p,
    explicit_network,
    load_network,
    random_parameters,
    regular_ring,
)
from .trajectory import (
    Lasso,
    RegimeReport,
    Trajectory,
    csv_chunks,
    cycletime,
    detect_regime,
    iter_states,
    iterate,
    verify_regime,
    write_trajectory_csv,
)
from .ca import (
    AsyncRun,
    CARule,
    Mismatch,
    StateTransitionGraph,
    SyncOrbit,
    async_run,
    attractor_census,
    attractor_census_chunks,
    bijection_mismatch,
    build_stg,
    event_simulation,
    event_states,
    event_times,
    first_mismatches,
    iter_sync_states,
    state_at,
    state_from_string,
    state_to_string,
    sync_orbit,
    sync_states,
    sync_step,
    verify_bijection,
)
from .render import (
    AsyncPlots,
    PlotSpec,
    build_event_dag,
    contour_plot,
    critical_graph_dot,
    event_dag_dot,
    spacetime_async,
    spacetime_async_pixmap,
    spacetime_sync,
    spacetime_sync_chunks,
    spacetime_sync_pixmap,
    spacetime_sync_pixmap_chunks,
    stg_dot,
    stg_dot_chunks,
)
