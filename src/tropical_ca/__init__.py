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
    ExactArithmeticError,
    KleeneStarDivergenceError,
    NetworkError,
    NoCircuitError,
    ReducibleMatrixError,
    RuleError,
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
    oplus,
    otimes,
    unit_vector,
    vec_oplus,
    vec_scale,
)
from .spectral import (
    CriticalGraph,
    PrecedenceGraph,
    SccDecomposition,
    SpectralSummary,
    analyze,
    build_graph,
    critical_graph,
    cyclicity,
    eigenspace_membership,
    eigenvectors,
    is_irreducible,
    matrix_power_onset,
    max_cycle_mean,
    scc_decompose,
)
from .network import (
    NetworkSpec,
    TimingDependencyMatrix,
    TimingParameters,
    build_p,
    explicit_network,
    load_network,
    random_parameters,
    regular_ring,
    save_network,
)
from .trajectory import (
    NormalizedTrajectory,
    RegimeReport,
    Trajectory,
    cycletime,
    detect_regime,
    iterate,
    normalize,
    per_node_estimates,
    verify_regime,
    write_trajectory_csv,
)
from .ca import (
    AsyncRun,
    CARule,
    StateTransitionGraph,
    SyncOrbit,
    async_run,
    attractor_census,
    build_stg,
    event_simulation,
    state_at,
    state_from_string,
    state_to_string,
    sync_orbit,
    sync_step,
    verify_bijection,
)
from .render import (
    PlotSpec,
    build_event_dag,
    contour_plot,
    critical_graph_dot,
    event_dag_dot,
    pixmap_parse,
    spacetime_async,
    spacetime_async_pixmap,
    spacetime_sync,
    spacetime_sync_pixmap,
    stg_dot,
)
