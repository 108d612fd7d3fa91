"""Solver laboratory for stationary states of the 1D discrete nonlinear
Schrodinger lattice: exact strong-coupling patterns, Newton continuation
to finite coupling, the equivalent 2D iterated map, and phase-portrait
classification."""

from .analysis import (
    PhasePortrait,
    PortraitClass,
    PortraitLabel,
    TailFit,
    classify_portrait,
    distinct_points,
    fit_tail,
    phase_portrait,
    portrait_from_orbit,
    tail_decay_continuum,
    tail_decay_predicted,
    zoom_report,
)
from .lattice import (
    Boundary,
    LatticeState,
    ModelParams,
    gradient,
    hamiltonian,
    normalize,
    rescale,
    residual,
    stagger,
)
from .mapdyn import (
    MapOrbit,
    MapState,
    iterate_map,
    lattice_from_orbit,
    map_step,
    map_step_inverse,
    seed_from_lattice,
)
from .newton import (
    JacobianMatrix,
    NewtonConfig,
    NewtonReport,
    SweepRecord,
    assemble_jacobian,
    energy_estimate,
    newton_solve,
    rayleigh_energy,
    solve_linear,
    sweep_c,
)
from .patterns import (
    PatternCounts,
    PatternSpec,
    build_asymptotic_state,
    count_pattern,
    counts_report,
    limit_points,
    parse_pattern,
    quantize_state,
    random_pattern,
    spot_pattern,
    strong_coupling_energy,
)

__version__ = "0.1.0"
