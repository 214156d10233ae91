"""Approximation toolkit for store-and-forward packet scheduling on a line."""

from .model import (
    Category,
    Instance,
    InstanceFormatError,
    PacketRequest,
    SolverInvariantError,
    Thresholds,
    capacity_scale,
    categorize,
    chernoff_exponent,
    gen_random_instance,
    load_instance,
    save_instance,
)
from .grid import (
    GridPath,
    Verdict,
    load_schedule,
    request_origin,
    save_schedule,
    throughput,
    validate_schedule,
)
from .flow import (
    FractionalMCF,
    MaxFlow,
    decompose,
    max_throughput_mcf,
    randomized_round,
)
# analysis only: no solve path calls bounding (see its module docstring)
from .bounding import (
    truncate_fractional,
    truncate_integral,
    truncate_path,
)
from .tiling import (
    Tiling,
    classify_shift,
    partition_classes,
    project,
    shift_pairs,
)
from .shortsolver import solve_short, solve_tile_exact
from .routing import (
    CrossbarEntry,
    CrossbarProblem,
    quadrant_route,
    route_crossbar,
)
from .pipeline import (
    PipelineParams,
    SolveReport,
    StageTrace,
    filter_congested,
    fractional_upper_bound,
    report_to_json,
    route_detailed,
    run_medium_long,
    solve_instance,
)
from .oracle import (
    SizeLimitError,
    crossbar_feasible_bruteforce,
    optimal_schedule,
    optimal_throughput_exhaustive,
    quadrant_feasible_bruteforce,
)

__version__ = "0.1.0"
