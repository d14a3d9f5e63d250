"""Group-constraint solving over elementary Abelian p-groups.

Find an element g of G = <g1..gm> with a^g in C(a) for every point a, by
turning the constraint into a linear system over F_p whenever possible.
"""

from .constraint import (
    DEFAULT_CAP,
    CapExceededError,
    GcInstance,
    LinearizedConstraint,
    SolveOutcome,
    compute_all_vo,
    compute_vo,
    group_variety,
    linearize,
    mmc_to_gc,
    normalize,
    solve,
    solve_enumerate,
    solve_linear,
    solve_product,
    verify,
    verify_detail,
)
from .fpalg import FpMatrix, RowReducer, SingularMatrixError
from .frame import (
    Frame,
    FrameError,
    NotInSuperspaceError,
    OrbitFrame,
    VarietyMatrix,
    build_frame,
)
from .genbench import BenchRow, GenConfig, GenResult, SplitMix64, bench_run, gen_instance
from .instfile import (
    InstanceFormatError,
    parse_instance,
    parse_witness,
    render_instance,
    render_witness,
)
from .perm import (
    Permutation,
    compose,
    is_elementary_abelian,
    orbit_partition,
    order,
)
from .reduction import (
    ClauseFormatError,
    ClauseSet,
    ReducedInstance,
    one_in_k_brute,
    parse_clauses,
    reduce_1in_k,
    reduce_2cstr,
)

__version__ = "0.1.0"
