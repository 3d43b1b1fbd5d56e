"""Order-by-order boundary expansions of Nahm-pole flow solutions over
locally homogeneous 3-manifold frames, with exact-arithmetic verification
against closed-form solutions.

The useful entry points:

* :func:`nahmpole.geometry.builtin` / :func:`~nahmpole.geometry.load_background`
  -- the frame geometry catalog;
* :func:`nahmpole.series.expand` -- the expansion engine;
* :func:`nahmpole.oracle.closed_solution` and friends -- ground truth;
* ``python -m nahmpole.cli`` or the ``nahmpole`` script -- the CLI.
"""

from .scalars import FloatField, RationalField
from .algebra import (
    EigenPart, GForm, ResonantOrder, SingularLambda, SigmaModule, invert_cal_L,
    leading_order_structure, project, resolve_coupled, vierbein,
)
from .geometry import (
    FrameBackground, builtin, builtin_names, is_einstein, load_background,
)
from .series import (
    FreeData, PhgSeries, assert_parity, check_residuals, evaluate, expand,
    is_log_free,
)
from .oracle import (
    FlowState, GlobalReport, ProfileSolution, StepUnderflow, closed_solution,
    convergence_table, flow_residual, global_report, integrate_flow,
    matched_free_data, taylor_profile,
)

__version__ = "0.1.0"

__all__ = [
    "FloatField", "RationalField", "EigenPart", "GForm", "ResonantOrder",
    "SingularLambda", "SigmaModule", "invert_cal_L", "leading_order_structure",
    "project", "resolve_coupled", "vierbein", "FrameBackground", "builtin",
    "builtin_names", "is_einstein", "load_background", "FreeData", "PhgSeries",
    "assert_parity", "check_residuals", "evaluate", "expand", "is_log_free",
    "FlowState", "GlobalReport", "ProfileSolution", "StepUnderflow",
    "closed_solution", "convergence_table", "flow_residual", "global_report",
    "integrate_flow", "matched_free_data", "taylor_profile", "__version__",
]
