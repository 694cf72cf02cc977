"""curveclass: exact classification of rational functions on real plane
curves into the hierarchy regular < continuous-closure < real-closure <
integral, with certificates.
"""

from .curves import (
    BadPoint,
    PlaneCurve,
    bad_locus,
    certify_realness,
    fiber_constancy_check,
    make_curve,
    make_parametrization,
    singular_locus,
)
from .errors import CurveClassError
from .functions import (
    ClassificationReport,
    CurveFunction,
    classify,
    continuity_probe,
    fiber_report,
    fiber_table,
    graph_ideal,
    graph_real_closed,
    in_Kplus,
    in_KRplus,
    is_integral,
    is_regular,
    make_function,
    present_extension,
    probe_function,
    verify_r_subintegral,
)
from .mpoly import MPoly, PolyIdeal, buchberger, eliminate, normal_form, saturate
from .numfield import NFElement, NumberField, SplitEvent
from .parsing import format_poly, parse_poly
from .report import emit, parse_machine
from .unipoly import (
    UPoly,
    isolate_real_roots,
    squarefree_part,
    sturm_count,
    upoly_gcd,
)

__version__ = "0.1.0"
