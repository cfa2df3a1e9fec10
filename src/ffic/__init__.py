"""Jensen-gap analysis and constant-gap certification for fading interference channels."""

from .fading import (
    ComplexGainSampler,
    FadingModel,
    InfiniteJensenGapError,
    JensenGapNumeric,
    NoClosedFormError,
    TabulatedPdf,
    default_xi_grid,
    expected_log_shifted,
    jensen_gap_closed_form,
    jensen_gap_numeric,
    log_moment_lower_bound,
)
from .mc import EstimateResult, McConfig, estimate_expectation, substream
from .regions import (
    ChannelSpec,
    RateConstraint,
    RateRegion,
    RegionGap,
    SplitParams,
    SweepRow,
    fb_inner,
    fb_outer,
    imac_regions,
    nofb_achievable,
    nofb_inner,
    nofb_outer,
    nphase_outer_region,
    region_gap,
    static_equivalent,
    symmetric_sweep,
)
from .afscheme import (
    CancellationReport,
    CornerGapResult,
    DetSequence,
    PhaseDraw,
    TridiagGrowth,
    cancellation_check,
    isi_achievable_limit,
    isi_achievable_rate,
    isi_bounds,
    ky1_conditional_log2det,
    ky1_dets,
    ky1_growth,
    khat_plugin_params,
    nphase_corner_gap,
    r1_rate,
    r2_rate,
    tridiag_growth,
)

__version__ = "0.1.0"
