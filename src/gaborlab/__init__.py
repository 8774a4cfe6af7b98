"""gaborlab: finite-dimensional Gabor analysis toolkit.

Signal model and shift operators (core), window families (windows), the
full phase-space transform (stft), lattice frames with duals and tight
windows (lattices, frames), the Zak transform and tightness criteria (zak),
compactly supported duals and frame-set scans (duality, frameset), Wilson
systems (wilson), and linear-independence experiments for finite sets of
time-frequency shifts (hrt).  The command-line interface lives in cli.
"""

__version__ = "0.1.0"

from .core import (
    GridMismatchError,
    SampleGrid,
    Signal,
    fourier,
    inner,
    inverse_fourier,
    modulate,
    tf_shift,
    translate,
)
from .duality import (
    BeyondProvenRegionsError,
    CompactSignal,
    RegionLabel,
    SingularSliceError,
    bspline_compact_dual,
    classify_point_g2,
    compact_window,
    janssen_residual,
    region_expects_frame,
)
from .frames import (
    FrameReport,
    NotAFrameError,
    analysis,
    canonical_dual,
    canonical_tight,
    frame_apply,
    frame_bounds,
    frame_matrix,
    gabor_atom,
    least_norm_check,
    synthesis,
)
from .frameset import FrameSetMap, scan_frame_set
from .hrt import (
    Configuration,
    ExtensionField,
    GramianReport,
    classify_configuration,
    extension_field,
    extension_integral,
    far_field_radius,
    gramian,
    independence_probe,
    normalize_configuration,
    refinement_drift,
    schur_identity_check,
)
from .lattices import Lattice, SnapError, divisors, make_lattice
from .stft import (
    NearOrthogonalPairError,
    PhaseSpaceField,
    stft,
    stft_diagnostics,
    stft_energy,
    stft_invert,
)
from .wilson import (
    WilsonSystem,
    build_wilson_classical,
    build_wilson_general,
    make_wilson_window,
    taper_wilson_window,
    wilson_onb_report,
    wilson_parseval_residual,
    zak_onb_criterion,
)
from .windows import WindowSpec, WraparoundError, parse_window, sample_window, window_values
from .zak import ZakMatrix, zak, zak_tightness
