"""Exact cocycle-level Euler class computations: orientation cocycles on
points and oriented flags, their deflations and coboundaries, simplicial
flat-bundle Euler numbers, and a Monte Carlo estimator of the ball-integral
representative."""

from .linalg import (
    InputError,
    OddDimensionError,
    det,
    identity,
    ori,
    sig,
    hereditarily_spanning,
    projective_normalize,
    frame_transform,
)
from .flags import (
    OrientedFlag,
    make_flag,
    flip,
    flag_equal_unoriented,
    flagstaff,
    bracket,
    realize_points,
)
from .cocycles import (
    pcoc,
    coco,
    coc,
    sul,
    smi,
    coboundary,
    obstruction_witness,
    coboundary_kill_witness,
)
from .simplicial import (
    FlatBundleComplex,
    NonGenericSection,
    chain_boundary,
    euler_number,
    gauge_transform,
    with_section,
)
from .surfaces import (
    genus_surface_bundle,
    rational_flat_rep,
    fuchsian_octagon_rep,
)
from .circle import euler_number_oracle
from .montecarlo import ItuEstimate, itu_estimate

__all__ = [
    "InputError",
    "OddDimensionError",
    "det",
    "identity",
    "ori",
    "sig",
    "hereditarily_spanning",
    "projective_normalize",
    "frame_transform",
    "OrientedFlag",
    "make_flag",
    "flip",
    "flag_equal_unoriented",
    "flagstaff",
    "bracket",
    "realize_points",
    "pcoc",
    "coco",
    "coc",
    "sul",
    "smi",
    "coboundary",
    "obstruction_witness",
    "coboundary_kill_witness",
    "FlatBundleComplex",
    "NonGenericSection",
    "chain_boundary",
    "euler_number",
    "gauge_transform",
    "with_section",
    "genus_surface_bundle",
    "rational_flat_rep",
    "fuchsian_octagon_rep",
    "euler_number_oracle",
    "ItuEstimate",
    "itu_estimate",
]
