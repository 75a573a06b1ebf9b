"""Exact generating functions for label-bounded embedded trees,
lattice-path meanders/excursions and non-crossing walker systems,
with every closed form tied to an independent enumeration oracle."""

from .binary import (
    AlphaTable,
    BinaryWeights,
    adapt_lambda,
    binary_Tj_closed,
    binary_Tj_recurrence,
    binary_alpha,
    brute_force_embedded_binary,
    conjecture_check,
    height_plane_trees,
    height_Tj,
)
from .dary import (
    DaryFamily,
    MultiAlphaTable,
    brute_force_dary,
    dary_alpha_general,
    dary_alpha_one_param_closed,
    dary_rational_parametrization,
    dary_Tj_recurrence,
    one_param_solution,
    verify_main_equation,
)
from .kernel import (
    SeriesPoly,
    SmallFactor,
    char_factor,
    complete_homogeneous,
    family_base,
    fuss_catalan,
    hensel_small_factor,
    newton_solve,
    tree_root,
)
from .marker import MarkerSeries
from .multipoly import MultiPoly, RationalFunction, rf_equal
from .oeis import OeisRecord, oeis_fetch, oeis_match
from .paths import MeanderGF, excursion_gf, meander_dp, meander_gf, verify_meander_closed_form, walks_total
from .series import Q, Series
from .splitting import SplitAlgebra
from .steps import StepSet, parse_step_set
from .walkers import (
    StarGF,
    WalkerModel,
    lockstep_refined,
    lockstep_star,
    quarterplane_dp,
    quarterplane_gf,
    randomturn_gf,
    walker_dp,
)

__version__ = "0.1.0"
