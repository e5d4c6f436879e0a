"""Weyl-algebra toolkit for wavefront data of the 1+1d massless scalar field."""

from .errors import WeylnetError
from .funcspace import (
    DEFAULT_GRID,
    EMPTY,
    Grid,
    Interval,
    TestFunction,
    chiral_norm_sq,
    constant_function,
    derivative,
    fock_norm_sq,
    hermite_gaussian,
    localization,
    make_grid_function,
    make_kink,
    pairing,
    simpson,
    zero_function,
)
from .symplectic import Charges, PsiImage, Space, SymVector, ZERO, sigma_plane
from .registry import load_registry, parse_registry
from .weyl import (
    IDENTITY,
    CrossedProduct,
    Staged,
    WeylElement,
    max_coeff_distance,
    parse_element,
    weyl_add,
    weyl_mul,
    weyl_scale,
    weyl_star,
    weyl_word,
)
from .chiral import (
    ChiralPair,
    dalembert,
    dalembert_inverse,
    roundtrip_error,
    sigma_chiral,
    sigma_decomposed,
    sigma_infinity,
)
from .states import (
    STATES,
    State,
    chiral_vacuum,
    eval_state,
    field_f,
    fock_a,
    gram_psd,
    hermiticity_defect,
    nonregular_elementary,
    product_p,
    regular_substitute_probe,
    state_coincidence_check,
)
from .gns import (
    GnsVector,
    VACUUM,
    apply_elementary,
    apply_word,
    basis,
    gns_expectation,
    non_regularity_witness,
    norm_distance,
    phi_n_apply,
    sector_inner,
    sector_trace,
)
from .nets import (
    GaugeElement,
    SectorAutomorphism,
    asymptotics,
    character_gauge,
    diagram_check,
    disjoint_sigma,
    fixed_point_project,
    gauge_apply,
    locality_report,
    make_sector,
    net_generators,
    sector_apply,
)
from .suites import SUITES, run_suite, serialize_report
