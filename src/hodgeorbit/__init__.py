"""Exact-arithmetic toolkit for mixed Hodge structures and nilpotent orbits.

Everything is computed over Q and Q(i) with no rounding: filtrations,
monodromy weight filtrations (absolute and relative), polarization checks,
and the constructive embedding of a mixed datum into a pure one carrying one
extra nilpotent operator.
"""

from .scalars import GaussScalar, imaginary, rational
from .linalg import (
    Matrix,
    Subspace,
    echelonize,
    image,
    intersect,
    is_positive_definite_hermitian,
    kernel,
    preimage,
    subspace_sum,
)
from .filtration import Filtration, trivial_weight_filtration
from .datum import (
    HodgeDatum,
    OrbitDatum,
    PairedDatum,
    Pairing,
    direct_sum,
    dual,
    graded_piece,
    is_morphism,
    make_datum,
    pushout,
    quotient_datum,
    sub_truncate,
    sum_operators,
    tate_twist,
    tensor,
    with_tag,
)
from .extensions import (
    ExtensionClass,
    build_unit_extension,
    carlson_class,
    lift_class,
    normalize_class,
    push_class,
)
from .monodromy import (
    AdmissibilityReport,
    MonodromyFiltration,
    admissibility_report,
    relative_monodromy,
    satisfies_monodromy_axioms,
    shift,
    weight_monodromy,
)
from .verify import (
    CERTIFIED,
    REFUTED,
    SUPPORTED,
    Policy,
    Verdict,
    check_mixed_orbit,
    check_pure_orbit,
    griffiths_isotropy_checks,
    hodge_decomposition,
    is_mhs,
    is_polarized_hs,
    is_pure_hs,
    operator_sum_facts,
    primitive_parts,
    sampled_orbit_membership,
    shear_equivalence_report,
)
from .construct import (
    EmbeddingCertificate,
    SurjectionCertificate,
    build_selfdual_extension,
    certify_embedding,
    certify_surjection,
    embed_general,
    embed_two_weights,
    mixed_to_orbit,
    orbit_to_mixed,
    solve_selfduality,
    surject_from_pure,
)
from .docio import ParseError, ValidationError, parse, serialize

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
