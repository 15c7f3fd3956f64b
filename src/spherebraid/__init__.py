"""
spherebraid: computation in the braid groups of the sphere.

The package decides the word and torsion-order problems for the n-strand
sphere braid group through the induced action on the free fundamental group
of the punctured sphere, builds the finite groups of the subgroup
classification explicitly (coset enumeration, subgroup lattices,
automorphism groups), does arithmetic in amalgamated products over index-2
subgroups, and enumerates the classification of virtually cyclic subgroups
with machine-checked witnesses for the algebraic realizations.
"""

from .words import (
    AbelianClass,
    BraidWord,
    NamedElement,
    Permutation,
    SideConditionError,
    StrandMismatchError,
    WordError,
    abelianize,
    alpha,
    alpha_prime,
    band_generator,
    block_pass,
    delta_comm,
    eta_elt,
    eta_tilde_elt,
    forget_strands,
    full_twist,
    half_twist,
    identity,
    lambda_elt,
    nu_elt,
    omega1,
    omega2,
    parse_braid,
    permutation,
    rho_pass,
    rho_strip,
    sigma,
    std_element,
    v_pair,
    word,
    xi_elt,
    xi_prime_elt,
    zeta_elt,
)
from .oracle import (
    INFINITE,
    FreeAutomorphism,
    OracleBudgetError,
    Order,
    artin_action,
    central_value,
    commute,
    equals,
    is_central,
    is_inner,
    is_trivial,
    order_of,
    torsion_order_candidates,
    verify_finite_subgroup,
)
from .groups import (
    CosetBudgetError,
    FiniteGroupTable,
    GroupPresentation,
    SubgroupHandle,
    automorphisms,
    center,
    classify_action,
    is_isomorphic,
    make_group,
    outer_group,
    quotient,
    sphere_three_strand_table,
    structure_name,
    subgroups,
    todd_coxeter,
)
from .amalgams import (
    AmalgamElement,
    AmalgamSpec,
    SemidirectForm,
    amalgam_iso,
    build_amalgam,
    distinguish_k1_k2,
    find_extension,
    k1,
    k1_prime,
    k2,
    k2_prime,
    to_semidirect,
)
from .classifier import (
    FiniteClassRecord,
    GroupDesc,
    VcClassRecord,
    Witness,
    WitnessUnavailable,
    enumerate_all,
    enumerate_v1,
    enumerate_v2,
    enumerate_vtilde,
    finite_classes,
    project_to_mcg,
    realization_status,
    witness,
)

__version__ = "0.1.0"
