"""quasilab: a laboratory for finite quasigroups.

Quasigroups are Cayley tables (Latin squares) over {0..n-1}.  The package
parses and checks equational identities, enumerates all small quasigroups
satisfying them, constructs subtraction quasigroups x*y = x - y over abelian
groups and recovers the group from such a table, and computes structural
invariants: autotopies and their translation/automorphism decompositions,
pseudoautomorphisms, nuclei, cores, and the Bol/Moufang/medial/G/GA
predicates.
"""

from .abelian import (
    AbelianGroup,
    automorphism_group,
    core_groupoid,
    cyclic,
    direct_product,
    enumerate_abelian_groups,
    recover_group,
    subtraction_quasigroup,
    two_torsion,
)
from .errors import (
    BadSymbol,
    DegreeMismatch,
    EmptyList,
    EmptySide,
    GroupSpecError,
    MissingEquals,
    NoRightUnit,
    NotAbelianGroup,
    NotDecomposable,
    NotLatin,
    NotSquare,
    OrderMismatch,
    OrderTooLarge,
    OutOfRange,
    ParseError,
    QuasilabError,
    RepresentationMismatch,
    TableFormatError,
    TooManyVariables,
    UnboundVariable,
    UnknownIdentity,
)
from .identities import (
    BinOp,
    Identity,
    Var,
    builtin,
    builtin_names,
    counterexample,
    eval_term,
    format_term,
    holds,
    parse_identity,
    parse_term,
)
from .permutations import Permutation, orbit
from .quasigroup import ParastropheSelector, Quasigroup, UnitProfile, from_table
from .search import (
    EquivalenceReport,
    ImplicationOutcome,
    SearchOptions,
    count,
    equivalence_report,
    find_all,
    implies_on_order,
)
from .structure import (
    Autotopy,
    AutotopyDecomposition,
    DistributivityProfile,
    GAProfile,
    GProfile,
    PseudoautomorphismWitness,
    a_pseudoautomorphisms,
    automorphism_count,
    automorphisms,
    autotopies,
    canonical_key,
    check_left_bol,
    check_moufang,
    component_transitive,
    core_distributive,
    decompose_autotopy,
    is_autotopy,
    is_g,
    is_ga,
    isomorphic,
    left_bol_counterexample,
    lp_isotope,
    moufang_counterexample,
    nuclei,
    nucleus,
    pseudoautomorphisms,
    relabel,
)
from .tables import (
    format_table,
    parse_group_spec,
    parse_table_text,
    read_table,
    write_table,
)
from .verification import ClaimRecord, VerificationReport, run_verification

__version__ = "0.1.0"
