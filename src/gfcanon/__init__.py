"""gfcanon: exact canonical forms and equivalence witnesses over GF(p)."""

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    FieldMismatchError,
    FieldTooLargeForSearchError,
    FieldTooSmallError,
    GFCanonError,
    InadmissibleTransformError,
    NotMonicError,
    NotPrimeError,
    NotRegularError,
    ParseError,
    PreconditionError,
    SingularMatrixError,
    UnsupportedShapeError,
    WitnessError,
    WrongSliceCountError,
    ZeroInverseError,
    ZeroPolynomialError,
)
from .field import FieldElem, PrimeField, is_prime
from .linalg import (
    Matrix,
    char_poly,
    companion,
    inverse,
    is_invertible,
    kernel_basis,
    mobius_charpoly_check,
    poly_at_matrix,
    rank,
    rref,
    solve_right,
)
from .pencil import KroneckerForm, PairWitness, PencilBlock, frobenius_form, kronecker_form
from .spatial import (
    CanonicalSum,
    RegularClass22,
    SpatialMatrix,
    TransformWitness,
    apply_transform,
    canonical_label,
    classify_regular,
    equivalent,
    is_regular,
    lemma2_equivalent,
    mobius_orbit_minimize,
    pgl2_reps,
    regular_part,
    theorem1_form,
    theorem2_catalog,
    two_step_realize,
)
from .poly import (
    Mobius2x2,
    Poly,
    PrimePowerFactor,
    factor_prime_powers,
    mobius_transform,
    poly_gcd,
    poly_powmod,
)
from .oracle import (
    Orbit,
    OrbitPartition,
    enumerate_gl,
    enumerate_pgl,
    gl_order,
    oracle_equivalent,
    orbit_partition,
    pack_tensor,
    unpack_tensor,
)

__version__ = "0.1.0"
