"""congrusep: congruence-subgroup separation certificates for integer
matrix groups.

Exact (arbitrary-precision) linear algebra, multiplicative Jordan
decomposition over Q, finite matrix group machinery over Z/m, searches that
produce independently verifiable separation and torsion-freeness
certificates, and the crystallographic base case of semisimple factor
enumeration.
"""

from .errors import (
    BitBoundExceededError,
    DimensionMismatchError,
    Error,
    InputError,
    MalformedCertificateError,
    PreconditionError,
    ResourceError,
    ScheduleExhaustedError,
    SingularMatrixError,
)
from .exactlin import (
    IntegerMatrix,
    Polynomial,
    RationalMatrix,
    SmithDecomposition,
    char_poly,
    smith_normal_form,
)
from .jordan import (
    JordanPair,
    is_semisimple,
    is_unipotent,
    is_virtually_unipotent_witness,
    jordan_decompose,
    torsion_order,
)
from .modgrp import (
    ConjClass,
    ModMatrix,
    ModMatrixGroup,
    conj_class,
    generate,
    reduce,
)
from .separate import (
    SeparationCertificate,
    TorsionFreeCertificate,
    TorsionTable,
    WitnessPrime,
    avoid_conjugacy,
    default_moduli_schedule,
    torsion_class_table,
    torsion_free_overgroup,
    verify_certificate,
    witness_prime,
)
from .cryst import (
    AffineElement,
    CrystGroup,
    GLEmbedding,
    SemiFactorSet,
    affine_jordan,
    lift_to_gl,
    semifactor_representatives,
)

__version__ = "0.1.0"
