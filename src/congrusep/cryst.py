"""Crystallographic groups: affine Jordan decomposition and the finite
enumeration of semisimple factors.

A crystallographic group here is given by affine generators (t, S), a
rational translation t with a finite-order integral holonomy part S, plus a
declared translation lattice.  The group's translation lattice is computed
exactly from Schreier generators (one witness element per holonomy matrix)
and must coincide with the declared one; every quotient below depends on the
lattice being the full translation subgroup.

For a holonomy element S of order k the ambient space splits as the image of
(S - I) plus its kernel (the moving and fixed subspaces), and the average of
S^0, ..., S^(k-1) projects onto the second along the first.  An element
(t, S) factors as the commuting product of a semisimple part (t_s, S), t_s
in the moving subspace, and a pure translation (t_u, I), t_u in the fixed
subspace.  Up to conjugation by translations, the possible t_s for a fixed S
form a finite quotient computed exactly through the Smith normal form;
representatives are enumerated together with witnessing group elements.

Everything embeds into GL(m+1, Z) by the usual affine trick after a change
to lattice coordinates and clearing one global denominator, which hands the
group (and its semisimple factors) to the congruence-separation machinery.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import attrgetter
from typing import Callable, Sequence

from .errors import DimensionMismatchError, InputError, ResourceError
from .exactlin import (
    IntegerMatrix,
    RationalMatrix,
    _parse_exact,
    _solve_exact,
    _times_columns,
    integer_kernel_basis,
    lattice_basis,
    mat_vec,
    smith_normal_form,
    solve_integer_linear,
)
from .jordan import _max_finite_subgroup, torsion_order
from .modgrp import _schreier_generators, _schreier_transversal

#: Closure budget for the holonomy group: above F(m), the largest finite
#: holonomy, for m <= 5.
HOLONOMY_BUDGET = 10**4


@dataclass(frozen=True)
class AffineElement:
    """An affine map x -> S x + t with rational t and integral S."""

    t: tuple[Fraction, ...]
    S: IntegerMatrix

    def __post_init__(self):
        object.__setattr__(self, "t", tuple(Fraction(x) for x in self.t))
        if len(self.t) != self.S.n:
            raise DimensionMismatchError("translation length disagrees with holonomy size")

    @property
    def dim(self) -> int:
        return self.S.n

    @classmethod
    def identity(cls, m: int) -> "AffineElement":
        return cls(t=(Fraction(0),) * m, S=IntegerMatrix.identity(m))

    @classmethod
    def translation(cls, t: Sequence) -> "AffineElement":
        t = tuple(Fraction(x) for x in t)
        return cls(t=t, S=IntegerMatrix.identity(len(t)))

    def compose(self, other: "AffineElement") -> "AffineElement":
        """(t1, S1)(t2, S2) = (t1 + S1 t2, S1 S2)."""
        if self.dim != other.dim:
            raise DimensionMismatchError("affine elements of different dimension")
        moved = mat_vec(self.S, other.t)
        return AffineElement(
            t=tuple(a + b for a, b in zip(self.t, moved)), S=self.S * other.S
        )

    def inverse(self) -> "AffineElement":
        s_inv = self.S.unimodular_inverse()
        return AffineElement(t=tuple(-x for x in mat_vec(s_inv, self.t)), S=s_inv)

    def to_json_dict(self) -> dict:
        return {
            "t": [str(x) for x in self.t],
            "S": [list(row) for row in self.S.entries],
        }

    @classmethod
    def from_json_dict(cls, data) -> "AffineElement":
        if not isinstance(data, dict) or "t" not in data or "S" not in data:
            raise InputError("affine element JSON needs 't' and 'S'")
        t, s_rows = data["t"], data["S"]
        if not isinstance(t, list):
            raise InputError("'t' must be an array")
        if not _is_square_array(s_rows, len(t)):
            raise InputError("'S' must be a square array of the length of 't'")
        try:
            s = IntegerMatrix(s_rows)
        except InputError as exc:
            raise InputError(f"bad holonomy matrix: {exc}") from exc
        return cls(t=tuple(_parse_exact(x) for x in t), S=s)


def _is_square_array(rows, n: int) -> bool:
    """True iff rows is a list (a JSON array) of n lists of length n each."""
    return (isinstance(rows, list) and len(rows) == n
            and all(isinstance(row, list) and len(row) == n for row in rows))


class CrystGroup:
    """A crystallographic group with validated lattice and finite holonomy.

    Construction walks one Schreier tree over the holonomy group, whose
    keys are the holonomy matrices and whose lifts are first-reached witness
    elements, takes the translation lattice from the Schreier generators of
    that transversal, and checks it matches the declared one.
    """

    def __init__(
        self,
        m: int,
        generators: Sequence[AffineElement],
        lattice: Sequence[Sequence],
    ):
        if m < 1:
            raise InputError("dimension must be positive")
        gens = tuple(generators)
        for g in gens:
            if g.dim != m:
                raise InputError("generator dimension disagrees with m")
        if not _is_square_array(lattice, m):
            raise InputError("lattice must be a list of m rows, each a list of m entries")
        declared = tuple(tuple(_parse_exact(x) for x in row) for row in lattice)
        basis_matrix = RationalMatrix([list(row) for row in zip(*declared)])
        if basis_matrix.det() == 0:
            raise InputError("declared lattice basis is singular")

        for g in gens:
            if torsion_order(g.S) is None:
                raise InputError(
                    "holonomy has infinite order: only the abelian-translation"
                    " (crystallographic) base case is supported"
                )

        self.m = m
        self.generators = gens
        self.declared_lattice = declared
        letters = dict.fromkeys(x for g in gens for x in (g, g.inverse()))
        walk = (  # the maps of words in g, g^-1 on holonomy row tuples and on elements
            [partial(_times_columns, cols=tuple(zip(*a.S.entries))) for a in letters],
            [lambda x, a=a: x.compose(a) for a in letters],
        )
        tree = self._holonomy_tree(*walk)
        self._witnesses = {IntegerMatrix._raw(s): w for s, w in tree.items()}
        self.holonomy = tuple(sorted(self._witnesses, key=attrgetter("entries")))
        # Schreier's lemma: the w_h a w_(h S_a)^-1 generate the translation
        # subgroup, and each is the translation by the difference of the two
        # translation parts, as w_h a and w_(h S_a) share their holonomy part
        schreier = _schreier_generators(
            tree, *walk, lambda wa, w: [x - y for x, y in zip(wa.t, w.t)], lambda w: w
        )
        basis = lattice_basis(list(schreier), m)
        if len(basis) != m:
            raise InputError(
                f"translations span rank {len(basis)} < {m}:"
                " the group is not crystallographic"
            )
        self.lattice = tuple(basis)
        self._lattice_matrix = RationalMatrix([list(row) for row in zip(*basis)])
        self._lattice_inverse = self._lattice_matrix.inverse()
        self._validate_lattice()

    # -- construction helpers ---------------------------------------------

    def _holonomy_tree(self, key_maps, lift_maps) -> dict:
        """The Schreier tree on the holonomy (row tuples), each lift the first
        element a breadth-first walk over words reaches, under min(F(m),
        ``HOLONOMY_BUDGET``) keys: more than F(m) prove the holonomy infinite
        (InputError), while a budget below F(m) that stops the walk decides
        nothing (ResourceError)."""
        bound = _max_finite_subgroup(self.m)
        try:
            return _schreier_transversal(
                IntegerMatrix.identity(self.m).entries, AffineElement.identity(self.m),
                key_maps, lift_maps, min(bound, HOLONOMY_BUDGET), "closing the holonomy",
            )
        except ResourceError:
            if HOLONOMY_BUDGET < bound:
                raise
            raise InputError(
                "holonomy closure exceeded budget: holonomy is"
                " not finite, input is not crystallographic"
            ) from None

    def _validate_lattice(self) -> None:
        # the computed lattice is that of a normal subgroup, so holonomy-
        # invariant; declared and computed lattices must agree as Z-modules
        declared_matrix = RationalMatrix(
            [list(row) for row in zip(*self.declared_lattice)]
        )
        decl_in_computed = self._lattice_inverse * declared_matrix
        computed_in_decl = declared_matrix.inverse() * self._lattice_matrix
        if not decl_in_computed.is_integral:
            raise InputError(
                "declared lattice contains vectors that are not group translations"
            )
        if not computed_in_decl.is_integral:
            raise InputError(
                "group contains translations outside the declared lattice;"
                " declare the full translation lattice"
            )

    # -- accessors ----------------------------------------------------------

    def witness(self, s: IntegerMatrix) -> AffineElement:
        """A group element with holonomy part s."""
        try:
            return self._witnesses[s]
        except KeyError:
            raise InputError("matrix is not in the holonomy group") from None

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "lattice": [[str(x) for x in row] for row in self.declared_lattice],
            "generators": [g.to_json_dict() for g in self.generators],
        }

    @classmethod
    def from_json_dict(cls, data) -> "CrystGroup":
        if not isinstance(data, dict):
            raise InputError("crystallographic group JSON must be an object")
        try:
            m = data["m"]
            lattice = data["lattice"]
            gens = data["generators"]
        except KeyError as exc:
            raise InputError(f"crystallographic group JSON missing key {exc}") from exc
        if type(m) is not int or m < 1:  # a JSON integer, never a bool
            raise InputError("m must be a positive integer")
        if not isinstance(gens, list):
            raise InputError("'generators' must be an array")
        return cls(m=m, generators=[AffineElement.from_json_dict(g) for g in gens], lattice=lattice)


# ---------------------------------------------------------------------------
# affine Jordan decomposition
# ---------------------------------------------------------------------------


def _fixed_projection(s: IntegerMatrix) -> RationalMatrix:
    """P = (1/k) sum_(i<k) s^i for s of finite order k.

    P s = s P = P and P^2 = P, so P is the identity on the fixed subspace
    ker(s - I) and 0 on the moving subspace im(s - I), which are
    complementary for finite-order s: P projects onto the fixed subspace
    along the moving one, and I - P onto the moving one along the fixed.
    """
    k = torsion_order(s)
    if k is None:
        raise InputError("holonomy has infinite order")
    total = power = IntegerMatrix.identity(s.n)
    for _ in range(k - 1):
        power = power * s
        total = total + power
    return total.to_rational().scale(Fraction(1, k))


def affine_jordan(e: AffineElement) -> tuple[AffineElement, AffineElement]:
    """The commuting factorization (t, S) = (t_s, S)(t_u, I).

    t_u is the projection of t onto the fixed subspace of S along the moving
    subspace and t_s = t - t_u; the parts commute, the first is conjugate
    (by a rational translation) to the linear part S, the second is a pure
    translation.
    """
    t_u = mat_vec(_fixed_projection(e.S), e.t)
    t_s = tuple(a - b for a, b in zip(e.t, t_u))
    return AffineElement(t=t_s, S=e.S), AffineElement.translation(t_u)


# ---------------------------------------------------------------------------
# semisimple factor enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemiFactorComponent:
    """Semisimple factor data for one holonomy matrix.

    ``invariant_factors`` describe the quotient of the moving-subspace
    lattice by its image under (S - I); ``representatives`` lists one
    canonical semisimple factor per realized coset together with a group
    element witnessing it.
    """

    S: IntegerMatrix
    invariant_factors: tuple[int, ...]
    representatives: tuple[tuple[tuple[Fraction, ...], AffineElement], ...]

    @property
    def count(self) -> int:
        return len(self.representatives)

    def to_json_dict(self) -> dict:
        return {
            "S": [list(row) for row in self.S.entries],
            "invariant_factors": list(self.invariant_factors),
            "quotient_order": math.prod(self.invariant_factors),
            "representatives": [
                {"t_s": [str(x) for x in t_s], "witness": w.to_json_dict()}
                for t_s, w in self.representatives
            ],
        }


@dataclass(frozen=True)
class SemiFactorSet:
    """All semisimple factors of a crystallographic group up to conjugation
    by translations: finitely many per holonomy matrix."""

    m: int
    lattice: tuple[tuple[Fraction, ...], ...]
    components: tuple[SemiFactorComponent, ...]

    @property
    def total(self) -> int:
        return sum(c.count for c in self.components)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "lattice": [[str(x) for x in row] for row in self.lattice],
            "components": [c.to_json_dict() for c in self.components],
            "total": self.total,
        }


def _lattice_coordinates(
    group: CrystGroup, e: AffineElement
) -> tuple[IntegerMatrix, tuple[Fraction, ...]]:
    """(S', t') = (W^-1 S W, W^-1 t) for W the lattice basis as columns; S'
    is integral because the lattice is holonomy-invariant."""
    w_inv = group._lattice_inverse
    s_local = (w_inv * e.S.to_rational() * group._lattice_matrix).to_integer()
    return s_local, mat_vec(w_inv, e.t)


def semifactor_representatives(group: CrystGroup) -> SemiFactorSet:
    """Enumerate semisimple factors per holonomy matrix, with witnesses.

    Works in lattice coordinates.  For each holonomy S the realized factors
    form a torsor over proj(L) / (S - I) proj(L) (proj = projection onto the
    moving subspace): enumeration walks a Smith-adapted basis, canonical
    representatives have adapted coordinates in [0, d_i).
    """
    m = group.m
    w = group._lattice_matrix
    components = []
    for s_ambient in group.holonomy:
        witness = group.witness(s_ambient)
        s_local, t_local = _lattice_coordinates(group, witness)
        fixed = _fixed_projection(s_local)
        d = m - int(sum(fixed.entries[i][i] for i in range(m)))  # tr P = dim fixed
        if d == 0:
            zero = (Fraction(0),) * m
            components.append(
                SemiFactorComponent(
                    S=s_ambient,
                    invariant_factors=(),
                    representatives=((zero, group.witness(IntegerMatrix.identity(m))),),
                )
            )
            continue

        diff = s_local.to_rational() - RationalMatrix.identity(m)
        # projection onto the moving subspace along the fixed one
        proj = RationalMatrix.identity(m) - fixed
        # W P W^-1 is s_ambient's own projector (averaging commutes with conjugation)
        fixed_ambient = w * fixed * group._lattice_inverse

        # lattice of the moving subspace: SNF-reported quotient uses the
        # saturated sublattice L ∩ moving; the torsor uses proj(L)
        sat_basis = integer_kernel_basis(fixed)
        sat_mat_cols = [list(v) for v in sat_basis]
        m_sat = _matrix_in_basis(diff, sat_mat_cols)
        invariant_factors = smith_normal_form(m_sat).invariant_factors

        # proj(L) is spanned by the columns of proj
        pi_basis = lattice_basis(list(zip(*proj.entries)), m)
        if len(pi_basis) != d:
            raise AssertionError("projected lattice rank mismatch")
        m_pi = _matrix_in_basis(diff, [list(v) for v in pi_basis])
        snf = smith_normal_form(m_pi)
        u_inv = snf.U.unimodular_inverse().to_rational()
        # adapted basis columns: (pi_basis as columns) * U^{-1}
        pi_cols = RationalMatrix([list(col) for col in zip(*pi_basis)])
        adapted = pi_cols * u_inv
        diag = [snf.D.entries[i][i] for i in range(d)]
        if any(x <= 0 for x in diag):
            raise AssertionError("moving-subspace quotient must be finite")

        shift = mat_vec(proj, t_local)
        shift_coords = _solve_exact(
            [tuple(adapted.entries[i][j] for i in range(m)) for j in range(d)],
            tuple(shift),
        )
        if shift_coords is None:
            raise AssertionError("projection landed outside the moving subspace")
        canonical = [a - di * math.floor(a / di) for a, di in zip(shift_coords, diag)]

        reps = []
        for combo in itertools.product(*(range(di) for di in diag)):
            coords = [
                c + k if c + k < di else c + k - di
                for c, k, di in zip(canonical, combo, diag)
            ]
            t_s_local = tuple(
                sum(adapted.entries[i][j] * coords[j] for j in range(d))
                for i in range(m)
            )
            # witness: translate the holonomy witness by a lattice vector
            # whose projection moves the factor onto this representative
            target = tuple(a - b for a, b in zip(t_s_local, shift))
            translation = solve_integer_linear(proj, target)
            if translation is None:
                raise AssertionError("representative has no lattice witness")
            lam_local = tuple(Fraction(x) for x in translation)
            lam_ambient = mat_vec(w, lam_local)
            elem = AffineElement.translation(lam_ambient).compose(witness)
            t_s_ambient = mat_vec(w, t_s_local)
            # affine_jordan's split of elem, with the component's one projector
            t_u = mat_vec(fixed_ambient, elem.t)
            if elem.S != s_ambient or any(a - b != c for a, b, c in zip(elem.t, t_u, t_s_ambient)):
                raise AssertionError("witness does not realize its representative")
            reps.append((t_s_ambient, elem))
        components.append(
            SemiFactorComponent(
                S=s_ambient,
                invariant_factors=invariant_factors,
                representatives=tuple(reps),
            )
        )
    return SemiFactorSet(m=m, lattice=group.lattice, components=tuple(components))


def _matrix_in_basis(op: RationalMatrix, basis_cols: list[list]) -> IntegerMatrix:
    """Matrix of ``op`` restricted to the integer lattice spanned by the
    basis columns (must be op-invariant)."""
    dim = len(basis_cols)
    images = []
    for col in basis_cols:
        images.append(mat_vec(op, [Fraction(x) for x in col]))
    cols = [tuple(Fraction(x) for x in col) for col in basis_cols]
    out_cols = []
    for img in images:
        coords = _solve_exact(list(cols), tuple(img))
        if coords is None or any(c.denominator != 1 for c in coords):
            raise AssertionError("lattice is not invariant under the operator")
        out_cols.append([int(c) for c in coords])
    return IntegerMatrix([[out_cols[j][i] for j in range(dim)] for i in range(dim)])


# ---------------------------------------------------------------------------
# integral affine embedding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GLEmbedding:
    """The integral (m+1)-dimensional affine embedding of a group.

    (t, S) maps to the block matrix [[S', D t'], [0, 1]] in lattice
    coordinates (primes) with one global denominator D, so generators and
    all stored semisimple factor representatives land in GL(m+1, Z).
    """

    n: int
    denominator: int
    generators: tuple[IntegerMatrix, ...]
    semifactors: tuple[IntegerMatrix, ...]
    embed: Callable[[AffineElement], IntegerMatrix]


def _affine_block(
    s_local: IntegerMatrix, t_local: Sequence[Fraction], denom: int
) -> IntegerMatrix:
    """The block matrix [[S', D t'], [0, 1]] for the denominator D."""
    m = s_local.n
    rows = []
    for row, x in zip(s_local.entries, t_local):
        scaled = denom * x
        if scaled.denominator != 1:
            raise InputError(
                "element translation does not clear the embedding denominator"
            )
        rows.append(list(row) + [int(scaled)])
    rows.append([0] * m + [1])
    return IntegerMatrix(rows)


def lift_to_gl(group: CrystGroup) -> GLEmbedding:
    """Embed the group together with all its semisimple factor
    representatives into one GL(m+1, Z), sharing a single denominator, and
    return the GLEmbedding for the caller to feed into the separation
    searches.  The embedding is a homomorphism (verified on all generator
    pairs) and each image has determinant +-1.
    """
    factors = semifactor_representatives(group)
    factor_elements = [
        AffineElement(t=t_s, S=comp.S)
        for comp in factors.components
        for t_s, _ in comp.representatives
    ]
    local = [_lattice_coordinates(group, e) for e in group.generators + tuple(factor_elements)]
    denom = math.lcm(*(x.denominator for _, t in local for x in t))
    images = tuple(_affine_block(s, t, denom) for s, t in local)
    gen_images = images[: len(group.generators)]

    def embed(e: AffineElement) -> IntegerMatrix:
        return _affine_block(*_lattice_coordinates(group, e), denom)

    for g1, img1 in zip(group.generators, gen_images):
        for g2, img2 in zip(group.generators, gen_images):
            if img1 * img2 != embed(g1.compose(g2)):
                raise AssertionError("affine embedding is not a homomorphism")
    for img in images:
        if img.det() not in (1, -1):
            raise AssertionError("embedded element is not unimodular")
    return GLEmbedding(
        n=group.m + 1,
        denominator=denom,
        generators=gen_images,
        semifactors=images[len(group.generators):],
        embed=embed,
    )
