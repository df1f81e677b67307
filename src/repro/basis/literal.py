"""Basis literals (paper §2.2).

A basis literal ``{bv1, bv2, ..., bvm}`` is a set of basis vectors.  In
a well-typed literal all eigenbits are distinct, all dimensions are
equal, and every position of every vector belongs to the same primitive
basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.basis.primitive import PrimitiveBasis
from repro.basis.vector import BasisVector
from repro.errors import BasisError


@dataclass(frozen=True)
class BasisLiteral:
    """A basis literal: an ordered set of basis vectors."""

    vectors: tuple[BasisVector, ...]
    _validated: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._validated:
            return
        if not self.vectors:
            raise BasisError("basis literals must contain at least one vector")
        dims = {vec.dim for vec in self.vectors}
        if len(dims) != 1:
            raise BasisError("all vectors in a basis literal must have equal dimension")
        prims = {vec.prim for vec in self.vectors}
        if len(prims) != 1:
            raise BasisError(
                "all vectors in a basis literal must share one primitive basis"
            )
        eigenbits = {vec.eigenbits for vec in self.vectors}
        if len(eigenbits) != len(self.vectors):
            raise BasisError("all eigenbits in a basis literal must be distinct")
        object.__setattr__(self, "_validated", True)

    @classmethod
    def of(cls, *vectors: BasisVector | str) -> "BasisLiteral":
        """Convenience constructor accepting chars strings or vectors."""
        built = tuple(
            vec if isinstance(vec, BasisVector) else BasisVector.from_chars(vec)
            for vec in vectors
        )
        return cls(built)

    @property
    def dim(self) -> int:
        """Number of qubits each vector spans."""
        return self.vectors[0].dim

    @property
    def prim(self) -> PrimitiveBasis:
        """The shared primitive basis of every vector."""
        return self.vectors[0].prim

    @property
    def fully_spans(self) -> bool:
        """Whether this literal spans the whole 2^dim-dimensional space."""
        return len(self.vectors) == 2**self.dim

    @property
    def has_phases(self) -> bool:
        return any(vec.has_phase for vec in self.vectors)

    def normalized(self) -> "BasisLiteral":
        """Strip vector phases and sort lexicographically (paper §4.1)."""
        vectors = tuple(sorted(vec.without_phase() for vec in self.vectors))
        return BasisLiteral(vectors)

    def with_prim(self, prim: PrimitiveBasis) -> "BasisLiteral":
        """The same eigenbit pattern re-based onto another primitive basis."""
        return BasisLiteral(
            tuple(BasisVector(vec.eigenbits, prim, vec.phase) for vec in self.vectors)
        )

    def without_phases(self) -> "BasisLiteral":
        return BasisLiteral(tuple(vec.without_phase() for vec in self.vectors))

    def tensor(self, other: "BasisLiteral") -> "BasisLiteral":
        """Cartesian-product tensor of two literals (paper §4.1 'merging')."""
        if self.prim is not other.prim:
            raise BasisError("cannot merge literals with different primitive bases")
        vectors = tuple(
            left.concat(right) for left in self.vectors for right in other.vectors
        )
        return BasisLiteral(vectors)

    def __str__(self) -> str:
        return "{" + ", ".join(str(vec) for vec in self.vectors) + "}"

    def __len__(self) -> int:
        return len(self.vectors)


def full_literal(prim: PrimitiveBasis, dim: int) -> BasisLiteral:
    """The fully-spanning literal of the given primitive basis and dimension.

    This realizes "std[N] as a basis literal" from Algorithm E7.  Note
    the size is 2^dim, so callers should keep ``dim`` modest; alignment
    only resorts to this when factoring fails.
    """
    if prim is PrimitiveBasis.FOURIER:
        raise BasisError("the fourier basis has no basis-literal form")
    vectors = []
    for value in range(2**dim):
        eigenbits = tuple((value >> (dim - 1 - k)) & 1 for k in range(dim))
        vectors.append(BasisVector(eigenbits, prim))
    return BasisLiteral(tuple(vectors))
