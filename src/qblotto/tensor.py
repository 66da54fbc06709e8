"""Dense complex linear algebra over tensor-factor structured spaces.

This module holds Kronecker products, conjugate transposes, partial
traces and operator expectation values, all on plain ``numpy`` arrays.
Evaluation uses only the dimensions and the norm check. The rest is the
dense reference that tests compare the engine against: ``kron_all``
builds the entangler's generator as a matrix, and the density matrix,
partial trace and expectation value give the reference measurement. The
factor structure of the composite space (one qubit per player followed
by the battlefield register) travels alongside the arrays as a
:class:`TensorDims` value, and all factor indices in the public
interface are 1-based.

Matrices are compared entrywise with a max-abs tolerance; exact float
equality is never meaningful here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, NumericalIntegrityError, ValidationError

# Tolerance for invariant checks (unitarity, hermiticity, norm).
DEFAULT_EPS = 1e-10

# Hard cap on the composite dimension 2^N * n; dense storage stays
# tractable below this and exponential blowups fail fast above it.
MAX_DIM = 2**20

# Aliases used throughout the package: 2-D / 1-D complex ndarrays.
ComplexMatrix = np.ndarray
StateVector = np.ndarray


@dataclass(frozen=True)
class TensorDims:
    """Ordered factor sizes of a composite space.

    The game convention is ``(2, ..., 2, n)``: one 2-dimensional soldier
    qubit per player, then the n-dimensional battlefield register. Only
    the final factor may differ from 2.
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(f) for f in self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ValidationError("TensorDims needs at least one factor")
        if any(f < 1 for f in factors):
            raise ValidationError(f"factor sizes must be positive, got {factors}")
        if any(f != 2 for f in factors[:-1]):
            raise ValidationError(
                f"only the final factor (battlefield register) may differ "
                f"from 2, got {factors}"
            )
        dim = 1
        for f in factors:
            dim *= f
        if dim > MAX_DIM:
            raise ValidationError(
                f"composite dimension {dim} exceeds the guardrail {MAX_DIM}; "
                f"reduce the player count or battlefield count"
            )

    @classmethod
    def for_game(cls, num_players: int, num_battlefields: int) -> "TensorDims":
        """Dims of a game with ``num_players`` qubits and an n-sized register."""
        if num_players < 1:
            raise ValidationError("a game needs at least one player")
        if num_battlefields < 1:
            raise ValidationError("a game needs at least one battlefield")
        return cls((2,) * num_players + (num_battlefields,))

    @property
    def dim(self) -> int:
        total = 1
        for f in self.factors:
            total *= f
        return total

    def __len__(self) -> int:
        return len(self.factors)

    def kept(self, keep: Iterable[int]) -> "TensorDims":
        """Dims after keeping the given 1-based factors (original order)."""
        indices = _check_keep_indices(keep, len(self.factors))
        return TensorDims(tuple(self.factors[i - 1] for i in indices))


def _check_keep_indices(keep: Iterable[int], num_factors: int) -> list[int]:
    indices = sorted(set(int(i) for i in keep))
    for i in indices:
        if not 1 <= i <= num_factors:
            raise DimensionError(
                f"keep indices within 1..{num_factors}", indices, "partial_trace"
            )
    return indices


def as_matrix(a) -> ComplexMatrix:
    """Coerce to a 2-D complex array, rejecting anything else."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise DimensionError("a 2-D matrix", arr.shape)
    return arr


def kron(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Kronecker product with the row-major convention.

    Entry ((i1,i2),(j1,j2)) of the result is ``a[i1,j1] * b[i2,j2]``; the
    first operand indexes the most significant part of the composite
    index, matching the factor order of :class:`TensorDims`.
    """
    return np.kron(as_matrix(a), as_matrix(b))


def kron_all(mats: Sequence[ComplexMatrix]) -> ComplexMatrix:
    """Kronecker product of a sequence of matrices, left to right."""
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, as_matrix(m))
    return out


def dagger(a: ComplexMatrix) -> ComplexMatrix:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def allclose(a, b, eps: float = DEFAULT_EPS) -> bool:
    """Entrywise max-abs comparison, the package's notion of equality."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    return float(np.abs(a - b).max()) <= eps


def density_matrix(psi: StateVector) -> ComplexMatrix:
    """Rank-one density matrix of a pure state vector."""
    amp = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(amp, amp.conj())


def assert_unit_norm(psi: StateVector, eps: float = DEFAULT_EPS) -> None:
    """Raise if the squared norm of ``psi`` strays from 1 by more than eps.

    Written so that a NaN norm fails too.
    """
    amp = np.asarray(psi, dtype=complex).reshape(-1)
    norm_sq = float(np.vdot(amp, amp).real)
    if not abs(norm_sq - 1.0) <= eps:
        raise NumericalIntegrityError(
            f"state vector norm^2 = {norm_sq!r} deviates from 1 beyond {eps}"
        )


def partial_trace(
    rho: ComplexMatrix, dims: TensorDims, keep: Iterable[int]
) -> ComplexMatrix:
    """Trace out every factor not listed in ``keep``.

    Parameters
    ----------
    rho : square matrix on the composite space described by ``dims``
    dims : factor structure of ``rho``
    keep : 1-based factor indices to retain; their original ordering is
        preserved in the result. An empty ``keep`` reduces to the scalar
        trace as a 1x1 matrix.

    The total trace is preserved: ``tr(result) == tr(rho)`` up to
    rounding.
    """
    rho = as_matrix(rho)
    dim = dims.dim
    if rho.shape != (dim, dim):
        raise DimensionError((dim, dim), rho.shape, "partial_trace input")

    indices = _check_keep_indices(keep, len(dims))
    factors = list(dims.factors)
    traced = [i for i in range(1, len(factors) + 1) if i not in indices]

    reshaped = rho.reshape(tuple(factors) + tuple(factors))
    for i in sorted(traced, reverse=True):
        half = reshaped.ndim // 2
        reshaped = np.trace(reshaped, axis1=i - 1, axis2=i - 1 + half)
        del factors[i - 1]

    kept_dim = 1
    for f in factors:
        kept_dim *= f
    return reshaped.reshape(kept_dim, kept_dim)


def expectation(
    op: ComplexMatrix, rho: ComplexMatrix, imag_tol: float = DEFAULT_EPS
) -> float:
    """Real expectation value ``tr(op @ rho)``.

    The trace of a Hermitian observable against a density matrix must be
    real; any imaginary residue beyond ``imag_tol`` raises
    :class:`NumericalIntegrityError` instead of being silently dropped.
    """
    op = as_matrix(op)
    rho = as_matrix(rho)
    if op.shape != rho.shape or op.shape[0] != op.shape[1]:
        raise DimensionError(rho.shape, op.shape, "expectation operator")
    value = complex(np.trace(op @ rho))
    if abs(value.imag) > imag_tol:
        raise NumericalIntegrityError(
            f"expectation value {value!r} has imaginary part beyond {imag_tol}"
        )
    return float(value.real)
