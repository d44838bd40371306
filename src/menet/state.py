"""n-qubit pure states as dense amplitude vectors, plus basic operations.

Conventions (fixed for file-format stability):

- Qubits are numbered 1..n and qubit 1 is the most significant bit of the
  basis index, so the basis state (x_1, ..., x_n) sits at index
  sum(x_i * 2**(n - i)). Equivalently, qubit q is axis q - 1 of the tensor
  amplitudes.reshape((2,) * n); dense code addresses qubits that way.
- States are unit-norm within 1e-9.
- Every value is immutable after construction and every operation is a pure
  function of its inputs; randomness enters only through explicit seeds.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import (
    FileFormatError,
    InvalidUnitary,
    MissingBinding,
    ZeroProbabilityOutcome,
)

NORM_ATOL = 1e-9
_FILE_NORM_ATOL = 1e-6  # readers renormalize below this deviation, reject above


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances used by separability tests and graph building.

    ``rel_eps`` scales with the magnitudes entering a comparison,
    ``abs_eps`` is the additive floor, and ``zero_amp_threshold`` is the
    modulus below which an amplitude counts as zero.
    """

    rel_eps: float = 1e-9
    abs_eps: float = 1e-12
    zero_amp_threshold: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("rel_eps", "abs_eps", "zero_amp_threshold"):
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")


DEFAULT_TOL = ToleranceConfig()


class Assignment(Mapping):
    """Immutable map from 1-based qubit indices to bits; may be partial.

    Behaves as a read-only mapping: ``x[i]``, ``i in x``, ``len(x)``,
    iteration in ascending qubit order.
    """

    __slots__ = ("_bound",)

    def __init__(self, bindings: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if isinstance(bindings, Assignment):
            object.__setattr__(self, "_bound", bindings._bound)
            return
        if isinstance(bindings, Mapping):
            pairs = list(bindings.items())
        else:
            pairs = [(int(k), int(v)) for k, v in bindings]
        bound: dict[int, int] = {}
        for qubit, bit in pairs:
            qubit = int(qubit)
            bit = int(bit)
            if qubit < 1:
                raise ValueError(f"qubit indices are 1-based, got {qubit}")
            if bit not in (0, 1):
                raise ValueError(f"bit for qubit {qubit} must be 0 or 1, got {bit}")
            if qubit in bound:
                raise ValueError(f"duplicate binding for qubit {qubit}")
            bound[qubit] = bit
        object.__setattr__(self, "_bound", dict(sorted(bound.items())))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Assignment is immutable")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "Assignment":
        """Full assignment from a bit sequence for qubits 1..n in order."""
        bound = dict(enumerate(bits, start=1))
        if set(map(type, bound.values())) <= {int} and set(bound.values()) <= {0, 1}:
            full = cls.__new__(cls)  # already canonical: nothing to check or sort
            object.__setattr__(full, "_bound", bound)
            return full
        return cls(bound)

    @classmethod
    def zeros(cls, n: int) -> "Assignment":
        """The all-zeros full assignment over qubits 1..n."""
        return cls({i: 0 for i in range(1, n + 1)})

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(self._bound)

    def is_full(self, n: int) -> bool:
        # the keys are distinct, ascending and >= 1: n of them ending at n are 1..n
        return len(self._bound) == n and (n == 0 or next(reversed(self._bound)) == n)

    def bits(self, n: int) -> tuple[int, ...]:
        """Bit tuple (x_1, ..., x_n); raises MissingBinding if not full."""
        if not self.is_full(n):
            missing = sorted(set(range(1, n + 1)) - set(self._bound))
            raise MissingBinding(f"assignment does not bind qubits {missing} of 1..{n}")
        return tuple(self._bound.values())

    def restrict(self, qubits: Iterable[int]) -> "Assignment":
        """Sub-assignment on the given qubits (all must be bound)."""
        wanted = sorted(set(qubits))
        missing = [q for q in wanted if q not in self._bound]
        if missing:
            raise MissingBinding(f"assignment does not bind qubits {missing}")
        return Assignment({q: self._bound[q] for q in wanted})

    def merge(self, other: "Assignment") -> "Assignment":
        """Union of two assignments; conflicting bindings are rejected."""
        merged = dict(self._bound)
        for qubit, bit in other.items():
            if merged.get(qubit, bit) != bit:
                raise ValueError(f"conflicting bindings for qubit {qubit}")
            merged[qubit] = bit
        return Assignment(merged)

    def __getitem__(self, qubit: int) -> int:
        return self._bound[qubit]

    def __contains__(self, qubit) -> bool:
        return qubit in self._bound

    def __iter__(self):
        return iter(self._bound)

    def __len__(self) -> int:
        return len(self._bound)

    def __eq__(self, other) -> bool:
        if isinstance(other, Assignment):
            return self._bound == other._bound
        if isinstance(other, Mapping):
            return dict(self._bound) == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._bound.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{q}={b}" for q, b in self._bound.items())
        return f"Assignment({inner})"


def index_of(x: Assignment, n: int) -> int:
    """Basis index of a full assignment (qubit 1 = most significant bit)."""
    bits = x.bits(n)
    index = 0
    for bit in bits:
        index = (index << 1) | bit
    return index


def assignment_of(index: int, n: int) -> Assignment:
    """Inverse of :func:`index_of`."""
    if not 0 <= index < 2**n:
        raise ValueError(f"index {index} out of range for {n} qubits")
    return Assignment({i: (index >> (n - i)) & 1 for i in range(1, n + 1)})


class PureState:
    """Dense, unit-norm complex amplitude vector of an n-qubit system."""

    __slots__ = ("_amps",)

    def __init__(self, amplitudes):
        arr = np.array(amplitudes, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-D sequence")
        n = arr.size.bit_length() - 1
        if 2**n != arr.size or n < 1:
            raise ValueError(f"amplitude count must be 2**n with n >= 1, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("amplitudes must be finite")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 by more than {NORM_ATOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "_amps", arr)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("PureState is immutable")

    @classmethod
    def normalized(cls, amplitudes) -> "PureState":
        """Construct after rescaling to unit norm (rejects the zero vector)."""
        arr = np.asarray(amplitudes, dtype=np.complex128)
        norm = float(np.linalg.norm(arr))
        if norm == 0.0 or not math.isfinite(norm):
            raise ValueError("cannot normalize a zero or non-finite vector")
        return cls(arr / norm)

    @property
    def num_qubits(self) -> int:
        return self._amps.size.bit_length() - 1

    @property
    def dim(self) -> int:
        return self._amps.size

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only amplitude vector, basis index MSB-first in qubit 1."""
        return self._amps

    def amplitude(self, x: Assignment) -> complex:
        return complex(self._amps[index_of(x, self.num_qubits)])

    def min_modulus(self) -> float:
        return float(np.min(np.abs(self._amps)))

    def __repr__(self) -> str:
        return f"PureState(num_qubits={self.num_qubits})"


def basis_state(n: int, index: int = 0) -> PureState:
    """Computational basis state |index> of n qubits."""
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[index] = 1.0
    return PureState(amps)


def _broadcast_over(values: np.ndarray, qubits, over) -> np.ndarray:
    """Contiguous copy of `values` broadcast to the tensor over `over`.

    `values` has one axis per qubit of `qubits` and `over` one per qubit it
    lists, both ascending; the result is at least 1-D. Complex products of
    such copies round like numpy's flat contiguous loops, which its strided
    and 0-d loops need not do.
    """
    shape = tuple(2 if q in qubits else 1 for q in over)
    return np.ascontiguousarray(np.broadcast_to(values.reshape(shape), (2,) * len(over)))


def _compose_blocks(factors, blocks, n: int) -> np.ndarray:
    amps = np.ones((2,) * n, dtype=np.complex128)
    for factor, block in zip(factors, blocks):
        tensor = factor.amplitudes.reshape((2,) * len(block))
        amps *= _broadcast_over(tensor, sorted(block), range(1, n + 1))
    return amps.reshape(-1)


def tensor_product(phi: PureState, chi: PureState, m: Iterable[int] | None = None) -> PureState:
    """Composite state with phi on qubits M and chi on the complement.

    With ``m=None`` phi occupies the leading qubits 1..|phi| (a Kronecker
    product). Otherwise ``m`` lists the composite-system qubits carrying
    phi's qubits in ascending order, and chi fills the rest in ascending
    order; the composite amplitude at (x_M, x_Mbar) is the product of the
    factor amplitudes.
    """
    n = phi.num_qubits + chi.num_qubits
    if m is None:
        return PureState(np.kron(phi.amplitudes, chi.amplitudes))
    m_sorted = sorted(set(m))
    if len(m_sorted) != phi.num_qubits or not all(1 <= q <= n for q in m_sorted):
        raise ValueError(f"m must name {phi.num_qubits} distinct qubits within 1..{n}")
    rest = sorted(set(range(1, n + 1)) - set(m_sorted))
    return PureState(_compose_blocks((phi, chi), (m_sorted, rest), n))


@dataclass(frozen=True)
class LocalBasisChange:
    """One 2x2 unitary per qubit, applied as U_1 (x) ... (x) U_n."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        frozen = []
        for i, u in enumerate(self.matrices, start=1):
            mat = np.array(u, dtype=np.complex128)
            if mat.shape != (2, 2):
                raise InvalidUnitary(f"matrix for qubit {i} must be 2x2, got {mat.shape}")
            defect = float(np.max(np.abs(mat @ mat.conj().T - np.eye(2))))
            if defect > NORM_ATOL:
                raise InvalidUnitary(
                    f"matrix for qubit {i} is not unitary (defect {defect:.3e})"
                )
            mat.setflags(write=False)
            frozen.append(mat)
        object.__setattr__(self, "matrices", tuple(frozen))

    @property
    def num_qubits(self) -> int:
        return len(self.matrices)

    @classmethod
    def identity(cls, n: int) -> "LocalBasisChange":
        return cls(tuple(np.eye(2) for _ in range(n)))

    @classmethod
    def uniform(cls, matrix, n: int) -> "LocalBasisChange":
        """The same single-qubit matrix on every qubit."""
        return cls(tuple(matrix for _ in range(n)))

    @classmethod
    def rotations(cls, angles: Iterable[float]) -> "LocalBasisChange":
        return cls(tuple(rotation(theta) for theta in angles))

    @classmethod
    def random(cls, n: int, seed) -> "LocalBasisChange":
        """Independent Haar-random single-qubit unitaries."""
        rng = np.random.default_rng(seed)
        return cls(tuple(haar_qubit_unitary(rng) for _ in range(n)))


def rotation(theta: float) -> np.ndarray:
    """Real rotation [[cos, -sin], [sin, cos]] by angle theta."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def haar_qubit_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary via the two-angle-plus-phase form."""
    alpha, beta = rng.uniform(0.0, 2.0 * math.pi, size=2)
    theta = math.asin(math.sqrt(rng.uniform(0.0, 1.0)))
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [np.exp(1j * alpha) * c, np.exp(1j * beta) * s],
            [-np.exp(-1j * beta) * s, np.exp(-1j * alpha) * c],
        ],
        dtype=np.complex128,
    )


def apply_local_basis_change(psi: PureState, change: LocalBasisChange) -> PureState:
    """Apply per-qubit unitaries; the norm is preserved within 1e-9."""
    n = psi.num_qubits
    if change.num_qubits != n:
        raise InvalidUnitary(
            f"basis change has {change.num_qubits} matrices for a {n}-qubit state"
        )
    tensor = psi.amplitudes.reshape((2,) * n)
    for axis, u in enumerate(change.matrices):
        tensor = np.moveaxis(np.tensordot(u, tensor, axes=([1], [axis])), 0, axis)
    return PureState(tensor.reshape(-1))


def measure_qubit(
    psi: PureState, qubit: int, outcome: int, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[float, PureState]:
    """Projective measurement of one qubit in the computational basis.

    Returns (probability, collapsed state). The collapsed state keeps all n
    qubits with the measured one pinned to `outcome`; inconsistent
    amplitudes are zeroed and the rest renormalized. Outcomes with
    probability below zero_amp_threshold**2 raise ZeroProbabilityOutcome.
    """
    n = psi.num_qubits
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit {qubit} out of range 1..{n}")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    tensor = psi.amplitudes.reshape((2,) * n)
    at = (slice(None),) * (qubit - 1) + (outcome,)
    probability = float(np.sum(np.abs(tensor[at].reshape(-1)) ** 2))
    if probability < tol.zero_amp_threshold**2:
        raise ZeroProbabilityOutcome(
            f"outcome {outcome} on qubit {qubit} has probability {probability:.3e}"
        )
    collapsed = np.zeros_like(tensor)
    collapsed[at] = tensor[at]
    return probability, PureState(collapsed.reshape(-1) / math.sqrt(probability))


def fidelity_up_to_phase(psi: PureState, chi: PureState) -> float:
    """|<psi|chi>|; equals 1 exactly when the states agree up to global phase."""
    if psi.num_qubits != chi.num_qubits:
        raise ValueError("states must have the same number of qubits")
    return float(min(abs(np.vdot(psi.amplitudes, chi.amplitudes)), 1.0))


def random_state(n: int, seed) -> PureState:
    """Haar-like random state: iid standard-normal re/im parts, normalized."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return PureState.normalized(vec)


def random_nonzero_state(n: int, seed, zero_amp_threshold: float = 1e-6) -> PureState:
    """Random state resampled until every amplitude modulus exceeds the threshold."""
    rng = np.random.default_rng(seed)
    while True:
        vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        psi = PureState.normalized(vec)
        if psi.min_modulus() > zero_amp_threshold:
            return psi


@dataclass(frozen=True)
class ProductStateSample:
    """A random product state together with the partition it was built on."""

    state: PureState
    blocks: tuple[tuple[int, ...], ...]
    factors: tuple[PureState, ...]


def random_product_state(blocks: Iterable[Iterable[int]], seed) -> ProductStateSample:
    """Tensor product of independent random factors, one per partition block.

    `blocks` must partition 1..n; the composite state is separable across
    every union of blocks.
    """
    block_list = [tuple(sorted(set(b))) for b in blocks]
    flat = [q for b in block_list for q in b]
    n = len(flat)
    if n == 0 or set(flat) != set(range(1, n + 1)) or len(flat) != len(set(flat)):
        raise ValueError("blocks must partition 1..n")
    rng = np.random.default_rng(seed)
    factors = tuple(random_state(len(b), rng) for b in block_list)
    amps = _compose_blocks(factors, block_list, n)
    return ProductStateSample(PureState(amps), tuple(block_list), factors)


# --- state file format ------------------------------------------------------
#
# JSON text with fields "n" and "amplitudes" (2**n pairs [re, im] in
# MSB-first index order). Writers emit 18 significant digits; readers accept
# any real literals and renormalize when |norm - 1| < 1e-6, rejecting
# otherwise.


def _fmt_real(x: float) -> str:
    return format(float(x), ".17e")


def save_state(psi: PureState, path) -> None:
    # "%.17e" on a float renders exactly as _fmt_real; one format call covers every amplitude
    parts = np.stack([psi.amplitudes.real, psi.amplitudes.imag], axis=1).ravel().tolist()
    rows = ",\n".join(["    [%.17e, %.17e]"] * len(psi.amplitudes)) % tuple(parts)
    lines = ["{", f'  "n": {psi.num_qubits},', '  "amplitudes": [', rows, "  ]", "}"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_state(path) -> PureState:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot read state file {path}: {exc}") from exc
    return _state_from_payload(payload)


def _state_from_payload(payload) -> PureState:
    if not isinstance(payload, dict) or "n" not in payload or "amplitudes" not in payload:
        raise FileFormatError("state file must be an object with 'n' and 'amplitudes'")
    n = payload["n"]
    if not isinstance(n, int) or n < 1:
        raise FileFormatError(f"'n' must be a positive integer, got {n!r}")
    raw = payload["amplitudes"]
    if not isinstance(raw, list) or len(raw) != 2**n:
        raise FileFormatError(f"expected {2**n} amplitude pairs, got {len(raw) if isinstance(raw, list) else type(raw).__name__}")
    amps = _parse_amplitudes(raw)
    if not np.all(np.isfinite(amps)):
        raise FileFormatError("amplitudes must be finite")
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) >= _FILE_NORM_ATOL:
        raise FileFormatError(
            f"state file norm {norm!r} deviates from 1 by {abs(norm - 1.0):.3e} (>= {_FILE_NORM_ATOL})"
        )
    return PureState(amps / norm)


def _parse_amplitudes(raw: list) -> np.ndarray:
    """The [re, im] pairs of `raw` as complex amplitudes.

    One array conversion when every entry is a pair of JSON numbers;
    otherwise the pair-by-pair loop, which names the first bad entry. The
    dtype is inferred, not forced: float64 would read None as nan and
    numeric strings as numbers.
    """
    try:
        values = np.array(raw)
    except (TypeError, ValueError, OverflowError):
        values = None
    if values is not None and values.shape == (len(raw), 2) and values.dtype.kind in "biuf":
        return values.astype(np.float64).view(np.complex128).reshape(-1)
    bad = "amplitude {} must be a [re, im] pair of reals"
    amps = np.empty(len(raw), dtype=np.complex128)
    for i, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) for v in pair)
        ):
            raise FileFormatError(bad.format(i))
        try:
            amps[i] = complex(float(pair[0]), float(pair[1]))
        except OverflowError:  # an int too large for a double
            raise FileFormatError(bad.format(i)) from None
    return amps
