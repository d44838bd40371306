"""n-qubit pure states as dense amplitude vectors, plus basic operations.

Conventions (fixed for file-format stability):

- Qubits are numbered 1..n and qubit 1 is the most significant bit of the
  basis index, so the basis state (x_1, ..., x_n) sits at index
  sum(x_i * 2**(n - i)). Equivalently, qubit q is axis q - 1 of the tensor
  amplitudes.reshape((2,) * n); dense code addresses qubits that way.
- States are unit-norm within 1e-9.
- Every value is immutable after construction and every operation is a pure
  function of its inputs; randomness enters only through explicit seeds.

numpy is imported inside the functions that use it, so that the code paths
which only read models (chain queries, the CLI's start) never load it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import (
    FileFormatError,
    InvalidPartition,
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


def _bits(value: int, width: int) -> tuple[int, ...]:
    """The low `width` bits of `value`, most significant first."""
    return tuple((value >> (width - 1 - t)) & 1 for t in range(width))


def assignment_of(index: int, n: int) -> Assignment:
    """Inverse of :func:`index_of`."""
    if not 0 <= index < 2**n:
        raise ValueError(f"index {index} out of range for {n} qubits")
    return Assignment.from_bits(_bits(index, n))


def _validate_subset(qubits, n: int, label: str) -> list[int]:
    out = sorted(set(int(q) for q in qubits))
    if any(q < 1 or q > n for q in out):
        raise InvalidPartition(f"{label} must lie within 1..{n}, got {out}")
    return out


def _disjoint_subsets(n: int, a, b, c) -> tuple[list[int], list[int], list[int]]:
    """A, B and C as sorted qubit lists, each within 1..n, pairwise disjoint."""
    groups = _validate_subset(a, n, "A"), _validate_subset(b, n, "B"), _validate_subset(c, n, "C")
    if len(set().union(*groups)) < sum(map(len, groups)):
        raise InvalidPartition("A, B, C must be pairwise disjoint")
    return groups


class PureState:
    """Dense, unit-norm complex amplitude vector of an n-qubit system."""

    __slots__ = ("_amps",)

    def __init__(self, amplitudes):
        import numpy as np

        self._hold(np.array(amplitudes, dtype=np.complex128))

    @classmethod
    def _adopt(cls, arr) -> "PureState":
        """The state of `arr`, a fresh complex128 array no one else holds.

        The constructor's checks, without its copy: the state takes `arr`
        over and freezes it, and the array it views, if any.
        """
        import numpy as np

        psi = cls.__new__(cls)
        psi._hold(arr)
        if isinstance(arr.base, np.ndarray):
            arr.base.setflags(write=False)
        return psi

    def _hold(self, arr) -> None:
        """Check `arr` as a state's amplitudes, then keep it, frozen."""
        import numpy as np

        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-D sequence")
        n = arr.size.bit_length() - 1
        if 2**n != arr.size or n < 1:
            raise ValueError(f"amplitude count must be 2**n with n >= 1, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("amplitudes must be finite")
        norm = _norm(arr)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 by more than {NORM_ATOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "_amps", arr)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("PureState is immutable")

    @classmethod
    def normalized(cls, amplitudes) -> "PureState":
        """Construct after rescaling to unit norm (rejects the zero vector)."""
        import numpy as np

        arr = np.array(amplitudes, dtype=np.complex128)
        norm = _norm(arr.reshape(-1))
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
        return float(abs(self._amps).min())

    def __repr__(self) -> str:
        return f"PureState(num_qubits={self.num_qubits})"


def _norm(arr) -> float:
    """Euclidean norm of a contiguous 1-D complex array.

    A ufunc sum, not np.linalg.norm: BLAS would wake its worker threads in
    a fresh process, which costs far more than the sum itself.
    """
    parts = arr.view("f8")
    return math.sqrt(float((parts * parts).sum()))


def basis_state(n: int, index: int = 0) -> PureState:
    """Computational basis state |index> of n qubits."""
    import numpy as np

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
    import numpy as np

    shape = tuple(2 if q in qubits else 1 for q in over)
    return np.ascontiguousarray(np.broadcast_to(values.reshape(shape), (2,) * len(over)))


def _compose_blocks(factors, blocks, n: int) -> np.ndarray:
    import numpy as np

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
    import numpy as np

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
        import numpy as np

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
        import numpy as np

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
        import numpy as np

        rng = np.random.default_rng(seed)
        return cls(tuple(haar_qubit_unitary(rng) for _ in range(n)))


def rotation(theta: float) -> np.ndarray:
    """Real rotation [[cos, -sin], [sin, cos]] by angle theta."""
    import numpy as np

    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def haar_qubit_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary via the two-angle-plus-phase form."""
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

    if psi.num_qubits != chi.num_qubits:
        raise ValueError("states must have the same number of qubits")
    return float(min(abs(np.vdot(psi.amplitudes, chi.amplitudes)), 1.0))


def random_state(n: int, seed) -> PureState:
    """Haar-like random state: iid standard-normal re/im parts, normalized."""
    import numpy as np

    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return PureState.normalized(vec)


def random_nonzero_state(n: int, seed, zero_amp_threshold: float = 1e-6) -> PureState:
    """Random state resampled until every amplitude modulus exceeds the threshold."""
    import numpy as np

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
    import numpy as np

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


_ROWS_PER_WRITE = 2048


def save_state(psi: PureState, path) -> None:
    import numpy as np

    # one "%.17e" format call covers each block of rows; the complex128
    # amplitudes viewed as float64 are (re, im) pairs in row order
    amps = psi.amplitudes
    with _writing(path, "state file ") as fh:
        fh.write(f'{{\n  "n": {psi.num_qubits},\n  "amplitudes": [\n')
        for start in range(0, len(amps), _ROWS_PER_WRITE):
            parts = amps[start : start + _ROWS_PER_WRITE].view(np.float64).tolist()
            if start:
                fh.write(",\n")
            fh.write(",\n".join(["    [%.17e, %.17e]"] * (len(parts) // 2)) % tuple(parts))
        fh.write("\n  ]\n}\n")


@contextlib.contextmanager
def _writing(path, what: str):
    """The file at `path`, open for writing text; `what` names its format in errors."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise FileFormatError(f"cannot write {what}{path}: {exc}") from exc


def _read_json(path, what: str = "") -> object:
    """The parsed JSON text of the file at `path`; `what` names its format in errors.

    The one parse rule of the state and model readers. json.load runs with
    _table_hook, which converts each [re, im] table as soon as json has
    parsed it, so the whole tree of entry lists is never held at once. The
    top two levels, an object and the value of each of its keys, come back
    as json builds them without the hook: only the tables below keep their
    conversion.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = _as_json(json.load(fh, object_pairs_hook=_table_hook))
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot read {what}{path}: {exc}") from exc
    return {key: _as_json(value) for key, value in payload.items()} if type(payload) is dict else payload


def load_state(path) -> PureState:
    # numpy first: the parsed file's small objects then share no memory with
    # numpy's long-lived ones and go back to the system when freed (a fresh
    # `menet measure` on 14 qubits peaked 0.8 MB higher the other way round,
    # CPython 3.11 on Linux)
    import numpy  # noqa: F401

    return _state_from_payload(_read_json(path, "state file "))


def _payload_entries(payload) -> list:
    """The amplitude entries of a state file's payload, after its structural checks."""
    if not isinstance(payload, dict) or "n" not in payload or "amplitudes" not in payload:
        raise FileFormatError("state file must be an object with 'n' and 'amplitudes'")
    n = payload["n"]
    if type(n) is not int or n < 1:  # bool is an int subclass
        raise FileFormatError(f"'n' must be a positive integer, got {n!r}")
    raw = payload["amplitudes"]
    if not isinstance(raw, list) or len(raw) != 2**n:
        raise FileFormatError(f"expected {2**n} amplitude pairs, got {len(raw) if isinstance(raw, list) else type(raw).__name__}")
    return raw


def _file_norm(norm: float) -> float:
    """A state file's norm, refused unless within _FILE_NORM_ATOL of 1."""
    if abs(norm - 1.0) >= _FILE_NORM_ATOL:
        raise FileFormatError(
            f"state file norm {norm!r} deviates from 1 by {abs(norm - 1.0):.3e} (>= {_FILE_NORM_ATOL})"
        )
    return norm


def _state_from_payload(payload) -> PureState:
    raw = _payload_entries(payload)
    import numpy as np

    amps = _batched_entries(raw)
    if amps is None:  # entry by entry, to name the first bad one
        amps = np.array(_entry_list(raw), dtype=np.complex128)
    if not np.all(np.isfinite(amps)):
        raise FileFormatError("amplitudes must be finite")
    amps /= _file_norm(_norm(amps))  # a fresh array: divided in place and taken over
    return PureState._adopt(amps)


def _load_amplitudes(path) -> list[complex]:
    """load_state(path).amplitudes.tolist(), bit for bit; plain Python for 3 qubits.

    A 3-qubit file goes through _state_from_payload's checks, in its order
    and with its messages, but builds no array: the 16 squares are summed
    in numpy's pairwise order for 16 numbers (eight running sums
    r[j] = x[j] + x[j + 8], then a fixed tree), and each part is scaled as
    numpy divides a complex number by a real one, (re + im*0.0) * (1/norm)
    and (im - re*0.0) * (1/norm), zero signs included. Files of other sizes
    are read by _state_from_payload.
    """
    payload = _read_json(path, "state file ")
    if len(_payload_entries(payload)) != 8:
        return _state_from_payload(payload).amplitudes.tolist()
    amps = _entry_list(payload["amplitudes"])
    parts = [x for a in amps for x in (a.real, a.imag)]
    if not all(map(math.isfinite, parts)):
        raise FileFormatError("amplitudes must be finite")
    r = [parts[j] * parts[j] + parts[j + 8] * parts[j + 8] for j in range(8)]
    scale = 1.0 / _file_norm(math.sqrt(((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))))
    return [complex((a.real + a.imag * 0.0) * scale, (a.imag - a.real * 0.0) * scale) for a in amps]


# Both file formats store complex numbers as [re, im] entries and hold them
# to one rule: a list of two JSON numbers. JSON numbers parse to int or
# float; bool, an int subclass, is not one.

_REALS = frozenset((int, float))


def _batched_entries(pairs: list):
    """The [re, im] entries `pairs` as a complex array, from one conversion.

    None when some entry breaks the entry rule. The types are checked
    before the conversion, which would take bools, None and numeric strings
    for numbers.
    """
    import numpy as np

    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    flat = list(itertools.chain.from_iterable(pairs))
    if not set(map(type, flat)) <= _REALS:
        return None
    try:
        return np.array(flat, dtype=np.float64).view(np.complex128)
    except OverflowError:  # an int past the double range
        return None


def _entry_list(pairs: list) -> list[complex]:
    """The [re, im] entries `pairs` as complex values; the first bad one is named."""
    values = []
    for i, pair in enumerate(pairs):
        try:
            values.append(_entry_value(pair))
        except (ValueError, OverflowError):  # an int too large for a double is a bad entry too
            raise FileFormatError(f"amplitude {i} must be a [re, im] pair of reals") from None
    return values


def _entry_value(pair) -> complex:
    """One [re, im] entry as a complex value.

    Raises ValueError unless `pair` is a list of two JSON numbers, and
    OverflowError for an integer past the double range; the caller names
    the entry.
    """
    if type(pair) is list and len(pair) == 2:
        re, im = pair
        if type(re) in _REALS and type(im) in _REALS:
            return complex(re, im)
    raise ValueError("not a [re, im] pair of reals")


class _ParsedTable:
    """A JSON object of [re, im] entries, converted as it was parsed.

    _table_hook makes it: the object's keys in file order, all distinct,
    and one complex value per entry. Its repr is that of the dict json
    builds without the hook, so a message quoting it reads the same, and
    _as_json rebuilds that dict.
    """

    __slots__ = ("keys", "entries")

    def __init__(self, keys: tuple[str, ...], entries: tuple[complex, ...]):
        self.keys = keys
        self.entries = entries

    def __repr__(self) -> str:
        return repr(_as_json(self))


def _table_hook(pairs: list) -> object:
    """json's object_pairs_hook for [re, im] tables; never raises.

    An object whose keys are distinct and whose values are all entries of
    two floats becomes a _ParsedTable at once, and its lists are freed as
    the parse goes on. Any other object is the dict json builds. Integer
    parts pass the entry rule too, but they leave their object a dict,
    read entry by entry: with floats alone, _as_json gives back the very
    dict json would have built.
    """
    if pairs:
        keys, entries = zip(*pairs)
        if set(map(type, entries)) == {list} and set(map(len, entries)) == {2}:
            if set(map(type, itertools.chain.from_iterable(entries))) == {float} and len(set(keys)) == len(keys):
                return _ParsedTable(keys, tuple(itertools.starmap(complex, entries)))
    return dict(pairs)


def _as_json(value):
    """`value` as json parses it without _table_hook.

    A _ParsedTable goes back to its dict of [re, im] lists, bit for bit, as
    its parts are floats; anything else is returned as it is.
    """
    if type(value) is _ParsedTable:
        return {key: [v.real, v.imag] for key, v in zip(value.keys, value.entries)}
    return value
