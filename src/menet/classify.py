"""Classification of 3-qubit pure states by graph topology across bases.

The four local-unitary-invariant classes (fully separable, biseparable,
W-like, GHZ-like) are decided in two stages: unconditional single-qubit
separability handles the not-fully-entangled classes directly (it is basis
independent), and fully entangled states are discriminated by a census of
graph topologies over sampled local bases. W-like states show the complete
graph in every accepted basis; GHZ-like states also admit bases in which
the graph degenerates to a three-node chain, so one accepted non-complete
topology is a positive witness for GHZ-likeness.

Bases whose transformed state has a near-zero amplitude are rejected from
the census rather than classified, because graph construction is only
trustworthy in the nonzero-amplitude regime.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import AllBasesRejected, InconsistentGraph, WrongArity
from .network import MenGraph
from .separability import _pairwise_entangled, is_separable
from .state import (
    DEFAULT_TOL,
    LocalBasisChange,
    PureState,
    ToleranceConfig,
    apply_local_basis_change,
    rotation,
)

STRUCTURED_ANGLES = (0.0, math.pi / 8, math.pi / 5, math.pi / 3)

SHAPE_ORDER = (
    "empty",
    "edge(1,2)",
    "edge(1,3)",
    "edge(2,3)",
    "chain(1)",
    "chain(2)",
    "chain(3)",
    "triangle",
)


class ClassTag(enum.Enum):
    FULLY_SEPARABLE = "fully-separable"
    BISEPARABLE = "biseparable"
    W_LIKE = "W-like"
    GHZ_LIKE = "GHZ-like"


@dataclass(frozen=True)
class TripartiteClass:
    """Class of a 3-qubit state; biseparable carries the separated qubit."""

    tag: ClassTag
    separated_qubit: int | None = None

    def __post_init__(self) -> None:
        if (self.tag is ClassTag.BISEPARABLE) != (self.separated_qubit is not None):
            raise ValueError("separated_qubit present iff the class is biseparable")
        if self.separated_qubit is not None and self.separated_qubit not in (1, 2, 3):
            raise ValueError(f"separated_qubit must be 1..3, got {self.separated_qubit}")

    def label(self) -> str:
        if self.tag is ClassTag.BISEPARABLE:
            return f"biseparable(qubit {self.separated_qubit})"
        return self.tag.value


@dataclass(frozen=True)
class TopologyCensus:
    """Shape counts over sampled bases, plus the rejection tally."""

    counts: Mapping[str, int]
    bases_sampled: int
    bases_rejected_for_zeros: int

    def __post_init__(self) -> None:
        if set(self.counts) - set(SHAPE_ORDER):
            raise ValueError(f"unknown shapes in census: {set(self.counts) - set(SHAPE_ORDER)}")
        accepted = self.bases_sampled - self.bases_rejected_for_zeros
        if sum(self.counts.values()) != accepted:
            raise ValueError("census counts must sum to sampled - rejected")

    def count(self, shape: str) -> int:
        return self.counts.get(shape, 0)

    @property
    def accepted(self) -> int:
        return self.bases_sampled - self.bases_rejected_for_zeros

    def non_complete(self) -> int:
        """Accepted bases whose graph is not the triangle."""
        return self.accepted - self.count("triangle")

    def to_lines(self) -> list[str]:
        lines = [
            f"bases_sampled: {self.bases_sampled}",
            f"bases_rejected: {self.bases_rejected_for_zeros}",
        ]
        lines.extend(f"{shape}: {self.count(shape)}" for shape in SHAPE_ORDER)
        return lines


def topology_shape(g: MenGraph) -> str:
    """Canonical shape name of a 3-node graph."""
    if g.num_nodes != 3:
        raise WrongArity(f"topology shapes are defined for 3 nodes, got {g.num_nodes}")
    edges = g.sorted_edges()
    if len(edges) == 0:
        return "empty"
    if len(edges) == 1:
        return f"edge({edges[0][0]},{edges[0][1]})"
    if len(edges) == 2:
        (center,) = set(edges[0]) & set(edges[1])
        return f"chain({center})"
    return "triangle"


# shape of each 3-node edge set, indexed by the bits of (1,2), (1,3), (2,3)
_SHAPE_BY_EDGE_CODE = tuple(
    topology_shape(
        MenGraph.from_edges(3, (e for e, bit in zip(((1, 2), (1, 3), (2, 3)), code) if bit))
    )
    for code in itertools.product((0, 1), repeat=3)
)


def canonical_state(name: str) -> PureState:
    """Named 3-qubit fixtures: ghz, w, bell12_0, bell13_0, bell23_0, product."""
    amps = np.zeros(8, dtype=np.complex128)
    s2 = 1.0 / math.sqrt(2.0)
    if name == "ghz":
        amps[0b000] = s2
        amps[0b111] = s2
    elif name == "w":
        s3 = 1.0 / math.sqrt(3.0)
        amps[0b001] = s3
        amps[0b010] = s3
        amps[0b100] = s3
    elif name in ("bell12_0", "bell13_0", "bell23_0"):
        pair = {"bell12_0": (1, 2), "bell13_0": (1, 3), "bell23_0": (2, 3)}[name]
        amps[0] = s2
        amps[(1 << (3 - pair[0])) | (1 << (3 - pair[1]))] = s2
    elif name == "product":
        amps[0] = 1.0
    else:
        raise ValueError(f"unknown canonical state {name!r}")
    return PureState(amps)


def structured_bases() -> tuple[LocalBasisChange, ...]:
    """Fixed census bases: every per-qubit combination of the standard angles.

    Combinations that leave one qubit in the computational basis are the
    ones that can witness chain topologies for GHZ-like states.
    """
    return tuple(
        LocalBasisChange.rotations(angles)
        for angles in itertools.product(STRUCTURED_ANGLES, repeat=3)
    )


_ADAPTIVE_PAIR_ANGLES = (math.pi / 8, math.pi / 5, math.pi / 3)


def _singular_direction_basis(
    psi: PureState, qubit: int, tol: ToleranceConfig
) -> np.ndarray | None:
    """Unitary whose rows make both qubit-`qubit` slices of psi singular.

    The slices M_0, M_1 along the qubit span a pencil u*M_0 + v*M_1 whose
    determinant is a binary quadratic in (u, v); its two projective roots
    are the directions in which a transformed slice degenerates. Only when
    the roots are orthogonal can a single unitary realize both, erasing the
    edge between the other two qubits. Returns None when the quadratic is
    degenerate or the roots are not orthogonal.
    """
    arr = psi.amplitudes.reshape(2, 2, 2)
    m0 = np.take(arr, 0, axis=qubit - 1)
    m1 = np.take(arr, 1, axis=qubit - 1)
    d0 = m0[0, 0] * m0[1, 1] - m0[0, 1] * m0[1, 0]
    d1 = m1[0, 0] * m1[1, 1] - m1[0, 1] * m1[1, 0]
    cross = (
        m0[0, 0] * m1[1, 1]
        + m0[1, 1] * m1[0, 0]
        - m0[0, 1] * m1[1, 0]
        - m0[1, 0] * m1[0, 1]
    )
    scale = float(max(np.max(np.abs(m0)), np.max(np.abs(m1)))) ** 2
    threshold = tol.abs_eps + tol.rel_eps * scale
    if abs(d0) <= threshold:
        if abs(cross) <= threshold:
            return None  # degenerate pencil: no isolated singular directions
        roots = [
            np.array([1.0, 0.0], dtype=np.complex128),
            np.array([-d1 / cross, 1.0], dtype=np.complex128),
        ]
    else:
        sq = np.sqrt(np.complex128(cross * cross - 4.0 * d0 * d1))
        roots = [
            np.array([(-cross + sq) / (2.0 * d0), 1.0], dtype=np.complex128),
            np.array([(-cross - sq) / (2.0 * d0), 1.0], dtype=np.complex128),
        ]
    r1 = roots[0] / np.linalg.norm(roots[0])
    r2 = roots[1] / np.linalg.norm(roots[1])
    if abs(np.vdot(r1, r2)) > 1e-8:
        return None
    r2 = r2 - r1 * np.vdot(r1, r2)
    r2 /= np.linalg.norm(r2)
    return np.stack([r1, r2])


def adaptive_bases(
    psi: PureState, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[LocalBasisChange, ...]:
    """State-derived census candidates that can expose chain topologies.

    Fixed or Haar-sampled bases almost surely miss the measure-zero bases in
    which a GHZ-like state's graph degenerates to a chain, so the census
    would not be invariant under local basis changes without these. Each
    candidate puts a slice-singularizing unitary on one qubit and standard
    rotations on the other two; candidates are deterministic functions of
    the state.
    """
    out = []
    for qubit in (1, 2, 3):
        u = _singular_direction_basis(psi, qubit, tol)
        if u is None:
            continue
        for t1, t2 in itertools.product(_ADAPTIVE_PAIR_ANGLES, repeat=2):
            mats: list[np.ndarray] = [rotation(t1), rotation(t2)]
            mats.insert(qubit - 1, u)
            out.append(LocalBasisChange(tuple(mats)))
    return tuple(out)


def topology_census(
    psi: PureState, samples: int, seed, tol: ToleranceConfig = DEFAULT_TOL
) -> TopologyCensus:
    """Graph-shape counts over structured, state-adaptive and Haar-drawn bases.

    `samples` Haar draws are added to the fixed structured set and the
    adaptive candidates. Per-sample generators are derived from
    (seed, sample index), so the census is deterministic and samples could
    be evaluated in any order. Bases whose transformed state has
    min |a| <= zero_amp_threshold are rejected. All bases are applied as
    one stack and all accepted graphs come from one pairwise-minor pass.
    """
    if psi.num_qubits != 3:
        raise WrongArity(f"census requires a 3-qubit state, got n={psi.num_qubits}")
    if samples < 0:
        raise ValueError("samples must be >= 0")
    bases = list(structured_bases())
    bases.extend(adaptive_bases(psi, tol))
    bases.extend(
        LocalBasisChange.random(3, seed=[_seed_scalar(seed), k]) for k in range(samples)
    )
    rotated = _rotate_stack(psi, np.array([change.matrices for change in bases]))
    accepted = np.abs(rotated).min(axis=1) > tol.zero_amp_threshold
    edges = _pairwise_entangled(rotated[accepted], tol)  # pairs (1,2), (1,3), (2,3)
    codes = edges @ np.array([4, 2, 1])
    tally = np.bincount(codes, minlength=8)
    counts = {shape: 0 for shape in SHAPE_ORDER}
    for code, shape in enumerate(_SHAPE_BY_EDGE_CODE):
        counts[shape] += int(tally[code])
    return TopologyCensus(counts, len(bases), len(bases) - int(accepted.sum()))


def _rotate_stack(psi: PureState, unitaries: np.ndarray) -> np.ndarray:
    """Amplitudes of psi under each of a (B, 3, 2, 2) stack of local unitaries.

    Qubits 1, 2, 3 are rotated in that order, as apply_local_basis_change
    does; the result has shape (B, 8).
    """
    tensor = np.einsum("bxy,yjk->bxjk", unitaries[:, 0], psi.amplitudes.reshape(2, 2, 2))
    tensor = np.einsum("bxy,biyk->bixk", unitaries[:, 1], tensor)
    tensor = np.einsum("bxy,bijy->bijx", unitaries[:, 2], tensor)
    return tensor.reshape(len(unitaries), 8)


def _seed_scalar(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise ValueError(f"seed must be an integer, got {seed!r}")


def classify(
    psi: PureState, samples: int = 256, seed: int = 0, tol: ToleranceConfig = DEFAULT_TOL
) -> TripartiteClass:
    """Assign one of the four classes to a 3-qubit state.

    Stage 1 (basis independent): single-qubit separability. All three
    separable -> fully separable; exactly one -> biseparable around it.
    Stage 2 (fully entangled): census over local bases; any accepted
    non-complete topology -> GHZ-like, otherwise W-like.
    """
    return _classify_with_census(psi, samples, seed, tol)[0]


def _classify_with_census(
    psi: PureState, samples: int, seed, tol: ToleranceConfig
) -> tuple[TripartiteClass, TopologyCensus | None]:
    """The class, and the census that decided it (None when stage 1 did)."""
    if psi.num_qubits != 3:
        raise WrongArity(f"classification requires a 3-qubit state, got n={psi.num_qubits}")
    separable = [is_separable(psi, {i}, tol).separable for i in (1, 2, 3)]
    count = sum(separable)
    if count == 3:
        return TripartiteClass(ClassTag.FULLY_SEPARABLE), None
    if count == 1:
        return TripartiteClass(ClassTag.BISEPARABLE, separable.index(True) + 1), None
    if count == 2:
        # mathematically impossible: two separable singletons force the third
        raise InconsistentGraph(
            "exactly two single-qubit splits test separable; tolerances are inconsistent"
        )
    census = topology_census(psi, samples, seed, tol)
    if census.accepted == 0:
        raise AllBasesRejected(
            f"all {census.bases_sampled} sampled bases had near-zero amplitudes"
        )
    if census.non_complete() > 0:
        return TripartiteClass(ClassTag.GHZ_LIKE), census
    return TripartiteClass(ClassTag.W_LIKE), census


@dataclass(frozen=True)
class InvarianceReport:
    """Re-classification outcomes under random local basis changes."""

    baseline: TripartiteClass
    outcomes: tuple[TripartiteClass, ...]

    @property
    def changes(self) -> tuple[tuple[int, TripartiteClass], ...]:
        return tuple(
            (trial, got)
            for trial, got in enumerate(self.outcomes)
            if got != self.baseline
        )

    @property
    def passed(self) -> bool:
        return not self.changes


def class_invariance_check(
    psi: PureState, trials: int, seed: int = 0, tol: ToleranceConfig = DEFAULT_TOL
) -> InvarianceReport:
    """Classify psi and its images under `trials` random local basis changes."""
    baseline = classify(psi, seed=seed, tol=tol)
    outcomes = []
    for trial in range(trials):
        change = LocalBasisChange.random(3, seed=[_seed_scalar(seed), trial, 1])
        rotated = apply_local_basis_change(psi, change)
        outcomes.append(classify(rotated, seed=seed, tol=tol))
    return InvarianceReport(baseline, tuple(outcomes))
