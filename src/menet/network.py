"""Conditional-entanglement graphs and potential-based state models.

A model couples an undirected graph over qubits (edges = conditional
entanglement between the endpoints given everything else) with one
potential table per node. The table for node i stores the amplitude ratio
q(x_i | x_{U(i)}) against a reference point, with all non-neighbors pinned
at the reference; together with the reference modulus this determines the
state up to the reference phase, via the telescoping product over nodes in
ascending index order (lower-indexed neighbors at their actual values,
higher-indexed ones at the reference).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import warnings
from collections.abc import Iterable, Mapping
from dataclasses import InitVar, dataclass
from types import MappingProxyType

import numpy as np

from .errors import (
    EnumerationBoundExceeded,
    FileFormatError,
    InconsistentGraph,
    InvalidPartition,
    ZeroAmplitudeWarning,
    ZeroReferenceAmplitude,
)
from .separability import _pairwise_entangled, _splits_separable
from .state import (
    DEFAULT_TOL,
    Assignment,
    PureState,
    ToleranceConfig,
    _broadcast_over,
    _fmt_real,
)

_NORM_AUDIT_MAX = 12  # brute-force normalization audit bound
_RECONSTRUCT_MAX = 24
_GRAPHOID_MAX = 4  # exhaustive graphoid-axiom enumeration bound
_PERFECT_MAP_MAX = 6  # exhaustive perfect-map enumeration bound
_MODULUS_ATOL = 1e-9


@dataclass(frozen=True)
class MenGraph:
    """Undirected graph over qubits 1..n; no self-loops."""

    num_nodes: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("graph needs at least one node")
        canon = set()
        adjacency: dict[int, list[int]] = {i: [] for i in range(1, self.num_nodes + 1)}
        for edge in self.edges:
            i, j = edge
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if not (1 <= i <= self.num_nodes and 1 <= j <= self.num_nodes):
                raise ValueError(f"edge {edge} outside 1..{self.num_nodes}")
            if (min(i, j), max(i, j)) not in canon:
                adjacency[i].append(j)
                adjacency[j].append(i)
            canon.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(canon))
        object.__setattr__(
            self, "_adjacency", {i: tuple(sorted(js)) for i, js in adjacency.items()}
        )

    @classmethod
    def from_edges(cls, num_nodes: int, edges: Iterable[tuple[int, int]]) -> "MenGraph":
        return cls(num_nodes, frozenset((int(i), int(j)) for i, j in edges))

    @classmethod
    def empty(cls, num_nodes: int) -> "MenGraph":
        return cls(num_nodes, frozenset())

    @classmethod
    def path(cls, num_nodes: int) -> "MenGraph":
        """The chain 1-2-...-n."""
        return cls.from_edges(num_nodes, ((i, i + 1) for i in range(1, num_nodes)))

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def neighbors(self, i: int) -> tuple[int, ...]:
        """U(i): nodes adjacent to i, ascending."""
        return self._adjacency[i]

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def is_path(self) -> bool:
        """Whether the graph is the chain 1-2-...-n; worked out once per graph."""
        cached = self.__dict__.get("_is_path")
        if cached is None:
            cached = len(self.edges) == self.num_nodes - 1 and all(
                (i, i + 1) in self.edges for i in range(1, self.num_nodes)
            )
            object.__setattr__(self, "_is_path", cached)
        return cached


class QFunctionTable:
    """Per-node potential: (x_i, neighbor context) -> nonzero complex ratio.

    Stored as one read-only complex array of shape (2,)*(k+1): axis 0 is the
    node's bit, the other axes are its k neighbors in ascending index order,
    so the C-order flat index is bit << k | ctx. `values` may be that array
    or a mapping keyed by (bit, ctx-tuple). Entries at the node's reference
    bit are exactly 1 (stored, not recomputed).
    """

    __slots__ = ("node", "neighbors", "reference_bit", "array")

    def __init__(
        self,
        node: int,
        neighbors: tuple[int, ...],
        reference_bit: int,
        values: Mapping[tuple[int, tuple[int, ...]], complex] | np.ndarray,
        zero_threshold: float = DEFAULT_TOL.zero_amp_threshold,
    ):
        neighbors = tuple(int(j) for j in neighbors)
        if sorted(neighbors) != list(neighbors) or node in neighbors:
            raise ValueError("neighbors must be ascending and exclude the node")
        if reference_bit not in (0, 1):
            raise ValueError("reference_bit must be 0 or 1")
        shape = (2,) * (len(neighbors) + 1)
        if isinstance(values, Mapping):
            keys = [(key[0], key[1:]) for key in itertools.product((0, 1), repeat=len(shape))]
            if set(values) != set(keys):
                raise _coverage_error(node, len(keys))
            values = np.reshape([complex(values[key]) for key in keys], shape)
        array = np.array(values, dtype=np.complex128)
        if array.shape != shape:
            raise _coverage_error(node, 2 ** len(shape))
        off_one = np.argwhere(array[reference_bit] != 1)
        if len(off_one):
            ctx = tuple(off_one[0].tolist())
            raise ValueError(
                f"node {node}: value at the reference bit must be exactly 1, "
                f"got {complex(array[(reference_bit, *ctx)])!r} at context {ctx}"
            )
        small = np.argwhere(np.abs(array) <= zero_threshold)
        if len(small):
            bit, *ctx = small[0].tolist()
            raise ValueError(
                f"node {node}: potential value {complex(array[(bit, *ctx)])!r} "
                f"at {(bit, tuple(ctx))} is ~0"
            )
        array.setflags(write=False)
        object.__setattr__(self, "node", int(node))
        object.__setattr__(self, "neighbors", neighbors)
        object.__setattr__(self, "reference_bit", int(reference_bit))
        object.__setattr__(self, "array", array)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("QFunctionTable is immutable")

    @property
    def values(self) -> Mapping[tuple[int, tuple[int, ...]], complex]:
        """Read-only (bit, ctx-tuple) -> value view, built on access."""
        keys = itertools.product((0, 1), repeat=self.array.ndim)
        return MappingProxyType(
            {(key[0], key[1:]): val for key, val in zip(keys, self.array.reshape(-1).tolist())}
        )

    def q(self, bit: int, context: tuple[int, ...]) -> complex:
        key = (bit, *context)
        if len(key) != self.array.ndim or not set(key) <= {0, 1}:
            raise KeyError((bit, tuple(context)))  # numpy would wrap a -1 silently
        return complex(self.array[key])

    def __eq__(self, other) -> bool:
        if not isinstance(other, QFunctionTable):
            return NotImplemented
        return (
            self.node == other.node
            and self.neighbors == other.neighbors
            and self.reference_bit == other.reference_bit
            and np.array_equal(self.array, other.array)
        )

    def __repr__(self) -> str:
        return f"QFunctionTable(node={self.node}, neighbors={self.neighbors})"


def _coverage_error(node: int, size: int) -> ValueError:
    return ValueError(f"table for node {node} must cover all {size} (bit, context) keys")


def _relative_amplitude_products(
    potentials: tuple[QFunctionTable, ...],
    reference_bits: tuple[int, ...],
    n: int,
    bound: Mapping[int, int] | None = None,
) -> np.ndarray:
    """prod_i q(x_i | lower neighbors actual, higher neighbors at reference).

    Evaluated on every completion of `bound` (of everything when omitted):
    a tensor with one axis per free qubit, ascending, or shape (1,) when
    none is free.
    """
    bound = bound or {}
    free = [q for q in range(1, n + 1) if q not in bound]
    out = np.ones((2,) * len(free) or (1,), dtype=np.complex128)
    for table in potentials:
        i = table.node
        lower = [j for j in table.neighbors if j < i]
        at = [bound.get(j, slice(None)) for j in (i, *lower)] + [
            reference_bits[j - 1] for j in table.neighbors if j > i
        ]
        values = table.array[tuple(at)]
        if i not in bound:
            values = np.moveaxis(values, 0, -1)  # the node after its lower neighbors
        axes = [j for j in (*lower, i) if j not in bound]
        out = out * _broadcast_over(values, axes, free)
    return out


@dataclass(frozen=True)
class MenModel:
    """Graph + per-node potentials + reference point; fixes a state up to phase.

    For n <= _NORM_AUDIT_MAX the reference modulus is audited against the
    normalization formula. `_normalization` is for constructors that have
    just evaluated that formula on these very potentials and hand its value
    over instead of having the audit repeat the dense sum.
    """

    graph: MenGraph
    potentials: tuple[QFunctionTable, ...]
    reference: Assignment
    reference_modulus: float
    _normalization: InitVar[float | None] = None

    def __post_init__(self, _normalization: float | None) -> None:
        n = self.graph.num_nodes
        object.__setattr__(self, "potentials", tuple(self.potentials))
        if len(self.potentials) != n:
            raise ValueError(f"expected {n} potential tables, got {len(self.potentials)}")
        bits = self.reference.bits(n)
        for i, table in enumerate(self.potentials, start=1):
            if table.node != i:
                raise ValueError(f"potentials must be ordered by node; slot {i} holds {table.node}")
            if table.neighbors != self.graph.neighbors(i):
                raise ValueError(
                    f"node {i}: table neighbors {table.neighbors} differ from "
                    f"graph adjacency {self.graph.neighbors(i)}"
                )
            if table.reference_bit != bits[i - 1]:
                raise ValueError(f"node {i}: table reference bit disagrees with reference point")
        if not (self.reference_modulus >= 0.0 and math.isfinite(self.reference_modulus)):
            raise ValueError("reference_modulus must be finite and >= 0")
        if n <= _NORM_AUDIT_MAX:
            formula = _normalization
            if formula is None:
                formula = normalization_modulus(self.potentials, bits, n)
            if abs(self.reference_modulus - formula) > _MODULUS_ATOL:
                raise ValueError(
                    f"reference_modulus {self.reference_modulus!r} disagrees with the "
                    f"normalization formula value {formula!r}"
                )

    @property
    def num_qubits(self) -> int:
        return self.graph.num_nodes

    def reference_bits(self) -> tuple[int, ...]:
        return self.reference.bits(self.num_qubits)


def normalization_modulus(
    potentials: tuple[QFunctionTable, ...], reference_bits: tuple[int, ...], n: int
) -> float:
    """1 / sqrt(sum over all assignments of |prod_i q(...)|^2)."""
    rel = _relative_amplitude_products(potentials, reference_bits, n).reshape(-1)
    return 1.0 / math.sqrt(float(np.sum(np.abs(rel) ** 2)))


def q_value(
    psi: PureState,
    m,
    x_m: Assignment,
    ctx: Assignment,
    x0: Assignment,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> complex:
    """Amplitude ratio a(x_M, ctx) / a(x0_M, ctx) for a set M of qubits.

    `ctx` binds the complement of M; the reference bits come from the full
    assignment x0. Exactly 1 when x_m agrees with the reference on M.
    """
    n = psi.num_qubits
    group = sorted(set(int(q) for q in m))
    if not group or any(q < 1 or q > n for q in group):
        raise InvalidPartition(f"M must be a nonempty subset of 1..{n}")
    rest = sorted(set(range(1, n + 1)) - set(group))
    if set(x_m) != set(group):
        raise InvalidPartition("x_m must bind exactly the qubits in M")
    if set(ctx) != set(rest):
        raise InvalidPartition("ctx must bind exactly the complement of M")
    ref_on_m = x0.restrict(group)
    denominator = psi.amplitude(ref_on_m.merge(ctx))
    if abs(denominator) <= tol.zero_amp_threshold:
        raise ZeroReferenceAmplitude(
            f"reference amplitude {denominator!r} at {ref_on_m.merge(ctx)} is ~0"
        )
    if x_m == ref_on_m:
        return complex(1.0)
    return psi.amplitude(x_m.merge(ctx)) / denominator


def build_graph(
    psi: PureState, tol: ToleranceConfig = DEFAULT_TOL, require_nonzero: bool = False
) -> MenGraph:
    """Edge {i, j} iff i and j are conditionally entangled given all the rest.

    In the all-nonzero-amplitude regime this pairwise rule yields a perfect
    map of the state's conditional separabilities (checked independently by
    verify_perfect_map). With near-zero amplitudes the result may miss
    dependencies: a ZeroAmplitudeWarning is attached, or the state rejected
    when require_nonzero is set.
    """
    n = psi.num_qubits
    if psi.min_modulus() <= tol.zero_amp_threshold:
        if require_nonzero:
            raise ZeroReferenceAmplitude(
                "state has amplitudes at/below the zero threshold; "
                "conditional-separability graph may be unreliable"
            )
        warnings.warn(
            "building a graph from a state with near-zero amplitudes; "
            "edges may not capture all dependencies",
            ZeroAmplitudeWarning,
            stacklevel=2,
        )
    entangled = _pairwise_entangled(psi.amplitudes[None, :], tol)[0]
    pairs = itertools.combinations(range(1, n + 1), 2)
    return MenGraph(n, frozenset(pair for pair, hit in zip(pairs, entangled) if hit))


def extract_men(psi: PureState, tol: ToleranceConfig = DEFAULT_TOL) -> MenModel:
    """Read graph, potentials and reference modulus off an all-nonzero state.

    Potentials are sampled with non-neighbors pinned at the reference
    (all-zeros) point; a well-definedness audit verifies, on every one of
    the 2^(n-1) contexts of every node, that the full-context ratio really
    is independent of non-neighbor coordinates, and raises InconsistentGraph
    on violation. The reference modulus is computed from the normalization
    formula rather than read off the state, once: the model's audit is
    handed that value.
    """
    n = psi.num_qubits
    if psi.min_modulus() <= tol.zero_amp_threshold:
        raise ZeroReferenceAmplitude(
            "potential extraction requires every amplitude modulus above "
            f"{tol.zero_amp_threshold}; min is {psi.min_modulus():.3e}"
        )
    graph = build_graph(psi, tol)
    reference = Assignment.zeros(n)
    tensor = psi.amplitudes.reshape((2,) * n)
    tables = []
    for i in range(1, n + 1):
        nb = graph.neighbors(i)
        at = [slice(None) if j in nb else 0 for j in range(1, n + 1)]  # x_i = 0: the reference
        den = tensor[tuple(at)]
        at[i - 1] = 1
        ratios = np.stack([np.ones_like(den), tensor[tuple(at)] / den])
        tables.append(QFunctionTable(i, nb, 0, ratios, tol.zero_amp_threshold))
    potentials = tuple(tables)
    _audit_well_defined(psi, graph, potentials, tol)
    modulus = normalization_modulus(potentials, (0,) * n, n)
    return MenModel(graph, potentials, reference, modulus, _normalization=modulus)


def _audit_well_defined(
    psi: PureState,
    graph: MenGraph,
    potentials: tuple[QFunctionTable, ...],
    tol: ToleranceConfig,
) -> None:
    """Check amps(x_i=1, ctx) == q(1 | ctx on U(i)) * amps(x_i=0, ctx) on all contexts.

    A context binds the n-1 qubits other than i; contexts are numbered with
    the lowest-indexed of them as the most significant bit, and the first
    violating context in that order is reported.
    """
    n = psi.num_qubits
    tensor = psi.amplitudes.reshape((2,) * n)
    for table in potentials:
        i = table.node
        others = [j for j in range(1, n + 1) if j != i]
        at_zero, lhs = np.moveaxis(tensor, i - 1, 0).reshape(2, -1)  # x_i = 0, 1 per context
        rhs = _broadcast_over(table.array[1], table.neighbors, others).reshape(-1) * at_zero
        delta = np.abs(lhs - rhs)
        bound = tol.abs_eps + tol.rel_eps * np.maximum(np.abs(lhs), np.abs(rhs))
        violations = np.flatnonzero(delta > bound)
        if violations.size:
            c = int(violations[0])
            ctx = tuple(int(b) for b in np.unravel_index(c, (2,) * (n - 1)))
            raise InconsistentGraph(
                f"q(x_{i}=1 | full context) varies with non-neighbor coordinates "
                f"(context {ctx}: |delta|={delta[c]:.3e} > {bound[c]:.3e}); "
                "the declared graph or the tolerances are wrong"
            )


def reconstruct_state(model: MenModel) -> PureState:
    """State whose amplitudes are reference_modulus * telescoping q-products.

    The unidentifiable reference phase is fixed to positive real.
    """
    n = model.num_qubits
    if n > _RECONSTRUCT_MAX:
        raise ValueError(f"dense reconstruction is limited to n <= {_RECONSTRUCT_MAX}")
    rel = _relative_amplitude_products(model.potentials, model.reference_bits(), n)
    return PureState(model.reference_modulus * rel.reshape(-1))


def node_separation(g: MenGraph, a, b, c) -> bool:
    """True iff removing C leaves no path from any A node to any B node."""
    n = g.num_nodes
    set_a = {int(q) for q in a}
    set_b = {int(q) for q in b}
    set_c = {int(q) for q in c}
    for label, s in (("A", set_a), ("B", set_b), ("C", set_c)):
        if any(q < 1 or q > n for q in s):
            raise InvalidPartition(f"{label} must lie within 1..{n}")
    if set_a & set_b or set_a & set_c or set_b & set_c:
        raise InvalidPartition("A, B, C must be pairwise disjoint")
    adjacency = {i: set(g.neighbors(i)) for i in range(1, n + 1)}
    seen = set(set_a)
    frontier = [q for q in set_a if q not in set_c]
    while frontier:
        node = frontier.pop()
        for nxt in adjacency[node]:
            if nxt in set_c or nxt in seen:
                continue
            if nxt in set_b:
                return False
            seen.add(nxt)
            frontier.append(nxt)
    return True


@dataclass(frozen=True)
class PerfectMapReport:
    """Per-partition comparison of separability against graph separation."""

    num_qubits: int
    partitions_checked: int
    disagreements: tuple[
        tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], bool, bool], ...
    ]
    zero_amplitudes: bool

    @property
    def passed(self) -> bool:
        return not self.disagreements


def verify_perfect_map(
    psi: PureState, g: MenGraph, tol: ToleranceConfig = DEFAULT_TOL
) -> PerfectMapReport:
    """Compare conditional separability with node separation on every split.

    Enumerates all ways of splitting 1..n into nonempty A, B and the exact
    complement C (possibly empty, which makes the check plain bipartite
    separability versus graph connectivity); A/B symmetric duplicates are
    skipped. There are (3^n - 2^(n+1) + 1) / 2 splits, so n is capped at
    _PERFECT_MAP_MAX. Every split's separability is tested directly, all of
    them in one batched minor pass, independently of the pairwise test that
    builds graphs.
    """
    n = psi.num_qubits
    if g.num_nodes != n:
        raise ValueError("graph and state sizes differ")
    if n > _PERFECT_MAP_MAX:
        raise EnumerationBoundExceeded(
            f"perfect-map enumeration is limited to n <= {_PERFECT_MAP_MAX}, got {n}"
        )
    zero = psi.min_modulus() <= tol.zero_amp_threshold
    # (A, B) and (B, A) are the same check: keep the one whose lowest qubit is in A
    splits = [
        groups
        for groups in _colorings(n, 3)
        if groups[0] and groups[1] and groups[0][0] < groups[1][0]
    ]
    separable = _splits_separable(psi.amplitudes, [(a, b) for a, b, _ in splits], tol)
    disagreements = []
    for (set_a, set_b, set_c), sep in zip(splits, separable.tolist()):
        graph_sep = _complement_separated(g, set_a, set_b)
        if sep != graph_sep:
            disagreements.append((set_a, set_b, set_c, sep, graph_sep))
    return PerfectMapReport(n, len(splits), tuple(disagreements), zero)


def _complement_separated(g: MenGraph, a, b) -> bool:
    """node_separation(g, A, B, C) for C the exact complement of A | B.

    Every node off C is in A or B, so a path from A to B that avoids C has
    an edge from A to B somewhere: A and B are separated iff no edge joins
    them.
    """
    return not any(g.has_edge(i, j) for i in a for j in b)


@functools.lru_cache(maxsize=16)
def _colorings(n: int, parts: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every assignment of qubits 1..n to `parts` roles, as per-role qubit tuples.

    In itertools.product order over the roles of qubits 1..n; each tuple is
    ascending.
    """
    out = []
    for colors in itertools.product(range(parts), repeat=n):
        groups: tuple[list[int], ...] = tuple([] for _ in range(parts))
        for q, color in enumerate(colors, start=1):
            groups[color].append(q)
        out.append(tuple(map(tuple, groups)))
    return tuple(out)


@dataclass(frozen=True)
class AxiomResult:
    name: str
    instances: int
    violations: tuple[str, ...]


@dataclass(frozen=True)
class GraphoidReport:
    axioms: tuple[AxiomResult, ...]

    @property
    def passed(self) -> bool:
        return all(not ax.violations for ax in self.axioms)

    @property
    def instances(self) -> int:
        return sum(ax.instances for ax in self.axioms)


def check_graphoid_axioms(psi: PureState, tol: ToleranceConfig = DEFAULT_TOL) -> GraphoidReport:
    """Exhaustively test symmetry, decomposition, intersection, strong union
    and transitivity of the conditional-separability predicate.

    All disjoint subset tuples over 1..n are enumerated (A, B and, where the
    axiom mentions it, D nonempty; C possibly empty). Exponential, hence
    the n <= _GRAPHOID_MAX guard.
    """
    n = psi.num_qubits
    if n > _GRAPHOID_MAX:
        raise EnumerationBoundExceeded(
            f"graphoid enumeration is limited to n <= {_GRAPHOID_MAX}, got {n}"
        )
    # I(A, B | complement), tabulated over ordered (A, B): "symmetry" then
    # compares two verdicts computed from different views
    pairs = [(a, b) for a, b, _ in _colorings(n, 3) if a and b]
    verdicts = _splits_separable(psi.amplitudes, pairs, tol).tolist()
    table = {(frozenset(a), frozenset(b)): sep for (a, b), sep in zip(pairs, verdicts)}

    def ind(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        return table[frozenset(a), frozenset(b)]

    def fmt(**sets) -> str:
        return ", ".join(f"{k}={v}" for k, v in sets.items())

    results = []

    # Symmetry: I(A,B|C) -> I(B,A|C)
    instances, violations = 0, []
    for set_a, set_b, set_c, _rest in _colorings(n, 4):
        if not set_a or not set_b:
            continue
        instances += 1
        if ind(set_a, set_b) and not ind(set_b, set_a):
            violations.append(fmt(A=set_a, B=set_b, C=set_c))
    results.append(AxiomResult("symmetry", instances, tuple(violations)))

    # Decomposition: I(A, B+D | C) -> I(A,B|C) and I(A,D|C)
    instances, violations = 0, []
    for set_a, set_b, set_d, set_c, _rest in _colorings(n, 5):
        if not set_a or not set_b or not set_d:
            continue
        instances += 1
        if ind(set_a, set_b + set_d) and not (ind(set_a, set_b) and ind(set_a, set_d)):
            violations.append(fmt(A=set_a, B=set_b, D=set_d, C=set_c))
    results.append(AxiomResult("decomposition", instances, tuple(violations)))

    # Intersection: I(A,B|C+D) and I(A,D|B+C) -> I(A, B+D | C)
    instances, violations = 0, []
    for set_a, set_b, set_d, set_c, _rest in _colorings(n, 5):
        if not set_a or not set_b or not set_d:
            continue
        instances += 1
        if ind(set_a, set_b) and ind(set_a, set_d) and not ind(set_a, set_b + set_d):
            violations.append(fmt(A=set_a, B=set_b, D=set_d, C=set_c))
    results.append(AxiomResult("intersection", instances, tuple(violations)))

    # Strong union: I(A,B|C) -> I(B,A|C+D)
    instances, violations = 0, []
    for set_a, set_b, set_d, set_c, _rest in _colorings(n, 5):
        if not set_a or not set_b or not set_d:
            continue
        instances += 1
        if ind(set_a, set_b) and not ind(set_b, set_a):
            violations.append(fmt(A=set_a, B=set_b, C=set_c, D=set_d))
    results.append(AxiomResult("strong_union", instances, tuple(violations)))

    # Transitivity: I(A,B|C) -> I(A,{v}|C) or I({v},B|C), v outside A,B,C
    instances, violations = 0, []
    for set_a, set_b, set_c, rest in _colorings(n, 4):
        if not set_a or not set_b:
            continue
        for v in rest:
            instances += 1
            if ind(set_a, set_b) and not (ind(set_a, (v,)) or ind((v,), set_b)):
                violations.append(fmt(A=set_a, B=set_b, C=set_c, v=(v,)))
    results.append(AxiomResult("transitivity", instances, tuple(violations)))

    return GraphoidReport(tuple(results))


def export_dot(g: MenGraph) -> str:
    """Deterministic DOT text: nodes q1..qn, edges sorted ascending."""
    lines = ["graph men {"]
    lines.extend(f"  q{i};" for i in range(1, g.num_nodes + 1))
    lines.extend(f"  q{i} -- q{j};" for i, j in g.sorted_edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


def random_model(
    graph: MenGraph,
    seed,
    modulus_range: tuple[float, float] = (0.2, 5.0),
    zero_amp_threshold: float = DEFAULT_TOL.zero_amp_threshold,
) -> MenModel:
    """Model on `graph` with random nonzero potentials.

    Potential moduli are uniform in `modulus_range` with uniform phases,
    so every table entry stays bounded away from zero. The reference is
    all-zeros; its modulus comes from the normalization formula (brute
    force, hence the size guard).
    """
    n = graph.num_nodes
    if n > 16:
        raise ValueError("random_model normalizes by brute force; use n <= 16")
    rng = np.random.default_rng(seed)
    reference = Assignment.zeros(n)
    potentials = _random_q_tables(graph, rng, modulus_range, (0,) * n, zero_amp_threshold)
    modulus = normalization_modulus(potentials, (0,) * n, n)
    return MenModel(graph, potentials, reference, modulus)


def _random_q_tables(
    graph: MenGraph,
    rng: np.random.Generator,
    modulus_range: tuple[float, float],
    reference_bits: tuple[int, ...],
    zero_amp_threshold: float,
) -> tuple[QFunctionTable, ...]:
    lo, hi = modulus_range
    if not 0.0 < lo <= hi:
        raise ValueError(f"invalid modulus range {modulus_range}")
    if lo <= zero_amp_threshold:
        raise ValueError("modulus range must stay above the zero threshold")
    tables = []
    for i in range(1, graph.num_nodes + 1):
        nb = graph.neighbors(i)
        ref_bit = reference_bits[i - 1]
        values = np.ones((2,) * (len(nb) + 1), dtype=np.complex128)
        for ctx in np.ndindex(values.shape[1:]):  # one (modulus, phase) draw per context, in order
            modulus, phase = rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi)
            values[(1 - ref_bit, *ctx)] = modulus * complex(math.cos(phase), math.sin(phase))
        tables.append(QFunctionTable(i, nb, ref_bit, values, zero_amp_threshold))
    return tuple(tables)


# --- model file format -------------------------------------------------------
#
# JSON text with "n", "edges" (sorted pairs), "reference" (bit-string,
# qubit 1 first), "reference_modulus", and "q": per-node tables keyed by
# bit-strings (node bit first, then neighbors in ascending index order),
# values as [re, im] pairs.


def save_model(model: MenModel, path) -> None:
    n = model.num_qubits
    bits = model.reference_bits()
    lines = ["{", f'  "n": {n},']
    edge_text = ", ".join(f"[{i}, {j}]" for i, j in model.graph.sorted_edges())
    lines.append(f'  "edges": [{edge_text}],')
    lines.append(f'  "reference": "{"".join(str(b) for b in bits)}",')
    lines.append(f'  "reference_modulus": {_fmt_real(model.reference_modulus)},')
    lines.append('  "q": {')
    node_blocks = []
    for table in model.potentials:
        width = table.array.ndim
        rows = [
            f'      "{flat:0{width}b}": [{_fmt_real(val.real)}, {_fmt_real(val.imag)}]'
            for flat, val in enumerate(table.array.reshape(-1).tolist())
        ]
        node_blocks.append(f'    "{table.node}": {{\n' + ",\n".join(rows) + "\n    }")
    lines.append(",\n".join(node_blocks))
    lines.extend(["  }", "}"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> MenModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot read model file {path}: {exc}") from exc
    return _model_from_payload(payload, path)


def _model_from_payload(payload, path) -> MenModel:
    """Build a model from a parsed model file; `path` names it in errors."""
    try:
        n = payload["n"]
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"'n' must be a positive integer, got {n!r}")
        graph = MenGraph.from_edges(n, (tuple(e) for e in payload["edges"]))
        ref_text = payload["reference"]
        if (
            not isinstance(ref_text, str)
            or len(ref_text) != n
            or any(ch not in "01" for ch in ref_text)
        ):
            raise ValueError(f"'reference' must be an n-bit string, got {ref_text!r}")
        reference = Assignment.from_bits(int(ch) for ch in ref_text)
        modulus = float(payload["reference_modulus"])
        tables = []
        q_section = payload["q"]
        for i in range(1, n + 1):
            raw = q_section[str(i)]
            nb = graph.neighbors(i)
            values = np.empty(2 ** (len(nb) + 1), dtype=np.complex128)
            for key, pair in raw.items():
                if len(key) != 1 + len(nb) or any(ch not in "01" for ch in key):
                    raise ValueError(f"node {i}: bad table key {key!r}")
                values[int(key, 2)] = complex(float(pair[0]), float(pair[1]))
            if len(raw) != values.size:  # distinct valid keys: the count decides coverage
                raise _coverage_error(i, values.size)
            shape = (2,) * (len(nb) + 1)
            tables.append(QFunctionTable(i, nb, int(ref_text[i - 1]), values.reshape(shape)))
        return MenModel(graph, tuple(tables), reference, modulus)
    except FileFormatError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise FileFormatError(f"malformed model file {path}: {exc}") from exc
