"""Conditional-entanglement graphs and potential-based state models.

A model couples an undirected graph over qubits (edges = conditional
entanglement between the endpoints given everything else) with one
potential table per node. The table for node i stores the amplitude ratio
q(x_i | x_{U(i)}) against a reference point, with all non-neighbors pinned
at the reference; together with the reference modulus this determines the
state up to the reference phase, via the telescoping product over nodes in
ascending index order (lower-indexed neighbors at their actual values,
higher-indexed ones at the reference).

numpy is imported inside the functions that do dense work: reading a model
file, checking its tables and auditing its modulus (by the variable
elimination of menet.elimination) take plain Python, so model queries never
load it.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import warnings
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .errors import (
    EnumerationBoundExceeded,
    FileFormatError,
    InconsistentGraph,
    InvalidPartition,
    ZeroAmplitudeWarning,
    ZeroReferenceAmplitude,
)
from .state import (
    DEFAULT_TOL,
    Assignment,
    PureState,
    ToleranceConfig,
    _bits,
    _broadcast_over,
    _disjoint_subsets,
    _entry_value,
    _ParsedTable,
    _read_json,
    _writing,
    measure_qubit,
)

_RECONSTRUCT_MAX = 19  # largest n whose fresh-process `menet reconstruct -o` takes < 1 s and < 100 MB
_PERFECT_MAP_MAX = 10  # largest n whose fresh-process `menet verify` takes < 1 s and < 100 MB
_GRAPHOID_MAX = 9  # the same, with the graphoid check added to that verify


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

    Built from, and stored as, `entries`: one flat sequence of 2**(k+1)
    numbers in C order over (x_i, then the k neighbors in ascending index
    order), so the entry of bit b in context ctx sits at b << k | ctx. They
    are kept as a tuple of Python complex values, the very tuple given when
    it is one of exact complex values. `array` is the same
    entries as a read-only complex array of shape (2,)*(k+1), built on first
    use. Entries at the node's reference bit are exactly 1 (stored, not
    recomputed).
    """

    __slots__ = ("node", "neighbors", "reference_bit", "entries", "_array")

    def __init__(
        self,
        node: int,
        neighbors: tuple[int, ...],
        reference_bit: int,
        entries: Sequence[complex],
        zero_threshold: float = DEFAULT_TOL.zero_amp_threshold,
    ):
        neighbors = tuple(map(int, neighbors))
        if sorted(neighbors) != list(neighbors) or node in neighbors:
            raise ValueError("neighbors must be ascending and exclude the node")
        if reference_bit not in (0, 1):
            raise ValueError("reference_bit must be 0 or 1")
        k = len(neighbors)
        half = 1 << k
        try:  # a mapping would give its keys, an unflattened array its rows
            if isinstance(entries, (Mapping, str)):
                flat = None
            elif type(entries) is tuple and set(map(type, entries)) == {complex}:
                flat = entries  # already what the table keeps: no copy
            else:
                flat = tuple(map(complex, entries))
        except (TypeError, ValueError):
            flat = None
        if flat is None or len(flat) != 2 * half:
            raise ValueError(f"table for node {node} must be a flat sequence of {2 * half} numbers")
        at_reference = flat[reference_bit * half : (reference_bit + 1) * half]
        if at_reference.count(1 + 0j) != half:  # complex to complex: the fast compare
            ctx = next(c for c, v in enumerate(at_reference) if v != 1)
            raise ValueError(
                f"node {node}: value at the reference bit must be exactly 1, "
                f"got {at_reference[ctx]!r} at context {_bits(ctx, k)}"
            )
        # The entries at the reference bit have modulus 1.0, which seeds the
        # min, so only the others need their modulus taken. min skips a nan
        # unless it comes first, and the seed comes first. CPython's abs of a
        # complex with a nan part leaves errno as it finds it, and raises
        # OverflowError if that is ERANGE: the seed is an abs, which clears it.
        off_reference = flat[(1 - reference_bit) * half : (2 - reference_bit) * half]
        if min(itertools.chain((abs(1 + 0j),), map(abs, off_reference))) <= zero_threshold:
            at = next(f for f, v in enumerate(flat) if abs(v) <= zero_threshold)
            raise ValueError(
                f"node {node}: potential value {flat[at]!r} at {(at >> k, _bits(at, k))} is ~0"
            )
        object.__setattr__(self, "node", int(node))
        object.__setattr__(self, "neighbors", neighbors)
        object.__setattr__(self, "reference_bit", int(reference_bit))
        object.__setattr__(self, "entries", flat)
        object.__setattr__(self, "_array", None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("QFunctionTable is immutable")

    @property
    def array(self) -> np.ndarray:
        """The entries as a read-only complex array of shape (2,)*(k+1), built once."""
        if self._array is None:
            import numpy as np

            shape = (2,) * (len(self.neighbors) + 1)
            array = np.array(self.entries, dtype=np.complex128).reshape(shape)
            array.setflags(write=False)
            object.__setattr__(self, "_array", array)
        return self._array

    def q(self, bit: int, context: tuple[int, ...]) -> complex:
        key = (bit, *context)
        if len(key) != len(self.neighbors) + 1 or not set(key) <= {0, 1}:
            raise KeyError((bit, tuple(context)))  # the flat index would wrap a -1 silently
        flat = 0
        for b in key:
            flat = flat << 1 | b
        return self.entries[flat]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QFunctionTable):
            return NotImplemented
        return (
            self.node == other.node
            and self.neighbors == other.neighbors
            and self.reference_bit == other.reference_bit
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"QFunctionTable(node={self.node}, neighbors={self.neighbors})"


def _node_factors(potentials: tuple[QFunctionTable, ...], reference_bits: tuple[int, ...], bound: Mapping[int, int]):
    """Each node's q(x_i | lower neighbors actual, higher neighbors at reference), by node.

    Yields the values, one axis per free qubit of (lower neighbors, i),
    and those qubits, ascending.
    """
    import numpy as np

    for table in potentials:
        i = table.node
        lower = [j for j in table.neighbors if j < i]
        at = [bound.get(j, slice(None)) for j in (i, *lower)] + [
            reference_bits[j - 1] for j in table.neighbors if j > i
        ]
        values = table.array[tuple(at)]
        if i not in bound:
            values = np.moveaxis(values, 0, -1)  # the node after its lower neighbors
        yield values, [j for j in (*lower, i) if j not in bound]


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
    import numpy as np

    bound = bound or {}
    free = [q for q in range(1, n + 1) if q not in bound]
    out = np.ones((2,) * len(free) or (1,), dtype=np.complex128)
    for values, axes in _node_factors(potentials, reference_bits, bound):
        # each broadcast factor is freed before the next one is built: two arrays at most
        np.multiply(out, _broadcast_over(values, axes, free), out=out)
    return out


@dataclass(frozen=True)
class MenModel:
    """Graph + per-node potentials + reference point; fixes a state up to phase.

    Built, the model works out log Z once, by its own sum-product route
    (menet.elimination._normalize: a sweep on a chain, bucket elimination
    on any other graph), and keeps it (and a chain's levels) on the
    instance, outside the fields, for the queries to read. A graph too wide
    for that route, or an entry that is not a finite number, raises
    EnumerationBoundExceeded. Left out, the reference modulus is derived
    from the normalization formula, exp(-log Z / 2); given, it is refused
    unless it is within relative 1e-9 (or one ulp) of that value.
    """

    graph: MenGraph
    potentials: tuple[QFunctionTable, ...]
    reference: Assignment
    reference_modulus: float | None = None

    def __post_init__(self) -> None:
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
        given = self.reference_modulus
        if given is not None and not (given >= 0.0 and math.isfinite(given)):
            raise ValueError("reference_modulus must be finite and >= 0")
        from .elimination import _normalize

        formula = math.exp(-0.5 * _normalize(self))
        if given is None:
            object.__setattr__(self, "reference_modulus", formula)
        elif abs(given - formula) > max(1e-9 * formula, math.ulp(formula)):
            raise ValueError(
                f"reference_modulus {given!r} disagrees with the "
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
    """1 / sqrt(sum over all assignments of |prod_i q(...)|^2), by the dense sum.

    The oracle: models normalize themselves by sum-product (MenModel), and
    the tests check that route against this 2^n-entry sum.
    """
    rel = _relative_amplitude_products(potentials, reference_bits, n).reshape(-1)
    return 1.0 / math.sqrt(float((abs(rel) ** 2).sum()))


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
    when require_nonzero is set. A qubit that holds one bit on every nonzero
    amplitude, as after measure_qubit, has no edge; the pairs of the others
    are tested on the state without it.
    """
    # imported here, not at the top: commands that only read models never load it
    from .separability import _pairwise_entangled, _pinned_reduction

    n = psi.num_qubits
    smallest = psi.min_modulus()
    if smallest <= tol.zero_amp_threshold:
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
    kept, amps = range(1, n + 1), psi.amplitudes
    if smallest == 0.0:  # exact zeros, as after measure_qubit: pinned qubits have no edge
        kept, amps = _pinned_reduction(amps)
    entangled = _pairwise_entangled(amps[None, :], tol)[0]
    pairs = itertools.combinations(kept, 2)
    return MenGraph(n, frozenset(pair for pair, hit in zip(pairs, entangled) if hit))


def measure_and_update(
    psi: PureState,
    g: MenGraph,
    qubit: int,
    outcome: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[float, PureState, MenGraph]:
    """Measure one qubit and rebuild the graph of the collapsed state.

    `g` is accepted but not read: the new graph is built from the collapsed
    state alone. Contract (holds when `g` is psi's graph, in the
    nonzero-amplitude regime): the new edge set is a subset of g's minus
    all edges incident to the measured qubit; measurement never introduces
    edges. The collapsed state has structural zeros at the un-measured
    outcome, so the rebuild suppresses the zero-amplitude warning.
    """
    probability, collapsed = measure_qubit(psi, qubit, outcome, tol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroAmplitudeWarning)
        new_graph = build_graph(collapsed, tol)
    return probability, collapsed, new_graph


def extract_men(psi: PureState, tol: ToleranceConfig = DEFAULT_TOL) -> MenModel:
    """Read graph, potentials and reference modulus off an all-nonzero state.

    Potentials are sampled with non-neighbors pinned at the reference
    (all-zeros) point; a well-definedness audit verifies, on every one of
    the 2^(n-1) contexts of every node, that the full-context ratio really
    is independent of non-neighbor coordinates, and raises InconsistentGraph
    on violation. The reference modulus is not read off the state: the
    model derives it from the normalization formula by its own sum-product
    route (see MenModel), so a graph too wide for that route raises
    EnumerationBoundExceeded.
    """
    import numpy as np

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
        tables.append(QFunctionTable(i, nb, 0, ratios.reshape(-1).tolist(), tol.zero_amp_threshold))
    potentials = tuple(tables)
    _audit_well_defined(psi, graph, potentials, tol)
    return MenModel(graph, potentials, reference)


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
    import numpy as np

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

    The unidentifiable reference phase is fixed to positive real. The
    products are multiplied into one array, scaled in place, and the state
    takes that array over: the peak is about two copies of the state, the
    result and one broadcast factor. The products' largest modulus never
    falls as factors are multiplied in (each is 1 at its node's reference
    bit), and it is at most sqrt(Z) = 1 / modulus: the products can pass
    the double range only where the modulus is not a normal double. There,
    after each factor, the array is divided by the power of two 2**e that
    puts its largest part in [0.5, 1), and it is scaled back by
    exp(E ln 2 - log Z / 2), E the sum of the e. Elsewhere the amplitudes
    are the modulus times the products, undivided.
    """
    import numpy as np

    n = model.num_qubits
    if n > _RECONSTRUCT_MAX:
        raise EnumerationBoundExceeded(f"dense reconstruction is limited to n <= {_RECONSTRUCT_MAX}")
    free = range(1, n + 1)
    out = np.ones((2,) * n, dtype=np.complex128)
    parts = out.view(np.float64)
    scale = model.reference_modulus
    past_range, exponent = not scale >= sys.float_info.min, 0
    for values, axes in _node_factors(model.potentials, model.reference_bits(), {}):
        np.multiply(out, _broadcast_over(values, axes, free), out=out)
        if past_range:  # out is then the products times 2**-exponent
            e = math.frexp(max(parts.max(), -parts.min()))[1]
            np.ldexp(parts, -e, out=parts)
            exponent += e
    if past_range:
        from .elimination import _model_log_z

        scale = math.exp(exponent * math.log(2.0) - 0.5 * _model_log_z(model)[0])
    np.multiply(scale, out, out=out)
    return PureState._adopt(out.reshape(-1))


def node_separation(g: MenGraph, a, b, c) -> bool:
    """True iff removing C leaves no path from any A node to any B node."""
    n = g.num_nodes
    set_a, set_b, set_c = map(set, _disjoint_subsets(n, a, b, c))
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
    _PERFECT_MAP_MAX. Every split's separability is the OR over its own
    2x2 minors, each distinct minor tested once in a shared table,
    independently of the pairwise test that builds graphs.
    """
    from .separability import _mask_qubits, _role_masks, _splits_separable

    n = psi.num_qubits
    if g.num_nodes != n:
        raise ValueError("graph and state sizes differ")
    if n > _PERFECT_MAP_MAX:
        raise EnumerationBoundExceeded(
            f"perfect-map enumeration is limited to n <= {_PERFECT_MAP_MAX}, got {n}"
        )
    zero = psi.min_modulus() <= tol.zero_amp_threshold
    # (A, B) and (B, A) are the same check: keep the one whose lowest qubit,
    # the highest bit of the two, is in A
    masks = _role_masks(n, 3)
    a, b, c = masks[:, masks[0] > masks[1]]
    separable = _splits_separable(psi.amplitudes, a, b, tol)
    wrong = (separable != _complement_separated(g, a, b)).nonzero()[0]
    disagreements = tuple(
        (*(_mask_qubits(m[k], n) for m in (a, b, c)), sep, not sep)
        for k, sep in zip(wrong.tolist(), separable[wrong].tolist())
    )
    return PerfectMapReport(n, a.size, disagreements, zero)


def _complement_separated(g: MenGraph, masks_a, masks_b):
    """node_separation(g, A, B, C) per mask pair, for C the exact complement of
    A | B: a path from A to B off C has an edge from A to B somewhere, so A and
    B are separated iff no neighbour of A is in B."""
    n = g.num_nodes
    reach = masks_a & 0  # the neighbours of each A
    for i in range(1, n + 1):
        reach |= (masks_a >> (n - i) & 1) * sum(1 << (n - j) for j in g.neighbors(i))
    return (reach & masks_b) == 0


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
    """Exhaustively test the graphoid axioms (Pearl 1988, ch. 3) that
    I(A, B), separability of A and B given all other qubits, can state.

    The conditioning set is fixed by A+B (+ is union), so an axiom can be
    stated only where each term conditions on exactly the qubits outside its
    own two sets: symmetry, I(A, B) => I(B, A); weak union,
    I(A, B+D) => I(A, B); and intersection, I(A, B) and I(A, D) =>
    I(A, B+D), over unordered {B, D}. Decomposition, I(A, B+D | C) =>
    I(A, B | C), becomes weak union, and strong union, I(A, B | C) =>
    I(A, B | C+D), a tautology, because I(A, B) conditions on D.
    Transitivity, I(A, B | C) => I(A, {v} | C) or I({v}, B | C), needs one C
    for all three terms, but I(A, B) conditions on v and I(A, {v}) on B.
    Exponential, hence the n <= _GRAPHOID_MAX guard.
    """
    from .separability import _mask_qubits, _role_masks, _split_table

    n = psi.num_qubits
    if n > _GRAPHOID_MAX:
        raise EnumerationBoundExceeded(
            f"graphoid enumeration is limited to n <= {_GRAPHOID_MAX}, got {n}"
        )
    # I(A, B) for every ordered pair, in a table indexed by the two masks;
    # (A, B) and (B, A) come from different minor classes, so symmetry
    # compares two independently computed verdicts
    a, b = _role_masks(n, 3)[:2]
    ind = _split_table(psi.amplitudes, a, b, tol)
    triples = ta, tb, td = _role_masks(n, 4)[:3]  # ordered (A, B, D)
    tbd = tb | td

    def violations(broken, *sets) -> tuple[str, ...]:
        return tuple(
            ", ".join(f"{key}={_mask_qubits(m[k], n)}" for key, m in zip("ABD", sets))
            for k in broken.nonzero()[0].tolist()
        )

    intersection = (tb > td) & ind[ta, tb] & ind[ta, td] & ~ind[ta, tbd]  # unordered {B, D}
    return GraphoidReport((
        AxiomResult("symmetry", a.size, violations(ind[a, b] & ~ind[b, a], a, b)),
        AxiomResult("weak_union", ta.size, violations(ind[ta, tbd] & ~ind[ta, tb], *triples)),
        AxiomResult("intersection", ta.size // 2, violations(intersection, *triples)),
    ))


def export_dot(g: MenGraph) -> str:
    """Deterministic DOT text: nodes q1..qn, edges sorted ascending."""
    lines = ["graph men {"]
    lines.extend(f"  q{i};" for i in range(1, g.num_nodes + 1))
    lines.extend(f"  q{i} -- q{j};" for i, j in g.sorted_edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


def random_model(graph: MenGraph, seed) -> MenModel:
    """Model on `graph` with random nonzero potentials.

    Off-reference entries have moduli uniform in [0.2, 5] and uniform
    phases, so every one stays bounded away from zero. The reference is
    all-zeros; the model derives its modulus by its own sum-product route
    (see MenModel), so the size limit is the engine's factor-entry bound,
    not the number of qubits.
    """
    import numpy as np

    potentials = _random_q_tables(graph, np.random.default_rng(seed))
    return MenModel(graph, potentials, Assignment.zeros(graph.num_nodes))


def _random_q_tables(graph: MenGraph, rng: np.random.Generator) -> tuple[QFunctionTable, ...]:
    """Tables for the all-zeros reference: 1 at bit 0, and at bit 1 one (modulus
    in [0.2, 5], phase) draw per context, in context order."""
    tables = []
    for i in range(1, graph.num_nodes + 1):
        nb = graph.neighbors(i)
        drawn = []
        for _ in range(1 << len(nb)):
            modulus, phase = rng.uniform(0.2, 5.0), rng.uniform(0.0, 2.0 * math.pi)
            drawn.append(modulus * complex(math.cos(phase), math.sin(phase)))
        tables.append(QFunctionTable(i, nb, 0, [1 + 0j] * len(drawn) + drawn))
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
    lines.append('  "reference_modulus": %.17e,' % model.reference_modulus)
    lines.append('  "q": {')
    with _writing(path, "model file ") as fh:
        fh.write("\n".join(lines) + "\n")
        # one table at a time, each in one "%.17e" format call, as save_state writes
        for index, table in enumerate(model.potentials):
            rows = ",\n".join(
                f'      "{key}": [%.17e, %.17e]' for key in _table_keys(len(table.neighbors) + 1)
            )
            parts = itertools.chain.from_iterable((v.real, v.imag) for v in table.entries)
            if index:
                fh.write(",\n")
            fh.write(f'    "{table.node}": {{\n{rows}\n    }}' % tuple(parts))
        fh.write("\n  }\n}\n")


def load_model(path) -> MenModel:
    """The model in the file at `path`, read in one pass.

    The file is parsed by the readers' one rule (state._read_json): each
    table becomes its keys and complex values as soon as json has parsed
    it, so the read never holds the file's whole tree of [re, im] lists,
    and the parsed tables are freed before the model normalizes. The model
    is field for field and bit for bit the one an entry-by-entry read of
    the same file builds, and a bad file is refused with the same message.
    """
    return _model_from_payload(_read_json(path, "model file "), path)


def _model_from_payload(payload, path) -> MenModel:
    """Build a model from a model file's payload (state._read_json); `path` names it in errors.

    Once every table is built, the payload is emptied, so the parsed
    tables and edge lists are freed before the model normalizes.
    """
    try:
        n = payload["n"]
        if type(n) is not int or n < 1:  # bool is an int subclass
            raise ValueError(f"'n' must be a positive integer, got {n!r}")
        graph = MenGraph.from_edges(n, map(_edge, payload["edges"]))
        ref_text = payload["reference"]
        if (
            not isinstance(ref_text, str)
            or len(ref_text) != n
            or any(ch not in "01" for ch in ref_text)
        ):
            raise ValueError(f"'reference' must be an n-bit string, got {ref_text!r}")
        reference = Assignment.from_bits(int(ch) for ch in ref_text)
        modulus = payload["reference_modulus"]
        if type(modulus) not in (int, float):
            raise ValueError(f"'reference_modulus' must be a number, got {modulus!r}")
        modulus = float(modulus)
        tables = []
        for i, bit in enumerate(ref_text, start=1):
            nb = graph.neighbors(i)
            entries = _table_entries(i, payload["q"][str(i)], len(nb) + 1)
            tables.append(QFunctionTable(i, nb, int(bit), entries))
        payload.clear()  # the parsed file, its tables with it, goes before the model normalizes
        return MenModel(graph, tuple(tables), reference, modulus)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise FileFormatError(f"malformed model file {path}: {exc}") from exc


def _edge(pair) -> tuple[int, int]:
    if not isinstance(pair, list) or len(pair) != 2 or any(type(v) is not int for v in pair):
        raise ValueError(f"each edge must be a pair of integer node numbers, got {pair!r}")
    return pair[0], pair[1]


@functools.lru_cache(maxsize=None)
def _table_keys(width: int) -> tuple[str, ...]:
    """The table keys of `width` bits, in flat-index order."""
    return tuple(format(flat, f"0{width}b") for flat in range(1 << width))


@functools.lru_cache(maxsize=None)
def _table_key_set(width: int) -> frozenset[str]:
    return frozenset(_table_keys(width))


def _table_entries(node: int, raw, width: int) -> tuple[complex, ...]:
    """One node's flat entries from its {bit-string: [re, im]} object.

    A table converted as it was parsed (a state._ParsedTable) holds good
    entries under distinct keys: its keys are checked in file order, and
    its complex values are ordered, not converted again, so the model
    keeps those very objects. Any other object is read key by key and
    entry by entry in file order, so the first bad one is named. Coverage
    is checked after all of them.
    """
    valid = _table_key_set(width)
    if type(raw) is _ParsedTable:
        if raw.keys == _table_keys(width):  # the writer's order: every key valid, each once
            return raw.entries
        pairs, entry = zip(raw.keys, raw.entries), None
    elif isinstance(raw, dict):
        pairs, entry = raw.items(), _entry_value
    else:
        raise ValueError(f"node {node}: table must be a JSON object, got {type(raw).__name__}")
    found = {}
    for key, value in pairs:
        if key not in valid:
            raise ValueError(f"node {node}: bad table key {key!r}")
        try:
            found[key] = value if entry is None else entry(value)
        except ValueError:
            raise ValueError(f"node {node}: entry {key!r} must be a [re, im] pair of reals") from None
    if len(found) != 1 << width:  # distinct valid keys: the count decides coverage
        raise ValueError(f"table for node {node} must cover all {1 << width} (bit, context) keys")
    return tuple(map(found.__getitem__, _table_keys(width)))
