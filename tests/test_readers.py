"""The state and model readers against a reference reader of this file's own.

The reference parses with plain json.load (no object hook) and then applies
the file formats' rules entry by entry: an entry is a list of two JSON
numbers (int or float, not bool), tables are keyed by bit-strings, and
the checks run in the order the readers make them. Saved models and
states are edited at random (reordered, repeated and interleaved keys;
integer, bool, nan and huge parts; flat-order objects of [re, im] entries
in place of tables and of the top-level fields), and every read must give
the same fields bit for bit, or the same error, message and cause.
"""

import json
import math
import random

import numpy as np
import pytest

import menet as mn
from menet.cli import _load_state_or_model
from menet.state import _load_amplitudes

# --- JSON text with repeated keys ---------------------------------------------


class Obj(list):
    """A JSON object as its (key, value) pairs, in file order; keys may repeat."""


class Raw(str):
    """A number written as it is, such as 1e400, which no float prints as."""


def dump(value) -> str:
    if isinstance(value, Obj):
        return "{" + ", ".join(f"{json.dumps(key)}: {dump(item)}" for key, item in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dump, value)) + "]"
    if isinstance(value, Raw):
        return str(value)
    return json.dumps(value)  # NaN and Infinity for the floats that are not finite


def parsed(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=lambda pairs: Obj(map(list, pairs)))


def last(obj: Obj, key) -> int | None:
    """The index of the pair that json keeps for `key`, its last; None without one."""
    return max((at for at, (k, _) in enumerate(obj) if k == key), default=None)


def field(obj: Obj, key):
    at = last(obj, key)
    return None if at is None else obj[at][1]


def set_field(obj: Obj, key, value) -> None:
    at = last(obj, key)
    if at is None:
        obj.append([key, value])
    else:
        obj[at] = [key, value]


# --- the reference reader -------------------------------------------------------


def reference_payload(path, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise mn.FileFormatError(f"cannot read {what}{path}: {exc}") from exc


def reference_entry(pair) -> complex:
    """ValueError unless a list of two JSON numbers; OverflowError for an int past the double range."""
    if type(pair) is list and len(pair) == 2 and all(type(part) in (int, float) for part in pair):
        return complex(pair[0], pair[1])
    raise ValueError("not an entry")


def reference_table(node: int, raw, width: int) -> list[complex]:
    if not isinstance(raw, dict):
        raise ValueError(f"node {node}: table must be a JSON object, got {type(raw).__name__}")
    found = {}
    for key, pair in raw.items():
        if len(key) != width or set(key) - {"0", "1"}:
            raise ValueError(f"node {node}: bad table key {key!r}")
        try:
            found[int(key, 2)] = reference_entry(pair)
        except ValueError:
            raise ValueError(f"node {node}: entry {key!r} must be a [re, im] pair of reals") from None
    if len(found) != 1 << width:
        raise ValueError(f"table for node {node} must cover all {1 << width} (bit, context) keys")
    return [found[flat] for flat in range(1 << width)]


def reference_edge(pair) -> tuple[int, int]:
    if not isinstance(pair, list) or len(pair) != 2 or any(type(v) is not int for v in pair):
        raise ValueError(f"each edge must be a pair of integer node numbers, got {pair!r}")
    return pair[0], pair[1]


def reference_model(payload, path) -> mn.MenModel:
    try:
        n = payload["n"]
        if type(n) is not int or n < 1:
            raise ValueError(f"'n' must be a positive integer, got {n!r}")
        graph = mn.MenGraph.from_edges(n, [reference_edge(pair) for pair in payload["edges"]])
        ref_text = payload["reference"]
        if not isinstance(ref_text, str) or len(ref_text) != n or set(ref_text) - {"0", "1"}:
            raise ValueError(f"'reference' must be an n-bit string, got {ref_text!r}")
        modulus = payload["reference_modulus"]
        if type(modulus) not in (int, float):
            raise ValueError(f"'reference_modulus' must be a number, got {modulus!r}")
        modulus = float(modulus)
        tables = []
        for i in range(1, n + 1):
            nb = graph.neighbors(i)
            entries = reference_table(i, payload["q"][str(i)], len(nb) + 1)
            tables.append(mn.QFunctionTable(i, nb, int(ref_text[i - 1]), entries))
        return mn.MenModel(graph, tuple(tables), mn.Assignment.from_bits(map(int, ref_text)), modulus)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise mn.FileFormatError(f"malformed model file {path}: {exc}") from exc


def reference_state(payload) -> np.ndarray:
    if not isinstance(payload, dict) or "n" not in payload or "amplitudes" not in payload:
        raise mn.FileFormatError("state file must be an object with 'n' and 'amplitudes'")
    n = payload["n"]
    if type(n) is not int or n < 1:
        raise mn.FileFormatError(f"'n' must be a positive integer, got {n!r}")
    raw = payload["amplitudes"]
    if not isinstance(raw, list) or len(raw) != 2**n:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise mn.FileFormatError(f"expected {2**n} amplitude pairs, got {got}")
    values = []
    for i, pair in enumerate(raw):
        try:
            values.append(reference_entry(pair))
        except (ValueError, OverflowError):
            raise mn.FileFormatError(f"amplitude {i} must be a [re, im] pair of reals") from None
    amps = np.array(values, dtype=np.complex128)
    if not np.all(np.isfinite(amps)):
        raise mn.FileFormatError("amplitudes must be finite")
    parts = amps.view(np.float64)
    norm = math.sqrt(float((parts * parts).sum()))
    if abs(norm - 1.0) >= 1e-6:
        raise mn.FileFormatError(f"state file norm {norm!r} deviates from 1 by {abs(norm - 1.0):.3e} (>= 1e-06)")
    return amps / norm


def reference_sniff(path):
    payload = reference_payload(path, "")
    if isinstance(payload, dict) and "amplitudes" in payload:
        return reference_state(payload)
    if isinstance(payload, dict) and "q" in payload:
        return reference_model(payload, path)
    raise mn.FileFormatError(f"{path} is neither a state file nor a model file")


def outcome(read, path):
    """The fields read, bit for bit, or the error, its message and its cause."""
    try:
        value = read(path)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("error", type(exc).__name__, str(exc), type(exc.__cause__).__name__)
    if isinstance(value, mn.MenModel):
        tables = [(t.node, t.neighbors, t.reference_bit, t.array.tobytes()) for t in value.potentials]
        return (value.graph, value.reference, value.reference_modulus.hex(), tables)
    if isinstance(value, mn.PureState):
        value = value.amplitudes
    return np.asarray(value, dtype=np.complex128).tobytes()


# --- edits ----------------------------------------------------------------------


def odd_part(rng: random.Random):
    """A number or non-number in place of an entry part."""
    return rng.choice([0, 1, -2, 3, True, False, math.nan, -math.inf, Raw("1e400"), Raw("-1e400"),
                       10**400, None, "0.5", 0.25, -0.0, 1e-300])


def odd_entry(rng: random.Random):
    """Something other than a list of two numbers in place of an entry."""
    return rng.choice([[0.5], [0.5, 0.5, 0.5], True, "x", Obj([["re", [1.0, 0.0]]]), [[0.5, 0.5]], None])


def entry_object(rng: random.Random, width: int, parts=None) -> Obj:
    """A flat-order object of [re, im] entries, all floats unless `parts` gives them."""
    return Obj([format(flat, f"0{width}b"), parts or [rng.uniform(-2, 2), rng.uniform(-2, 2)]] for flat in range(1 << width))


def reorder(rng: random.Random, obj: Obj) -> None:
    how = rng.choice(["shuffled", "interleaved", "reversed"])
    if how == "shuffled":
        rng.shuffle(obj)
    elif how == "interleaved":  # "0"+ctx, "1"+ctx, as the benchmark's chain files list them
        obj.sort(key=lambda pair: (pair[0][1:], pair[0][:1]))
    else:
        obj.reverse()


def repeat(rng: random.Random, obj: Obj, value) -> None:
    key = rng.choice(obj)[0]
    at = [k for k, _ in obj].index(key) + rng.choice([0, 1])
    obj.insert(at, [key, value])


def edit_model(rng: random.Random, payload: Obj) -> Obj:
    q = field(payload, "q")
    table = rng.choice(q)[1]
    pair = rng.choice(table)
    kind = rng.choice(["reorder", "repeat", "part", "entry", "width", "top-object", "whole", "q-list",
                       "top-repeat", "top-reorder", "drop", "key", "extra", "edge", "modulus", "not-finite"])
    if kind == "reorder":
        reorder(rng, table)
    elif kind == "repeat":
        repeat(rng, table, rng.choice([[0.0, 0.0], [1.0, 0.0], [0.5, -1.5], [2, 0], list(pair[1])]))
    elif kind == "part":
        pair[1] = list(pair[1]) if isinstance(pair[1], list) and len(pair[1]) == 2 else [0.5, 0.5]
        pair[1][rng.randrange(2)] = odd_part(rng)
    elif kind == "entry":
        pair[1] = odd_entry(rng)
    elif kind == "width":
        width = len(table[0][0])
        q[rng.randrange(len(q))][1] = entry_object(rng, rng.choice([w for w in (1, 2, 3, 4) if w != width]))
    elif kind == "top-object":
        set_field(payload, rng.choice(["n", "reference", "reference_modulus", "edges", "q"]),
                  entry_object(rng, rng.choice([1, 2])))
    elif kind == "whole":
        return entry_object(rng, rng.choice([1, 2, 3]))
    elif kind == "q-list":
        set_field(payload, "q", rng.choice([[t for _, t in q], [e for _, e in table]]))
    elif kind == "top-repeat":
        key = rng.choice(["n", "reference", "reference_modulus", "edges", "q"])
        value = rng.choice([field(payload, key), entry_object(rng, 1), 3, "010"])
        payload.insert(rng.choice([0, len(payload)]), [key, value])
    elif kind == "top-reorder":
        rng.shuffle(payload)
    elif kind == "drop":
        target = rng.choice([payload, table])
        del target[rng.randrange(len(target))]
    elif kind == "key":
        pair[0] = rng.choice(["1x1", "2", "", "1 1", pair[0] + "0", pair[0][1:]])
    elif kind == "extra":
        target = rng.choice([payload, q])
        target.insert(rng.randrange(len(target) + 1), [rng.choice(["x", "9", "0", "1"]), entry_object(rng, 1)])
    elif kind == "not-finite":  # off the reference bit: the table builds, and the model is refused
        off = [p for p in table if p[0][:1] == "1"] or [pair]
        rng.choice(off)[1] = [rng.choice([math.nan, math.inf, Raw("1e400")]), rng.choice([0.0, math.nan])]
    elif kind == "edge":
        edges = field(payload, "edges")
        if type(edges) is list and edges:
            edges[rng.randrange(len(edges))] = rng.choice([[1, 2.0], [1], [1, 1], "12", [True, 2], [1, 9]])
    else:
        value = field(payload, "reference_modulus")
        value = value if type(value) is float else 0.5
        set_field(payload, "reference_modulus", rng.choice([value * 1.01, value * (1 + 1e-12), 0, Raw("1e400"), 10**400]))
    return payload


def edit_state(rng: random.Random, payload: Obj) -> Obj:
    amps = field(payload, "amplitudes")
    kind = rng.choice(["part", "entry", "amplitudes-object", "n", "whole", "top-repeat", "top-reorder",
                       "norm", "drop", "extra", "ints"])
    if kind == "part":
        amps[rng.randrange(len(amps))][rng.randrange(2)] = odd_part(rng)
    elif kind == "entry":
        amps[rng.randrange(len(amps))] = odd_entry(rng)
    elif kind == "amplitudes-object":
        width = rng.choice([1, 2, 3])
        set_field(payload, "amplitudes", entry_object(rng, width, rng.choice([None, [1, 0]])))
    elif kind == "n":
        set_field(payload, "n", rng.choice([0, -1, True, 2.0, "3", 1, 4, entry_object(rng, 1)]))
    elif kind == "whole":
        return entry_object(rng, rng.choice([1, 2]))
    elif kind == "top-repeat":
        key = rng.choice(["n", "amplitudes"])
        value = rng.choice([field(payload, key), entry_object(rng, 2), 2, [[1.0, 0.0]] * 4])
        payload.insert(rng.choice([0, len(payload)]), [key, value])
    elif kind == "top-reorder":
        payload.reverse()
    elif kind == "norm":
        factor = rng.choice([1 + 1e-7, 1.01, 0.0])
        if all(type(part) is float for pair in amps for part in pair):
            set_field(payload, "amplitudes", [[re * factor, im * factor] for re, im in amps])
    elif kind == "drop":
        del payload[rng.randrange(len(payload))]
    elif kind == "extra":
        payload.insert(rng.randrange(len(payload) + 1), [rng.choice(["q", "x"]), entry_object(rng, 1)])
    else:
        set_field(payload, "amplitudes", [[1, 0]] + [[0, 0]] * (len(amps) - 1))
    return payload


def editable(payload, edit) -> bool:
    """Whether `payload` still has the tables, or the entries, that `edit` edits."""
    if not isinstance(payload, Obj):
        return False
    fields = dict(payload)
    if edit is edit_model:
        q = fields.get("q")
        return isinstance(q, Obj) and bool(q) and all(isinstance(table, Obj) and table for _, table in q)
    amps = fields.get("amplitudes")
    return type(amps) is list and all(type(pair) is list and len(pair) == 2 for pair in amps)


def edited(rng, base, edit, path) -> None:
    """The file at `base` with one to three edits, written to `path`."""
    payload = edit(rng, parsed(base))
    for _ in range(rng.choice([0, 0, 1, 2])):
        if not editable(payload, edit):
            break
        payload = edit(rng, payload)
    path.write_text(dump(payload) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Saved models (a chain and a triangle) and states (2 and 3 qubits) to edit."""
    where = tmp_path_factory.mktemp("saved")
    models = [where / "chain.model", where / "triangle.model"]
    mn.save_model(mn.random_chain_model(3, seed=2), models[0])
    mn.save_model(mn.random_model(mn.MenGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)]), 1), models[1])
    states = [where / "two.state", where / "three.state"]
    mn.save_state(mn.random_state(2, seed=4), states[0])
    mn.save_state(mn.random_state(3, seed=5), states[1])
    return models, states


@pytest.mark.parametrize("seed", range(3))
def test_model_reads_match_the_reference(seed, saved, tmp_path):
    """100 edits per seed, each read by load_model and by the CLI's sniff."""
    rng = random.Random(seed)
    path = tmp_path / "m.model"
    errors = 0
    for _ in range(100):
        edited(rng, rng.choice(saved[0]), edit_model, path)
        want = outcome(lambda p: reference_model(reference_payload(p, "model file "), p), path)
        assert outcome(mn.load_model, path) == want, path.read_text()
        assert outcome(_load_state_or_model, path) == outcome(reference_sniff, path), path.read_text()
        errors += want[0] == "error"
    assert 10 < errors < 95  # both reads and refusals are compared


@pytest.mark.parametrize("seed", range(3))
def test_state_reads_match_the_reference(seed, saved, tmp_path):
    """40 edits per seed, each read by load_state, _load_amplitudes and the CLI's sniff."""
    rng = random.Random(seed)
    path = tmp_path / "s.state"
    errors = 0
    for _ in range(40):
        edited(rng, rng.choice(saved[1]), edit_state, path)
        want = outcome(lambda p: reference_state(reference_payload(p, "state file ")), path)
        assert outcome(mn.load_state, path) == want, path.read_text()
        assert outcome(_load_amplitudes, path) == want, path.read_text()
        assert outcome(_load_state_or_model, path) == outcome(reference_sniff, path), path.read_text()
        errors += want[0] == "error"
    assert 4 < errors < 38


def test_unedited_files_read_as_saved(saved):
    for path in saved[0]:
        want = outcome(lambda p: reference_model(reference_payload(p, "model file "), p), path)
        assert want[0] != "error" and outcome(mn.load_model, path) == want
    for path in saved[1]:
        want = outcome(lambda p: reference_state(reference_payload(p, "state file ")), path)
        assert want[0] != "error" and outcome(mn.load_state, path) == want
