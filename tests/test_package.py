"""The lazily filled package namespace, and what each command imports."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import menet as mn

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"

PUBLIC = [
    "AllBasesRejected", "Assignment", "BenchReport", "BenchRow", "ClassTag", "DEFAULT_TOL",
    "DegenerateState", "EnumerationBoundExceeded", "FileFormatError", "GraphoidReport",
    "InconsistentGraph", "InvalidPartition", "InvalidQuery", "InvalidUnitary", "InvarianceReport",
    "LocalBasisChange", "MenError", "MenGraph", "MenModel", "MissingBinding", "MleResult",
    "NotAChain", "NotAPrefix", "NotSeparable", "PerfectMapReport", "ProductStateSample",
    "PureState", "QFunctionTable", "QueryResult", "SeparabilityVerdict", "ToleranceConfig",
    "TopologyCensus", "TripartiteClass", "WrongArity", "ZeroAmplitudeWarning",
    "ZeroEvidenceProbability", "ZeroProbabilityOutcome", "ZeroReferenceAmplitude",
    "a_independent", "apply_local_basis_change", "assignment_of", "basis_state", "bench_chains",
    "build_graph", "canonical_state", "chain_marginal_ratio", "chain_prefix_marginal_ratio",
    "check_graphoid_axioms", "class_invariance_check", "classify", "conditional_probability",
    "conditionally_separable", "default_reference", "export_dot", "extract_factors",
    "extract_men", "factor_round_trip_fidelity", "fidelity_up_to_phase", "haar_qubit_unitary",
    "index_of", "is_separable", "load_model", "load_state", "marginal_probability",
    "marginal_ratio", "measure_and_update", "measure_qubit", "mle_brute_force", "mle_chain",
    "node_separation", "normalization_modulus", "probability_of", "q_value",
    "random_chain_model", "random_model", "random_nonzero_state", "random_product_state",
    "random_state", "reconstruct_state", "rotation", "save_model", "save_state",
    "tensor_product", "topology_census", "topology_shape", "verify_perfect_map",
]


def run_fresh(code: str, *args: str, cwd=None) -> str:
    """stdout of `code` run in a new interpreter that imports menet from src/."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, cwd=cwd, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return proc.stdout


class TestNamespace:
    def test_public_names_unchanged(self):
        assert mn.__all__ == PUBLIC
        assert mn.__version__ == "0.1.0"

    @pytest.mark.parametrize("name", PUBLIC)
    def test_each_name_is_its_home_modules_object(self, name):
        value = getattr(mn, name)
        home = importlib.import_module(f"menet.{mn._HOME[name]}")
        assert value is vars(home)[name]
        assert value.__module__ == home.__name__

    def test_names_bound_as_their_module_loads(self):
        """Loading a submodule binds its names as plain package attributes, and no others."""
        code = (
            "import sys\n"
            "import menet\n"
            "unbound = 'build_graph' not in vars(menet)\n"
            "import menet.network\n"
            "bound = vars(menet)['build_graph'] is sys.modules['menet.network'].build_graph\n"
            "lazy = 'mle_chain' not in vars(menet) and 'menet.inference' not in sys.modules\n"
            "loaded = menet.mle_chain is sys.modules['menet.inference'].mle_chain\n"
            "print(unbound, bound, lazy, loaded)\n"
        )
        assert run_fresh(code).split() == ["True"] * 4

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from menet import *", namespace)
        assert {k for k in namespace if k != "__builtins__"} == set(PUBLIC)
        assert all(namespace[name] is getattr(mn, name) for name in PUBLIC)
        assert set(PUBLIC) <= set(dir(mn))

    def test_dir_lists_no_public_name_outside_all(self):
        import menet.cli  # noqa: F401 - loaded submodules stay out of dir as well

        assert {name for name in dir(mn) if not name.startswith("_")} == set(PUBLIC)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            mn.nope  # noqa: B018
        with pytest.raises(ImportError):
            exec("from menet import nope", {})

    @pytest.mark.parametrize(
        "order",
        [
            "import menet.classify; import menet",
            "import menet; menet.classify; import menet.classify",
            "import menet.cli; importlib.import_module('menet.classify'); from menet import *",
        ],
    )
    def test_classify_stays_the_function(self, order):
        """The submodule menet.classify, imported in any order, never replaces the function."""
        code = (
            "import importlib, sys\n"
            f"{order}\n"
            "import menet\n"
            "function = sys.modules['menet.classify'].classify\n"
            "from menet import classify\n"
            "print(menet.classify is function and classify is function)\n"
        )
        assert run_fresh(code).strip() == "True"


# Runs one command in a fresh interpreter (none: only imports menet.cli);
# prints its exit code, the menet modules loaded and whether `statistics`,
# numpy and numpy.random were imported.
PROBE = """
import contextlib, io, json, sys
from menet.cli import main
rc = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main(sys.argv[1:])
        except SystemExit as exc:  # --help
            rc = exc.code
mods = sorted(name[len("menet."):] for name in sys.modules if name.startswith("menet."))
print(json.dumps([
    rc, mods, "statistics" in sys.modules, "numpy" in sys.modules, "numpy.random" in sys.modules,
]))
"""

CORE = {"cli", "errors", "network", "state"}
QUERY = CORE | {"inference", "elimination"}
# (argv, menet modules loaded, numpy loaded). A model works out log Z, to
# derive or audit its modulus, through menet.elimination (plain Python),
# which also holds the chain sweeps: extracting and reading any model load
# it, chain4.model, model_k4.model (the complete graph) and chain20.model
# alike, and so does every model query. Model queries never load numpy.
COMMANDS = [
    ([], CORE, False),
    (["--help"], CORE, False),
    (["graph", "ghz.state"], CORE | {"separability"}, True),
    (["extract", "plusplus.state", "-o", "out.model"], CORE | {"separability", "elimination"}, True),
    (["reconstruct", "chain4.model", "-o", "out.state"], CORE | {"elimination"}, True),
    (["verify", "ghz.state"], CORE | {"separability"}, True),
    (["marginal", "chain4.model", "--assign", "1=0", "--ratio"], QUERY, False),
    (["conditional", "chain4.model", "--query", "1=0", "--evidence", "2=1"], QUERY, False),
    (["mle", "chain4.model"], QUERY, False),
    (["marginal", "model_k4.model", "--assign", "1=0,3=1"], QUERY, False),
    (["conditional", "model_k4.model", "--query", "1=0", "--evidence", "4=1"], QUERY, False),
    (["mle", "model_k4.model"], QUERY, False),
    (["marginal", "chain20.model", "--assign", "1=0,7=1", "--ratio"], QUERY, False),
    (["marginal", "chain20.model", "--assign", "1=0,7=1"], QUERY, False),
    (["conditional", "chain20.model", "--query", "1=0", "--evidence", "20=1"], QUERY, False),
    (["mle", "chain20.model"], QUERY, False),
    (["measure", "ghz.state", "--qubit", "1", "--outcome", "0", "-o", "out.state"],
     CORE | {"separability"}, True),
    (["classify", "ghz.state", "--samples", "8"], CORE | {"classify"}, False),
]


def command_id(argv):
    if not argv:
        return "import"
    if "model_k4.model" in argv:
        return f"{argv[0]}-k4"
    if "chain20.model" not in argv:
        return argv[0]
    return f"{argv[0]}-chain20" + ("-ratio" if "--ratio" in argv else "")


@pytest.mark.parametrize("argv, loaded, numpy", COMMANDS, ids=[command_id(argv) for argv, _, _ in COMMANDS])
def test_each_command_imports_only_what_it_runs(argv, loaded, numpy, fixture_dir, tmp_path):
    for name in ("ghz.state", "plusplus.state", "chain4.model"):
        (tmp_path / name).write_bytes((fixture_dir / name).read_bytes())
    (tmp_path / "model_k4.model").write_bytes((GOLDEN / "model_k4.model").read_bytes())
    mn.save_model(mn.random_chain_model(20, seed=3), tmp_path / "chain20.model")
    rc, mods, statistics, numpy_loaded, numpy_random = json.loads(run_fresh(PROBE, *argv, cwd=tmp_path))
    assert rc == 0
    assert set(mods) == loaded
    assert not statistics  # it brings decimal and fractions; only `menet bench` needs it
    assert numpy_loaded == numpy
    # about 6 MB per process; classify's census draws its Haar bases without it
    assert not numpy_random


def test_building_and_reading_models_loads_no_inference(tmp_path):
    """network normalizes models through menet.elimination alone, never menet.inference."""
    mn.save_model(mn.random_model(mn.MenGraph.from_edges(4, [(1, 2), (2, 3), (1, 4)]), 2), tmp_path / "m4.model")
    mn.save_state(mn.PureState([0.5] * 4), tmp_path / "plusplus.state")
    code = (
        "import contextlib, io, sys\n"
        "import menet\n"
        "from menet.cli import main\n"
        "menet.random_model(menet.MenGraph.path(5), 0)\n"
        "menet.random_model(menet.MenGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)]), 0)\n"
        "menet.extract_men(menet.random_nonzero_state(3, 0))\n"
        "menet.load_model('m4.model')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['extract', 'plusplus.state', '-o', 'out.model'])\n"
        "print(rc, 'menet.elimination' in sys.modules, 'menet.inference' in sys.modules)\n"
    )
    assert run_fresh(code, cwd=tmp_path).split() == ["0", "True", "False"]


class TestOneParseRule:
    """state._read_json is the one parse rule of the state and model readers."""

    def test_read_json_takes_only_the_path_and_the_format_name(self):
        import inspect

        from menet import state

        assert list(inspect.signature(state._read_json).parameters) == ["path", "what"]

    @pytest.mark.parametrize("module", ["menet.cli", "menet.network"])
    def test_other_readers_name_neither_the_hook_nor_its_undoing(self, module):
        source = Path(importlib.import_module(module).__file__).read_text(encoding="utf-8")
        assert "_table_hook" not in source and "_as_json" not in source

    def test_table_keeps_a_given_tuple_of_complex_values(self):
        entries = (1 + 0j, 1 + 0j, 0.5 + 2j, -3j)
        assert mn.QFunctionTable(1, (2,), 0, entries).entries is entries
        converted = mn.QFunctionTable(1, (2,), 0, [1, 1.0, 0.5 + 2j, -3j]).entries
        assert type(converted) is tuple and converted == entries
        assert list(map(type, converted)) == [complex] * 4
