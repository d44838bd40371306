import argparse
import math
from pathlib import Path

import numpy as np
import pytest

import menet as mn
from menet.cli import main, parse_assignment

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


class TestAssignmentGrammar:
    def test_basic(self):
        assert parse_assignment("1=0,3=1") == mn.Assignment({1: 0, 3: 1})

    def test_spaces_tolerated(self):
        assert parse_assignment(" 2=1 , 4=0 ") == mn.Assignment({2: 1, 4: 0})

    def test_empty_is_empty_assignment(self):
        assert parse_assignment("") == mn.Assignment()

    @pytest.mark.parametrize("bad", ["1", "a=0", "1=2", "0=1", "1=0,1=1"])
    def test_rejected(self, bad):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_assignment(bad)


class TestExitCodes:
    def test_usage_error_is_2(self, capsys, fixture_dir):
        with pytest.raises(SystemExit) as exc:
            main(["measure", str(fixture_dir / "ghz.state"), "--qubit", "1", "--outcome", "2", "-o", "x"])
        assert exc.value.code == 2

    def test_duplicate_assignment_is_usage_error(self, capsys, fixture_dir):
        with pytest.raises(SystemExit) as exc:
            main(["marginal", str(fixture_dir / "plusplus.state"), "--assign", "1=0,1=1"])
        assert exc.value.code == 2

    def test_domain_error_is_1(self, capsys, fixture_dir, tmp_path):
        rc = main(
            ["measure", str(fixture_dir / "zerozero.state"), "--qubit", "1",
             "--outcome", "1", "-o", str(tmp_path / "o.state")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ZeroProbabilityOutcome:")

    def test_missing_file_is_1(self, capsys):
        rc = main(["graph", "/nonexistent/file.state"])
        assert rc == 1
        assert "FileFormatError" in capsys.readouterr().err

    def test_zero_evidence_is_1(self, capsys, fixture_dir):
        rc = main(
            ["conditional", str(fixture_dir / "zerozero.state"),
             "--query", "2=0", "--evidence", "1=1"]
        )
        assert rc == 1
        assert "ZeroEvidenceProbability" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["plusplus.state", "chain4.model"])
    def test_overlapping_query_and_evidence_is_1(self, name, capsys, fixture_dir):
        """Consistent bindings on a shared qubit are refused too, on both file kinds."""
        rc = main(["conditional", str(fixture_dir / name), "--query", "1=0", "--evidence", "1=0,2=1"])
        assert rc == 1
        assert capsys.readouterr().err == "error: InvalidQuery: query and evidence domains must be disjoint\n"

    def test_verify_bound_is_1(self, capsys, tmp_path):
        from menet.network import _PERFECT_MAP_MAX

        mn.save_state(mn.random_state(_PERFECT_MAP_MAX + 1, 0), tmp_path / "big.state")
        rc = main(["verify", str(tmp_path / "big.state")])
        assert rc == 1
        assert "EnumerationBoundExceeded" in capsys.readouterr().err

    def test_reconstruct_check_of_another_size_is_1(self, capsys, fixture_dir, tmp_path):
        """The --check state is sized up before the output is written, so none is left."""
        out = tmp_path / "out.state"
        rc = main(
            ["reconstruct", str(fixture_dir / "chain4.model"), "-o", str(out),
             "--check", str(fixture_dir / "ghz.state")]
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: InvalidQuery: --check state has 3 qubits, the model has 4\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["extract", "plusplus.state"], "model"),
            (["reconstruct", "chain4.model"], "state"),
            (["measure", "ghz.state", "--qubit", "1", "--outcome", "0"], "state"),
        ],
        ids=["extract", "reconstruct", "measure"],
    )
    def test_unwritable_output_is_1(self, capsys, fixture_dir, tmp_path, argv, kind):
        out = tmp_path / "no_such_dir" / "out"
        rc = main([argv[0], str(fixture_dir / argv[1]), *argv[2:], "-o", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: FileFormatError: cannot write {kind} file {out}: "
            f"[Errno 2] No such file or directory: '{out}'\n"
        )


def golden_cases(fixture_dir, tmp_path):
    fx = str(fixture_dir)
    out = str(tmp_path)
    return {
        "graph_w": ["graph", f"{fx}/w.state"],
        "graph_dot_rotghz": ["graph", f"{fx}/rotghz.state", "--dot"],
        "extract_plusplus": ["extract", f"{fx}/plusplus.state", "-o", f"{out}/pp.model"],
        "reconstruct_plusplus": [
            "reconstruct", f"{fx}/plusplus.model", "-o", f"{out}/out.state",
            "--check", f"{fx}/plusplus.state",
        ],
        "marginal_plusplus": ["marginal", f"{fx}/plusplus.state", "--assign", "1=0"],
        "marginal_chain4_ratio": [
            "marginal", f"{fx}/chain4.model", "--assign", "1=0,3=1", "--ratio",
        ],
        "conditional_plusplus": [
            "conditional", f"{fx}/plusplus.state", "--query", "1=0", "--evidence", "2=1",
        ],
        "mle_w": ["mle", f"{fx}/w.state"],
        "measure_ghz": [
            "measure", f"{fx}/ghz.state", "--qubit", "1", "--outcome", "0",
            "-o", f"{out}/collapsed.state",
        ],
        "classify_ghz": ["classify", f"{fx}/ghz.state", "--samples", "64", "--seed", "7"],
        "verify_rotghz": ["verify", f"{fx}/rotghz.state"],
        "bench": ["bench", "--sizes", "8,10", "--seed", "3", "--no-timing"],
    }


GOLDEN_NAMES = (
    "graph_w",
    "graph_dot_rotghz",
    "extract_plusplus",
    "reconstruct_plusplus",
    "marginal_plusplus",
    "marginal_chain4_ratio",
    "conditional_plusplus",
    "mle_w",
    "measure_ghz",
    "classify_ghz",
    "verify_rotghz",
    "bench",
)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_byte_identical(name, capsys, fixture_dir, tmp_path):
    """Every subcommand reproduces its golden output, byte for byte, twice."""
    argv = golden_cases(fixture_dir, tmp_path)[name]
    rc1, out1 = run_cli(capsys, argv)
    rc2, out2 = run_cli(capsys, argv)
    assert rc1 == 0 and rc2 == 0
    assert out1 == out2
    assert out1 == (GOLDEN / f"{name}.txt").read_text()


class TestCommandSemantics:
    def test_graph_w_warns_in_stdout(self, capsys, fixture_dir):
        rc, out = run_cli(capsys, ["graph", str(fixture_dir / "w.state")])
        assert rc == 0
        assert out.splitlines()[0].startswith("warning: near-zero amplitudes")
        assert out.splitlines().count("edge 1 2") == 1

    def test_extract_writes_loadable_model(self, capsys, fixture_dir, tmp_path):
        out_model = tmp_path / "pp.model"
        rc, _ = run_cli(
            capsys,
            ["extract", str(fixture_dir / "plusplus.state"), "-o", str(out_model)],
        )
        assert rc == 0
        model = mn.load_model(out_model)
        assert model.num_qubits == 2

    def test_reconstruct_check_reports_unit_fidelity(self, capsys, fixture_dir, tmp_path):
        rc, out = run_cli(
            capsys,
            ["reconstruct", str(fixture_dir / "plusplus.model"),
             "-o", str(tmp_path / "o.state"), "--check", str(fixture_dir / "plusplus.state")],
        )
        assert rc == 0
        assert "fidelity: 1" in out
        back = mn.load_state(tmp_path / "o.state")
        assert back.num_qubits == 2

    def test_marginal_state_and_model_agree(self, capsys, fixture_dir, tmp_path):
        _, out_state = run_cli(
            capsys, ["marginal", str(fixture_dir / "plusplus.state"), "--assign", "1=0"]
        )
        _, out_model = run_cli(
            capsys, ["marginal", str(fixture_dir / "plusplus.model"), "--assign", "1=0"]
        )
        assert out_state == out_model == "probability: 0.5\n"

    def test_mle_w_tie_break(self, capsys, fixture_dir):
        rc, out = run_cli(capsys, ["mle", str(fixture_dir / "w.state")])
        assert out.splitlines()[0] == "assignment: 001"

    def test_measure_writes_collapsed_state(self, capsys, fixture_dir, tmp_path):
        target = tmp_path / "collapsed.state"
        rc, out = run_cli(
            capsys,
            ["measure", str(fixture_dir / "ghz.state"), "--qubit", "1",
             "--outcome", "0", "-o", str(target)],
        )
        assert rc == 0
        assert out.splitlines()[0] == "probability: 0.5"
        collapsed = mn.load_state(target)
        assert collapsed.amplitude(mn.Assignment.zeros(3)) == pytest.approx(1.0)

    def test_verify_passes_a_path_state(self, capsys, tmp_path):
        """A pairwise-factor state on the path 1-2-3-4 passes all 140 instances;
        transitivity, which fails on any path A-v-B for this predicate, is not
        among them."""
        rng = np.random.default_rng(5)
        f12, f23, f34 = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 2 for _ in range(3))
        amps = np.einsum("ab,bc,cd->abcd", f12, f23, f34).reshape(-1)
        mn.save_state(mn.PureState(amps / np.linalg.norm(amps)), tmp_path / "path.state")
        rc, out = run_cli(capsys, ["verify", str(tmp_path / "path.state")])
        assert rc == 0
        assert out.splitlines() == [
            "nodes: 4",
            "edge 1 2",
            "edge 2 3",
            "edge 3 4",
            "perfect_map: pass (checked=25, disagreements=0)",
            "graphoids: pass (instances=140, violations=0)",
        ]

    @pytest.mark.parametrize("name", ["ghz", "plusplus3"])
    def test_classify_runs_one_census(self, capsys, monkeypatch, fixture_dir, tmp_path, name):
        import importlib

        classify_module = importlib.import_module("menet.classify")
        cli_module = importlib.import_module("menet.cli")
        if name == "plusplus3":  # stage 1 decides; the census is still printed
            path = tmp_path / "product.state"
            mn.save_state(mn.PureState([8 ** -0.5] * 8), path)
        else:
            path = fixture_dir / f"{name}.state"
        calls = []
        original = classify_module.topology_census

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(classify_module, "topology_census", counting)
        # cli imports the census when `classify` runs; patched here too in case it is bound early
        monkeypatch.setattr(cli_module, "topology_census", counting, raising=False)
        rc, out = run_cli(capsys, ["classify", str(path), "--samples", "16"])
        assert rc == 0
        assert "bases_sampled:" in out
        assert len(calls) == 1

    def test_conditional_too_many_free_qubits_is_1(self, capsys, tmp_path, wide_elimination_tables, write_model_text):
        """The file is refused as it is read: the model cannot normalize itself."""
        path = tmp_path / "w40.model"
        write_model_text(path, *wide_elimination_tables(20, seed=0))
        rc = main(["conditional", str(path), "--query", "1=0", "--evidence", "2=1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith("error: EnumerationBoundExceeded: variable elimination")

    def test_mle_past_the_reconstruction_bound(self, capsys, tmp_path, off_chain_twin):
        """A non-chain model past n = 24 answers by elimination, as the chain it twins does."""
        from menet.network import _RECONSTRUCT_MAX

        model = mn.random_chain_model(30, seed=0)
        twin = off_chain_twin(model)
        assert twin.num_qubits > _RECONSTRUCT_MAX and not twin.graph.is_path()
        mn.save_model(twin, tmp_path / "twin30.model")
        rc, out = run_cli(capsys, ["mle", str(tmp_path / "twin30.model")])
        expected = mn.mle_chain(model)
        bits = "".join(map(str, expected.assignment.bits(30)))
        assert rc == 0
        assert out.splitlines()[0] == f"assignment: {bits}"
        assert float(out.splitlines()[1].split(": ")[1]) == pytest.approx(expected.probability, rel=1e-11)

    def test_classify_census_contains_chain(self, capsys, fixture_dir):
        rc, out = run_cli(
            capsys,
            ["classify", str(fixture_dir / "ghz.state"), "--samples", "64", "--seed", "7"],
        )
        assert out.splitlines()[0] == "class: GHZ-like"
        chain_counts = [
            int(line.split(":")[1]) for line in out.splitlines() if line.startswith("chain(")
        ]
        assert sum(chain_counts) > 0

    def test_bench_timing_mode_has_numbers(self, capsys):
        rc, out = run_cli(capsys, ["bench", "--sizes", "8", "--seed", "0", "--reps", "2"])
        assert rc == 0
        body = out.splitlines()[1:]
        assert all(line.split("\t")[2].isdigit() for line in body)

    def test_mle_on_model_file(self, capsys, fixture_dir):
        rc, out = run_cli(capsys, ["mle", str(fixture_dir / "chain4.model")])
        assert rc == 0
        assignment = out.splitlines()[0].split(": ")[1]
        assert len(assignment) == 4 and set(assignment) <= {"0", "1"}

    def test_graph_tolerance_flag(self, capsys, fixture_dir):
        rc, out = run_cli(
            capsys, ["graph", str(fixture_dir / "rotghz.state"), "--tolerance", "1e-6"]
        )
        assert rc == 0
        assert "edge 1 2" in out


def off_reference_scaled(model, factor):
    """The chain model with every entry off the reference bit multiplied by `factor`."""
    tables = []
    for table in model.potentials:
        array = np.array(table.array)
        array[1 - table.reference_bit] *= factor
        entries = array.reshape(-1).tolist()
        tables.append(mn.QFunctionTable(table.node, table.neighbors, table.reference_bit, entries, 0.0))
    return mn.MenModel(model.graph, tuple(tables), model.reference)


def rising_chain(n, factor):
    """A chain whose q_k(1 | x_{k-1} = 0) is `factor` (q_1(1) too), every other entry 1.

    Each level spans only `factor`, but no single assignment takes every
    node's largest entry: the largest product, factor**ceil(n / 2) at
    1010..., lies far below the product of the nodes' largest entries.
    """
    graph = mn.MenGraph.from_edges(n, [(k, k + 1) for k in range(1, n)])
    tables = []
    for k in range(1, n + 1):
        array = np.ones((2,) * (1 + len(graph.neighbors(k))), dtype=np.complex128)
        array[(1, 0) if k > 1 else 1] = factor  # x_k = 1 with its lower neighbour x_{k-1} = 0
        tables.append(mn.QFunctionTable(k, graph.neighbors(k), 0, array.reshape(-1).tolist(), 0.0))
    return mn.MenModel(graph, tuple(tables), mn.Assignment({q: 0 for q in range(1, n + 1)}))


def log_domain_ratio(model, bound):
    """log of the chain's marginal ratio, summed by log-domain transfer matrices."""
    n, ref = model.num_qubits, model.reference_bits()
    log_message = np.array([0.0, -np.inf])  # over the dummy x_0 = 0
    for i, table in enumerate(model.potentials, start=1):
        def context(p):
            return tuple(([p] if i > 1 else []) + ([ref[i]] if i < n else []))

        log_w = np.log([[abs(table.q(b, context(p))) ** 2 for b in (0, 1)] for p in (0, 1)])
        log_message = np.logaddexp.reduce(log_message[:, None] + log_w, axis=0)
        if i in bound:
            log_message[1 - bound[i]] = -np.inf
    return float(np.logaddexp.reduce(log_message))


class TestLongChainModels:
    """A 1000-qubit chain: its stored reference modulus underflows to 0."""

    @pytest.fixture(scope="class")
    def chain1000(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("chains") / "c1000.model"
        model = mn.random_chain_model(1000, seed=0)
        assert model.reference_modulus == 0.0
        mn.save_model(model, path)
        return path

    def test_conditional_on_chain_past_the_brute_force_guard(self, capsys, tmp_path):
        path = tmp_path / "c40.model"
        model = mn.random_chain_model(40, seed=0)
        mn.save_model(model, path)
        rc, out = run_cli(capsys, ["conditional", str(path), "--query", "1=0", "--evidence", "2=1"])
        assert rc == 0
        expected = mn.conditional_probability(model, mn.Assignment({1: 0}), mn.Assignment({2: 1}))
        assert out == f"probability: {format(expected, '.12g')}\n"

    def test_marginal_probability(self, capsys, chain1000):
        rc, out = run_cli(capsys, ["marginal", str(chain1000), "--assign", "1=0,2=1"])
        assert rc == 0
        value = float(out.split(": ")[1])
        assert 0.0 < value < 1.0

    def test_marginal_ratio_past_the_double_range_prints_its_log(self, capsys, chain1000):
        """The sum is about e^2016: its natural log, against a log-domain sum."""
        bound = {1: 0, 2: 1}
        rc, out = run_cli(capsys, ["marginal", str(chain1000), "--assign", "1=0,2=1", "--ratio"])
        assert rc == 0 and out.startswith("log_ratio: ") and out.count("\n") == 1
        model = mn.load_model(chain1000)
        assert float(out.split(": ")[1]) == pytest.approx(log_domain_ratio(model, bound), rel=1e-9)
        assert mn.chain_marginal_ratio(model, mn.Assignment(bound)).value == math.inf

    def test_library_log_is_the_printed_log_ratio(self, capsys, chain1000):
        """chain_marginal_ratio's log_value, printed as `marginal --ratio` prints its log."""
        from menet.cli import _fmt

        for assign in ("1=0,2=1", "3=1,500=0,1000=1"):
            rc, out = run_cli(capsys, ["marginal", str(chain1000), "--assign", assign, "--ratio"])
            result = mn.chain_marginal_ratio(mn.load_model(chain1000), parse_assignment(assign))
            assert rc == 0 and result.value == math.inf
            assert out == f"log_ratio: {_fmt(result.log_value)}\n"

    def test_marginal_ratio_below_the_double_range_prints_its_log(self, capsys, tmp_path):
        """The sum is about e^-2178: the ratio underflows to 0, its log does not."""
        model = off_reference_scaled(mn.random_chain_model(100, seed=3), 1e-5)
        path = tmp_path / "small.model"
        mn.save_model(model, path)
        bound = {q: 1 for q in range(1, 101)}
        assign = ",".join(f"{q}=1" for q in bound)
        rc, out = run_cli(capsys, ["marginal", str(path), "--assign", assign, "--ratio"])
        assert rc == 0 and out.startswith("log_ratio: ") and out.count("\n") == 1
        want = log_domain_ratio(mn.load_model(path), bound)
        assert want == pytest.approx(-2178.39, abs=0.01)
        assert float(out.split(": ")[1]) == pytest.approx(want, rel=1e-9)
        assert mn.chain_marginal_ratio(model, mn.Assignment(bound)).value == 0.0

    def test_weight_past_the_double_range_answers_as_the_bucket_engine(self, capsys, tmp_path, off_chain_twin):
        """A chain whose weights |q|^2 pass the double range answers, as elimination on its off-chain twin."""
        from menet import elimination, inference

        model = off_reference_scaled(mn.random_chain_model(20, seed=3), 1e160)
        mn.save_model(model, tmp_path / "huge.model")
        mn.save_model(off_chain_twin(model), tmp_path / "twin.model")
        rc, out = run_cli(capsys, ["mle", str(tmp_path / "huge.model")])
        rc_twin, out_twin = run_cli(capsys, ["mle", str(tmp_path / "twin.model")])
        assert rc == rc_twin == 0
        assert out.splitlines()[0] == out_twin.splitlines()[0]
        probability = float(out.splitlines()[1].split(": ")[1])
        assert 0.0 < probability == pytest.approx(float(out_twin.splitlines()[1].split(": ")[1]), rel=1e-9)
        chain, twin = mn.load_model(tmp_path / "huge.model"), mn.load_model(tmp_path / "twin.model")
        want_log_z = elimination.log_partition(twin.potentials, twin.reference_bits())[0]
        assert inference._model_log_z(chain)[0] == pytest.approx(want_log_z, rel=1e-12)

    # Both models' moduli underflow to 0 and their products pass the double
    # range. In the rising chain no one assignment takes every node's
    # largest entry: its peak, 1e540 at 10101, lies about 1196 bits below
    # the product of those entries (1e900), so dividing each node's factor
    # by its own largest entry underflows at the peak.
    PAST_RANGE = {
        "scaled": (lambda: off_reference_scaled(mn.random_chain_model(10, seed=3), 1e160), "1111111111"),
        "rising": (lambda: rising_chain(5, 1e180), "10101"),
    }

    @pytest.mark.parametrize("name", PAST_RANGE)
    def test_library_reconstructs_past_the_double_range(self, name):
        """The running product is divided by powers of two as it goes, and scaled back from log Z.

        The state has unit norm and peaks at the maximum-likelihood
        assignment.
        """
        make, peak = self.PAST_RANGE[name]
        model = make()
        assert model.reference_modulus == 0.0
        probabilities = np.abs(mn.reconstruct_state(model).amplitudes) ** 2
        assert abs(probabilities.sum() - 1.0) < 1e-9 and probabilities.max() > 1 - 1e-9
        assert int(np.argmax(probabilities)) == int(peak, 2)
        assert mn.assignment_of(int(peak, 2), len(peak)) == mn.mle_chain(model).assignment

    @pytest.mark.parametrize("name", PAST_RANGE)
    def test_reconstruct_past_the_double_range(self, name, capsys, tmp_path):
        """The same chains' files: the stored modulus is 0, and the state written peaks at the mle assignment."""
        make, peak = self.PAST_RANGE[name]
        path, out = tmp_path / "big.model", tmp_path / "big.state"
        mn.save_model(make(), path)
        assert run_cli(capsys, ["reconstruct", str(path), "-o", str(out)]) == (0, f"n: {len(peak)}\n")
        assert run_cli(capsys, ["mle", str(out)]) == (0, f"assignment: {peak}\nprobability: 1\n")

    def test_mle_probability_is_not_zero(self, capsys, chain1000):
        rc, out = run_cli(capsys, ["mle", str(chain1000)])
        assert rc == 0
        assert float(out.splitlines()[1].split(": ")[1]) > 0.0


class TestFileParsing:
    @pytest.mark.parametrize("name", ["chain4.model", "plusplus.state"])
    def test_each_file_parsed_once(self, name, capsys, fixture_dir, monkeypatch):
        import json

        calls = []
        original = json.load

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(json, "load", counting)
        rc, _ = run_cli(capsys, ["marginal", str(fixture_dir / name), "--assign", "1=0"])
        assert rc == 0 and len(calls) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n": 1, "amplitudes": [[1.0, 0.0]]}', "expected 2 amplitude pairs, got 1"),
            ('{"n": 1, "edges": [], "reference": "0", "reference_modulus": 1.0, "q": {}}',
             "malformed model file"),
            ('[1, 2]', "is neither a state file nor a model file"),
            ('{"n": ', "cannot read"),
        ],
    )
    def test_errors_unchanged(self, text, message, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(text)
        rc = main(["mle", str(path)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: FileFormatError:") and message in err

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("graph", '{"n": 1, "amplitudes": [[0.6, 0.0], [1%s, 0.8]]}' % ("0" * 400),
             "amplitude 1 must be a [re, im] pair of reals"),
            ("mle", '{"n": 1, "edges": [], "reference": "0", "reference_modulus": 1%s, '
             '"q": {"1": {"0": [1.0, 0.0], "1": [1.0, 0.0]}}}' % ("0" * 400),
             "int too large to convert to float"),
            ("mle", '{"n": 1, "edges": [], "reference": "0", "reference_modulus": 0.7, '
             '"q": {"1": {"0": [1.0, 0.0], "1": [-1%s, 0.0]}}}' % ("0" * 400),
             "int too large to convert to float"),
        ],
    )
    def test_integer_past_the_double_range_is_a_file_error(
        self, command, text, message, capsys, tmp_path
    ):
        path = tmp_path / "big.json"
        path.write_text(text)
        rc = main([command, str(path)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: FileFormatError:") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_table_that_is_not_an_object_is_a_file_error(self, capsys, tmp_path):
        path = tmp_path / "list.model"
        path.write_text(
            '{"n": 1, "edges": [], "reference": "0", "reference_modulus": 1.0, '
            '"q": {"1": [[1.0, 0.0], [1.0, 0.0]]}}'
        )
        rc = main(["mle", str(path)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: FileFormatError:")
        assert "node 1: table must be a JSON object, got list" in err
        assert err.count("\n") == 1 and "Traceback" not in err


# Argument values the library refuses: each is a usage error (exit 2) or a
# domain error (exit 1), one error line on stderr, never a traceback.
ARGUMENT_ERRORS = [
    *(([cmd, "ghz.state", "--tolerance", value, *extra], 2)
      for cmd, extra in [("graph", []), ("extract", ["-o", "out.model"]),
                         ("measure", ["--qubit", "1", "--outcome", "0", "-o", "out.state"])]
      for value in ["0", "-1", "nan", "inf"]),
    (["classify", "ghz.state", "--samples", "-1"], 2),
    (["classify", "ghz.state", "--seed", "-1"], 2),
    (["bench", "--sizes", "4", "--reps", "0"], 2),
    (["bench", "--sizes", "5", "--seed", "-1"], 2),
    (["measure", "ghz.state", "--qubit", "5", "--outcome", "0", "-o", "out.state"], 1),
    (["measure", "ghz.state", "--qubit", "0", "--outcome", "0", "-o", "out.state"], 1),
    (["mle", "wide40.model"], 1),
    (["reconstruct", "twin25.model", "-o", "out.state"], 1),
]


@pytest.mark.parametrize("argv, code", ARGUMENT_ERRORS, ids=[" ".join(a) for a, _ in ARGUMENT_ERRORS])
def test_argument_errors_are_one_line(
    argv, code, capsys, tmp_path, off_chain_twin, wide_elimination_tables, write_model_text, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    mn.save_state(mn.canonical_state("ghz"), "ghz.state")
    twin = off_chain_twin(mn.random_chain_model(25, seed=0))
    assert twin.num_qubits == 25 and not twin.graph.is_path()
    mn.save_model(twin, "twin25.model")
    write_model_text(Path("wide40.model"), *wide_elimination_tables(20, seed=0))
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        rc = exc.value.code
    else:
        rc = main(argv)
    err = capsys.readouterr().err
    assert rc == code and "Traceback" not in err
    errors = [line for line in err.splitlines() if "error: " in line]
    assert len(errors) == 1 and err.endswith(errors[0] + "\n")
    if code == 1:
        assert err.count("\n") == 1
        assert err.startswith((
            "error: InvalidQuery: qubit",
            "error: EnumerationBoundExceeded: dense",
            "error: EnumerationBoundExceeded: variable elimination",
        ))


@pytest.mark.parametrize("argv", [["classify", "ghz.state"], ["bench", "--sizes", "5"]], ids=["classify", "bench"])
def test_negative_seed_is_a_usage_error(argv, capsys):
    """numpy's generators refuse negative seeds with a traceback; argparse refuses them first."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.splitlines()[-1] == f"menet {argv[0]}: error: argument --seed: must be >= 0, got '-1'"


class TestMarginalSumsOnce:
    """`menet marginal` on a chain gathers the weights once, in both modes."""

    @pytest.fixture
    def gathers(self, monkeypatch):
        from menet import elimination

        calls = []
        original = elimination._chain_levels

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(elimination, "_chain_levels", counting)
        return calls

    def test_ratio_past_the_double_range(self, capsys, gathers, tmp_path):
        path = tmp_path / "c1000.model"
        mn.save_model(mn.random_chain_model(1000, seed=0), path)
        gathers.clear()
        rc, out = run_cli(capsys, ["marginal", str(path), "--assign", "1=0,2=1", "--ratio"])
        assert rc == 0 and len(gathers) == 1
        assert out == "log_ratio: 2016.08345755\n"  # as printed before the single sum

    def test_probability(self, capsys, gathers, tmp_path):
        path = tmp_path / "c1000.model"
        mn.save_model(mn.random_chain_model(1000, seed=0), path)
        gathers.clear()
        rc, out = run_cli(capsys, ["marginal", str(path), "--assign", "1=0,2=1"])
        assert rc == 0 and len(gathers) == 1
        assert out == "probability: 0.15028657039\n"


# Help texts and usage errors, pinned byte for byte in golden/usage.json. The
# argv never reach a file: argparse prints and exits first.
USAGE_CASES = {
    "help": ["--help"],
    "help_short_before_command": ["-h", "graph"],
    **{f"help_{cmd}": [cmd, "--help"] for cmd in (
        "graph", "extract", "reconstruct", "marginal", "conditional",
        "mle", "measure", "classify", "verify", "bench",
    )},
    "no_command": [],
    "unknown_command": ["bogus"],
    "unknown_option_before_command": ["--bogus", "graph", "s.state"],
    "unknown_option_after_command": ["graph", "s.state", "--bogus"],
    "missing_positional": ["graph"],
    "missing_required_option": ["extract", "s.state"],
    "bad_choice": ["measure", "s.state", "--qubit", "1", "--outcome", "2", "-o", "o.state"],
    "bad_int": ["measure", "s.state", "--qubit", "x", "--outcome", "0", "-o", "o.state"],
    "bad_assignment": ["marginal", "m.model", "--assign", "1=0,1=1"],
    "bad_tolerance": ["graph", "s.state", "--tolerance", "0"],
    "bad_samples": ["classify", "s.state", "--samples", "-1"],
    "bad_sizes": ["bench", "--sizes", "4,x"],
    "bad_reps": ["bench", "--sizes", "4", "--reps", "0"],
}


def usage_outputs(capsys, argv) -> dict:
    """Exit code, stdout and stderr of a `menet` run that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return {"code": exc.value.code, "out": captured.out, "err": captured.err}


@pytest.mark.parametrize("name", USAGE_CASES)
def test_usage_byte_identical(name, capsys, monkeypatch):
    """`menet --help`, every `menet <cmd> --help` and usage errors, at 80 columns."""
    import json

    monkeypatch.setenv("COLUMNS", "80")
    want = json.loads((GOLDEN / "usage.json").read_text())[name]
    assert usage_outputs(capsys, USAGE_CASES[name]) == want


def test_one_command_parser(monkeypatch):
    """A run builds only its own subcommand, under the full parser's usage line."""
    from menet.cli import _COMMANDS, build_parser

    monkeypatch.setenv("COLUMNS", "80")
    full = build_parser()
    assert list(full._subparsers._group_actions[0].choices) == list(_COMMANDS)
    for name in _COMMANDS:
        one = build_parser(name)
        assert list(one._subparsers._group_actions[0].choices) == [name]
        assert one.format_usage() == full.format_usage()


def _rows(values):
    return ", ".join(values)


_UNIT8 = ["[%r, 0.0]" % 8 ** -0.5] * 8


def _with(rows, **at):
    rows = list(rows)
    for index, entry in at.items():
        rows[int(index[1:])] = entry
    return '{"n": 3, "amplitudes": [%s]}' % _rows(rows)


_BIG = "1" + "0" * 400
# Malformed files: those of the tests above, then 3-qubit ones, some with two faults
CLASSIFY_FILE_ERRORS = [
    '{"n": 1, "amplitudes": [[1.0, 0.0]]}',
    '{"n": 1, "edges": [], "reference": "0", "reference_modulus": 1.0, "q": {}}',
    "[1, 2]",
    '{"n": ',
    '{"n": 1, "amplitudes": [[0.6, 0.0], [%s, 0.8]]}' % _BIG,
    '{"n": 1, "edges": [], "reference": "0", "reference_modulus": %s, '
    '"q": {"1": {"0": [1.0, 0.0], "1": [1.0, 0.0]}}}' % _BIG,
    '{"n": 1, "edges": [], "reference": "0", "reference_modulus": 0.7, '
    '"q": {"1": {"0": [1.0, 0.0], "1": [-%s, 0.0]}}}' % _BIG,
    '{"n": 1, "edges": [], "reference": "0", "reference_modulus": 1.0, '
    '"q": {"1": [[1.0, 0.0], [1.0, 0.0]]}}',
    *(_with(_UNIT8, **{f"i{k}": bad}) for k, bad in enumerate([
        "[null, 0.0]", '["0.5", 0.0]', "[0.5, [0.0]]", "[0.5]", "[0.5, 0.0, 0.0]",
        "[true, 0.0]", '{"re": 0.5}', "[%s, 0.0]" % _BIG,
    ])),
    _with(_UNIT8, i2="[NaN, 0.0]"),
    _with(_UNIT8, i7="[0.3, Infinity]"),
    _with(_UNIT8, i0="[1e400, 0]"),
    _with(_UNIT8, i2="[NaN, 0.0]", i6="[null, 0.0]"),
    _with(_UNIT8, i5="[-%s, 0.0]" % _BIG, i6="[0.5]"),
    _with(_UNIT8, i1="[NaN, 0.0]", i3="[2.0, 0.0]"),
    _with(["[0.36, 0.0]"] * 8),
    _with(["[0, 0]"] * 8),
    _with(_UNIT8, i4="[%r, 0.0]" % (8 ** -0.5 + 4e-6)),
    '{"n": true, "amplitudes": [%s]}' % _rows(_UNIT8),
    '{"n": 0, "amplitudes": []}',
    '{"n": "3", "amplitudes": [%s]}' % _rows(_UNIT8),
    '{"n": 3.0, "amplitudes": [%s]}' % _rows(_UNIT8),
    '{"amplitudes": [%s]}' % _rows(_UNIT8),
    '{"n": 3}',
    '{"n": 3, "amplitudes": {"0": [1.0, 0.0]}}',
    '{"n": 3, "amplitudes": [%s]}' % _rows(_UNIT8[:7]),
    '{"n": 3, "amplitudes": [%s]}' % _rows(_UNIT8 + ["[0.0, 0.0]"]),
    '{"n": 4, "amplitudes": [%s]}' % _rows(["[0.3, 0.0]"] * 16),
    '{"n": 4, "amplitudes": [%s]}' % _rows(["[0.25, 0.0]"] * 15 + ["[0.25]"]),
]


class TestClassifyReader:
    """`menet classify` reads its state without numpy, with load_state's errors."""

    @pytest.mark.parametrize("k", range(len(CLASSIFY_FILE_ERRORS)))
    def test_file_errors_equal_load_states(self, k, capsys, tmp_path):
        path = tmp_path / "bad.state"
        path.write_text(CLASSIFY_FILE_ERRORS[k])
        with pytest.raises(mn.MenError) as raised:
            mn.load_state(path)
        rc = main(["classify", str(path)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == f"error: {type(raised.value).__name__}: {raised.value}\n"

    def test_missing_file(self, capsys, tmp_path):
        path = tmp_path / "absent.state"
        with pytest.raises(mn.FileFormatError) as raised:
            mn.load_state(path)
        assert main(["classify", str(path)]) == 1
        assert capsys.readouterr().err == f"error: FileFormatError: {raised.value}\n"

    def test_four_qubits_is_wrong_arity(self, capsys, tmp_path):
        path = tmp_path / "four.state"
        mn.save_state(mn.random_state(4, 8), path)
        assert main(["classify", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: WrongArity: classification requires a 3-qubit state, got n=4\n"
