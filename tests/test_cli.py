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

    def test_verify_bound_is_1(self, capsys, tmp_path):
        mn.save_state(mn.random_state(7, 0), tmp_path / "big.state")
        rc = main(["verify", str(tmp_path / "big.state")])
        assert rc == 1
        assert "EnumerationBoundExceeded" in capsys.readouterr().err


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
        monkeypatch.setattr(cli_module, "topology_census", counting)
        rc, out = run_cli(capsys, ["classify", str(path), "--samples", "16"])
        assert rc == 0
        assert "bases_sampled:" in out
        assert len(calls) == 1

    def test_conditional_too_many_free_qubits_is_1(self, capsys, tmp_path, off_chain_twin):
        path = tmp_path / "c40.model"
        mn.save_model(off_chain_twin(mn.random_chain_model(40, seed=0)), path)
        rc = main(["conditional", str(path), "--query", "1=0", "--evidence", "2=1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and "EnumerationBoundExceeded" in err

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
        n, ref = model.num_qubits, model.reference_bits()
        log_message = np.array([0.0, -np.inf])  # over the dummy x_0 = 0
        for i, table in enumerate(model.potentials, start=1):
            def context(p):
                return tuple(([p] if i > 1 else []) + ([ref[i]] if i < n else []))

            log_w = np.log([[abs(table.q(b, context(p))) ** 2 for b in (0, 1)] for p in (0, 1)])
            log_message = np.logaddexp.reduce(log_message[:, None] + log_w, axis=0)
            if i in bound:
                log_message[1 - bound[i]] = -np.inf
        want = np.logaddexp.reduce(log_message)
        assert float(out.split(": ")[1]) == pytest.approx(want, rel=1e-9)
        assert mn.chain_marginal_ratio(model, mn.Assignment(bound)).value == math.inf

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
