"""Command-line front end.

One subcommand per invocation; deterministic text output (12 significant
digits for reals, stable orderings everywhere). Exit codes: 0 success,
1 domain error (stable one-line message on stderr, keyed by the error
name), 2 usage error.

Only the modules every command needs are imported here; each command
imports the inference and classification names it uses when it runs, so a
fresh `menet` process loads only what its command runs. numpy is one of
those: `import menet.cli`, `--help`, and `marginal`, `conditional` and `mle`
on model files never load it.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings

from .errors import FileFormatError, InvalidQuery, MenError, ZeroAmplitudeWarning
from .network import (
    _GRAPHOID_MAX,
    MenGraph,
    _model_from_payload,
    build_graph,
    check_graphoid_axioms,
    export_dot,
    extract_men,
    load_model,
    measure_and_update,
    reconstruct_state,
    save_model,
    verify_perfect_map,
)
from .state import (
    DEFAULT_TOL,
    Assignment,
    ToleranceConfig,
    _load_amplitudes,
    _read_json,
    _state_from_payload,
    fidelity_up_to_phase,
    load_state,
    save_state,
)

_ZERO_AMP_NOTICE = (
    "warning: near-zero amplitudes present; graph-based results may be unreliable"
)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_prob(x: float) -> str:
    return _fmt(min(max(float(x), 0.0), 1.0))


def parse_assignment(text: str) -> Assignment:
    """Grammar: comma-separated index=bit entries; '' is the empty assignment.

    Assignment rejects qubits below 1, bits other than 0 and 1, and
    duplicates; its message becomes the usage error.
    """
    pairs = []
    stripped = text.strip()
    for piece in stripped.split(",") if stripped else ():
        piece = piece.strip()
        if "=" not in piece:
            raise argparse.ArgumentTypeError(f"expected index=bit, got {piece!r}")
        left, right = piece.split("=", 1)
        try:
            pairs.append((int(left), int(right)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected integers in {piece!r}") from None
    try:
        return Assignment(pairs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes must be comma-separated integers: {text!r}") from None
    if not sizes or any(n < 1 for n in sizes):
        raise argparse.ArgumentTypeError("sizes must be positive integers")
    return sizes


def _checked(convert, holds, rule: str):
    """An argparse type: `convert`, then a usage error unless `holds`."""

    def parse(text: str):
        value = convert(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_TOLERANCE = _checked(float, lambda v: math.isfinite(v) and v > 0.0, "finite and > 0")
_NON_NEGATIVE = _checked(int, lambda v: v >= 0, ">= 0")


def _load_state_or_model(path):
    """Sniff the JSON payload: 'amplitudes' -> state, 'q' -> model.

    One parse, by the readers' one rule (state._read_json): a model's
    tables are converted as they are parsed.
    """
    payload = _read_json(path)
    if isinstance(payload, dict) and "amplitudes" in payload:
        return _state_from_payload(payload)
    if isinstance(payload, dict) and "q" in payload:
        return _model_from_payload(payload, path)
    raise FileFormatError(f"{path} is neither a state file nor a model file")


def _graph_lines(g: MenGraph) -> list[str]:
    lines = [f"nodes: {g.num_nodes}"]
    edges = g.sorted_edges()
    if edges:
        lines.extend(f"edge {i} {j}" for i, j in edges)
    else:
        lines.append("edges: none")
    return lines


def cmd_graph(args) -> list[str]:
    psi = load_state(args.state)
    g = build_graph(psi, ToleranceConfig(rel_eps=args.tolerance))
    if args.dot:
        return export_dot(g).splitlines()
    return _graph_lines(g)


def cmd_extract(args) -> list[str]:
    psi = load_state(args.state)
    model = extract_men(psi, ToleranceConfig(rel_eps=args.tolerance))
    save_model(model, args.output)
    bits = "".join(str(b) for b in model.reference_bits())
    return _graph_lines(model.graph) + [
        f"reference: {bits}",
        f"reference_modulus: {_fmt(model.reference_modulus)}",
    ]


def cmd_reconstruct(args) -> list[str]:
    model = load_model(args.model)
    original = None if args.check is None else load_state(args.check)
    if original is not None and original.num_qubits != model.num_qubits:  # before OUT is written
        raise InvalidQuery(f"--check state has {original.num_qubits} qubits, the model has {model.num_qubits}")
    psi = reconstruct_state(model)
    save_state(psi, args.output)
    lines = [f"n: {psi.num_qubits}"]
    if original is not None:
        lines.append(f"fidelity: {_fmt(fidelity_up_to_phase(psi, original))}")
    return lines


def cmd_marginal(args) -> list[str]:
    from .inference import _marginal

    value, log_value = _marginal(_load_state_or_model(args.file), args.assign, args.ratio)
    if not args.ratio:
        return [f"probability: {_fmt_prob(value)}"]
    if (value == 0.0 or math.isinf(value)) and math.isfinite(log_value):
        return [f"log_ratio: {_fmt(log_value)}"]
    return [f"ratio: {_fmt(value)}"]


def cmd_conditional(args) -> list[str]:
    from .inference import _conditional

    value = _conditional(_load_state_or_model(args.file), args.query, args.evidence)
    return [f"probability: {_fmt_prob(value)}"]


def cmd_mle(args) -> list[str]:
    from .inference import _mle

    source = _load_state_or_model(args.file)
    result = _mle(source)
    bits = "".join(str(b) for b in result.assignment.bits(source.num_qubits))
    return [f"assignment: {bits}", f"probability: {_fmt_prob(result.probability)}"]


def cmd_measure(args) -> list[str]:
    psi = load_state(args.state)
    if not 1 <= args.qubit <= psi.num_qubits:
        raise InvalidQuery(f"qubit {args.qubit} out of range 1..{psi.num_qubits}")
    tol = ToleranceConfig(rel_eps=args.tolerance)
    # no graph of psi is passed: measure_and_update does not read it
    probability, collapsed, new_graph = measure_and_update(psi, None, args.qubit, args.outcome, tol)
    save_state(collapsed, args.output)
    return [f"probability: {_fmt_prob(probability)}"] + _graph_lines(new_graph)


def cmd_classify(args) -> list[str]:
    from .classify import classify, topology_census

    amps = _load_amplitudes(args.state)  # plain Python for a 3-qubit file: no numpy
    result = classify(amps)
    return [f"class: {result.label()}"] + topology_census(amps, args.samples, args.seed).to_lines()


def cmd_verify(args) -> list[str]:
    psi = load_state(args.state)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroAmplitudeWarning)
        g = build_graph(psi)
    lines = _graph_lines(g)
    report = verify_perfect_map(psi, g)
    status = "pass" if report.passed else "FAIL"
    lines.append(
        f"perfect_map: {status} (checked={report.partitions_checked}, "
        f"disagreements={len(report.disagreements)})"
    )
    if psi.num_qubits <= _GRAPHOID_MAX:
        gx = check_graphoid_axioms(psi)
        violations = sum(len(ax.violations) for ax in gx.axioms)
        status = "pass" if gx.passed else "FAIL"
        lines.append(
            f"graphoids: {status} (instances={gx.instances}, violations={violations})"
        )
    else:
        lines.append(f"graphoids: skipped (n > {_GRAPHOID_MAX})")
    return lines


def cmd_bench(args) -> list[str]:
    from .inference import bench_chains

    report = bench_chains(
        args.sizes, seed=args.seed, repetitions=args.reps, timing=not args.no_timing
    )
    return report.to_text().splitlines()


# name -> (help line, function adding the subcommand's arguments), in the
# order `menet --help` lists them
_COMMANDS: dict = {}


def _command(name: str, text: str):
    def register(add_arguments):
        _COMMANDS[name] = (text, add_arguments)
        return add_arguments

    return register


@_command("graph", "edge list (or DOT) of a state's graph")
def _graph_arguments(p):
    p.add_argument("state")
    p.add_argument("--dot", action="store_true", help="emit DOT text")
    p.add_argument(
        "--tolerance", type=_TOLERANCE, default=DEFAULT_TOL.rel_eps, help="relative minor tolerance"
    )
    p.set_defaults(func=cmd_graph)


@_command("extract", "extract a model from a state file")
def _extract_arguments(p):
    p.add_argument("state")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--tolerance", type=_TOLERANCE, default=DEFAULT_TOL.rel_eps)
    p.set_defaults(func=cmd_extract)


@_command("reconstruct", "reconstruct a state from a model file")
def _reconstruct_arguments(p):
    p.add_argument("model")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--check", metavar="STATE", help="print fidelity to this state file")
    p.set_defaults(func=cmd_reconstruct)


@_command("marginal", "marginal probability (or ratio) of bindings")
def _marginal_arguments(p):
    p.add_argument("file", help="state or model file")
    p.add_argument("--assign", type=parse_assignment, required=True, metavar='"1=0,3=1"')
    p.add_argument("--ratio", action="store_true", help="report p(x_M)/p(reference)")
    p.set_defaults(func=cmd_marginal)


@_command("conditional", "conditional probability given evidence")
def _conditional_arguments(p):
    p.add_argument("file", help="state or model file")
    p.add_argument("--query", type=parse_assignment, required=True)
    p.add_argument("--evidence", type=parse_assignment, required=True)
    p.set_defaults(func=cmd_conditional)


@_command("mle", "maximum-likelihood basis assignment")
def _mle_arguments(p):
    p.add_argument("file", help="state or model file")
    p.set_defaults(func=cmd_mle)


@_command("measure", "measure one qubit and rebuild the graph")
def _measure_arguments(p):
    p.add_argument("state")
    p.add_argument("--qubit", type=int, required=True)
    p.add_argument("--outcome", type=int, required=True, choices=(0, 1))
    p.add_argument("-o", "--output", required=True, help="collapsed state file")
    p.add_argument("--tolerance", type=_TOLERANCE, default=DEFAULT_TOL.rel_eps)
    p.set_defaults(func=cmd_measure)


@_command("classify", "classify a 3-qubit state")
def _classify_arguments(p):
    p.add_argument("state")
    p.add_argument("--samples", type=_NON_NEGATIVE, default=256)
    p.add_argument("--seed", type=_NON_NEGATIVE, default=0)
    p.set_defaults(func=cmd_classify)


@_command("verify", "perfect-map and graphoid-axiom report")
def _verify_arguments(p):
    p.add_argument("state")
    p.set_defaults(func=cmd_verify)


@_command("bench", "chain-inference scaling report")
def _bench_arguments(p):
    p.add_argument("--sizes", type=_parse_sizes, required=True, metavar="500,1000,2000")
    p.add_argument("--seed", type=_NON_NEGATIVE, default=0)
    p.add_argument("--reps", type=_checked(int, lambda v: v >= 1, ">= 1"), default=5)
    p.add_argument("--no-timing", action="store_true", help="omit wall-clock column")
    p.set_defaults(func=cmd_bench)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `menet` parser: every subcommand, or only `command` when given.

    A one-command parser names all ten in its usage line (the metavar
    argparse would derive from the full set), so its usage errors read as
    the full parser's. Top-level help, and errors with no valid command,
    need the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="menet",
        description="Conditional-separability graphs for n-qubit pure states.",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        text, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a leading command name is the one that runs: argparse hands it all later arguments
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lines = args.func(args)
        if any(issubclass(w.category, ZeroAmplitudeWarning) for w in caught):
            lines = [_ZERO_AMP_NOTICE] + lines
    except MenError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
