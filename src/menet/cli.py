"""Command-line front end.

One subcommand per invocation; deterministic text output (12 significant
digits for reals, stable orderings everywhere). Exit codes: 0 success,
1 domain error (stable one-line message on stderr, keyed by the error
name), 2 usage error.

Only the modules every command needs are imported here; each command
imports the inference and classification names it uses when it runs, so a
fresh `menet` process loads only what its command runs. numpy is one of
those: `import menet.cli`, `--help`, and `marginal`, `conditional` and `mle`
on chain models past the normalization audit (n > 12) never load it.
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
    reconstruct_state,
    save_model,
    verify_perfect_map,
)
from .state import (
    DEFAULT_TOL,
    Assignment,
    ToleranceConfig,
    _read_json,
    _state_from_payload,
    fidelity_up_to_phase,
    load_state,
    measure_qubit,
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


def _load_state_or_model(path):
    """Sniff the JSON payload: 'amplitudes' -> state, 'q' -> model."""
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
    psi = reconstruct_state(model)
    save_state(psi, args.output)
    lines = [f"n: {psi.num_qubits}"]
    if args.check is not None:
        original = load_state(args.check)
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
    probability, collapsed = measure_qubit(psi, args.qubit, args.outcome, tol)
    with warnings.catch_warnings():  # the collapsed state has structural zeros
        warnings.simplefilter("ignore", ZeroAmplitudeWarning)
        new_graph = build_graph(collapsed, tol)
    save_state(collapsed, args.output)
    return [f"probability: {_fmt_prob(probability)}"] + _graph_lines(new_graph)


def cmd_classify(args) -> list[str]:
    from .classify import _classify_with_census, topology_census

    psi = load_state(args.state)
    result, census = _classify_with_census(psi, args.samples, args.seed, DEFAULT_TOL)
    if census is None:  # stage 1 decided the class; the census is printed regardless
        census = topology_census(psi, args.samples, args.seed)
    return [f"class: {result.label()}"] + census.to_lines()


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="menet",
        description="Conditional-separability graphs for n-qubit pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="edge list (or DOT) of a state's graph")
    p.add_argument("state")
    p.add_argument("--dot", action="store_true", help="emit DOT text")
    p.add_argument(
        "--tolerance", type=_TOLERANCE, default=DEFAULT_TOL.rel_eps, help="relative minor tolerance"
    )
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("extract", help="extract a model from a state file")
    p.add_argument("state")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--tolerance", type=_TOLERANCE, default=DEFAULT_TOL.rel_eps)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("reconstruct", help="reconstruct a state from a model file")
    p.add_argument("model")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--check", metavar="STATE", help="print fidelity to this state file")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("marginal", help="marginal probability (or ratio) of bindings")
    p.add_argument("file", help="state or model file")
    p.add_argument("--assign", type=parse_assignment, required=True, metavar='"1=0,3=1"')
    p.add_argument("--ratio", action="store_true", help="report p(x_M)/p(reference)")
    p.set_defaults(func=cmd_marginal)

    p = sub.add_parser("conditional", help="conditional probability given evidence")
    p.add_argument("file", help="state or model file")
    p.add_argument("--query", type=parse_assignment, required=True)
    p.add_argument("--evidence", type=parse_assignment, required=True)
    p.set_defaults(func=cmd_conditional)

    p = sub.add_parser("mle", help="maximum-likelihood basis assignment")
    p.add_argument("file", help="state or model file")
    p.set_defaults(func=cmd_mle)

    p = sub.add_parser("measure", help="measure one qubit and rebuild the graph")
    p.add_argument("state")
    p.add_argument("--qubit", type=int, required=True)
    p.add_argument("--outcome", type=int, required=True, choices=(0, 1))
    p.add_argument("-o", "--output", required=True, help="collapsed state file")
    p.add_argument("--tolerance", type=_TOLERANCE, default=DEFAULT_TOL.rel_eps)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("classify", help="classify a 3-qubit state")
    p.add_argument("state")
    p.add_argument("--samples", type=_checked(int, lambda v: v >= 0, ">= 0"), default=256)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="perfect-map and graphoid-axiom report")
    p.add_argument("state")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="chain-inference scaling report")
    p.add_argument("--sizes", type=_parse_sizes, required=True, metavar="500,1000,2000")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=_checked(int, lambda v: v >= 1, ">= 1"), default=5)
    p.add_argument("--no-timing", action="store_true", help="omit wall-clock column")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
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
