"""Command-line surface: validation, solving, checking, simulation, export.

Every command reads a JSON game document, reports as JSON (``--output json``)
or prose, and exits 0 on success/true, 1 on a failed check or empty search,
2 on errors.  JSON reports are byte-identical across runs for identical
inputs: anything nondeterministic (wall-clock) goes to stderr in text mode
only, while the report's ``timings`` field carries deterministic work counts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Any, Callable

from . import bn, depth, dot, efg, gamedoc, iiefg, incomplete, maid
from .errors import GameError, SchemaViolation, ValidationError
from .simulate import simulate as run_rollouts
from .gamedoc import GameDocument, IiProfile, MaidProfile
from .incomplete import InformationSet

OK, CHECK_FAILED, ERROR = 0, 1, 2


def _read_document(path: str) -> GameDocument:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaViolation("$", f"not UTF-8 text: {exc}") from None
    return gamedoc.parse_document(text)


def _expect(doc: GameDocument, *kinds: str) -> Any:
    if doc.kind not in kinds:
        raise SchemaViolation(
            "$.kind", f"expected one of {sorted(kinds)}, got {doc.kind!r}"
        )
    return doc.value


def _iset_json(iset: InformationSet) -> dict:
    return {
        "agent": iset.agent,
        "observation": [list(pair) for pair in iset.observation],
        "actions": list(iset.actions),
    }


def _ii_profile_json(rules: dict[InformationSet, bn.Row]) -> dict:
    return json.loads(gamedoc.serialize_document(IiProfile(rules)))


def _maid_profile_json(rules: dict[str, bn.Cpd]) -> dict:
    return json.loads(gamedoc.serialize_document(MaidProfile(rules)))


def _load_maid_profile(args: argparse.Namespace) -> dict[str, bn.Cpd]:
    return _expect(_read_document(args.profile), "maid-profile").rules


def _load_ii_profile(args: argparse.Namespace) -> dict[InformationSet, bn.Row]:
    return _expect(_read_document(args.profile), "ii-profile").rules


def _cmd_validate(args) -> tuple[int, dict, dict]:
    doc = _read_document(args.file)
    extra: dict[str, Any] = {}
    if doc.kind == "depth-stack":
        issues = depth.validate_stack(doc.value)
        if issues:
            raise SchemaViolation("$.nodes", "; ".join(issues))
        _, overall = depth.classify_depth(doc.value)
        extra["depth"] = overall
    return OK, {"valid": True, "kind": doc.kind, **extra}, {}


def _cmd_info_sets(args) -> tuple[int, dict, dict]:
    doc = _read_document(args.file)
    value = _expect(doc, "maid", "ii-maid")
    per_agent = {}
    sets_of = (incomplete.model_information_sets if doc.kind == "maid"
               else incomplete.information_sets)
    total = 0
    for agent in value.agents:
        isets = sorted(sets_of(value, agent))
        total += len(isets)
        per_agent[agent] = {
            "count": len(isets),
            "sets": [_iset_json(i) for i in isets],
        }
    return OK, {"information_sets": per_agent}, {"information_sets": total}


def _cmd_eu(args) -> tuple[int, dict, dict]:
    doc = _read_document(args.file)
    value = _expect(doc, "maid", "ii-maid")
    if doc.kind == "maid":
        rules = _load_maid_profile(args)
        eus = maid.expected_utilities(value, rules)
        return OK, {"expected_utilities": eus}, {"profiles_evaluated": 1}
    subjective, objective_eus = incomplete._eu_report(value, _load_ii_profile(args))
    return (
        OK,
        {
            "subjective_expected_utilities": subjective,
            "objective_model_expected_utilities": objective_eus,
        },
        {"profiles_evaluated": 1},
    )


def _cmd_check_nash(args) -> tuple[int, dict, dict]:
    doc = _read_document(args.file)
    value = _expect(doc, "maid", "ii-maid")
    if doc.kind == "maid":
        rules = _load_maid_profile(args)
        ok, regrets = maid.is_nash(value, rules, tol=args.tol, cap=args.cap)
    else:
        profile = _load_ii_profile(args)
        ok, regrets = incomplete.is_nash_ii(value, profile, tol=args.tol, cap=args.cap)
    code = OK if ok else CHECK_FAILED
    work = {"agents_checked": len(regrets)}
    return code, {"is_nash": ok, "regrets": regrets, "tol": args.tol}, work


def _cmd_solve_nash(args) -> tuple[int, dict, dict]:
    doc = _read_document(args.file)
    value = _expect(doc, "maid", "ii-maid")
    if doc.kind == "maid":
        found = maid.find_pure_nash(value, tol=args.tol, cap=args.cap)
        if not found:
            return CHECK_FAILED, {"profile": None, "count": 0}, {"found": 0}
        return (
            OK,
            {
                "profile": _maid_profile_json(found[0]),
                "count": len(found),
            },
            {"found": len(found)},
        )
    profile = incomplete.find_nash_ii(value, tol=args.tol, cap=args.cap)
    if profile is None:
        return CHECK_FAILED, {"profile": None}, {"found": 0}
    return OK, {"profile": _ii_profile_json(profile)}, {"found": 1}


def _cmd_check_consistency(args) -> tuple[int, dict, dict]:
    doc = _read_document(args.file)
    value = _expect(doc, "ii-maid")
    violations = incomplete.validate_coherence(value)
    report = incomplete.check_consistency(value)
    result = {
        "coherent": not violations,
        "coherence_violations": [
            {"agent": v.agent, "model": v.model, "compatible_mass": v.compatible_mass}
            for v in violations
        ],
        "eq_feasible": report.eq_feasible,
        "sample_prior": report.sample,
        "strongly_consistent": report.strongly_consistent,
        "min_type_mass": report.min_type_mass,
        "mass_bounds": {
            sid: list(pair) for sid, pair in (report.mass_bounds or {}).items()
        },
        "type_classes": report.type_classes,
    }
    ok = report.strongly_consistent and not violations
    return (
        OK if ok else CHECK_FAILED,
        result,
        {"models": len(value.models)},
    )


def _cmd_solve_rbr(args) -> tuple[int, dict, dict]:
    doc = _read_document(args.file)
    stack = _expect(doc, "depth-stack")
    result = depth.recursive_best_response(stack)
    mismatches = depth.audit_trace(stack, result, tol=args.tol)
    eus = maid.expected_utilities(result.final.nodes[stack.objective].model, {})
    payload = {
        "depth": result.depth,
        "profile": _ii_profile_json(result.profile),
        "objective_rules": _maid_profile_json(result.objective_rules),
        "objective_expected_utilities": eus,
        "trace": [
            {
                "round": step.round,
                "node": step.node,
                "agent": step.agent,
                "information_set": _iset_json(step.info_set),
                "action": step.action,
                "value": step.value,
                "written_to": list(step.written_to),
            }
            for step in result.trace
        ],
        "audit_mismatches": mismatches,
    }
    code = OK if not mismatches else CHECK_FAILED
    return code, payload, {"trace_steps": len(result.trace)}


def _efg_json(g: efg.Efg) -> dict:
    nodes = []
    for node in g.nodes:
        entry: dict[str, Any] = {"kind": node.kind}
        if node.var is not None:
            entry["variable"] = node.var
        if node.owner is not None:
            entry["owner"] = node.owner
        if node.iset is not None:
            var, ctx = node.iset
            entry["information_set"] = {"variable": var, "context": list(ctx)}
        if node.edges:
            entry["edges"] = [[label, child] for label, child in node.edges]
        if node.dist is not None:
            entry["distribution"] = dict(sorted(node.dist.items()))
        if node.kind == "leaf":
            entry["payoffs"] = dict(sorted(node.payoffs.items()))
        nodes.append(entry)
    return {"agents": list(g.agents), "root": g.root, "nodes": nodes}


def _cmd_convert_efg(args) -> tuple[int, dict, dict]:
    doc = _read_document(args.file)
    m = _expect(doc, "maid")
    g, _ = efg.maid2efg(m)
    counts = {
        agent: {
            f"{var}|{','.join(ctx)}": len(members)
            for (var, ctx), members in sorted(efg.info_sets(g, agent).items())
        }
        for agent in g.agents
    }
    leaves = sum(1 for n in g.nodes if n.kind == "leaf")
    return (
        OK,
        {
            "nodes": len(g.nodes),
            "leaves": leaves,
            "info_set_sizes": counts,
            "tree": _efg_json(g),
        },
        {"nodes": len(g.nodes)},
    )


def _cmd_verify_equivalence(args) -> tuple[int, dict, dict]:
    doc = _read_document(args.file)
    value = _expect(doc, "ii-maid")
    conv = iiefg.maid2efgII(value)
    count = incomplete.count_pure_ii_profiles(value)
    ok, worst = iiefg.verify_equivalence(value, conv, tol=args.tol, cap=args.cap)
    return (
        OK if ok else CHECK_FAILED,
        {
            "equivalent": ok,
            "max_deviation": worst,
            "pure_profiles": count,
            "tol": args.tol,
        },
        {"pure_profiles": count},
    )


def _cmd_simulate(args) -> tuple[int, dict, dict]:
    doc = _read_document(args.file)
    value = _expect(doc, "maid", "ii-maid")
    if doc.kind == "maid":
        model = value
        rules = _load_maid_profile(args)
    else:
        model = value.models[value.objective].model
        rules = incomplete.profile_rules_for_model(
            model, _load_ii_profile(args)
        )
    report = run_rollouts(model, rules, args.rollouts, args.seed)
    return (
        OK,
        {
            "means": report.means,
            "stderrs": report.stderrs,
            "rollouts": report.rollouts,
        },
        {"rollouts": args.rollouts},
    )


def _cmd_export_dot(args) -> tuple[int, dict, dict]:
    doc = _read_document(args.file)
    if doc.kind == "maid":
        text = (
            dot.efg_dot(efg.maid2efg(doc.value)[0])
            if args.efg
            else dot.maid_dot(doc.value)
        )
    elif doc.kind == "ii-maid":
        text = dot.belief_tree_dot(doc.value, args.depth)
    elif doc.kind == "depth-stack":
        text = dot.stack_dot(doc.value)
    else:
        raise SchemaViolation("$.kind", f"cannot export {doc.kind!r} as DOT")
    return OK, {"dot": text}, {"characters": len(text)}


_COMMANDS: dict[str, Callable] = {
    "validate": _cmd_validate,
    "info-sets": _cmd_info_sets,
    "eu": _cmd_eu,
    "check-nash": _cmd_check_nash,
    "solve-nash": _cmd_solve_nash,
    "check-consistency": _cmd_check_consistency,
    "solve-rbr": _cmd_solve_rbr,
    "convert-efg": _cmd_convert_efg,
    "verify-equivalence": _cmd_verify_equivalence,
    "simulate": _cmd_simulate,
    "export-dot": _cmd_export_dot,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iimaid",
        description="Solvers and checkers for influence-diagram games "
        "with subjective models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, **options) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="game document (JSON)")
        p.add_argument(
            "--output", choices=("json", "text"), default="text",
            help="report format (default text)",
        )
        if options.get("profile"):
            p.add_argument(
                "--profile", required=True, help="profile document (JSON)"
            )
        if options.get("tol") is not None:
            p.add_argument("--tol", type=float, default=options["tol"])
        if options.get("cap"):
            p.add_argument("--cap", type=int, default=maid.DEFAULT_CAP)
        return p

    add("validate", "schema-check a document")
    add("info-sets", "list information sets per agent")
    add("eu", "expected utilities under a profile", profile=True)
    add("check-nash", "test a profile for equilibrium", profile=True,
        tol=1e-6, cap=True)
    add("solve-nash", "search for an equilibrium profile", tol=1e-6, cap=True)
    add("check-consistency", "coherence and common-prior analysis")
    add("solve-rbr", "solve a reasoning stack bottom-up", tol=1e-9)
    add("convert-efg", "unfold a diagram into a game tree")
    add("verify-equivalence", "compare diagram and tree utilities",
        tol=1e-9, cap=True)
    p = add("simulate", "Monte-Carlo rollouts of the objective model",
            profile=True)
    p.add_argument("--rollouts", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p = add("export-dot", "render as Graphviz DOT")
    p.add_argument("--depth", type=int, default=0,
                   help="belief-tree unrolling depth")
    p.add_argument("--efg", action="store_true",
                   help="render the unfolded game tree instead of the diagram")
    return parser


def _report(args: argparse.Namespace, **fields: Any) -> dict:
    """A JSON report on ``args.command``: the header, then ``fields``."""
    return {"format_version": gamedoc.FORMAT_VERSION, "command": args.command, **fields}


def _print_text(args: argparse.Namespace, result: dict) -> None:
    if args.command == "export-dot":
        sys.stdout.write(result["dot"])
        return
    for line in _text_lines(result, ""):
        print(line)


def _text_lines(value, prefix: str):
    if isinstance(value, dict):
        for key in value:
            inner = value[key]
            if isinstance(inner, (dict, list)) and inner:
                yield f"{prefix}{key}:"
                yield from _text_lines(inner, prefix + "  ")
            else:
                yield f"{prefix}{key}: {_scalar(inner)}"
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                yield f"{prefix}-"
                yield from _text_lines(item, prefix + "  ")
            else:
                yield f"{prefix}- {_scalar(item)}"
    else:
        yield f"{prefix}{_scalar(value)}"


def _scalar(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    if isinstance(v, (dict, list)):
        return "{}" if isinstance(v, dict) else "[]"
    return str(v)


def _check_arguments(args: argparse.Namespace) -> None:
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError([f"invalid-argument: --tol must be finite and >= 0, got {tol}"])
    cap = getattr(args, "cap", None)
    if cap is not None and cap < 1:
        raise ValidationError([f"invalid-argument: --cap must be >= 1, got {cap}"])
    depth_arg = getattr(args, "depth", None)
    if depth_arg is not None and depth_arg < 0:
        raise ValidationError([f"invalid-argument: --depth must be >= 0, got {depth_arg}"])


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        _check_arguments(args)
        code, result, work = _COMMANDS[args.command](args)
    except (GameError, OSError, RecursionError) as exc:
        # RecursionError: only the oracle ``bn.enumerate_support``, through
        # ``solve-rbr``'s audit, still recurses once per variable, so a
        # diagram deeper than Python's stack is reported there as an error,
        # not a traceback.
        error: dict[str, Any] = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, SchemaViolation):
            error = {"type": "SchemaViolation", "path": exc.path,
                     "message": exc.message}
        if args.output == "json":
            print(json.dumps(_report(args, error=error), sort_keys=True, indent=2))
        else:
            where = f"{error['path']} " if "path" in error else ""
            print(f"error: {where}{error['message']}", file=sys.stderr)
        return ERROR
    if args.output == "json":
        arguments = {
            k: v
            for k, v in vars(args).items()
            if k not in ("command", "output") and v is not None
        }
        report = _report(args, arguments=arguments, result=result, timings=work)
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        _print_text(args, result)
        elapsed = time.monotonic() - started
        print(f"completed in {elapsed:.3f}s", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
