"""Command-line front end: parse structure files, dispatch checkers, emit
human or machine reports with stable exit codes."""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from . import lie, manifold
from .errors import DominationError, FuzzcheckError, ParseError, ResourceCapError
from .groups import (
    is_fuzzy_subgroup,
    is_fuzzy_topological_group,
    is_G_invariant,
    quotient_action,
    restrict_to_invariant,
    restrict_to_subgroup,
    validate_group,
    verify_action,
)
from .maps import is_fuzzy_homomorphism
from .parsers import (
    load_action,
    load_chart_table,
    load_classifier,
    load_fuzzy_set,
    load_group,
    load_map,
    load_relation,
    load_samples,
    load_structure_constants,
    load_topology,
)
from .report import EXIT_CAP, EXIT_USAGE, Report, fmt_value
from .sets import Verdict, level_set, parse_grade
from .topology import (
    DEFAULT_CLOSURE_CAP,
    FuzzyTopology,
    GradeLattice,
    check_map,
    generate,
    is_hausdorff,
    is_open_base,
    is_T1,
    verify_axioms,
)


def _verdict_report(command, provenance, verdict, metrics=None) -> Report:
    rep = Report(command, "pass" if verdict.ok else "fail", provenance,
                 metrics=dict(metrics or {}))
    if not verdict.ok:
        rep.witness["reason"] = verdict.reason
        if verdict.witness is not None:
            rep.witness["at"] = verdict.witness
    return rep


def _tolerances(args, fields=None) -> manifold.Tolerances:
    """The --tolerance overrides, each named in fields (default: all)."""
    fields = fields or {f.name for f in dataclasses.fields(manifold.Tolerances)}
    overrides = {}
    for item in args.tolerance or []:
        if "=" not in item:
            raise FuzzcheckError(f"--tolerance expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        if name not in fields:
            raise FuzzcheckError(f"unknown tolerance {name!r}; known: {sorted(fields)}")
        try:
            v = float(value)
        except ValueError:
            v = math.nan  # not a number: rejected below like NaN
        # NaN fails every comparison and would switch its check off; a zero step divides by 0.
        if not math.isfinite(v) or v < 0 or (v == 0 and name == "h0"):
            raise FuzzcheckError(
                f"tolerance {name} must be finite and >= 0 (> 0 for h0), got {value}")
        overrides[name] = v
    return manifold.Tolerances(**overrides)


def _build_topology(path, args, literal=False) -> FuzzyTopology:
    """The topology a file generates, or with literal=True the listed family
    itself; --lattice-q overrides the file's lattice."""
    ambient, generators, lattice = load_topology(path)
    if args.lattice_q is not None:
        lattice = GradeLattice(args.lattice_q)
    if literal:
        return FuzzyTopology.literal(ambient, generators, lattice, cap=args.cap)
    return generate(ambient, generators, lattice, cap=args.cap)


def _load_valid_group(path):
    """The group a file holds, refused as a precondition unless it passes
    the group axioms: every check on it assumes a group."""
    group = load_group(path)
    validate_group(group).require("not a group")
    return group


def _load_valid_action(args):
    """The action file's action of the group file's group, refused as a
    precondition unless it passes verify_action.  Whatever restrict and
    quotient build from it is then an action, left unchecked: restriction to
    a subgroup or an invariant support and a quotient by a preserved relation
    keep the composition law, and e fixes, so reaches, every point."""
    action = load_action(args.action, _load_valid_group(args.group))
    verify_action(action).require("not an action")
    return action


# --- command handlers -------------------------------------------------------

def cmd_check_subgroup(args) -> Report:
    group = load_group(args.group)
    v = validate_group(group)
    if not v:
        return _verdict_report("check-subgroup", "group-axioms", v)
    mu = load_fuzzy_set(args.fuzzy_set, carrier=group.carrier)
    return _verdict_report("check-subgroup", "fuzzy-subgroup-conditions",
                           is_fuzzy_subgroup(mu, group),
                           metrics={"order": len(group)})


def cmd_check_homomorphism(args) -> Report:
    f = load_map(args.map)
    gsrc = _load_valid_group(args.source_group)
    gtgt = _load_valid_group(args.target_group)
    return _verdict_report("check-homomorphism", "group-compatible-grade-map",
                           is_fuzzy_homomorphism(f, gsrc, gtgt))


def cmd_check_topology(args) -> Report:
    tau = _build_topology(args.topology, args, literal=args.literal)
    rep = _verdict_report("check-topology", "fuzzy-topology-axioms",
                          verify_axioms(tau), metrics={"opens": len(tau.opens)})
    if args.base:
        base = [load_fuzzy_set(p, carrier=tau.ambient.carrier) for p in args.base]
        bv = is_open_base(base, tau)
        rep.metrics["open_base"] = bv.ok
        if not bv.ok and rep.verdict == "pass":
            rep.verdict = "fail"
            rep.witness["reason"] = bv.reason
    return rep


def cmd_check_separation(args) -> Report:
    """check-t1 and check-hausdorff."""
    tau = _build_topology(args.topology, args)
    return _verdict_report(args.command, args.provenance, args.check(tau),
                           metrics={"opens": len(tau.opens)})


def cmd_check_continuity(args) -> Report:
    f = load_map(args.map)
    tau_src = _build_topology(args.source_topology, args)
    tau_tgt = _build_topology(args.target_topology, args)
    flags = check_map(f, tau_src, tau_tgt)
    rep = Report(
        "check-continuity",
        "pass" if flags.continuous else "fail",
        "fuzzy-continuity-openness",
        metrics={
            "continuous": flags.continuous,
            "open": flags.open,
            "homeomorphism": flags.homeomorphism,
        },
    )
    if flags.witness is not None:
        rep.witness["at"] = flags.witness
    return rep


def cmd_check_topgroup(args) -> Report:
    group = _load_valid_group(args.group)
    tau = _build_topology(args.topology, args)
    return _verdict_report("check-topgroup", "fuzzy-topological-group",
                           is_fuzzy_topological_group(group, tau, cap=args.cap),
                           metrics={"opens": len(tau.opens)})


def cmd_check_action(args) -> Report:
    group = _load_valid_group(args.group)
    action = load_action(args.action, group)
    return _verdict_report("check-action", "group-action-laws", verify_action(action))


def cmd_check_invariant(args) -> Report:
    action = _load_valid_action(args)
    s = load_fuzzy_set(args.fuzzy_set, carrier=action.space)
    return _verdict_report("check-invariant", "action-invariant-subset",
                           is_G_invariant(action, s))


def _action_metrics(action, name=fmt_value) -> dict:
    return {f"act_{fmt_value(g)}_{name(x)}": name(y)
            for g, row in zip(action.group.carrier, action.table)
            for x, y in zip(action.space, row)}


def cmd_restrict(args) -> Report:
    action = _load_valid_action(args)
    if args.subgroup is not None:
        restricted = restrict_to_subgroup(action, args.subgroup.split(","))
        provenance = "subgroup-restricted-action"
    else:
        s = load_fuzzy_set(args.invariant, carrier=action.space)
        restricted = restrict_to_invariant(action, s)
        provenance = "invariant-restricted-action"
    return Report("restrict", "pass", provenance, metrics=_action_metrics(restricted))


def cmd_quotient(args) -> Report:
    action = _load_valid_action(args)
    quotient = quotient_action(action, load_relation(args.relation, action.space))
    metrics = _action_metrics(quotient, name=lambda c: "{" + "|".join(map(str, c)) + "}")
    return Report("quotient", "pass", "quotient-action",
                  metrics={"classes": len(quotient.space), **metrics})


def cmd_check_lie(args) -> Report:
    sc = load_structure_constants(args.constants)
    return _verdict_report("check-lie", "lie-algebra-axioms", lie.validate_lie(sc),
                           metrics={"dim": sc.dim})


def cmd_check_lie_predicate(args) -> Report:
    """check-lie-subalgebra and check-lie-ideal.  Constants that are not a
    Lie algebra are refused before the classifier is opened."""
    sc = load_structure_constants(args.constants)
    if not args.samples and sc.dim != 3:
        raise FuzzcheckError("--samples is required for dimensions other than 3")
    lie.validate_lie(sc).require("not a Lie algebra")
    mu = load_classifier(args.classifier, sc.dim)
    samples = (load_samples(args.samples, sc.dim) if args.samples
               else lie.cross_product_fixture()[2])
    rep = _verdict_report(args.command, args.provenance, args.check(mu, sc, samples),
                          metrics={"sample_vectors": len(samples.vectors)})
    if rep.verdict == "pass":
        rep.notes.append("no violation on the sample set; not a universal proof")
    return rep


def cmd_level_set(args) -> Report:
    mu = load_fuzzy_set(args.fuzzy_set)
    t = parse_grade(args.threshold)
    members = level_set(mu, t)
    return Report("level-set", "pass", "level-subset",
                  metrics={"threshold": t, "members": ",".join(map(str, members)),
                           "size": len(members)})


def cmd_check_atlas(args) -> Report:
    # A tabulated atlas has no formulas to differentiate: only these two apply.
    tol = _tolerances(args, {"cover_eps", "lipschitz_cap"})
    tables = [load_chart_table(p) for p in args.charts]
    report = manifold.check_tabulated_atlas(tables, tol,
                                            normalize_cover=args.normalize_cover)
    rep = Report(
        "check-atlas",
        "pass" if report.ok else "fail",
        "c1-atlas-checks",
        metrics={
            "charts": len(tables),
            "cover_deficiency": report.cover.max_deficiency,
            "transitions": len(report.pairs),
            "transitions_ok": report.transitions_ok,
        },
        notes=["tabulated charts: derivative checks use coarse difference quotients"],
    )
    if report.cover.worst_point is not None:
        rep.metrics["cover_worst_point"] = report.cover.worst_point
    for pc in report.pairs:
        rep.metrics[f"pair_{pc.source_label}_{pc.target_label}"] = pc.report.ok
    first_bad = next((pc for pc in report.pairs if not pc.report.ok), None)
    if first_bad is not None:
        rep.witness["reason"] = first_bad.report.reason
        if first_bad.report.witness is not None:
            rep.witness["at"] = first_bad.report.witness
    elif not report.cover.ok:
        rep.witness["reason"] = "cover supremum below 1"
        rep.witness["at"] = report.cover.worst_point
    return rep


def cmd_demo_circle(args) -> Report:
    tol = _tolerances(args)
    n = args.samples_per_chart
    phi = manifold.circle_phi_atlas(n, tol)
    psi = manifold.circle_psi_atlas(n, tol)
    # The pairs within phi, then within psi, then across, in that order:
    # the first coord_inverse round trip that fails ends the run.
    phi_rep = manifold.check_atlas(phi, normalize_cover=args.normalize_cover)
    psi_rep = manifold.check_atlas(psi, normalize_cover=args.normalize_cover)
    pairs = phi_rep.pairs + psi_rep.pairs + manifold.check_compatible(phi, psi)
    tr_phi = manifold.transition_map(phi, 0, 1)
    tr_psi = manifold.transition_map(psi, 0, 1)
    transitions_ok = all(pc.report.ok for pc in pairs)
    ok = transitions_ok and phi_rep.ok and psi_rep.ok
    rep = Report(
        "demo-circle",
        "pass" if ok else "fail",
        "circle-atlas-fixture",
        metrics={
            "phi_cover_deficiency": phi_rep.cover.max_deficiency,
            "phi_cover_worst_point": phi_rep.cover.worst_point,
            "psi_cover_deficiency": psi_rep.cover.max_deficiency,
            "phi_transitions_ok": phi_rep.transitions_ok,
            "psi_transitions_ok": psi_rep.transitions_ok,
            "cross_transitions_ok": transitions_ok,
            "phi21_at_0.25": tr_phi(0.25),
            "phi21_at_0.75": tr_phi(0.75),
            "psi21_at_0.6": tr_psi(0.6),
            "max_stability_error": max((pc.report.max_stability_error for pc in pairs),
                                       default=0.0),
            "samples_per_chart": n,
        },
        notes=["checked at sampled points of each chart; not a proof"] if ok else [],
    )
    bad_cover = next((r.cover for r in (phi_rep, psi_rep) if not r.cover.ok), None)
    if bad_cover is not None:
        rep.witness["reason"] = "cover supremum below 1 as the memberships are written"
        rep.witness["at"] = bad_cover.worst_point
    elif not ok:
        bad = next(pc for pc in pairs if not pc.report.ok)
        rep.witness["reason"] = f"{bad.source_label}->{bad.target_label}: {bad.report.reason}"
    return rep


def cmd_demo_gl(args) -> Report:
    report = manifold.gl_demo(args.n, args.count, seed=args.seed)
    return Report(
        "demo-gl",
        "pass" if report.ok else "fail",
        "invertible-matrix-demo",
        metrics={
            "n": report.n,
            "samples": report.samples,
            "max_det_gradient_error": report.max_det_gradient_error,
            "max_mult_instability": report.max_mult_instability,
            "max_inv_instability": report.max_inv_instability,
            "max_orthogonality_error": report.max_orthogonality_error,
            "inclusion_rank": report.inclusion_rank,
        },
        notes=["checked on random matrices; not a proof"] if report.ok else [],
    )


def cmd_demo_example(args) -> Report:
    sc, mu, samples = lie.cross_product_fixture()
    metrics = {"sample_vectors": len(samples.vectors)}
    witness = {}
    verdict = "pass"
    if args.part in ("subalgebra", "both"):
        sub = lie.is_fuzzy_lie_subalgebra(mu, sc, samples)
        metrics["subalgebra"] = "no-violation" if sub.ok else "violated"
        if not sub.ok:
            verdict = "fail"
            witness["subalgebra"] = sub.witness
    if args.part in ("ideal", "both"):
        ideal = lie.is_fuzzy_lie_ideal(mu, sc, samples)
        metrics["ideal"] = "violated" if not ideal.ok else "no-violation"
        if not ideal.ok:
            verdict = "fail"
            kind, x, y, got, bound = ideal.witness
            witness["x"] = x
            witness["y"] = y
            metrics["mu_bracket"] = got
            metrics["max_grade"] = bound
    notes = ["no violation on the sample set; not a universal proof"] if verdict == "pass" else []
    return Report("demo-example-2-14", verdict, "cross-product-bracket-demo",
                  witness=witness, metrics=metrics, notes=notes)


# --- argument parsing --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzcheck",
        description="Witness-producing checkers for fuzzy algebraic structures.",
    )
    # Each subcommand takes --format plus only the flags its handler reads.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "machine"), default="human")
    topo_flags = argparse.ArgumentParser(add_help=False)
    topo_flags.add_argument("--lattice-q", type=int, default=None,
                            help="grade lattice resolution override")
    topo_flags.add_argument("--cap", type=int, default=DEFAULT_CLOSURE_CAP,
                            help="resource cap for topology closure size")
    numeric_flags = argparse.ArgumentParser(add_help=False)
    numeric_flags.add_argument("--tolerance", action="append", metavar="NAME=VALUE",
                               help="numeric tolerance override (repeatable)")
    numeric_flags.add_argument("--normalize-cover", action="store_true",
                               help="rescale chart memberships so positive sups count as 1")
    sample_flags = argparse.ArgumentParser(add_help=False)
    sample_flags.add_argument("--samples", default=None, help="sample-set file for Lie checks")

    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, *parents, **positional):
        # A mistyped or misplaced flag is an error, not a prefix of another flag.
        p = sub.add_parser(name, parents=[common, *parents], allow_abbrev=False)
        for arg, kwargs in positional.items():
            p.add_argument(arg, **kwargs)
        p.set_defaults(handler=handler)
        return p

    add("check-subgroup", cmd_check_subgroup,
        group={"help": "group file"}, fuzzy_set={"help": "fuzzy set file"})
    add("check-homomorphism", cmd_check_homomorphism,
        map={"help": "map file"}, source_group={}, target_group={})
    p = add("check-topology", cmd_check_topology, topo_flags, topology={"help": "topology file"})
    p.add_argument("--literal", action="store_true",
                   help="verify the listed family itself instead of its closure")
    p.add_argument("--base", nargs="+", default=None,
                   help="fuzzy set files to test as an open base")
    # Shared handlers take their checker from the parser.  execute builds one per
    # call, so a checker wrapped in its module (perfbench/tracing.py) is what runs.
    p = add("check-t1", cmd_check_separation, topo_flags, topology={})
    p.set_defaults(check=is_T1, provenance="fuzzy-t1-separation")
    p = add("check-hausdorff", cmd_check_separation, topo_flags, topology={})
    p.set_defaults(check=is_hausdorff, provenance="fuzzy-hausdorff-separation")
    add("check-continuity", cmd_check_continuity, topo_flags,
        map={}, source_topology={}, target_topology={})
    add("check-topgroup", cmd_check_topgroup, topo_flags, group={}, topology={})
    add("check-action", cmd_check_action, group={}, action={})
    add("check-invariant", cmd_check_invariant, group={}, action={}, fuzzy_set={})
    p = add("restrict", cmd_restrict, group={}, action={})
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--subgroup", help="comma-separated subgroup elements")
    mode.add_argument("--invariant", help="invariant fuzzy set file")
    add("quotient", cmd_quotient, group={}, action={}, relation={})
    add("check-lie", cmd_check_lie, constants={})
    p = add("check-lie-subalgebra", cmd_check_lie_predicate, sample_flags,
            constants={}, classifier={})
    p.set_defaults(check=lie.is_fuzzy_lie_subalgebra, provenance="fuzzy-lie-subalgebra")
    p = add("check-lie-ideal", cmd_check_lie_predicate, sample_flags, constants={}, classifier={})
    p.set_defaults(check=lie.is_fuzzy_lie_ideal, provenance="fuzzy-lie-ideal")
    add("level-set", cmd_level_set, fuzzy_set={}, threshold={})
    p = add("check-atlas", cmd_check_atlas, numeric_flags)
    p.add_argument("charts", nargs="+", help="chart table files")
    p = add("demo-circle", cmd_demo_circle, numeric_flags)
    p.add_argument("--samples-per-chart", type=int, default=1024)
    p = add("demo-gl", cmd_demo_gl)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p = add("demo-example-2-14", cmd_demo_example)
    p.add_argument("--part", choices=("subalgebra", "ideal", "both"), default="both")
    return parser


def execute(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.handler(args)
    except ResourceCapError as exc:
        sys.stdout.write(Report(args.command, "error", "resource-cap",
                                witness={"reason": str(exc)}).render(args.format))
        return EXIT_CAP
    except DominationError as exc:
        # Violated precondition: a refutation, not bad input.
        rep = _verdict_report(args.command, "precondition", Verdict.failed(str(exc), exc.witness))
        sys.stdout.write(rep.render(args.format))
        return rep.exit_code
    except (ParseError, FuzzcheckError, OSError, ValueError) as exc:
        sys.stdout.write(Report(args.command, "error", "input",
                                witness={"reason": str(exc)}).render(args.format))
        return EXIT_USAGE
    sys.stdout.write(report.render(args.format))
    return report.exit_code


def main() -> None:
    """The console entry point: `execute`, then end the process at once.

    Once the report is written the process has nothing left to do, so it
    flushes stdout and stderr and leaves by `os._exit`, skipping module
    teardown and the final garbage collection.  An uncaught exception, a
    `SystemExit` whose code is not an int and a flush that fails (say, on a
    closed pipe) still leave through the interpreter, which prints the
    traceback or message and exits as it always has."""
    try:
        code = execute()
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        code = exc.code
        if not isinstance(code, int):
            raise
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        raise SystemExit(code) from None
    os._exit(code)


if __name__ == "__main__":
    main()
