"""Command-line front end.

Subcommands: generate, run, verify, trace, inspect. Exit codes: 0 success /
verification pass, 1 verification failure, 2 malformed input, 3 precondition
failure, 4 internal invariant violation.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import instance_io
from .augment import aug_sort_key, format_aug
from .chains import format_ratio
from .errors import InternalInvariantError, MalformedInputError, NaiveAError, PreconditionError
from .flow import iterate
from .generators import KINDS, SPACE_KINDS, gen_instance
from .instance_io import (
    check_writable,
    instance_to_doc,
    load_instance,
    load_output,
    open_output,
    parse_subsets,
    write_canonical,
)
from .rational import format_rational
from .space import component_cases
from .tailor import admit, prepare, run_pipeline
from .verify import verify_certificate, verify_naive


def _format_chain(chain) -> str:
    return " ".join(f"{format_aug(p)}:{chain[p]}" for p in sorted(chain, key=aug_sort_key))


# generate flags passed to the generator as given, under their own names
_GEN_FLAGS = ("count", "step", "rows", "cols", "min_len", "max_len", "gap", "n",
              "folner_radius", "unbounded", "emulate_unbounded")


def _gen_params(args) -> dict:
    params = {k: getattr(args, k) for k in _GEN_FLAGS if getattr(args, k) is not None}
    if args.generators is not None:
        try:
            params["generators"] = [int(g) for g in args.generators.split(",") if g.strip()]
        except ValueError:
            raise MalformedInputError(
                f"--generators must be comma-separated ints, got {args.generators!r}"
            ) from None
    if args.kind == "weighted_ball":
        params = {"space": {"kind": args.space_kind or "disjoint_union_paths", "params": params}}
    if args.radii is not None:
        params["radii"] = [r.strip() for r in args.radii.split(",") if r.strip()]
    params["R"] = args.R
    params["epsilon"] = args.epsilon
    return params


def _load(path):
    """The instance at ``path``; each check its metric source skipped is a
    warning on stderr."""
    instance = load_instance(path)
    for check in instance.space.unchecked:
        print(f"warning: {check}", file=sys.stderr)
    return instance


def cmd_generate(args) -> int:
    check_writable(args.out)
    space, family, params = gen_instance(args.kind, _gen_params(args), args.seed)
    doc = instance_to_doc(space, family, params)
    write_canonical(args.out, doc)
    print(f"wrote {args.out}: {len(space.points)} points, S={format_rational(params.S)}")
    return 0


def cmd_run(args) -> int:
    if args.trace and os.path.realpath(args.trace) == os.path.realpath(args.out):
        raise MalformedInputError(f"--trace and --out name the same file {args.out}")
    for flag, path in (("--out", args.out), ("--trace", args.trace)):
        if path and os.path.realpath(path) == os.path.realpath(args.instance):
            raise MalformedInputError(f"{flag} names the instance file {args.instance}")
    for path in filter(None, (args.out, args.trace)):
        check_writable(path)
    instance = _load(args.instance)
    prep = _prepare(instance)
    subsets, certificate = run_pipeline(prep)
    for warning in prep.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    # the trace is written first: an unwritable trace leaves no output, and an
    # unwritable output takes the trace with it. Everything but the subsets and
    # the certificate is freed before the output is serialized, run's memory peak
    if args.trace:
        with instance_io.writing(open_output(args.trace)) as fh:
            for x in instance.space.points:
                fh.writelines(f"{x} {line}\n"
                              for line in _flow_lines(prep.flow_map, instance.family.chains[x]))
    del prep, instance
    try:
        write_canonical(args.out, instance_io.output_to_jsonable(subsets, certificate))
    except BaseException:
        if args.trace:
            instance_io.discard(args.trace)
        raise
    print(
        f"wrote {args.out}: worst ratio {format_ratio(certificate.worst_ratio)}, "
        f"worst radius {format_rational(certificate.worst_radius)}"
    )
    return 0


def cmd_verify(args) -> int:
    instance = _load(args.instance)
    space, params = instance.space, instance.params
    # no stage of run past admission and Rips: the cases come from the space,
    # and a tail may hang only at the end of a ray that component_cases
    # accepts, whatever the file's labels say. Both run before the output is
    # decoded, so the chains are freed first; an error from either is raised
    # only once the output has been read, since the output's errors come first
    held = None
    try:
        report, decomp = admit(space, instance.family, params.R, params.epsilon, params.S)
        kinds, rays, _ = component_cases(space, decomp, report.params.S, report.params.N)
        cases = {x: kinds[i] for x, i in decomp.owner.items()}
    except NaiveAError as exc:
        held = exc
    del instance
    # the subsets are built from the instance's own ids as the file is
    # decoded; rebinding drops the loaded map once parse_subsets is done
    subsets, certificate_raw = load_output(args.output, space.points)
    subsets = parse_subsets(subsets)
    if held is not None:
        raise held
    naive = verify_naive(
        space,
        subsets,
        [(x, y) for x, y, _ in report.pairs],
        params.epsilon,
        tail_spacing=params.S,
        hint_anchors={ray[-1] for ray in rays.values()},
    )
    cert = verify_certificate(report, cases, naive, certificate_raw)
    ok = naive.ok and cert.ok
    print(f"naive check: {'PASS' if naive.ok else 'FAIL'} {naive.stats}")
    if not naive.ok:
        for v in naive.violations[:10]:
            print(f"  {v}")
    print(f"certificate check: {'PASS' if cert.ok else 'FAIL'}")
    if not cert.ok:
        for v in cert.violations[:10]:
            print(f"  {v}")
    return 0 if ok else 1


def _prepare(instance):
    """The instance's one preparation, where run, trace and inspect start."""
    params = instance.params
    return prepare(instance.space, instance.family, params.R, params.epsilon, params.S)


def _flow_lines(flow_map, chain) -> list:
    """One ``"n chain"`` line per synchronous step of the flow of ``chain``."""
    return [f"{n} {_format_chain(c)}" for n, c in enumerate(iterate(flow_map, chain), 1)]


def cmd_trace(args) -> int:
    instance = _load(args.instance)
    if args.point not in instance.space.point_set:
        raise MalformedInputError(f"unknown point {args.point!r}")
    prep = _prepare(instance)
    prep.report.require_admitted()
    chain = instance.family.chains[args.point]
    for line in [f"0 {_format_chain(chain)}", *_flow_lines(prep.flow_map, chain)]:
        print(line)
    return 0


def cmd_inspect(args) -> int:
    instance = _load(args.instance)
    prep = _prepare(instance)
    report, decomp = prep.report, prep.decomposition
    params = report.params
    print(f"points: {len(instance.space.points)}")
    print(
        f"params: R={format_rational(params.R)} epsilon={format_rational(params.epsilon)} "
        f"S={format_rational(params.S)} L={params.L} N={params.N}"
    )
    print(f"admission: {'PASS' if report.ok else 'FAIL'} ({len(report.violations)} violations)")
    print(f"components: {len(decomp.components)}")
    for comp in decomp.components:
        extra = ""
        if comp.ray:
            extra = f" ray_length={len(comp.ray)}"
        if comp.markers:
            extra += f" markers={len(comp.markers)}"
        print(
            f"  [{comp.index}] size={len(comp.points)} basepoint={comp.basepoint} "
            f"class={comp.cls}{extra}"
        )
    for warning in prep.warnings:
        print(f"warning: {warning}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="naivea",
        description="Convert weighted covering witnesses into certified subset families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a seeded instance file")
    gen.add_argument("kind", choices=KINDS)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--count", "--length", dest="count", type=int)
    gen.add_argument("--paths", dest="count", type=int, help="alias for --count")
    gen.add_argument("--step")
    gen.add_argument("--rows", type=int)
    gen.add_argument("--cols", type=int)
    gen.add_argument("--min-len", dest="min_len", type=int)
    gen.add_argument("--max-len", dest="max_len", type=int)
    gen.add_argument("--gap", type=int)
    gen.add_argument("--n", type=int)
    gen.add_argument("--k", "--folner-radius", dest="folner_radius", type=int)
    gen.add_argument("--generators")
    gen.add_argument("--radii", help="comma-separated, non-increasing")
    gen.add_argument("--unbounded", action="store_const", const=True)
    gen.add_argument(
        "--no-emulate-unbounded", dest="emulate_unbounded", action="store_const", const=False
    )
    gen.add_argument("--space-kind", choices=SPACE_KINDS)
    gen.add_argument("--R", default="1")
    gen.add_argument("--epsilon", default="1")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="run the pipeline on an instance file")
    run.add_argument("instance")
    run.add_argument("--out", required=True)
    run.add_argument("--trace", help="write per-iteration flow traces to this file")
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="verify an output file against its instance")
    ver.add_argument("instance")
    ver.add_argument("output")
    ver.set_defaults(func=cmd_verify)

    tr = sub.add_parser("trace", help="print the flow iterations for one point")
    tr.add_argument("instance")
    tr.add_argument("--point", required=True)
    tr.set_defaults(func=cmd_trace)

    ins = sub.add_parser("inspect", help="summarize an instance")
    ins.add_argument("instance")
    ins.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        if exc.report is not None:
            for v in exc.report.violations[:20]:
                print(f"  {v}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
