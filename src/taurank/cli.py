"""Command-line front end.

Commands: info, check, scan, reduce, paper-examples, hom, tau, ext1.
Algebra arguments are .qa files or bundled fixture names (ALG-A, ALG-B,
ALG-B0, ALG-C, ALG-K); module arguments are .mod.json files or inline
expressions like "S(2)+S(3)".  Identical seeds produce byte-identical
JSON reports.

Exit codes: 0 ok, 1 failed example expectations, 2 parse/build error, a
command line that argparse rejects, or an invalid option value (--trials,
--tmax or --cap below 1, --oracle-params below 0, a --field modulus that
is not prime, a prime field for reduce or paper-examples), 3 invalid
module (also one above `io.MAX_MODULE_DIM` in total dimension; for reduce
also the zero module, whose annihilator is the whole algebra), 4 ideal
does not annihilate, 10 scan violations found, 11 scan violations found
on an uncertified r(1) only.
Exits 2, 3 and 4 print a single `error:` line on stderr.
`--oracle-params 0` is valid and runs no symbolic oracle.  Only check and
reduce take `--cap`, the projective-dimension search cap; argparse rejects
it elsewhere with exit 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .algebra import Ideal, NotFiniteDimensional, build_algebra
from .artheory import hierarchy_report, reduce_and_compare
from .examples_suite import run_paper_examples
from .fields import DEFAULT_PRIME, QQ, PrimeField
from .fixtures import FIXTURE_NAMES, load_fixture
from .io import ModuleFormatError, load_module_arg, module_to_dict
from .presentations import ProjDecomp, additivity_scan
from .quiver import QuiverSyntaxError, parse_path_poly, parse_quiver_file
from .reps import ext1_dim, hom_dim, injective
from .artheory import tau, tau_minus

EXIT_OK = 0
EXIT_EXAMPLES_FAILED = 1
EXIT_PARSE = 2
EXIT_MODULE = 3
EXIT_IDEAL = 4
EXIT_VIOLATIONS = 10
EXIT_UNCERTIFIED_VIOLATIONS = 11


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _field_of(args):
    spec = getattr(args, "field", "q")
    if spec == "q":
        return QQ
    m = re.match(r"^fp(?::(\d+))?$", spec)
    if not m:
        raise CliError(f"bad --field {spec!r}; use q or fp:<prime>", EXIT_PARSE)
    try:
        return PrimeField(int(m.group(1) or DEFAULT_PRIME))
    except ValueError as exc:
        raise CliError(f"bad --field {spec!r}: {exc}", EXIT_PARSE)


def _check_counts(args):
    for flag, low in (("trials", 1), ("tmax", 1), ("cap", 1), ("oracle_params", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < low:
            name = flag.replace("_", "-")
            raise CliError(f"--{name} must be at least {low}, got {value}", EXIT_PARSE)


def _load_algebra(arg):
    if arg in FIXTURE_NAMES:
        return load_fixture(arg)
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read algebra file {arg!r}: {exc}", EXIT_PARSE)
    try:
        quiver, relations = parse_quiver_file(text)
        return build_algebra(quiver, relations)
    except (QuiverSyntaxError, NotFiniteDimensional) as exc:
        raise CliError(f"cannot build algebra from {arg!r}: {exc}", EXIT_PARSE)


def _load_module(algebra, arg, field):
    try:
        return load_module_arg(algebra, arg, field)
    except (ModuleFormatError, AssertionError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        raise CliError(f"invalid module {arg!r}: {exc}", EXIT_MODULE)


def _parse_mults(algebra, text, flag):
    try:
        mults = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CliError(f"{flag} must be comma-separated ints", EXIT_PARSE)
    if len(mults) != algebra.quiver.n or any(m < 0 for m in mults):
        raise CliError(
            f"{flag} needs {algebra.quiver.n} non-negative entries", EXIT_PARSE
        )
    return ProjDecomp(mults)


def _parse_ideal_file(algebra, path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read ideal file {path!r}: {exc}", EXIT_PARSE)
    elements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            terms = []
            for coeff, word in parse_path_poly(line, lineno):
                # eN is the idempotent e_N unless an arrow has that name
                if len(word) == 1 and re.match(r"^e\d+$", word[0]) and \
                        word[0] not in algebra.quiver.by_name:
                    word = int(word[0][1:])
                terms.append((coeff, word))
            elements.append(algebra.element_from_terms(terms))
        except QuiverSyntaxError as exc:
            where = "" if exc.line is not None else f" (line {lineno})"
            raise CliError(f"bad ideal file line: {exc}{where}", EXIT_PARSE)
    return Ideal.from_generators(algebra, elements)


def _emit(args, payload, human):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def cmd_info(args):
    alg = _load_algebra(args.algebra)
    p_dims = {i: list(alg.dims_of_projective(i)) for i in alg.vertices}
    field = _field_of(args)
    i_dims = {i: list(injective(alg, i, field).dims) for i in alg.vertices}
    payload = {
        "dim": alg.dim,
        "vertices": list(alg.vertices),
        "arrows": [[a.name, a.source, a.target] for a in alg.quiver.arrows],
        "projectives": p_dims,
        "injectives": i_dims,
        "radical_dim": alg.radical().dim,
    }
    human = (
        f"dim A = {alg.dim}; "
        f"P: {' '.join(str(tuple(p_dims[i])) for i in alg.vertices)}; "
        f"I: {' '.join(str(tuple(i_dims[i])) for i in alg.vertices)}; "
        f"rad dim = {alg.radical().dim}"
    )
    _emit(args, payload, human)
    return EXIT_OK


def cmd_check(args):
    alg = _load_algebra(args.algebra)
    field = _field_of(args)
    m = _load_module(alg, args.module, field)
    rep = hierarchy_report(m, trials=args.trials, seed=args.seed, cap=args.cap)
    payload = rep.to_json()
    payload["dim"] = list(m.dims)
    flags = ", ".join(
        f"{k}={'yes' if v else 'no'}"
        for k, v in [
            ("projective", rep.projective),
            ("pd<=1", rep.pd_le_1),
            ("rigid", rep.rigid),
            ("tau-rigid", rep.tau_rigid),
            ("partial-tilting", rep.partial_tilting),
            ("tau-regular", rep.tau_regular),
        ]
    )
    human = (
        f"dim {tuple(m.dims)}: {flags}; pd = {rep.pd}; "
        f"verdict = {rep.verdict.outcome} "
        f"(rank {rep.verdict.presentation_rank} vs generic {rep.verdict.generic_rank})"
    )
    _emit(args, payload, human)
    return EXIT_OK


def cmd_hom(args):
    alg = _load_algebra(args.algebra)
    field = _field_of(args)
    m = _load_module(alg, args.module, field)
    n = _load_module(alg, args.other, field)
    d = hom_dim(m, n)
    _emit(args, {"hom_dim": d, "M": list(m.dims), "N": list(n.dims)},
          f"dim Hom(M, N) = {d}")
    return EXIT_OK


def cmd_ext1(args):
    alg = _load_algebra(args.algebra)
    field = _field_of(args)
    m = _load_module(alg, args.module, field)
    n = _load_module(alg, args.other, field)
    d = ext1_dim(m, n)
    _emit(args, {"ext1_dim": d, "M": list(m.dims), "N": list(n.dims)},
          f"dim Ext^1(M, N) = {d}")
    return EXIT_OK


def cmd_tau(args):
    alg = _load_algebra(args.algebra)
    field = _field_of(args)
    m = _load_module(alg, args.module, field)
    t = tau_minus(m) if args.minus else tau(m)
    name = "tau^-(M)" if args.minus else "tau(M)"
    _emit(args, module_to_dict(t), f"{name} has dimension vector {tuple(t.dims)}")
    return EXIT_OK


def cmd_scan(args):
    alg = _load_algebra(args.algebra)
    field = _field_of(args)
    p1 = _parse_mults(alg, args.p1, "--p1")
    p0 = _parse_mults(alg, args.p0, "--p0")
    report = additivity_scan(
        alg, p1, p0, t_max=args.tmax, trials=args.trials, seed=args.seed,
        field=field, oracle_max_params=args.oracle_params,
    )
    mark = "  <-- violates additivity" + ("" if report.certified[0] else " (uncertified)")
    human_rows = "\n".join(
        f"t={t}: r = {r}{' (certified)' if c else ''}"
        + (mark if t in report.violations else "")
        for t, (r, c) in enumerate(zip(report.r_values, report.certified), start=1)
    )
    _emit(args, report.to_json(), human_rows)
    if not report.violations:
        return EXIT_OK
    return EXIT_VIOLATIONS if report.certified[0] else EXIT_UNCERTIFIED_VIOLATIONS


def cmd_reduce(args):
    alg = _load_algebra(args.algebra)
    field = _field_of(args)
    if field.characteristic != 0:
        raise CliError("reduce requires the rational field (--field q)", EXIT_PARSE)
    m = _load_module(alg, args.module, field)
    ideal = _parse_ideal_file(alg, args.ideal) if args.ideal else None
    try:
        report = reduce_and_compare(
            m, ideal=ideal, trials=args.trials, seed=args.seed, cap=args.cap
        )
    except ValueError as exc:
        if "annihilate" in str(exc):
            raise CliError(str(exc), EXIT_IDEAL)
        if not m.dim_total:
            raise CliError(f"invalid module {args.module!r}: {exc}", EXIT_MODULE)
        raise
    a, b = report.parent, report.quotient
    human = (
        f"ideal dim {report.ideal_dim}, quotient dim {report.quotient_dim}; "
        f"pd_A = {a.pd}, pd_B = {b.pd}; "
        f"tau-rigid A/B = {a.tau_rigid}/{b.tau_rigid}; "
        f"tau-regular A = {a.verdict.outcome}, B = {b.verdict.outcome}; "
        f"e: {b.e_value} <= {a.e_value}, E: {b.E_value} <= {a.E_value}"
    )
    _emit(args, report.to_json(), human)
    return EXIT_OK


def cmd_paper_examples(args):
    if _field_of(args).characteristic != 0:
        # the examples include annihilator ideals, which exist over Q only
        raise CliError(
            "paper-examples requires the rational field (--field q)", EXIT_PARSE
        )
    checks = run_paper_examples(trials=args.trials, seed=args.seed)
    all_pass = all(c.passed for c in checks)
    if args.json:
        print(json.dumps(
            {"checks": [c.to_json() for c in checks], "all_pass": all_pass},
            sort_keys=True,
        ))
    else:
        for c in checks:
            mark = "PASS" if c.passed else "FAIL"
            print(f"[{mark}] {c.name}" + (f" ({c.detail})" if not c.passed else ""))
        print(f"{sum(c.passed for c in checks)}/{len(checks)} passed")
    return EXIT_OK if all_pass else EXIT_EXAMPLES_FAILED


class _Parser(argparse.ArgumentParser):
    """An argument parser, and through `add_subparsers` its subcommands,
    that reports a rejected command line as one `error:` line, exit 2."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"error: {self.prog}: {message}\n")


def build_parser():
    parser = _Parser(
        prog="taurank",
        description=(
            "exact computations with bound quiver algebras: Hom spaces, minimal "
            "presentations, maximal presentation rank, the AR translate, and "
            "tau-regularity verdicts"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, module=False, other=False, randomized=False, cap=False):
        p.add_argument("--field", default="q", help="q (default) or fp:<prime>")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if randomized:
            p.add_argument("--trials", type=int, default=8)
            p.add_argument("--seed", type=int, default=42)
        if cap:
            p.add_argument("--cap", type=int, default=10,
                           help="projective-dimension search cap")
        if module:
            p.add_argument("module", help=".mod.json file or expression like S(2)+S(3)")
        if other:
            p.add_argument("other", help="second module (file or expression)")

    p = sub.add_parser("info", help="algebra summary: dimensions and radical")
    p.add_argument("algebra", help=".qa file or fixture name")
    common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("check", help="hierarchy flags and tau-regularity verdict")
    p.add_argument("algebra")
    common(p, module=True, randomized=True, cap=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("hom", help="dimension of Hom(M, N)")
    p.add_argument("algebra")
    common(p, module=True, other=True)
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("ext1", help="dimension of Ext^1(M, N)")
    p.add_argument("algebra")
    common(p, module=True, other=True)
    p.set_defaults(func=cmd_ext1)

    p = sub.add_parser("tau", help="the AR translate of a module")
    p.add_argument("algebra")
    p.add_argument("--minus", action="store_true", help="compute the inverse translate")
    common(p, module=True)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("scan", help="scan r(P1^t, P0^t) for additivity violations")
    p.add_argument("algebra")
    p.add_argument("--p1", required=True, help="multiplicities, e.g. 0,1,0")
    p.add_argument("--p0", required=True, help="multiplicities, e.g. 0,0,1")
    p.add_argument("--tmax", type=int, default=4)
    p.add_argument("--oracle-params", type=int, default=12, dest="oracle_params",
                   help="max Hom parameters for the symbolic certification oracle")
    common(p, randomized=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("reduce", help="reduce a module to A/I and compare invariants")
    p.add_argument("algebra")
    p.add_argument("--ideal", help="ideal generator file; default: the annihilator")
    common(p, module=True, randomized=True, cap=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("paper-examples",
                       help="run the bundled fixture expectations; exit 0 iff all pass")
    common(p, randomized=True)
    p.set_defaults(func=cmd_paper_examples)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
