"""Command-line interface.

Subcommands: verify, construct, resolve, prp, develop, gen, profile,
reproduce.  The parser is built once per process (``build_parser`` is
cached), and ``main`` runs the handler ``cmd_<command>`` it looks up by
name on this module at each call.  Every command prints a deterministic
report; ``--json`` switches it to a structured document.  Each command
builds one report that records each text line with its JSON fields.
Exit codes: 0 success, 1 a property or expectation failed, 2 usage/parse
error, 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from .catalog import catalog_entry, catalog_names
from .construct import (
    IndexingParams,
    classify_three_design,
    indexing_balance,
    measure_params,
    predict_bibd_lambda,
    predict_ibd_params,
    predict_triple_coverage,
    shrikhande_raghavarao,
)
from .core import (
    Design,
    DesignError,
    DesignParams,
    NonConstantReplication,
    _check_strength,
    intersection_profile,
    is_simple,
    is_trivial,
    t_coverage_spectrum,
    verify_ibd,
)
from .formats import (
    FormatError,
    dumps,
    load_design,
    load_design_or_resolution,
    load_resolution,
    save_design,
    save_resolution,
)
from .generators import (
    CyclicBaseSpec,
    affine_hyperplane_design,
    cyclic_develop,
    cyclic_point_set,
    round_robin_one_factorization,
    sub_factorization_embedding,
    trivial_design,
)
from .reproduce import reproduce_entry
from .resolution import (
    SearchBudgetExceeded,
    DEFAULT_NODE_BUDGET,
    find_resolutions,
    prp_violations,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class _Report:
    """One command's report: the fields ``--json`` prints and the text
    lines printed without it, recorded together."""

    def __init__(self, line: str | None = None, **fields):
        self.fields: dict = {}
        self.lines: list[str] = []
        self.add(line, **fields)

    def add(self, line: str | None = None, **fields) -> None:
        """Record a text line (if any) and the JSON fields that go with it."""
        if line is not None:
            self.lines.append(line)
        self.fields.update(fields)

    def emit(self, as_json: bool) -> None:
        if as_json:
            with _any_digits():
                print(json.dumps(_jsonable(self.fields), indent=2, sort_keys=True))
        else:
            for line in self.lines:
                print(line)


@contextlib.contextmanager
def _any_digits():
    """Let str() write ints of any length while the block runs.  Python
    refuses ints past 4300 digits by default, and an exact count such as
    C(16384, 8192) has 4930; the parsers keep the limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _spectrum_text(spectrum: dict[int, int]) -> str:
    with _any_digits():
        return " ".join(f"{key}:{count}" for key, count in sorted(spectrum.items()))


def _params_text(params: DesignParams) -> str:
    return f"v={params.v} b={params.b} r={params.r} k={params.k}"


def cmd_verify(args) -> int:
    design, _ = load_design_or_resolution(args.file)
    # Every argument is checked before anything is counted.
    strengths = list(dict.fromkeys(args.t or []))  # each --t once, in order
    for t in strengths:
        _check_strength(t, design.k)
    if args.expect_lambda is not None and len(strengths) != 1:
        raise DesignError("--expect-lambda needs exactly one --t")
    if args.expect_params is not None:
        try:
            wanted = tuple(int(x) for x in args.expect_params.split(","))
        except ValueError:
            raise DesignError(
                f"--expect-params wants 'v,b,r,k', got {args.expect_params!r}"
            ) from None
        if len(wanted) != 4:
            raise DesignError("--expect-params wants four integers 'v,b,r,k'")
    v, b = design.points.size, len(design._members)
    report = _Report(f"file: {args.file}", command="verify", file=args.file)
    report.add(f"v: {v}  k: {design.k}  b: {b}", v=v, k=design.k, b=b)
    try:
        params = verify_ibd(design)
        report.add(f"ibd: {_params_text(params)}", ibd={
            "v": params.v, "b": params.b, "r": params.r, "k": params.k})
    except NonConstantReplication as exc:
        params = None
        report.add(f"ibd: FAIL ({exc})", ibd=None, ibd_error=str(exc))

    spectra = {}
    for t in strengths:
        spectra[t] = t_coverage_spectrum(design, t)
        report.add(f"coverage t={t}: {_spectrum_text(spectra[t])}")
    report.add(spectra=spectra)

    simple = is_simple(design)
    trivial = is_trivial(design)
    report.add(f"simple: {'yes' if simple else 'no'}", simple=simple)
    report.add(f"trivial: {'yes' if trivial else 'no'}", trivial=trivial)

    expectations = []

    def expect(name: str, ok: bool, detail: str) -> None:
        expectations.append({"name": name, "ok": ok, "detail": detail})
        report.add(f"expect {name}: {'PASS' if ok else 'FAIL'} ({detail})",
                   expectations=expectations)

    if args.expect_lambda is not None:
        spectrum = spectra[strengths[0]]
        ok = list(spectrum) == [args.expect_lambda]
        expect(f"lambda={args.expect_lambda} (t={strengths[0]})", ok,
               _spectrum_text(spectrum))
    if args.expect_simple:
        expect("simple", simple, "no repeated blocks" if simple else "repeated block")
    if args.expect_params is not None:
        observed = params.as_tuple() if params else None
        expect("params", observed == wanted, f"observed {observed}")

    ok = all(expectation["ok"] for expectation in expectations)
    report.add(ok=ok)
    report.emit(args.json)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_construct(args) -> int:
    master, embedded = load_design_or_resolution(args.master)
    if args.resolution is not None:
        res_design, master_res = load_resolution(args.resolution)
        if res_design != master:
            raise DesignError("resolution file does not match the master design")
        source = "file"
    elif embedded is not None:
        master_res = embedded
        source = "embedded"
    elif args.auto_resolve:
        found = find_resolutions(master, limit=1, node_budget=args.budget)
        if not found:
            raise DesignError("master design is not resolvable")
        master_res = found[0]
        source = "auto-resolved"
    else:
        raise DesignError(
            "master file has no classes; pass --resolution or --auto-resolve"
        )

    indexing, _ = load_design_or_resolution(args.indexing)
    built = shrikhande_raghavarao(master_res, indexing)

    report = _Report(command="construct", master=args.master,
                     indexing=args.indexing, resolution_source=source)
    master_params = measure_params(master)
    report.add(
        f"master: {_params_text(master_params)} lambda={master_params.lam} "
        f"(t={master_params.t}, resolution {source}, "
        f"{len(master_res.classes)} classes)",
        master_params={"t": master_params.t, "v": master_params.v,
                       "b": master_params.b, "r": master_params.r,
                       "k": master_params.k, "lambda": master_params.lam},
    )

    measured = measure_params(indexing)
    indexing_params = IndexingParams.from_params(measured)
    balance = indexing_balance(measured)
    lambda2 = f"lambda2'={indexing_params.lambda2_prime}"
    if balance == 3:
        coverage = f"{lambda2} lambda3'={indexing_params.lambda_prime}"
    elif balance == 2:
        coverage = f"{lambda2} (not 3-balanced; triple-coverage prediction skipped)"
    else:
        coverage = "(not 2-balanced; coverage predictions skipped)"
    report.add(
        f"indexing: w={indexing_params.w} b'={indexing_params.b_prime} "
        f"r'={indexing_params.r_prime} k'={indexing_params.k_prime} {coverage}",
        indexing_params={
            "w": indexing_params.w, "b_prime": indexing_params.b_prime,
            "r_prime": indexing_params.r_prime,
            "k_prime": indexing_params.k_prime,
        },
    )

    predicted = predict_ibd_params(master_params, indexing_params)
    observed = verify_ibd(built.design)
    report.add(f"predicted: {_params_text(predicted)}",
               predicted_params=predicted.as_tuple())
    report.add(f"observed:  {_params_text(observed)}",
               observed_params=observed.as_tuple(),
               params_match=predicted.as_tuple() == observed.as_tuple())

    if balance >= 2 and master_params.t >= 2:
        lam2 = predict_bibd_lambda(master_params, indexing_params)
        report.add(f"predicted pair coverage: {lam2}", predicted_pair_coverage=lam2)

    if balance == 3 and master_params.t >= 2:
        analysis = classify_three_design(master_params, indexing_params.k_prime)
        report.add(f"three-design case: {analysis.case.value}",
                   three_design_case=analysis.case.value)
        if analysis.note:
            report.add(f"note: {analysis.note}", three_design_note=analysis.note)
        mu = predict_triple_coverage(master_params, indexing_params)
        if mu is not None:
            report.add(f"predicted triple coverage: {mu}",
                       predicted_triple_coverage=mu)

    simple = is_simple(built.design)
    report.add(f"constructed simple: {'yes' if simple else 'no'}",
               constructed_simple=simple)

    if args.check_three:
        spectrum = t_coverage_spectrum(built.design, 3)
        report.add(f"observed coverage t=3: {_spectrum_text(spectrum)}",
                   observed_triple_spectrum=spectrum)

    save_design(built.design, args.out)
    report.add(f"wrote: {args.out}", out=args.out)
    if args.provenance:
        payload = {
            "blocks": len(built.design._members),
            "provenance": [list(pair) for pair in built.provenance],
            "indexing_blocks": indexing._members.tolist(),
        }
        with open(args.provenance, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        report.add(f"wrote provenance: {args.provenance}",
                   provenance_out=args.provenance)

    report.emit(args.json)
    return EXIT_OK


def cmd_resolve(args) -> int:
    design, _ = load_design_or_resolution(args.file)
    report = _Report(f"file: {args.file}", command="resolve", file=args.file,
                     limit=args.limit)
    try:
        found = find_resolutions(design, limit=args.limit, node_budget=args.budget)
    except SearchBudgetExceeded as exc:
        report.add(f"search budget exhausted: {exc}", budget_exhausted=True,
                   found=len(exc.found))
        report.emit(args.json)
        return EXIT_BUDGET
    complete = len(found) < args.limit
    report.add(
        f"resolutions found: {len(found)}"
        + (" (search complete)" if complete else f" (limit {args.limit})"),
        found=len(found), complete=complete,
    )
    if found and args.out:
        save_resolution(found[0], args.out)
        report.add(f"wrote: {args.out}", out=args.out)
    report.emit(args.json)
    return EXIT_OK


def cmd_prp(args) -> int:
    design, res = load_resolution(args.file)
    w = design.points.size // design.k
    report = _Report(f"resolution: {len(res.classes)} classes, w={w}",
                     command="prp", file=args.file, classes=len(res.classes), w=w)
    alpha_filter = set(args.alpha) if args.alpha else None
    label = (",".join(str(a) for a in sorted(alpha_filter)) if alpha_filter
             else f"all 1..{w - 1}")
    report.add(f"alpha filter: {label}",
               alpha_filter=sorted(alpha_filter) if alpha_filter else None)
    code = EXIT_OK
    try:
        violations = prp_violations(
            design, res, alpha_filter=alpha_filter, node_budget=args.budget
        )
    except SearchBudgetExceeded as exc:
        report.add(f"search budget exhausted: {exc}", budget_exhausted=True)
        violations, code = exc.found, EXIT_BUDGET
    report.add(violations=violations)
    for i, j, alpha in violations:
        report.add(f"violation: classes {i} and {j} satisfy alpha={alpha}")
    if not violations and code == EXIT_OK:
        tag = f"{label}-PRP-free" if alpha_filter else "PRP-free"
        report.add(f"violations: none ({tag})")
    report.emit(args.json)
    return code


def cmd_develop(args) -> int:
    base_design = load_design(args.file)
    has_infinity = not args.no_infinity
    n = base_design.points.size - (1 if has_infinity else 0)
    design, res = cyclic_develop(
        CyclicBaseSpec(n=n, has_infinity=has_infinity, base_class=base_design.blocks))
    if not args.out:
        print(dumps(design, res, args.json), end="")
        return EXIT_OK
    params = verify_ibd(design)
    save_resolution(res, args.out)
    report = _Report(
        f"base: n={n} infinity={'yes' if has_infinity else 'no'} "
        f"blocks={len(base_design.blocks)} k={base_design.k}",
        command="develop", file=args.file, n=n, infinity=has_infinity,
    )
    report.add(f"developed: {_params_text(params)} classes={len(res.classes)}",
               params=params.as_tuple(), classes=len(res.classes))
    report.add(f"wrote: {args.out}", out=args.out)
    report.emit(args.json)
    return EXIT_OK


def _gen_output(args):
    """(design, resolution-or-None) for every gen variant."""
    if args.kind == "trivial":
        return trivial_design(args.v, args.k), None
    if args.kind == "one-factorization":
        return round_robin_one_factorization(args.v)
    if args.kind == "sub-one-factorization":
        return sub_factorization_embedding(args.n)
    if args.kind == "affine":
        return affine_hyperplane_design(args.m, args.q)
    if args.kind == "catalog":
        entry = catalog_entry(args.name)
        if args.base:
            base_design = Design(
                points=cyclic_point_set(entry.base.n, entry.base.has_infinity),
                blocks=entry.base.base_class,
                k=entry.base.k,
            )
            return base_design, None
        return cyclic_develop(entry.base)
    raise DesignError(f"unknown generator {args.kind!r}")  # pragma: no cover


def cmd_gen(args) -> int:
    design, res = _gen_output(args)
    if not args.out:
        print(dumps(design, res, args.json), end="")
        return EXIT_OK
    if res is not None:
        save_resolution(res, args.out)
    else:
        save_design(design, args.out)
    _Report(f"wrote: {args.out}", command="gen", kind=args.kind,
            out=args.out).emit(args.json)
    return EXIT_OK


def cmd_profile(args) -> int:
    design, _ = load_design_or_resolution(args.file)
    profile = intersection_profile(design)
    report = _Report(f"file: {args.file}", command="profile", file=args.file)
    report.add("profile: " + " ".join(str(c) for c in profile.counts),
               counts=profile.counts)
    report.add(f"pairs: {profile.pair_count}", pairs=profile.pair_count)
    report.add(f"simple: {'yes' if profile.simple else 'no'}", simple=profile.simple)
    ok = True
    if args.expect is not None:
        try:
            wanted = tuple(int(x) for x in args.expect.split(","))
        except ValueError:
            raise DesignError(f"--expect wants integers, got {args.expect!r}") from None
        ok = wanted == profile.counts
        verdict = "PASS" if ok else f"FAIL (expected {' '.join(map(str, wanted))})"
        report.add(f"expect: {verdict}", expect_ok=ok)
    report.emit(args.json)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_reproduce(args) -> int:
    if args.all and args.names:
        raise DesignError("pass entry names or --all, not both")
    if not (args.all or args.names):
        raise DesignError("pass entry names or --all")
    names = catalog_names() if args.all else args.names
    report = _Report(command="reproduce")
    entries = []
    for name in names:
        result = reproduce_entry(name)
        report.add(f"entry {name}: {'PASS' if result.ok else 'FAIL'}")
        for check in result.checks:
            detail = "" if check.ok else (
                f" expected={check.expected!r} observed={check.observed!r}"
            )
            report.add(f"  {check.label}: {'PASS' if check.ok else 'FAIL'}{detail}")
        entries.append({"name": name, "ok": result.ok, "checks": [
            {"label": check.label, "ok": check.ok,
             "expected": check.expected, "observed": check.observed}
            for check in result.checks
        ]})
    passed = sum(entry["ok"] for entry in entries)
    ok = passed == len(entries)
    report.add(f"summary: {passed}/{len(entries)} entries reproduced",
               entries=entries, ok=ok)
    report.emit(args.json)
    return EXIT_OK if ok else EXIT_FAIL


def _int_at_least(lowest: int):
    """An argparse type: an integer no smaller than `lowest`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that wraps usage and help at 78 columns, as
    argparse does on an 80-column terminal, whatever COLUMNS says, so
    exit-2 stderr is the same everywhere.  Subparsers take the same class."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault(
            "formatter_class",
            lambda prog: argparse.HelpFormatter(prog, width=78),
        )
        super().__init__(*args, **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: building
    it costs about 40 times what parsing one command line does."""
    parser = _Parser(
        prog="blockdesigns",
        description=(
            "Verify block designs, search resolutions, and build 3-designs "
            "from resolvable 2-designs by unioning parallel-class blocks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    budget = _int_at_least(0)  # search nodes; 0 places no block

    p = sub.add_parser("verify", help="verify design properties")
    p.add_argument("file")
    p.add_argument("--t", action="append", type=int, help="coverage strength (repeatable)")
    p.add_argument("--expect-lambda", type=int, default=None)
    p.add_argument("--expect-simple", action="store_true")
    p.add_argument("--expect-params", default=None, metavar="V,B,R,K")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("construct", help="run the union construction")
    p.add_argument("master", help="master design or resolution file")
    p.add_argument("indexing", help="indexing design file")
    p.add_argument("--resolution", default=None, help="master resolution file")
    p.add_argument("--auto-resolve", action="store_true")
    p.add_argument("--budget", type=budget, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--out", required=True)
    p.add_argument("--provenance", default=None)
    p.add_argument("--check-three", action="store_true",
                   help="measure the constructed triple coverage spectrum")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("resolve", help="search for resolutions")
    p.add_argument("file")
    p.add_argument("--limit", type=_int_at_least(1), default=1)
    p.add_argument("--budget", type=budget, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("prp", help="check the partial replacement property")
    p.add_argument("file", help="resolution file")
    p.add_argument("--alpha", action="append", type=int)
    p.add_argument("--budget", type=budget, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("develop", help="develop a base class through Z_n")
    p.add_argument("file", help="design file holding the base parallel class")
    p.add_argument("--no-infinity", action="store_true",
                   help="all points rotate (no fixed point)")
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gen", help="emit generator output")
    gen_sub = p.add_subparsers(dest="kind", required=True)

    g = gen_sub.add_parser("trivial", help="all k-subsets of v points")
    g.add_argument("v", type=int)
    g.add_argument("k", type=int)

    g = gen_sub.add_parser("one-factorization", help="circle method on K_v")
    g.add_argument("v", type=int)

    g = gen_sub.add_parser(
        "sub-one-factorization",
        help="K_4n one-factorization containing a K_2n sub-one-factorization",
    )
    g.add_argument("n", type=int)

    g = gen_sub.add_parser("affine", help="hyperplanes of AG(m, q)")
    g.add_argument("m", type=int)
    g.add_argument("q", type=int)

    g = gen_sub.add_parser("catalog", help="catalog master (or base class)")
    g.add_argument("name")
    g.add_argument("--base", action="store_true",
                   help="emit the base parallel class instead of the development")

    for g in gen_sub.choices.values():
        g.add_argument("--out", default=None)
        g.add_argument("--json", action="store_true")

    p = sub.add_parser("profile", help="pairwise intersection histogram")
    p.add_argument("file")
    p.add_argument("--expect", default=None, metavar="C0,C1,...")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("reproduce", help="reproduce catalog entries end to end")
    p.add_argument("names", nargs="*")
    p.add_argument("--all", action="store_true")
    p.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up at call time, so a cmd_* function replaced on the module
    # (a tracer's wrapper, say) is the one that runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FormatError, DesignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
