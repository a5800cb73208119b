"""Command-line front end and corpus comparison.

Exit codes: 0 = every check passed, 1 = a mathematical check failed (the
report is still emitted), 2 = input or resource error.  Output is
deterministic for fixed inputs: JSON is dumped with sorted keys and no
timestamps, tables print in a fixed order.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .certify import (
    build_extension,
    default_bound,
    full_certificate,
)
from .dsl import (
    AlgebraFile,
    DslError,
    parse_algebra_file,
    parse_scalar,
    parse_unit,
    print_poly,
)
from .family import flatness_probe, zhang_certificate
from .freealg import AlgebraError, Context
from .linalg import ResourceLimitError
from .quotient import Presentation, hilbert_table
from .scalars import Scalar, ScalarError, UnitScalar
from .superpotential import (
    DiagonalMap,
    Superpotential,
    superpotential_from_relations,
)
from .tuples import SolutionFamily, SolveError, goodness_system, solve_units, w_hash

INPUT_ERRORS = (
    DslError,
    OSError,
    SolveError,
    ScalarError,
    AlgebraError,
    ResourceLimitError,
)


def default_corpus_path() -> Path:
    return Path(__file__).resolve().parent / "corpus"


def _emit(obj, fmt: str = "json", tsv: str | None = None) -> None:
    if fmt == "tsv":
        sys.stdout.write(tsv)
    else:
        sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _field_superpotential(af: AlgebraFile, assign_text: str | None) -> Superpotential:
    asg = af.assignment(assign_text)
    if af.w is not None:
        w = af.w.specialize(asg) if asg is not None else af.w
        return Superpotential(w)
    rels = [r.specialize(asg) for r in af.rels] if asg is not None else list(af.rels)
    return Superpotential(superpotential_from_relations(rels))


def _symbolic_superpotential(af: AlgebraFile, assign_text: str | None) -> Superpotential:
    """Unit-mode form when parameters exist, field form otherwise.  The
    unit-mode form does not use ``assign_text``, but reads it, so that bad
    text is an input error here as it is for the field form."""
    if af.w is not None:
        if assign_text:
            af.assignment(assign_text)
        return Superpotential(af.w)
    return _field_superpotential(af, assign_text)


def _parse_field_tuple(text: str, ctx: Context):
    return tuple(parse_scalar(part, ctx.conductor) for part in text.split(","))


def _require(option, name: str):
    if option is None:
        raise DslError(f"missing required option {name}")
    return option


def _field_instance(args, need_omit: bool = True):
    """(af, sp, k, p): the file, its field superpotential, the 0-based --omit
    and the --p tuple; k and p are None when --omit is optional and absent,
    and --p without --omit is an input error."""
    af = parse_algebra_file(args.file)
    sp = _field_superpotential(af, args.assign)
    if args.omit is None and not need_omit:
        if args.p is not None:
            raise DslError("--p needs --omit")
        return af, sp, None, None
    k = _require(args.omit, "--omit") - 1
    return af, sp, k, _parse_field_tuple(_require(args.p, "--p"), sp.ctx)


def _twist_texts(sp: Superpotential) -> list[str]:
    return [str(s) if sp.ctx.mode == "field" else s.text(sp.ctx.params) for s in sp.twist.scales]


# -- subcommands -----------------------------------------------------------------


def cmd_check_superpotential(args) -> int:
    af = parse_algebra_file(args.file)
    sp = _symbolic_superpotential(af, args.assign)
    out = {
        "algebra": af.name,
        "degree": sp.ell,
        "twist": _twist_texts(sp),
        "is_superpotential": sp.twist.is_identity(),
        "derivatives_independent": sp.derivatives_independent(),
    }
    _emit(out)
    return 0


def cmd_derive(args) -> int:
    af = parse_algebra_file(args.file)
    sp = _symbolic_superpotential(af, args.assign)
    out = {
        "algebra": af.name,
        "w": print_poly(sp.w),
        "derivatives": [print_poly(f) for f in sp.f],
        "trailing": [print_poly(g) for g in sp.g],
        "twist": _twist_texts(sp),
    }
    _emit(out)
    return 0


def cmd_solve_tuples(args) -> int:
    af = parse_algebra_file(args.file)
    sp = _symbolic_superpotential(af, args.assign)
    k = _require(args.omit, "--omit") - 1
    system = goodness_system(sp, k)
    fams = solve_units(system, w_hash(sp.w))
    out = {
        "algebra": af.name,
        "k": k + 1,
        "equations": [
            {"counts": list(counts), "rhs": rhs.text(sp.ctx.params), "label": lab}
            for (counts, rhs), lab in zip(system.rows, system.labels)
        ],
        "families": [f.to_json(af.conductor) for f in fams],
    }
    _emit(out)
    return 0


def cmd_build_extension(args) -> int:
    af, sp, k, p = _field_instance(args)
    spec = build_extension(sp, p, k, label=f"D({af.name})")
    _emit(spec.describe())
    return 0


def cmd_hilbert(args) -> int:
    af, sp, k, p = _field_instance(args, need_omit=False)
    if k is not None:
        pres = build_extension(sp, p, k, label=f"D({af.name})").D
    else:
        pres = Presentation(sp.ctx, sp.f, label=f"A({af.name})")
    bound = args.bound if args.bound is not None else default_bound(sp.m)
    table = hilbert_table(pres, bound, args.engine)
    _emit(table.to_json(), args.format, tsv=table.to_tsv())
    return 0


def cmd_verify(args) -> int:
    af, sp, k, p = _field_instance(args)
    spec = build_extension(sp, p, k, label=f"D({af.name})")
    cert = full_certificate(spec, bound=args.bound, engine=args.engine)
    _emit(cert.to_json())
    return 0 if cert.passed else 1


def cmd_family_probe(args) -> int:
    af = parse_algebra_file(args.file)
    sp = _field_superpotential(af, args.assign)
    if args.points:
        pts = [
            _parse_field_tuple(part, sp.ctx) for part in args.points.split(";") if part
        ]
    else:
        one = Scalar.one(sp.ctx.conductor)
        zero = Scalar.zero(sp.ctx.conductor)
        pts = [
            tuple(one if j == i else zero for j in range(sp.n)) for i in range(sp.n)
        ]
        pts.append(tuple(one for _ in range(sp.n)))
        pts.append(
            tuple(Scalar.from_rational(j + 1, sp.ctx.conductor) for j in range(sp.n))
        )
    report = flatness_probe(sp, pts, args.bound, args.engine)
    _emit(report.to_json(), args.format, tsv=report.to_tsv())
    return 0 if report.passed else 1


def cmd_zhang(args) -> int:
    _af, sp, k, p = _field_instance(args)
    sigma = DiagonalMap(sp.ctx, _parse_field_tuple(_require(args.sigma, "--sigma"), sp.ctx))
    report = zhang_certificate(sp, p, k, sigma)
    _emit(report.to_json())
    return 0 if report.passed else 1


# -- corpus comparison ------------------------------------------------------------


@dataclass
class CorpusEntry:
    name: str
    algebra: AlgebraFile
    expect: dict


def load_corpus(dirpath: Path) -> list[CorpusEntry]:
    entries = []
    for alg in sorted(Path(dirpath).glob("*.alg")):
        sidecar = alg.with_name(alg.stem + ".expect.json")
        if not sidecar.exists():
            raise DslError(f"missing sidecar for corpus entry {alg.name}")
        with open(sidecar, "r", encoding="utf-8") as fh:
            try:
                expect = json.load(fh)
            except json.JSONDecodeError as e:
                raise DslError(f"corpus sidecar {sidecar.name}: {e}") from None
        entries.append(CorpusEntry(alg.stem, parse_algebra_file(alg), expect))
    if not entries:
        raise DslError(f"no corpus entries found in {dirpath}")
    return entries


def _parse_listed_tuple(text: str, conductor: int, params) -> SolutionFamily:
    """A listed representative as a family; 'l' denotes a free scalar in
    table rows, and a row without it is a family with no directions."""
    ext = tuple(params) + ("l",)
    units = [parse_unit(part, conductor, ext) for part in text.split(",")]
    n = len(units)
    lvec = [u.exps[-1] for u in units]
    if any(v.denominator != 1 for v in lvec):
        raise DslError(f"free-symbol exponents must be integers in {text!r}")
    return SolutionFamily(
        params=tuple(params),
        n=n,
        k=0,
        particular=tuple(UnitScalar(u.tor, u.exps[:-1]) for u in units),
        directions=(("l", tuple(int(v) for v in lvec)),) if any(lvec) else (),
        cosets=(tuple([Fraction(0)] * n),),
    )


def tables_report(corpus_dir: Path) -> tuple[dict, bool]:
    rows = []
    all_ok = True
    for entry in load_corpus(corpus_dir):
        af = entry.algebra
        sp = _symbolic_superpotential(af, None)
        digest = w_hash(sp.w)
        good = entry.expect.get("good", {})
        if not all(k.isdigit() for k in good):
            raise DslError(f"corpus sidecar of {entry.name}: 'good' keys must be indices")
        ks = sorted(int(k) for k in good) if good else list(range(1, sp.n + 1))
        entry_rows = []
        for k in ks:
            fams = solve_units(goodness_system(sp, k - 1), digest)
            listed = good.get(str(k), [])
            targets = [_parse_listed_tuple(rep, af.conductor, af.params) for rep in listed]
            listed_families = sum(bool(t.directions) for t in targets)
            verdicts = []
            for rep, target in zip(listed, targets):
                ok = any(f.contains_family(target) for f in fams)
                verdicts.append({"listed": rep, "contained": ok})
                if not ok:
                    all_ok = False
            surplus = []
            for f in fams:
                if len(f.cosets) > max(1, len(listed) - listed_families):
                    surplus.append(
                        f"computed family has {len(f.cosets)} torsion cosets; row lists {len(listed)} representatives"
                    )
                if f.directions and not listed_families:
                    surplus.append("computed family has free directions " + ", ".join(f.symbols))
            entry_rows.append(
                {
                    "k": k,
                    "families": [f.to_json(af.conductor) for f in fams],
                    "listed": verdicts,
                    "surplus": "; ".join(surplus) if listed else "no table row; families only",
                }
            )
        rows.append(
            {
                "entry": entry.name,
                "table": entry.expect.get("table"),
                "row": entry.expect.get("row"),
                "results": entry_rows,
            }
        )
    return {"corpus": rows, "pass": all_ok}, all_ok


def _tables_tsv(report: dict) -> str:
    lines = ["entry\trow\tk\tlisted\tcontained\tsurplus"]
    for row in report["corpus"]:
        for res in row["results"]:
            if res["listed"]:
                for v in res["listed"]:
                    lines.append(
                        f"{row['entry']}\t{row['row'] or '-'}\t{res['k']}\t{v['listed']}"
                        f"\t{str(v['contained']).lower()}\t{res['surplus']}"
                    )
            else:
                lines.append(
                    f"{row['entry']}\t{row['row'] or '-'}\t{res['k']}\t-\t-\t{res['surplus']}"
                )
    lines.append(f"pass\t{str(report['pass']).lower()}")
    return "\n".join(lines) + "\n"


def cmd_tables(args) -> int:
    corpus = Path(args.corpus) if args.corpus else default_corpus_path()
    report, ok = tables_report(corpus)
    _emit(report, args.format, tsv=_tables_tsv(report))
    return 0 if ok else 1


# -- argument plumbing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="normext",
        allow_abbrev=False,
        description="Construct and certify normal/central extensions of superpotential algebras.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def bound(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"degree bound must be >= 0, got {value}")
        return value

    # each subcommand accepts exactly the options it reads
    options = {
        "omit": ("--omit", dict(type=int, default=None, help="omitted relation index k (1-based)")),
        "p": ("--p", dict(default=None, help="comma-separated tuple of scalars")),
        "bound": ("--bound", dict(type=bound, default=None, help="degree bound (default 2m+4)")),
        "engine": (
            "--engine",
            dict(choices=["la", "gb", "both"], default="both", help="dimension engine"),
        ),
        "format": ("--format", dict(choices=["json", "tsv"], default="json")),
    }

    def command(verb, help, *names):
        p = sub.add_parser(verb, help=help, allow_abbrev=False)
        p.add_argument("file", help="algebra file (.alg)")
        p.add_argument("--assign", default=None, help='parameter assignments "a:=4,a^{1/2}:=2"')
        for name in names:
            flag, kwargs = options[name]
            p.add_argument(flag, **kwargs)
        return p

    command("check-superpotential", "recognize the diagonal twist")
    command("derive", "print derivative bundles and the twist")
    command("solve-tuples", "solve the multiplicative conditions", "omit")
    command("build-extension", "print the extension presentation", "omit", "p")
    command("hilbert", "graded dimension table", "omit", "p", "bound", "engine", "format")
    command("verify", "full certificate for one instance", "omit", "p", "bound", "engine")
    probe = command("family-probe", "flat-family Hilbert sampling", "format")
    probe.add_argument("--bound", type=bound, default=6, help="degree bound (default 6)")
    probe.add_argument("--engine", choices=["la", "gb"], default="gb", help="dimension engine")
    probe.add_argument("--points", default=None, help='semicolon-separated points "1,0,0;1,1,1"')
    zh = command("zhang", "twist-compatibility certificate", "omit", "p")
    zh.add_argument("--sigma", default=None, help="comma-separated diagonal scales")
    tb = sub.add_parser(
        "tables", help="compare solver output against the reference rows", allow_abbrev=False
    )
    tb.add_argument("corpus", nargs="?", default=None, help="corpus directory (default: packaged)")
    tb.add_argument("--format", choices=["json", "tsv"], default="json")
    return ap


HANDLERS = {
    "check-superpotential": cmd_check_superpotential,
    "derive": cmd_derive,
    "solve-tuples": cmd_solve_tuples,
    "build-extension": cmd_build_extension,
    "hilbert": cmd_hilbert,
    "verify": cmd_verify,
    "family-probe": cmd_family_probe,
    "zhang": cmd_zhang,
    "tables": cmd_tables,
}


# options whose value may begin with a minus sign
SIGNED_VALUE_OPTIONS = ("--p", "--sigma", "--points")


def _attach_signed_values(argv: list) -> list:
    """Write "--p -1,1" as "--p=-1,1".  argparse reads a token that begins
    with "-" as an option unless it looks like a negative number, so a
    tuple led by a negative entry would need the "=" form.  A following
    token that is itself an option ("--bound", "-h") stays separate, so
    "--p --bound 4" is still refused."""
    out = []
    for tok in argv:
        if out and out[-1] in SIGNED_VALUE_OPTIONS and tok[:1] == "-" and tok != "-h" and tok[:2] != "--":
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return HANDLERS[args.verb](args)
    except INPUT_ERRORS as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except AssertionError as e:
        sys.stderr.write(f"internal defect: {e}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
