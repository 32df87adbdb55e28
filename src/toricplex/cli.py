"""Command-line front end.

Every subcommand assembles one report dictionary; ``--json`` prints it
verbatim and the text renderer draws from the same data, so the two output
modes always carry identical content.

Exit codes: 0 success / YES / trivial; 1 a queried property fails;
2 hypothesis refusal or UNKNOWN, with the witness printed; 64 usage or
input-parsing errors; 70 internal assertion failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import fixtures as fixture_mod
from .aomoto import DegreeOneClass, aomoto_betti_aah, aomoto_betti_direct
from .exact.fields import Field
from .jumploci import DEFAULT_VERTEX_CAP, strata
from .kernels import (
    HypothesisRefusal, cover_cohomology_ring, finitely_generated,
    finitely_presented, fp_r,
)
from .lieranks import (
    chen_ranks, clique_polynomial, cut_polynomial, face_ring_presentation,
    holonomy_dims, lcs_ranks,
)
from .simplicial import SimplicialComplex, bits, format_complex, parse_complex, toric_betti
from .simplicial import flagification_defect
from .zcover import (
    Character, FClass, ZModuleDecomposition, direct_oracle, finite_dim_test,
    full_decomposition, monodromy_trivial, relevant_orders,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_REFUSAL = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_field(text: str) -> Field:
    if text == "q0":
        return Field(0)
    if text.startswith("p") and text[1:].isdigit():
        return Field(int(text[1:]))
    raise ValueError(f"field must be q0 or p<prime>, got {text!r}")


def _parse_chi(text: str, L: SimplicialComplex) -> Character:
    if text == "diag":
        return Character.diagonal(L.n)
    weights = [0] * L.n
    seen = set()
    index = {lab: i for i, lab in enumerate(L.labels)}
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"bad weight assignment {item!r}; use label=int")
        label, value = item.split("=", 1)
        label = label.strip()
        if label not in index:
            raise ValueError(f"unknown vertex label {label!r}")
        weights[index[label]] = int(value)
        seen.add(label)
    missing = [lab for lab in L.labels if lab not in seen]
    if missing:
        print(f"warning: vertices {' '.join(missing)} defaulted to weight 0",
              file=sys.stderr)
    return Character(tuple(weights))


def _parse_class(text: str, L: SimplicialComplex, field: Field) -> DegreeOneClass:
    coeffs = [0] * L.n
    index = {lab: i for i, lab in enumerate(L.labels)}
    if text:
        for item in text.split(","):
            if "=" not in item:
                raise ValueError(f"bad coefficient assignment {item!r}; use label=value")
            label, value = item.split("=", 1)
            if label.strip() not in index:
                raise ValueError(f"unknown vertex label {label.strip()!r}")
            coeffs[index[label.strip()]] = Fraction(value)
    return DegreeOneClass(field, tuple(coeffs))


def _load_complex(path: str) -> SimplicialComplex:
    return parse_complex(Path(path).read_text())


def _monomial_label(L: SimplicialComplex, mask: int) -> str:
    if mask == 0:
        return "1"
    return "".join(f"{L.labels[v]}*" for v in bits(mask))


def _decomposition_report(dec: ZModuleDecomposition, field: Field) -> list[dict]:
    out = []
    for i, dd in enumerate(dec.normalized().degrees):
        torsion = []
        for d, mults in dd.torsion.items():
            c = FClass(d, field.char)
            torsion.append({"d": d, "irreducible_degree": c.irreducible_degree,
                            "class_count": c.count, "multiplicities": list(mults)})
        out.append({"i": i, "free_rank": dd.free_rank, "torsion": torsion})
    return out


# -- subcommand implementations ---------------------------------------------


def _cmd_betti(args):
    L = _load_complex(args.complex)
    p, defect = flagification_defect(L)
    report = {
        "command": "betti",
        "vertices": list(L.labels),
        "toric_betti": list(toric_betti(L)),
        "is_flag": p is None,
        "p": "infinity" if p is None else p,
        "coinvariant_rank": defect,
    }
    lines = ["b(T_L) = " + " ".join(str(b) for b in report["toric_betti"])]
    if p is None:
        lines.append("flag complex: aspherical (p = infinity)")
    else:
        lines.append(f"not flag: p = {p}, coinvariant rank = {defect}")
    return report, lines, EXIT_OK


def _cmd_aomoto(args):
    L = _load_complex(args.complex)
    field = _parse_field(args.field)
    i_max = args.imax if args.imax is not None else L.dim + 1
    if args.z is not None:
        z = _parse_class(args.z, L, field)
        betas = aomoto_betti_direct(L, z, i_max)
        mode = {"mode": "class", "coeffs": {L.labels[v]: str(c)
                                            for v, c in enumerate(z.coeffs)}}
    elif args.chi is not None:
        chi = _parse_chi(args.chi, L).normalized()
        z = DegreeOneClass.from_weights(field, chi.weights)
        betas = aomoto_betti_direct(L, z, i_max)
        mode = {"mode": "character", "chi": dict(zip(L.labels, chi.weights))}
    else:
        labels = [s for s in (args.w or "").split(",") if s]
        index = {lab: i for i, lab in enumerate(L.labels)}
        w = 0
        for lab in labels:
            if lab not in index:
                raise ValueError(f"unknown vertex label {lab!r}")
            w |= 1 << index[lab]
        betas = aomoto_betti_aah(L, w, field, i_max)
        mode = {"mode": "support", "w": sorted(labels)}
    report = {"command": "aomoto", "field": args.field, **mode,
              "i_max": i_max, "betas": betas}
    lines = [f"beta_{i} = {b}" for i, b in enumerate(betas)]
    return report, lines, EXIT_OK


def _cmd_strata(args, name):
    L = _load_complex(args.complex)
    field = _parse_field(args.field)
    fam = strata(L, field, args.i, args.d, cap=args.cap)
    members = fam.labelled(L.labels)
    report = {"command": name, "field": args.field, "i": args.i, "d": args.d,
              "members": [list(m) for m in members]}
    kind = "k^W" if name == "resonance" else "(k^x)^W"
    lines = [f"{kind} strata, i={args.i}, d={args.d}: {len(members)} maximal"]
    lines += [" ".join(m) if m else "{}" for m in members]
    return report, lines, EXIT_OK


def _cmd_zcover(args):
    L = _load_complex(args.complex)
    field = _parse_field(args.field)
    chi = _parse_chi(args.chi, L).normalized()
    i_max = args.imax if args.imax is not None else L.dim + 1
    dec = full_decomposition(L, chi, field, i_max)
    lines = [dec.format_degree(i) for i in range(i_max + 1)]
    report = {
        "command": "zcover", "field": args.field,
        "chi": dict(zip(L.labels, chi.weights)), "i_max": i_max,
        "classes": list(relevant_orders(chi, field)),
        "degrees": _decomposition_report(dec, field),
        "lines": lines,
    }
    code = EXIT_OK
    if args.oracle:
        oracle = direct_oracle(L, chi, field, i_max)
        match = dec == oracle
        report["oracle_match"] = match
        lines = lines + ["oracle: " + ("match" if match else "MISMATCH")]
        if not match:
            lines += ["oracle " + oracle.format_degree(i) for i in range(i_max + 1)]
            code = EXIT_INTERNAL
    return report, lines, code


def _cmd_monodromy(args):
    L = _load_complex(args.complex)
    field = _parse_field(args.field)
    chi = _parse_chi(args.chi, L).normalized()
    rep = monodromy_trivial(L, chi, field, args.r)
    report = {"command": "monodromy", "field": args.field, "r": args.r,
              "trivial": rep.trivial,
              "witness": None if rep.trivial else
              dict(zip(("i", "q", "beta"), rep.witness))}
    if rep.trivial:
        return report, ["trivial"], EXIT_OK
    i, q, beta = rep.witness
    return report, [f"nontrivial: beta_{i} at the support mod {q} is {beta}"], EXIT_FALSE


def _cmd_finitedim(args):
    L = _load_complex(args.complex)
    field = _parse_field(args.field)
    chi = _parse_chi(args.chi, L).normalized()
    ok = finite_dim_test(L, chi, field, args.r)
    report = {"command": "finitedim", "field": args.field, "r": args.r,
              "finite_dimensional": ok}
    return report, ["finite" if ok else "infinite"], EXIT_OK if ok else EXIT_FALSE


def _cmd_kernel(args):
    L = _load_complex(args.complex)
    gamma = L.one_skeleton()
    chi = _parse_chi(args.chi, L).normalized()
    if args.query == "fg":
        rep = finitely_generated(gamma, chi)
    elif args.query == "fp":
        rep = finitely_presented(gamma, chi, tietze_budget=args.tietze_budget)
    else:
        rep = fp_r(gamma, chi, args.r)
    report = {"command": "kernel", "query": rep.query, "verdict": rep.verdict,
              "witness": rep.witness}
    lines = [f"{rep.query}: {rep.verdict}"]
    if rep.witness:
        lines.append(f"witness: {rep.witness}")
    code = {"YES": EXIT_OK, "NO": EXIT_FALSE, "UNKNOWN": EXIT_REFUSAL}[rep.verdict]
    return report, lines, code


def _cmd_coverring(args):
    L = _load_complex(args.complex)
    field = _parse_field(args.field)
    chi = _parse_chi(args.chi, L).normalized()
    ring = cover_cohomology_ring(L, chi, field, args.r)
    basis = [[_monomial_label(L, m) for m in degree] for degree in ring.basis]
    products = []
    for (i, a, j, b), coords in sorted(ring.products.items()):
        products.append({"left": [i, a], "right": [j, b],
                         "coords": [str(c) for c in coords]})
    report = {"command": "coverring", "field": args.field, "r": args.r,
              "dims": list(ring.dims), "basis": basis, "products": products}
    lines = ["dims: " + " ".join(str(d) for d in ring.dims)]
    for i, degree in enumerate(basis):
        lines.append(f"degree {i}: " + (" ".join(degree) if degree else "-"))
    return report, lines, EXIT_OK


def _cmd_lie(args):
    L = _load_complex(args.complex)
    gamma = L.one_skeleton()
    chi = _parse_chi(args.chi, L).normalized() if args.chi else Character.diagonal(L.n)
    hypothesis = monodromy_trivial(
        SimplicialComplex.flag_complex(gamma), chi, Field(0), 1)
    if not hypothesis.trivial:
        i, q, beta = hypothesis.witness
        raise HypothesisRefusal(
            f"first homology of the kernel has nontrivial deck action "
            f"(beta_{i} at the support mod {q} is {beta})",
            witness=hypothesis.witness)
    phi = lcs_ranks(gamma, args.order)
    theta = chen_ranks(gamma, args.order)
    h = holonomy_dims(face_ring_presentation(SimplicialComplex.flag_complex(gamma)))
    report = {
        "command": "lie", "order": args.order,
        "chi": dict(zip(L.labels, chi.weights)),
        "clique_polynomial": list(clique_polynomial(gamma)),
        "cut_polynomial": list(cut_polynomial(gamma)),
        "phi": list(phi.values), "theta": list(theta.values),
        "holonomy": list(h.values),
    }
    lines = [
        "P(t) coefficients: " + " ".join(map(str, report["clique_polynomial"])),
        "Q(t) coefficients: " + " ".join(map(str, report["cut_polynomial"])),
        f"phi_1..{args.order}: " + " ".join(map(str, phi.values)),
        f"theta_2..{args.order}: " + " ".join(map(str, theta.values)),
        "h_1..3: " + " ".join(map(str, h.values)),
    ]
    return report, lines, EXIT_OK


def _cmd_fixtures(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in sorted(fixture_mod.BUNDLED):
        path = out / f"{name}.cplx"
        path.write_text(format_complex(fixture_mod.bundled(name), header=name))
        written.append(str(path))
    simplex_path = out / f"simplex{args.simplex}.cplx"
    simplex_path.write_text(format_complex(
        fixture_mod.simplex(args.simplex), header=f"simplex({args.simplex})"))
    written.append(str(simplex_path))
    report = {"command": "fixtures", "written": written}
    return report, written, EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="toricplex",
                     description="Exact invariants of toric complexes and "
                                 "their infinite cyclic covers")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_text, with_field=True, with_chi=False, with_r=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("complex", help="complex file")
        if with_field:
            p.add_argument("--field", default="q0", help="q0 or p<prime>")
        if with_chi:
            p.add_argument("--chi", required=True,
                           help="label=int[,label=int...] or diag")
        if with_r:
            p.add_argument("-r", type=int, default=2, help="degree bound")
        p.add_argument("--json", action="store_true", help="machine output")
        return p

    add("betti", "toric Betti numbers and flagification defect", with_field=False)

    p = add("aomoto", "Aomoto-Betti table for a support, class, or character")
    p.add_argument("--w", default=None, help="comma-separated support labels")
    p.add_argument("--chi", default=None, help="character weights")
    p.add_argument("--z", default=None, help="label=value coefficients")
    p.add_argument("--imax", type=int, default=None)

    for name in ("resonance", "charvar"):
        p = add(name, f"{name} stratification as maximal vertex subsets")
        p.add_argument("-i", type=int, required=True)
        p.add_argument("-d", type=int, default=1)
        p.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP)

    p = add("zcover", "module decomposition of the cover homology", with_chi=True)
    p.add_argument("--imax", type=int, default=None)
    p.add_argument("--oracle", action="store_true",
                   help="also run the direct oracle and compare")

    add("monodromy", "triviality test for the deck action", with_chi=True, with_r=True)
    add("finitedim", "finite-dimensionality of the cover homology",
        with_chi=True, with_r=True)

    p = add("kernel", "finiteness properties of the Artin kernel",
            with_field=False, with_chi=True, with_r=True)
    p.add_argument("--query", choices=("fg", "fp", "fpr"), required=True)
    p.add_argument("--tietze-budget", type=int, default=10_000)

    add("coverring", "truncated cohomology ring of the cover",
        with_chi=True, with_r=True)

    p = sub.add_parser("lie", help="clique/cut polynomials and Lie ranks")
    p.add_argument("complex")
    p.add_argument("--chi", default=None, help="hypothesis character (default diag)")
    p.add_argument("-K", "--order", type=int, default=8)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("fixtures", help="write the bundled complex files")
    p.add_argument("--out", default=".")
    p.add_argument("--simplex", type=int, default=3)
    p.add_argument("--json", action="store_true")
    return parser


_DISPATCH = {
    "betti": _cmd_betti,
    "aomoto": _cmd_aomoto,
    "zcover": _cmd_zcover,
    "monodromy": _cmd_monodromy,
    "finitedim": _cmd_finitedim,
    "kernel": _cmd_kernel,
    "coverring": _cmd_coverring,
    "lie": _cmd_lie,
    "fixtures": _cmd_fixtures,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        if args.subcommand in ("resonance", "charvar"):
            report, lines, code = _cmd_strata(args, args.subcommand)
        else:
            report, lines, code = _DISPATCH[args.subcommand](args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisRefusal as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_REFUSAL
    except (AssertionError, ArithmeticError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
