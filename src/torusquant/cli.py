"""Command line front end.

Subcommands: basis, bks, maslov, rep, verify.  Payload goes to stdout as
JSON (default) or aligned text; diagnostics go to stderr.  Exit codes:
0 success, 1 verification failure, 2 input error.  The environment variable
QUANT_SEED, when set, overrides the --seed of verify.

Matrices are serialized as nested [re, im] pairs; floats pass through
shortest round-trip formatting so a reparse reproduces them bit for bit.
Exact entries carry the squared prefactor and the phase terms as exact
rational strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import DimensionMismatch, TorusQuantError
from .exact import hnf_rows
from .lattice import Lagrangian, SymplecticSpace, adapted_basis
from .maslov import LagrangianLift, maslov_index, mp_generator, triple_index
from .quantize import (
    HilbertSpace,
    Polarization,
    bks_matrix,
    corrected_intertwiner,
)
from .representations import mp_operator, sp_operator
from .verify import SUITES, run_suites


# ---------------------------------------------------------------------------
# parsing helpers


def _int_rows(text: str):
    """The integer rows of ';'-separated text, one at a time."""
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        try:
            vals = [int(x) for x in chunk.replace(",", " ").split()]
        except ValueError as exc:
            raise DimensionMismatch(f"cannot parse integer row: {chunk!r}") from exc
        yield vals


def _parse_rows(text: str, g: int) -> list[list[int]]:
    out = []
    for vals in _int_rows(text):
        if len(vals) != 2 * g:
            raise DimensionMismatch(
                f"row has {len(vals)} entries, expected 2g = {2 * g}"
            )
        out.append(vals)
    return out


def _parse_square(text: str, g: int) -> list[list[int]]:
    out = list(_int_rows(text))
    if len(out) != g or any(len(r) != g for r in out):
        raise DimensionMismatch(f"expected a {g} x {g} integer matrix")
    return out


def _lagrangians(args, space: SymplecticSpace, expected: int) -> list[Lagrangian]:
    texts = args.lagrangian or []
    if len(texts) != expected:
        raise DimensionMismatch(
            f"command needs exactly {expected} --lagrangian argument(s), got {len(texts)}"
        )
    return [Lagrangian.make(space, _parse_rows(t, space.g)) for t in texts]


def _seed(args) -> int:
    env = os.environ.get("QUANT_SEED")
    if env is not None:
        return int(env)
    return args.seed


# ---------------------------------------------------------------------------
# serialization


def _matrix_doc(matrix: np.ndarray) -> list:
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


def _exact_doc(exact) -> list:
    rows, cols = exact.live.shape
    out = []
    for r in range(rows):
        doc_row = []
        for c in range(cols):
            entry = exact.entry(r, c)
            doc_row.append(
                {
                    "amp2": str(entry.amp2),
                    "terms": [{"t": str(t), "c": str(c)} for t, c in entry.terms],
                }
            )
        out.append(doc_row)
    return out


def _basis_doc(basis) -> dict:
    return {"w": [list(r) for r in basis.w], "wperp": [list(r) for r in basis.wperp]}


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=False))
        return
    _emit_text(doc)


def _emit_text(doc: dict, indent: int = 0) -> None:
    pad = " " * indent
    for key, value in doc.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 2)
        elif key == "matrix":
            print(f"{pad}{key}:")
            for row in value:
                cells = [f"{re:+.6f}{im:+.6f}j" for re, im in row]
                print(pad + "  " + "  ".join(cells))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                _emit_text(item, indent + 2)
                print()
        else:
            print(f"{pad}{key}: {value}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_basis(args) -> int:
    space = SymplecticSpace.standard(args.g)
    lag = _lagrangians(args, space, 1)[0]
    basis = adapted_basis(lag)
    g = space.g
    # AdaptedBasis raises on any violation of the first four
    invariants = {
        "w_isotropic": True,
        "wperp_isotropic": True,
        "pairing_delta": True,
        "stack_unimodular": True,
        "spans_lagrangian": hnf_rows(basis.w[: lag.rank]) == lag.gens,
    }
    doc = {
        "meta": {"g": g, "lagrangian": [list(r) for r in lag.gens]},
        "w": [list(r) for r in basis.w],
        "wperp": [list(r) for r in basis.wperp],
        "invariants": invariants,
    }
    _emit(doc, args.format)
    return 0


def cmd_bks(args) -> int:
    space = SymplecticSpace.standard(args.g)
    l1, l2 = _lagrangians(args, space, 2)
    if args.lift is not None:
        if args.base is None or len(args.lift) != 2:
            raise DimensionMismatch("corrected pairing needs --base and two --lift values")
        base = Lagrangian.make(space, _parse_rows(args.base, space.g))
        lifts = [
            LagrangianLift(base, l1, args.lift[0]),
            LagrangianLift(base, l2, args.lift[1]),
        ]
        inter = corrected_intertwiner(lifts[0], lifts[1], args.k)
        corrected = True
    else:
        hs1 = HilbertSpace(args.k, Polarization.canonical(l1))
        hs2 = HilbertSpace(args.k, Polarization.canonical(l2))
        inter = bks_matrix(hs1, hs2)
        corrected = False
    doc = {
        "meta": {
            "g": space.g,
            "k": args.k,
            "corrected": corrected,
            "exact_available": True,
            "frames": {
                "source": _basis_doc(inter.source.pol.basis),
                "target": _basis_doc(inter.target.pol.basis),
            },
        },
        "matrix": _matrix_doc(inter.matrix),
        "exact": _exact_doc(inter.exact),
    }
    _emit(doc, args.format)
    return 0


def cmd_maslov(args) -> int:
    space = SymplecticSpace.standard(args.g)
    l1, l2, l3 = _lagrangians(args, space, 3)
    doc = {
        "meta": {"g": space.g},
        "tau": triple_index(l1, l2, l3),
    }
    if args.lift is not None:
        if args.base is None or len(args.lift) != 3:
            raise DimensionMismatch("maslov indices need --base and three --lift values")
        base = Lagrangian.make(space, _parse_rows(args.base, space.g))
        lifts = [
            LagrangianLift(base, lag, lam)
            for lag, lam in zip((l1, l2, l3), args.lift)
        ]
        doc["mu"] = {
            "12": maslov_index(lifts[0], lifts[1], 4),
            "23": maslov_index(lifts[1], lifts[2], 4),
            "31": maslov_index(lifts[2], lifts[0], 4),
        }
    _emit(doc, args.format)
    return 0


def cmd_rep(args) -> int:
    space = SymplecticSpace.standard(args.g)
    if args.lagrangian:
        lag = _lagrangians(args, space, 1)[0]
    else:
        lag = Lagrangian.make(
            space, [[1 if j == i else 0 for j in range(2 * args.g)] for i in range(args.g)]
        )
    pol = Polarization.canonical(lag)
    hs = HilbertSpace(args.k, pol)
    kw = {}
    if args.kind == "alpha":
        if not args.matrix:
            raise DimensionMismatch("alpha needs --matrix with a g x g unimodular A")
        kw["a"] = _parse_square(args.matrix, args.g)
    if args.kind == "beta":
        if not args.matrix:
            raise DimensionMismatch("beta needs --matrix with a symmetric g x g B")
        kw["b"] = _parse_square(args.matrix, args.g)
    elem = mp_generator(pol.basis, args.kind, **kw)
    if args.metaplectic:
        rep = mp_operator(elem, hs)
    else:
        rep = sp_operator(elem.b, hs)
    doc = {
        "meta": {
            "g": args.g,
            "k": args.k,
            "kind": args.kind,
            "metaplectic": bool(args.metaplectic),
            "z": elem.z if args.metaplectic else None,
            "frame": _basis_doc(pol.basis),
        },
        "matrix": _matrix_doc(rep.matrix),
    }
    _emit(doc, args.format)
    return 0


def cmd_verify(args) -> int:
    names = args.suite or None
    reports = run_suites(names, seed=_seed(args), tolerance=args.tolerance)
    with_details = bool(names) and len(names) == 1
    doc = {
        "seed": _seed(args),
        "suites": [r.as_dict(with_details=with_details) for r in reports],
        "failures": sum(r.failures for r in reports),
        "max_error": max((r.max_error for r in reports), default=0.0),
    }
    _emit(doc, args.format)
    return 1 if doc["failures"] else 0


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusquant",
        description="Quantization data for symplectic tori with rational polarizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k_flag=True):
        p.add_argument("--g", type=int, default=1, help="half the torus dimension")
        if k_flag:
            p.add_argument("--k", type=int, default=2, help="even quantization level")
        p.add_argument(
            "--lagrangian",
            action="append",
            help="integer generator rows, e.g. '1 0' or '1 0 0 0; 0 1 0 0'",
        )
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("basis", help="adapted integer symplectic basis of a Lagrangian")
    common(p, k_flag=False)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("bks", help="pairing matrix between two polarizations")
    common(p)
    p.add_argument("--lift", type=int, nargs="+", help="lift offsets (with --base)")
    p.add_argument("--base", help="base Lagrangian rows for the lifted pairing")
    p.set_defaults(func=cmd_bks)

    p = sub.add_parser("maslov", help="triple index and pairwise Maslov indices")
    common(p, k_flag=False)
    p.add_argument("--lift", type=int, nargs="+", help="three lift offsets (with --base)")
    p.add_argument("--base", help="base Lagrangian rows for the lifts")
    p.set_defaults(func=cmd_maslov)

    p = sub.add_parser("rep", help="operator of a symplectic/metaplectic generator")
    common(p)
    p.add_argument(
        "--kind",
        choices=("alpha", "beta", "gamma", "epsilon"),
        required=True,
    )
    p.add_argument("--matrix", help="generator parameter matrix (A or B)")
    p.add_argument("--metaplectic", action="store_true", help="apply the z phase")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("verify", help="run the randomized verification suites")
    p.add_argument("--suite", action="append", choices=sorted(SUITES), help="restrict to one suite")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override the floating suites' tolerance (defaults: 1e-9, oracle 1e-12)",
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TorusQuantError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(json.dumps({"error": "ValueError", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
