"""Batch front end: parse group data, dispatch to the right pipeline, and
emit verified reports.

Commands
  h1 INPUT                 class list with explicit verified cocycles
  equiv INPUT --cocycle Z  class index and witness for a given cocycle
  h2-quasitorus INPUT      H^2 of a quasi-torus given by torus + characters
  lattice-decompose INPUT  canonical basis of an integer involution module
  catalog list|emit NAME   shipped group data

INPUT is either `catalog:NAME` or a path to a JSON file using the same
schema the catalog emits: {"kind": torus|reductive|nonreductive|
nonconnected, "lie_basis": [...], "N_sigma": [...], ...} with matrix
entries written in the element grammar (e.g. "1/2+3*i", "sqrt(2)").  The
Cartan decomposition is computed from lie_basis, and a key the schema does
not list is ignored.

Exit codes: 0 success, 2 partial result (blocked classes), 1 error.  All
reports are deterministic: the same input gives the same bytes.  Every
answer is re-verified by an independent identity check before the report
is written, and `"verified": true` appears only when those checks pass.
The checks use their own real structure built from N_sigma, not the group
object's, and form no inverse: a class representative z is checked as
z * N_sigma * conj(z) = N_sigma, and an `equiv` witness s carrying z to the
listed rep as s * rep * N_sigma = z * N_sigma * conj(s) with s of full
rank, which is s^-1 * z * gamma(s) = rep.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog as _catalog
from .catalog import CatalogEntry
from .field import FieldTower, RealcohError, format_element, parse_element
from .lattice import gamma_decompose
from .liealg import _flatten, in_span, rref_rows
from .linalg import RealStructure, minverse, mmul
from .nonconnected import (build_nonconnected, h1_nonconnected,
                           solve_problem2_nonconnected)
from .nonreductive import (build_levi_split, h1_connected,
                           solve_problem2_connected)
from .reductive import (build_reductive, h1_connected_reductive,
                        solve_problem2_reductive)
from .torus import (QuasiTorusDatum, build_presentation,
                    characters_to_lattice_map, h1_torus, h2_quasitorus,
                    sign_patterns, trivialize_cocycle)


class CliError(RealcohError):
    pass


# -- input parsing -----------------------------------------------------------------


def _fmt_mat(mat) -> list:
    return [[format_element(x) for x in row] for row in mat]


def _parse_mat(data, tower: FieldTower, n: int = None) -> list:
    """A square matrix of element strings; n x n when n is given."""
    if not isinstance(data, list) or not data or \
            not all(isinstance(row, list) for row in data):
        raise CliError("bad-matrix", "expected a list of rows")
    size = len(data) if n is None else n
    if len(data) != size or any(len(row) != size for row in data):
        raise CliError("bad-matrix", f"expected a {size}x{size} matrix")
    return [[parse_element(str(x), tower) for x in row] for row in data]


def _parse_mats(data: dict, key: str, tower: FieldTower, n: int) -> list:
    """The n x n matrices listed under key; none when the key is absent."""
    mats = data.get(key)
    if mats is None:
        return []
    if not isinstance(mats, list):
        raise CliError("bad-input", f"{key} must be a list of matrices")
    return [_parse_mat(m, tower, n) for m in mats]


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError("input-unreadable", str(exc))
    except json.JSONDecodeError as exc:
        raise CliError("input-not-json", str(exc))
    except RecursionError:
        raise CliError("input-too-deep", "the JSON nests too deeply")


def _load_object(path: str) -> dict:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise CliError("bad-input", "expected a JSON object")
    return data


def _parse_real(data: dict, tower: FieldTower) -> RealStructure:
    """The real structure given by the matrix N_sigma of a group file."""
    if "N_sigma" not in data:
        raise CliError("bad-input", "missing N_sigma")
    return RealStructure(_parse_mat(data["N_sigma"], tower), tower)


def _build_from_data(data: dict, tower: FieldTower) -> CatalogEntry:
    kind = data.get("kind")
    if kind not in ("torus", "reductive", "nonreductive", "nonconnected"):
        raise CliError("bad-input", f"unknown kind {kind!r}")
    name = data.get("name", "<file>")
    real = _parse_real(data, tower)
    n = len(real.nsigma)
    basis = _parse_mats(data, "lie_basis", tower, n)
    hint = (_parse_mat(data["conjugator_hint"], tower, n)
            if data.get("conjugator_hint") else None)
    if kind == "torus":
        group = build_presentation(basis, real)
    elif kind == "reductive":
        group = build_reductive(basis, real)
    elif kind == "nonreductive":
        group = build_levi_split(basis, real)
    else:
        reps = _parse_mats(data, "component_reps", tower, n)
        group = build_nonconnected(basis, real, reps, data.get("pi0_table"),
                                   data.get("pi0_gamma"),
                                   conjugator_hint=hint)
    return CatalogEntry(name=name, kind=kind, tower=tower, lie_basis=basis,
                        nsigma=real.nsigma, conjugator_hint=hint, group=group)


def load_job(spec: str, tower: FieldTower) -> CatalogEntry:
    """The group of INPUT, a catalog name or a file."""
    if spec.startswith("catalog:"):
        return _catalog.get(spec[len("catalog:"):], tower)
    return _build_from_data(_load_object(spec), tower)


# -- h1 ----------------------------------------------------------------------------


def _h1_report(entry: CatalogEntry) -> tuple:
    """(report dict, exit code); computes, then re-verifies independently."""
    classes = []
    non_lifting = []
    blocked = []
    if entry.kind == "torus":
        res = h1_torus(entry.group)
        for i, (signs, rep) in enumerate(zip(res.sign_patterns,
                                             res.representatives)):
            classes.append({"index": i, "representative": _fmt_mat(rep),
                            "provenance": {"kind": "torus-sign-pattern",
                                           "signs": signs}})
    elif entry.kind in ("reductive", "nonreductive"):
        res = (h1_connected_reductive(entry.group) if entry.kind == "reductive"
               else h1_connected(entry.group))
        for i, (pat, rep) in enumerate(zip(res.class_indices,
                                           res.representatives)):
            classes.append({"index": i, "representative": _fmt_mat(rep),
                            "provenance": {"kind": "weyl-orbit",
                                           "pattern_index": pat}})
    else:
        res = h1_nonconnected(entry.group)
        for i, (prov, rep) in enumerate(zip(res.provenance,
                                            res.representatives)):
            comp, xidx = prov
            classes.append({"index": i, "representative": _fmt_mat(rep),
                            "provenance": {"kind": "component-lift",
                                           "component": comp,
                                           "twisted_index": xidx}})
        non_lifting = list(res.non_lifting)
        blocked = [{"component": c, "code": code} for c, code in res.blocked]

    real = RealStructure(entry.nsigma, entry.tower)
    verified = all(real.is_cocycle(r) for r in res.representatives)
    report = {
        "command": "h1",
        "group": entry.name,
        "kind": entry.kind,
        "order": len(classes),
        "classes": classes,
        "verified": bool(verified),
    }
    if entry.kind == "nonconnected":
        report["non_lifting"] = non_lifting
        report["blocked"] = blocked
    if not verified:
        raise CliError("verification-failed",
                       "a representative failed its cocycle identity")
    return report, (2 if blocked else 0)


def _h1_text(report: dict) -> str:
    lines = [f"group {report['group']} ({report['kind']}): "
             f"{report['order']} classes"]
    for c in report["classes"]:
        prov = c["provenance"]
        if prov["kind"] == "torus-sign-pattern":
            tag = "signs " + "".join("+" if s == 1 else "-"
                                     for s in prov["signs"])
        elif prov["kind"] == "weyl-orbit":
            tag = f"pattern {prov['pattern_index']}"
        else:
            tag = f"component {prov['component']}"
        lines.append(f"  class {c['index']}: {tag}")
    for c in report.get("non_lifting", []):
        lines.append(f"  component {c}: no lift (non-lifting)")
    for b in report.get("blocked", []):
        lines.append(f"  component {b['component']}: blocked "
                     f"({b['code']})")
    lines.append(f"verified: {str(report['verified']).lower()}")
    return "\n".join(lines)


# -- equiv -------------------------------------------------------------------------


def _load_cocycle(path: str, tower: FieldTower, n: int) -> list:
    data = _load_json(path)
    if isinstance(data, dict):
        data = data.get("matrix", data.get("cocycle"))
    if data is None:
        raise CliError("bad-input", "cocycle file must hold a matrix")
    return _parse_mat(data, tower, n)


def _equiv_report(entry: CatalogEntry, z: list) -> dict:
    real = RealStructure(entry.nsigma, entry.tower)
    if not real.is_cocycle(z):
        raise CliError("not-cocycle", "z * gamma(z) != 1")
    # every element of G normalizes Lie(G); the torus solver checks
    # membership itself
    if entry.kind != "torus" and entry.lie_basis:
        span = rref_rows([_flatten(m) for m in entry.lie_basis])
        z_inv = minverse(z, entry.tower)
        if not all(in_span(_flatten(mmul(mmul(z, m), z_inv)), span)
                   for m in entry.lie_basis):
            raise CliError("not-member", "z does not normalize Lie(G)")
    if entry.kind == "torus":
        listed, signs, s = trivialize_cocycle(entry.group, z)
        index = sign_patterns(entry.group.k).index(signs)
    elif entry.kind == "reductive":
        res = h1_connected_reductive(entry.group)
        index, s = solve_problem2_reductive(
            entry.group, z, classes=res,
            conjugator_hint=entry.conjugator_hint)
        listed = res.representatives[index]
    elif entry.kind == "nonreductive":
        res = h1_connected(entry.group)
        index, s = solve_problem2_connected(
            entry.group, z, classes=res,
            conjugator_hint=entry.conjugator_hint)
        listed = res.representatives[index]
    else:
        res = h1_nonconnected(entry.group)
        index, s = solve_problem2_nonconnected(entry.group, z, classes=res)
        listed = res.representatives[index]

    if not real.carries(s, z, listed):
        raise CliError("verification-failed",
                       "witness does not carry z to the listed class")
    return {
        "command": "equiv",
        "group": entry.name,
        "kind": entry.kind,
        "index": index,
        "witness": _fmt_mat(s),
        "representative": _fmt_mat(listed),
        "verified": True,
    }


# -- h2-quasitorus -----------------------------------------------------------------


def _h2_report(spec: str, tower: FieldTower) -> dict:
    data = _load_object(spec)
    real = _parse_real(data, tower)
    basis = _parse_mats(data, "lie_basis", tower, len(real.nsigma))
    chars = data.get("characters")
    if not isinstance(chars, list):
        raise CliError("bad-input", "missing character exponent rows")
    pres = build_presentation(basis, real)
    if not all(isinstance(row, list) and len(row) == pres.d
               and all(type(x) is int for x in row) for row in chars):
        raise CliError("bad-input", "each character must be a list of "
                       f"{pres.d} integer exponents")
    lattice_map, quotient_tau = characters_to_lattice_map(pres, chars)
    datum = QuasiTorusDatum(pres, lattice_map, quotient_tau)
    res = h2_quasitorus(datum)

    # independent re-check: each representative is gamma-fixed and is
    # killed by every defining character
    verified = True
    for rep in res.representatives:
        if not pres.real.fixes(rep):
            verified = False
        coords = pres.lambda_inverse(rep)
        if coords is None:
            verified = False
            continue
        for row in chars:
            val = tower.one()
            for c, e in zip(coords, row):
                val = val * (c ** e)
            if val != 1:
                verified = False
    if not verified:
        raise CliError("verification-failed",
                       "an H^2 representative failed its identities")
    return {
        "command": "h2-quasitorus",
        "order": res.order(),
        "representatives": [_fmt_mat(m) for m in res.representatives],
        "verified": True,
    }


# -- lattice-decompose -------------------------------------------------------------


def _lattice_report(spec: str) -> dict:
    data = _load_json(spec)
    tau = data.get("tau") if isinstance(data, dict) else data
    if not isinstance(tau, list) or not all(
            isinstance(row, list) and len(row) == len(tau)
            and all(type(x) is int for x in row) for row in tau):
        raise CliError("bad-input",
                       "expected a square integer matrix under 'tau'")
    res = gamma_decompose(tau)
    e, f, gh = res.counts
    return {
        "command": "lattice-decompose",
        "counts": {"e": e, "f": f, "gh": gh},
        "e_vectors": res.e_vectors,
        "f_vectors": res.f_vectors,
        "gh_pairs": [[g, h] for g, h in res.gh_pairs],
        "change_of_basis": res.change_of_basis,
        "verified": True,
    }


# -- entry point -------------------------------------------------------------------


def _emit(report: dict, fmt: str, text_renderer=None) -> None:
    if fmt == "text" and text_renderer is not None:
        print(text_renderer(report))
    elif fmt == "text":
        for key, val in report.items():
            print(f"{key}: {val}")
    else:
        print(json.dumps(report, separators=(",", ":"), sort_keys=False))


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="realcoh",
        description="Galois cohomology of real linear algebraic groups")
    parser.add_argument("--format", choices=("json", "text"),
                        default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    p_h1 = sub.add_parser("h1")
    p_h1.add_argument("input")
    p_eq = sub.add_parser("equiv")
    p_eq.add_argument("input")
    p_eq.add_argument("--cocycle", required=True)
    p_h2 = sub.add_parser("h2-quasitorus")
    p_h2.add_argument("input")
    p_ld = sub.add_parser("lattice-decompose")
    p_ld.add_argument("input")
    p_cat = sub.add_parser("catalog")
    p_cat.add_argument("action", choices=("list", "emit"))
    p_cat.add_argument("name", nargs="?")
    return parser


def _run(args) -> int:
    tower = FieldTower()

    if args.command == "catalog":
        if args.action == "list":
            _emit({"command": "catalog", "names": _catalog.list_names()},
                  args.format,
                  lambda r: "\n".join(r["names"]))
            return 0
        if not args.name:
            raise CliError("bad-input", "catalog emit needs a name")
        entry = _catalog.get(args.name, tower)
        print(entry.to_json())
        return 0

    if args.command == "lattice-decompose":
        _emit(_lattice_report(args.input), args.format)
        return 0

    if args.command == "h2-quasitorus":
        _emit(_h2_report(args.input, tower), args.format)
        return 0

    entry = load_job(args.input, tower)

    if args.command == "h1":
        report, code = _h1_report(entry)
        _emit(report, args.format, _h1_text)
        return code

    if args.command == "equiv":
        z = _load_cocycle(args.cocycle, tower, len(entry.nsigma))
        report = _equiv_report(entry, z)
        _emit(report, args.format)
        return 0

    raise CliError("bad-input", f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        return _run(args)
    except RealcohError as exc:
        print(json.dumps({"error": {"code": exc.code,
                                    "message": str(exc)}},
                         separators=(",", ":")))
        return 1


if __name__ == "__main__":
    sys.exit(main())
