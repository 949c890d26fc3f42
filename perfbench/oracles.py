"""Independent checks of realcoh's answers.

Class counts come from the closed forms below, each with its reason; cocycle
and witness identities are recomputed with `exact` (sympy / mpmath), never
with realcoh's arithmetic.  The real structure of each catalog group is the
benchmark's own copy of its N_sigma, so a check does not trust the group data
the program built either.  Every check raises OracleError on a wrong answer.
"""

from __future__ import annotations

import json

import exact
import inputs


class OracleError(Exception):
    pass


# -- class counts ------------------------------------------------------------------

# name -> (|H^1(R, G)|, reason).  Tori: H^1 = (Z/2)^(number of compact
# norm-one factors f), since split factors (Hilbert 90) and Weil restrictions
# (Shapiro) contribute nothing.
ORDERS = {
    "torus:e": (1, "split torus: H^1(R, G_m) = 1 (Hilbert 90); 2^0"),
    "torus:f": (2, "norm-one torus S^1: H^1 = R*/N(C*) = Z/2; 2^1"),
    "torus:d": (1, "Weil restriction of G_m: H^1 = 1 (Shapiro); 2^0"),
    "torus:fe": (2, "product of S^1 and G_m; 2^1"),
    "torus:fd": (2, "product of S^1 and R_{C/R} G_m; 2^1"),
    "torus:fed": (2, "product of S^1, G_m and R_{C/R} G_m; 2^1"),
    "so(1,2)": (2, "ceil((p+q)/2): forms of dimension p+q and the same "
                   "discriminant, signatures (p',q') with q' = q mod 2"),
    "so(2,3)": (3, "ceil((p+q)/2), as for so(1,2)"),
    "so(3,4)": (4, "ceil((p+q)/2), as for so(1,2)"),
    "so(4,5)": (5, "ceil((p+q)/2), as for so(1,2)"),
    "sl(2,r)": (1, "H^1(R, SL_n) = 1 (Hilbert 90 for SL_n)"),
    "sl(3,r)": (1, "H^1(R, SL_n) = 1"),
    "sl(4,r)": (1, "H^1(R, SL_n) = 1"),
    "su(2,0)": (2, "hermitian forms of rank p+q with the discriminant of the "
                   "standard one: signatures (n-b, b), b = q mod 2; "
                   "b in {0,2}"),
    "su(1,1)": (1, "hermitian forms as for su(2,0); b in {1}"),
    "su(3,0)": (2, "hermitian forms as for su(2,0); b in {0,2}"),
    "su(2,1)": (2, "hermitian forms as for su(2,0); b in {1,3}"),
    "sp(4,r)": (1, "H^1(R, Sp_2n) = 1 (symplectic forms are unique)"),
    "o(2)": (3, "H^1(R, O_n) = quadratic forms of dimension n: n+1 "
                "signatures"),
    "o(3)": (4, "H^1(R, O_n): n+1 signatures"),
    "mu2": (2, "H^1(R, mu_2) = R*/R*^2 = Z/2"),
    "n-sl2-t": (2, "normalizer of the split torus of SL_2: the split torus "
                   "gives the trivial class; over the other component "
                   "[[0,i],[i,0]] lifts, and the twisted component group "
                   "fuses the two classes of its compact twisted torus"),
    "n-sl2-t-compact": (2, "normalizer of the torus of SU_2: the compact "
                           "torus gives {1, -1}, both fixed by the real "
                           "point w; no n = [[0,a],[-1/a,0]] has "
                           "n*gamma(n) = 1, which would need -|a|^2 = 1"),
    "gm-affine": (1, "G_m acting on G_a: the unipotent radical does not "
                     "change H^1 (Sansuc), and H^1(R, G_m) = 1"),
    "sl2-c2": (1, "SL_2 acting on C^2: H^1 = H^1(R, SL_2) = 1 (Sansuc)"),
}


def torus_order(word: str) -> int:
    return 2 ** word.count("f")


def check_lattice_counts(word: str, counts: dict) -> None:
    want = {"e": word.count("e"), "f": word.count("f"), "gh": word.count("d")}
    if counts != want:
        raise OracleError(f"lattice {word}: counts {counts}, expected {want}")


def check_index(index, want: int) -> None:
    if index != want:
        raise OracleError(f"class index {index}, expected {want}")


# -- real structures ---------------------------------------------------------------


def nsigma_of(name: str) -> list:
    """Integer N_sigma with gamma(g) = N_sigma * conj(g) * N_sigma^-1."""
    if name.startswith("torus:"):
        return inputs.torus_matrices(name[6:])[1]
    if name.startswith("so("):
        p, q = name[3:-1].split(",")
        return inputs.identity(int(p) + int(q))
    if name.startswith("sl("):
        return inputs.identity(int(name[3:name.index(",")]))
    if name.startswith("su("):
        p, q = (int(x) for x in name[3:-1].split(","))
        n = p + q
        sign = [1] * p + [-1] * q
        out = [[0] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            out[i][n + i] = sign[i]
            out[n + i][i] = sign[i]
        return out
    if name == "n-sl2-t-compact":
        return [[0, 1], [-1, 0]]
    sizes = {"sp(4,r)": 4, "o(2)": 2, "o(3)": 3, "mu2": 1, "n-sl2-t": 2,
             "gm-affine": 2, "sl2-c2": 3}
    return inputs.identity(sizes[name])


# -- identities --------------------------------------------------------------------


def check_cocycle(z, nsigma) -> None:
    """z * gamma(z) = 1, checked as z * N * conj(z) = N."""
    z, n = exact.matrix(z), exact.matrix(nsigma)
    if len(z) != len(n) or not exact.products_equal([z, n, exact.conj(z)],
                                                    [n]):
        raise OracleError("z * gamma(z) != 1")


def check_witness(h, z, rep, nsigma) -> None:
    """h^-1 * z * gamma(h) = rep, checked as z * N * conj(h) = h * rep * N
    with h invertible."""
    h, z, rep, n = (exact.matrix(m) for m in (h, z, rep, nsigma))
    if len(h) != len(n) or not exact.invertible(h):
        raise OracleError("witness is not invertible")
    if not exact.products_equal([z, n, exact.conj(h)], [h, rep, n]):
        raise OracleError("h^-1 * z * gamma(h) != representative")


# -- CLI reports -------------------------------------------------------------------


def cli_report(rc: int, out: str) -> dict:
    """The JSON report of a successful CLI call."""
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        raise OracleError(f"exit code {rc}: {out.strip()[:200]}")
    report = json.loads(lines[-1])
    if report.get("verified") is not True:
        raise OracleError("report not marked verified")
    return report


def check_h1_report(report: dict, nsigma, want_order: int) -> None:
    classes = report["classes"]
    if report["order"] != want_order or len(classes) != want_order:
        raise OracleError(f"{report.get('group')}: {report['order']} "
                          f"classes, expected {want_order}")
    for c in classes:
        check_cocycle(c["representative"], nsigma)
