"""Seeded inputs of the three workloads.

Every generator takes a random.Random, so the same seed gives the same
inputs.  The torus blocks are the catalog's and criterion 02's, and the
twisting elements follow criterion 07 of tests/test_acceptance.py; they are
copied here so that the benchmark does not move when the tests do.
"""

from __future__ import annotations

import json
from fractions import Fraction

import exact

# the 19 groups of criterion 07
P2_GROUPS = ["torus:e", "torus:f", "torus:fe", "torus:fd",
             "so(1,2)", "so(2,3)", "so(3,4)", "sl(2,r)", "sl(3,r)",
             "su(2,0)", "su(1,1)", "sp(4,r)",
             "o(2)", "o(3)", "mu2", "n-sl2-t", "n-sl2-t-compact",
             "gm-affine", "sl2-c2"]

# Non-compact reductive groups of P2_GROUPS: a twist with a real unipotent
# factor can hit the known `conjugator-unavailable` fault on these, so such
# twists come from a fixed seed and are the same in every run.
UNIPOTENT_GROUPS = ["so(1,2)", "so(2,3)", "so(3,4)", "sl(2,r)", "sl(3,r)",
                    "su(1,1)", "sp(4,r)"]
UNIPOTENT_SEED = 7
UNIPOTENT_PER_GROUP = 2
TWISTS_PER_GROUP = 2

# Words of the torus-cli tori: lattice rank 1 to 5, zero to two compact
# factors f, each torus drawn TORI_PER_WORD times with its own rebasing.
# Drawing the words as criterion 02 does makes the op mix (2^f equiv calls
# per torus) and the cost differ so much between seeds that runs do not
# agree; with fixed words the work of a round moves by under 1%.
TORUS_WORDS = ["e", "f", "d", "ed", "ef", "ff", "fd", "dd", "eef", "eff",
               "efd", "ffd", "eefd", "effd"]
TORI_PER_WORD = 2


# -- integer matrices --------------------------------------------------------------


def imul(a: list, b: list) -> list:
    return [[sum(x * b[k][j] for k, x in enumerate(row))
             for j in range(len(b[0]))] for row in a]


def identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def rand_rebasing(rng, n: int) -> tuple:
    """(P, P^-1) for P = S * L: S a random signed permutation, L unit lower
    bidiagonal with random subdiagonal entries +-1.

    Every coordinate is mixed with its neighbour, so no basis matrix stays
    diagonal, and the entries stay small, so the cost of an operation
    depends little on the seed; a long random product of elementary
    matrices makes some inputs far costlier than others."""
    perm = list(range(n))
    rng.shuffle(perm)
    s = [[rng.choice((1, -1)) * int(perm[i] == j) for j in range(n)]
         for i in range(n)]
    c = [rng.choice((1, -1)) for _ in range(n - 1)]
    low = identity(n)
    low_inv = identity(n)
    for i in range(1, n):
        low[i][i - 1] = c[i - 1]
        for j in range(i):
            low_inv[i][j] = -c[i - 1] * low_inv[i - 1][j]
    s_inv = [[s[j][i] for j in range(n)] for i in range(n)]
    return imul(s, low), imul(low_inv, s_inv)


def conjugate(p: tuple, m: list) -> list:
    return imul(imul(p[0], m), p[1])


# -- tori --------------------------------------------------------------------------


BLOCK_TAU = {"e": [[1]], "f": [[-1]], "d": [[0, 1], [1, 0]]}
# letter -> (size, Lie basis blocks, N_sigma block), as in the catalog
TORUS_BLOCKS = {
    "e": (1, [[[1]]], [[1]]),
    "f": (2, [[[0, 1], [-1, 0]]], [[1, 0], [0, 1]]),
    "d": (2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [[0, 1], [1, 0]]),
}


def block_diag(blocks: list) -> list:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return out


def word_tau(word: str) -> list:
    return block_diag([BLOCK_TAU[ch] for ch in word])


def torus_matrices(word: str) -> tuple:
    """(Lie basis, N_sigma) of the torus `word` in block form."""
    sizes = [TORUS_BLOCKS[ch][0] for ch in word]
    basis = []
    for idx, ch in enumerate(word):
        for block in TORUS_BLOCKS[ch][1]:
            blocks = [[[0] * s for _ in range(s)] for s in sizes]
            blocks[idx] = block
            basis.append(block_diag(blocks))
    return basis, block_diag([TORUS_BLOCKS[ch][2] for ch in word])


def fmt(x) -> str:
    """A Gaussian rational in realcoh's element grammar."""
    if hasattr(x, "y"):
        re = Fraction(int(x.x.numerator), int(x.x.denominator))
        im = Fraction(int(x.y.numerator), int(x.y.denominator))
    else:
        re, im = Fraction(x), Fraction(0)
    if im == 0:
        return str(re)
    imag = f"{abs(im)}*i"
    if re == 0:
        return ("-" if im < 0 else "") + imag
    return f"{re}{'-' if im < 0 else '+'}{imag}"


def fmt_mat(m: list) -> list:
    return [[fmt(x) for x in row] for row in m]


def make_torus(rng, word: str, label: str) -> dict:
    """The torus `word` rebased by a random unimodular P, with its data
    written as group JSON and its lattice tau rebased by its own U."""
    basis, nsig = torus_matrices(word)
    n = len(nsig)
    p = rand_rebasing(rng, n)
    tau = word_tau(word)
    u = rand_rebasing(rng, len(tau))
    group = {"kind": "torus", "name": label,
             "lie_basis": [fmt_mat(conjugate(p, m)) for m in basis],
             "N_sigma": fmt_mat(conjugate(p, nsig))}
    return {"word": word, "p": p, "nsigma": conjugate(p, nsig),
            "group_json": json.dumps(group, separators=(",", ":")),
            "tau_json": json.dumps({"tau": conjugate(u, tau)},
                                   separators=(",", ":"))}


def rand_gauss(rng):
    """Random nonzero Gaussian rational, as criterion 07's rand_scalar."""
    return exact.gauss(rng.choice((1, 2, Fraction(1, 2), 3)),
                       rng.randint(-1, 1))


def torus_point(rng, word: str, p: tuple) -> list:
    """A random complex point of the torus `word`, rebased by P."""
    blocks = []
    for ch in word:
        if ch == "e":
            blocks.append([[rand_gauss(rng)]])
        elif ch == "d":
            blocks.append([[rand_gauss(rng), 0], [0, rand_gauss(rng)]])
        else:
            # exp of the rotation generator at lambda: entries
            # (lambda + 1/lambda)/2 and (lambda - 1/lambda)/(2i)
            lam = rand_gauss(rng)
            inv = exact.QQ_I.one / lam
            c = (lam + inv) * exact.gauss(Fraction(1, 2))
            s = (lam - inv) * exact.gauss(0, Fraction(-1, 2))
            blocks.append([[c, s], [-s, c]])
    dm = exact.domain_matrix
    m = dm(exact.matrix(block_diag(blocks)))
    return (dm(exact.matrix(p[0])) * m * dm(exact.matrix(p[1]))).to_list()


def twist(s: list, z: list, nsigma: list) -> list:
    """s^-1 * z * N * conj(s) * N^-1 over the Gaussian rationals."""
    dm = exact.domain_matrix
    nm = dm(exact.matrix(nsigma))
    out = dm(s).inv() * dm(exact.matrix(z)) * nm * dm(exact.conj(s)) * \
        nm.inv()
    return out.to_list()


# -- twisting elements of catalog groups (criterion 07) ------------------------------


def _rand_scalar(tower, rng):
    return (tower.from_rational(rng.choice((1, 2, Fraction(1, 2), 3)))
            + tower.i() * tower.from_rational(rng.randint(-1, 1)))


def _torus_point(pres, rng):
    return pres.lam([_rand_scalar(pres.tower, rng) for _ in range(pres.d)])


def _real_nilpotent(lie_basis, tower, rng):
    """A nonzero nilpotent sum of at most two +-basis matrices (real, since
    the basis is gamma-fixed), or None after 40 draws."""
    from realcoh.linalg import mmul, mscale

    n = len(lie_basis[0])
    zero = tower.zero()
    for _ in range(40):
        m = [[zero] * n for _ in range(n)]
        for b in rng.sample(lie_basis, min(2, len(lie_basis))):
            c = rng.randint(-1, 1)
            if c:
                bm = mscale(tower.from_rational(c), b)
                m = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(m, bm)]
        if any(x != zero for row in m for x in row):
            p = m
            for _ in range(n):
                p = mmul(p, m)
            if all(x == zero for row in p for x in row):
                return m
    return None


def twisting_element(entry, rng, unipotent: bool):
    """A random s in G(C): a torus point, times a real unipotent factor on a
    reductive group when `unipotent`, and the nilpotent or component factor
    of criterion 07 on non-reductive and non-connected groups."""
    from realcoh.liealg import exp_nilpotent
    from realcoh.linalg import meye, mmul, mscale

    tower = entry.tower
    if entry.kind == "torus":
        return _torus_point(entry.group, rng)
    if entry.kind == "reductive":
        s = _torus_point(entry.group.torus, rng)
        if unipotent:
            m = _real_nilpotent(entry.lie_basis, tower, rng)
            if m is None:
                raise ValueError(f"{entry.name} has no real nilpotent")
            a = tower.from_rational(rng.choice((1, -1, 2, Fraction(1, 2))))
            s = mmul(s, exp_nilpotent(mscale(a, m), tower))
        return s
    if entry.kind == "nonreductive":
        g = entry.group
        s = _torus_point(g.reductive.torus, rng)
        u = g.levi.n_basis[rng.randrange(len(g.levi.n_basis))]
        coeff = tower.from_rational(rng.randint(-2, 2)) + \
            tower.i() * tower.from_rational(rng.randint(0, 1))
        return mmul(s, exp_nilpotent(mscale(coeff, u), tower))
    group = entry.group
    if group.mode == "torus":
        s = _torus_point(group.torus, rng)
    elif group.mode == "reductive":
        s = _torus_point(group.reductive.torus, rng)
    else:
        s = meye(tower, group.n)
    return mmul(s, group.component_reps[rng.randrange(
        len(group.component_reps))])
