"""The three workloads: set-up, and the operations of one round.

A round is a list of Op.  Every run attempts whole rounds, so the share of
operations that fail is the same in every run.  An Op's `run` is the timed
call into realcoh; its `check` is the untimed oracle.  Ops marked
`known_fault` may fail with one of KNOWN_FAULT_CODES and are then counted as
failed; any other failure, and any wrong answer, makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import oracles

# the `realcoh equiv` fault recorded in CHANGES.md
KNOWN_FAULT_CODES = ("conjugator-unavailable", "factor-degree-exceeded")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    known_fault: bool = False


def call_cli(argv: list) -> tuple:
    """realcoh.cli.main in process, stdout captured: (exit code, stdout)."""
    from realcoh import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class H1Catalog:
    """`realcoh h1 catalog:NAME` for every catalog name, in catalog order.

    The inputs do not depend on the seed: the catalog is the input, and a
    seeded order would let sympy's process-wide cache, warmed by whichever
    group came first, move the times of the others."""

    name = "h1-catalog"

    def __init__(self, seed: int, workdir: Path):
        pass

    def setup(self):
        from realcoh import catalog

        names = catalog.list_names()
        if sorted(names) != sorted(oracles.ORDERS):
            raise RuntimeError("catalog names differ from the order table")
        self.names = names
        call_cli(["h1", "catalog:torus:fe"])

    def verify_setup(self):
        pass

    def round_ops(self) -> list:
        return [self._op(name) for name in self.names]

    def _op(self, name: str) -> Op:
        def check(result):
            report = oracles.cli_report(*result)
            oracles.check_h1_report(report, oracles.nsigma_of(name),
                                    oracles.ORDERS[name][0])

        return Op(name, lambda: call_cli(["h1", f"catalog:{name}"]), check)


class EquivStream:
    """Problem 2 through the library on the groups of criterion 07: every
    listed representative, fixed unipotent twists, and seeded twists."""

    name = "equiv-stream"

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)

    def setup(self):
        from realcoh import catalog
        from realcoh.field import FieldTower

        self.groups = {}
        for name in inputs.P2_GROUPS:
            entry = catalog.get(name, FieldTower())
            self.groups[name] = (entry, self._class_list(entry))
        fixed = random.Random(inputs.UNIPOTENT_SEED)
        self.fixed = [self._twist(name, fixed, unipotent=True)
                      for name in inputs.UNIPOTENT_GROUPS
                      for _ in range(inputs.UNIPOTENT_PER_GROUP)]
        entry, classes = self.groups["torus:fe"]
        self._solve(entry, classes, classes.representatives[0])

    def verify_setup(self):
        for name, (entry, classes) in self.groups.items():
            reps = classes.representatives
            if len(reps) != oracles.ORDERS[name][0]:
                raise oracles.OracleError(f"{name}: {len(reps)} classes")
            for z in reps:
                oracles.check_cocycle(z, oracles.nsigma_of(name))

    @staticmethod
    def _class_list(entry):
        from realcoh import nonconnected, nonreductive, reductive, torus

        if entry.kind == "torus":
            return torus.h1_torus(entry.group)
        if entry.kind == "reductive":
            return reductive.h1_connected_reductive(entry.group)
        if entry.kind == "nonreductive":
            return nonreductive.h1_connected(entry.group)
        return nonconnected.h1_nonconnected(entry.group)

    @staticmethod
    def _solve(entry, classes, z):
        """The public solver `realcoh equiv` uses, with no conjugator hint."""
        from realcoh import nonconnected, nonreductive, reductive, torus

        if entry.kind == "torus":
            _, signs, s = torus.trivialize_cocycle(entry.group, z)
            return classes.sign_patterns.index(signs), s
        if entry.kind == "reductive":
            return reductive.solve_problem2_reductive(entry.group, z,
                                                      classes=classes)
        if entry.kind == "nonreductive":
            return nonreductive.solve_problem2_connected(entry.group, z,
                                                         classes=classes)
        return nonconnected.solve_problem2_nonconnected(entry.group, z,
                                                        classes=classes)

    def _twist(self, name: str, rng, unipotent: bool) -> tuple:
        """(name, j, s^-1 * z_j * gamma(s)) for a random listed class j."""
        from realcoh.linalg import mconj, minverse, mmul

        entry, classes = self.groups[name]
        reps = classes.representatives
        j = rng.randrange(len(reps))
        s = inputs.twisting_element(entry, rng, unipotent)
        tower = entry.tower
        gamma_s = mmul(mmul(entry.nsigma, mconj(s)),
                       minverse(entry.nsigma, tower))
        return name, j, mmul(mmul(minverse(s, tower), reps[j]), gamma_s)

    def _op(self, label: str, name: str, j: int, z, known_fault=False) -> Op:
        entry, classes = self.groups[name]
        nsigma = oracles.nsigma_of(name)

        def check(result):
            index, h = result
            oracles.check_index(index, j)
            oracles.check_witness(h, z, classes.representatives[j], nsigma)

        return Op(f"{label}:{name}",
                  lambda: self._solve(entry, classes, z), check, known_fault)

    def round_ops(self) -> list:
        ops = []
        for name in inputs.P2_GROUPS:
            reps = self.groups[name][1].representatives
            ops += [self._op("rep", name, j, z) for j, z in enumerate(reps)]
            ops += [self._op("twist", *self._twist(name, self.rng, False))
                    for _ in range(inputs.TWISTS_PER_GROUP)]
        ops += [self._op("unipotent", *t, known_fault=True)
                for t in self.fixed]
        return ops


class TorusCli:
    """`realcoh h1`, `equiv` and `lattice-decompose` on files holding the
    tori of inputs.TORUS_WORDS, each rebased by a random unimodular
    matrix."""

    name = "torus-cli"

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.tori = []
        words = inputs.TORUS_WORDS * inputs.TORI_PER_WORD
        for i, word in enumerate(words):
            t = inputs.make_torus(self.rng, word, f"torus-{i}")
            t["group"] = self.workdir / f"torus-{i}.json"
            t["tau"] = self.workdir / f"tau-{i}.json"
            t["group"].write_text(t["group_json"])
            t["tau"].write_text(t["tau_json"])
            # listed classes, to twist; the h1 ops check them
            rc, out = call_cli(["h1", str(t["group"])])
            reps = [c["representative"]
                    for c in oracles.cli_report(rc, out)["classes"]]
            t["reps"], t["cocycles"] = reps, []
            for j, z in enumerate(reps):
                s = inputs.torus_point(self.rng, t["word"], t["p"])
                zt = inputs.twist(s, z, t["nsigma"])
                path = self.workdir / f"cocycle-{i}-{j}.json"
                path.write_text(json.dumps(
                    {"matrix": inputs.fmt_mat(zt)}, separators=(",", ":")))
                t["cocycles"].append((path, zt))
            self.tori.append(t)

    def verify_setup(self):
        pass

    def round_ops(self) -> list:
        ops = []
        for t in self.tori:
            ops.append(self._h1(t))
            ops += [self._equiv(t, j) for j in range(len(t["reps"]))]
            ops.append(self._lattice(t))
        return ops

    def _h1(self, t) -> Op:
        def check(result):
            report = oracles.cli_report(*result)
            oracles.check_h1_report(report, t["nsigma"],
                                    oracles.torus_order(t["word"]))

        return Op(f"h1:{t['word']}",
                  lambda: call_cli(["h1", str(t["group"])]), check)

    def _equiv(self, t, j: int) -> Op:
        path, zt = t["cocycles"][j]

        def check(result):
            report = oracles.cli_report(*result)
            oracles.check_index(report["index"], j)
            rep = report["representative"]
            if not inputs.exact.products_equal(
                    [inputs.exact.matrix(rep)],
                    [inputs.exact.matrix(t["reps"][j])]):
                raise oracles.OracleError("representative is not class j")
            oracles.check_witness(report["witness"], zt, rep, t["nsigma"])

        return Op(f"equiv:{t['word']}",
                  lambda: call_cli(["equiv", str(t["group"]),
                                    "--cocycle", str(path)]), check)

    def _lattice(self, t) -> Op:
        def check(result):
            report = oracles.cli_report(*result)
            oracles.check_lattice_counts(t["word"], report["counts"])

        return Op(f"lattice:{t['word']}",
                  lambda: call_cli(["lattice-decompose", str(t["tau"])]),
                  check)


WORKLOADS = {w.name: w for w in (H1Catalog, EquivStream, TorusCli)}
