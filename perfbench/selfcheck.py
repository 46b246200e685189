"""Tests of the benchmark's own checkers: each accepts dirmat's answer and
rejects the same answer with one fault put in.

    python3 perfbench/selfcheck.py
"""

import itertools
import random
import unittest
from fractions import Fraction

import run

run.import_program()

import checkers  # noqa: E402
import workloads  # noqa: E402
from dirmat import circular, dirichlet, electrical, families  # noqa: E402
from dirmat.network import EH  # noqa: E402


class RankChecker(unittest.TestCase):
    def test_matches_every_subset_of_small_networks(self):
        for net in (families.wheatstone(), families.star(3), families.sunflower(3)):
            matroid = dirichlet.dirichlet_matroid(net)
            ground = matroid.ground
            for mask in range(1 << len(ground)):
                labels = [e for i, e in enumerate(ground) if mask >> i & 1]
                checkers.check_rank(net, labels, matroid.rank(labels))

    def test_rejects_rank_off_by_one(self):
        net = families.parse_generator(workloads.ORACLE_SMALL[0])
        matroid = dirichlet.dirichlet_matroid(net)
        rng = random.Random(0)
        for kind in ("free", "eh", "cross"):
            labels = workloads._subset(rng, net, kind)
            rank = matroid.rank(labels)
            checkers.check_rank(net, labels, rank)
            for wrong in (rank - 1, rank + 1):
                with self.assertRaises(checkers.CheckFailed):
                    checkers.check_rank(net, labels, wrong)


class CoverChecker(unittest.TestCase):
    def setUp(self):
        self.net = families.sunflower(4)
        self.dual = circular.dual_network(self.net)
        self.target = next(z for z in dirichlet.network_cocircuits(self.net)
                           if EH in z and len(z) == 8)
        self.answer = circular.min_circuit_cover(self.net, self.target)

    def check(self, answer):
        checkers.check_cover(self.net, self.dual, self.target, answer, brute_limit=11)

    def test_accepts_the_answer(self):
        self.check(self.answer)

    def test_rejects_a_cover_missing_one_element(self):
        gone = min(self.target)
        cover = tuple(c - {gone} for c in self.answer["cover"])
        with self.assertRaises(checkers.CheckFailed):
            self.check(dict(self.answer, cover=cover))

    def test_rejects_a_non_circuit(self):
        first, *rest = self.answer["cover"]
        extra = next(e for e in self.target if e not in first)
        with self.assertRaises(checkers.CheckFailed):
            self.check(dict(self.answer, cover=(first | {extra}, *rest)))

    def test_rejects_a_cover_that_is_not_minimum(self):
        pool = checkers.circuits_within(self.dual, self.target)
        bigger = next(combo for combo in itertools.combinations(pool, self.answer["size"] + 1)
                      if frozenset().union(*combo) == self.target)
        with self.assertRaises(checkers.CheckFailed):
            self.check(dict(self.answer, size=len(bigger), cover=bigger))

    def test_pinned_cover_sizes(self):
        for name, insulator, k in workloads.PINNED:
            net = families.sunflower(5) if name == "sunflower(5)" else families.double_sunflower(6)
            target = insulator | {EH}
            answer = circular.min_circuit_cover(net, target)
            checkers.check_cover(net, circular.dual_network(net), target, answer, 0, k)
            with self.assertRaises(checkers.CheckFailed):
                checkers.check_cover(net, circular.dual_network(net), target, answer, 0, k + 1)


class ElectricalChecker(unittest.TestCase):
    def setUp(self):
        self.net = families.hexwheel(4)
        rng = random.Random(3)
        self.base = workloads._point(rng, self.net.edge_order, positive=False)
        self.direction = workloads._point(rng, self.net.edge_order, positive=True)

    def test_values_match_the_schur_route(self):
        x = workloads._point(random.Random(5), self.net.edge_order, positive=True)
        p0, p1 = checkers.grove_values(self.net, x)
        lam = electrical.response(self.net, x)
        self.assertEqual(p0, lam.det_interior)
        self.assertEqual(2 * p1, lam.trace() * p0)

    def test_rejects_a_changed_line_coefficient(self):
        rep = electrical.interlacing(self.net, self.base, self.direction)
        p0, p1 = list(rep["P0"].coeffs), list(rep["P1"].coeffs)
        checkers.check_line(self.net, self.base, self.direction, p0, p1)
        for which in (0, 1):
            for i in range(len((p0, p1)[which])):
                bad = [list(p0), list(p1)]
                bad[which][i] += Fraction(1, 3)
                with self.assertRaises(checkers.CheckFailed):
                    checkers.check_line(self.net, self.base, self.direction, *bad)

    def test_rejects_a_changed_rayleigh_minimum(self):
        answer = electrical.hpp_sample(self.net, trials=1, seed=7)
        checkers.check_rayleigh_witness(self.net, answer)
        with self.assertRaises(checkers.CheckFailed):
            checkers.check_rayleigh_witness(self.net, dict(answer, min=answer["min"] + 1))


if __name__ == "__main__":
    unittest.main()
