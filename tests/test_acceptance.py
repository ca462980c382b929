"""Acceptance criteria, one test per criterion.

Each test runs the corresponding verification suite at its pinned case count
and tolerance (desk scale: g in {1, 2}, k in {2, 4}) and prints a one line
pass/fail summary.
"""

from torusquant.verify import (
    suite_corrected,
    suite_counting,
    suite_gauss,
    suite_heisenberg,
    suite_mp,
    suite_mu,
    suite_oracle,
    suite_tau,
    suite_triple,
    suite_unitarity,
)

SEED = 2024


def check(number, name, report):
    status = "PASS" if report.failures == 0 else "FAIL"
    print(
        f"ACCEPTANCE {number:>2} {name}: {status} "
        f"({report.cases} cases, max_error {report.max_error:.3e}, "
        f"tolerance {report.tolerance:.0e})"
    )
    assert report.failures == 0, f"{name}: {report.failures} case(s) out of tolerance"


def test_criterion_01_unitarity():
    # 200 random mixed pairs; ||M M* - I||_max <= 1e-9 in every case
    check(1, "unitarity", suite_unitarity(SEED, tolerance=1e-9, cases=200))


def test_criterion_02_projective_transitivity():
    # 100 random triples; composition is c I with off-diagonal <= 1e-9 and
    # arg c = -(pi/4) tau to 1e-9, tau from the independent signature route
    check(2, "projective transitivity", suite_triple(SEED, tolerance=1e-9, cases=100))


def test_criterion_03_corrected_transitivity():
    # 100 random lifted triples; corrected compositions equal I to 1e-9
    check(3, "corrected transitivity", suite_corrected(SEED, tolerance=1e-9, cases=100))


def test_criterion_04_closed_form_vs_oracle():
    # closed forms against the defining pairing sums, entrywise 1e-12,
    # all g = 1 transverse pairs with small pairing determinant plus random
    # g = 2 pairs of both transversality classes
    check(4, "closed form vs oracle", suite_oracle(SEED, tolerance=1e-12))


def test_criterion_05_gauss_reciprocity():
    # 100 random (Q, a, w) with g <= 3; |lhs - rhs| <= 1e-9
    check(5, "Gauss reciprocity", suite_gauss(SEED, tolerance=1e-9, cases=100))


def test_criterion_06_triple_index_axioms():
    # invariance, antisymmetry, cocycle, parity, transverse agreement; exact
    check(6, "triple index axioms", suite_tau(SEED, cases=200))


def test_criterion_07_maslov_coboundary():
    # exact mod-2q identity for q in {1, 2, 4}, 100 random instances
    check(7, "Maslov coboundary", suite_mu(SEED, cases=100))


def test_criterion_08_heisenberg():
    # generator relations and intertwining to 1e-9; trivial commutant at g=1
    check(8, "Heisenberg suite", suite_heisenberg(SEED, tolerance=1e-9))


def test_criterion_09_sp_cocycle_and_mp():
    # projective cocycle phase, metaplectic multiplicativity on words of
    # length <= 4, pinned g = 1 matrices and modular relations
    check(9, "Sp cocycle / Mp representation", suite_mp(SEED, tolerance=1e-9))


def test_criterion_10_counting():
    # k^g labels; intersection counts equal |det| and match the brute-force
    # congruence enumeration for g = 1
    check(10, "Bohr-Sommerfeld counting", suite_counting(SEED))
