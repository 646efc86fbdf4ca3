"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. Desk scale: everything here finishes in minutes.
"""
import json

import numpy as np
import pytest
import scipy.sparse as sp

from bucklab import (
    bounded_below_check,
    disk_oracle,
    divergence_sweep,
    scan_beta1,
    schur_complement,
    spectrum,
    sym_gen_eigs,
)
from bucklab.cli import main as cli_main
from bucklab.eigen import boundary_last_pencil
from bucklab.errors import FactorCheckError
from bucklab.spectra import get_pair, pencil_eigenvalues

from oracles import inertia, random_symmetric


def _line(num: int, passed: bool, detail: str) -> None:
    print(f"criterion {num:2d} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def disk4_dirichlet(disk4):
    return spectrum(disk4, "dirichlet", 5).values


@pytest.fixture(scope="module")
def disk4_navier(disk4):
    return spectrum(disk4, "navier", 5).values


def test_criterion_1_disk_spectra_vs_bessel_oracles(disk4, disk4_dirichlet):
    lam = disk4_dirichlet
    mu = spectrum(disk4, "neumann", 2).values
    big = spectrum(disk4, "buckling", 1).values
    o_lam = disk_oracle("dirichlet", 3).values
    o_mu = disk_oracle("neumann", 2).values
    o_big = disk_oracle("buckling", 1).values
    checks = [
        abs(lam[0] - o_lam[0]) / o_lam[0] < 0.005,
        abs(lam[1] - o_lam[1]) / o_lam[1] < 0.005,
        abs(lam[2] - o_lam[2]) / o_lam[2] < 0.005,
        abs(mu[1] - o_mu[1]) / o_mu[1] < 0.005,
        abs(big[0] - o_big[0]) / o_big[0] < 0.01,
    ]
    _line(
        1,
        all(checks),
        f"disk level 4: lam1={lam[0]:.6f} (oracle {o_lam[0]:.6f}), "
        f"lam2=lam3={lam[1]:.6f} (oracle {o_lam[1]:.6f}), "
        f"mu2={mu[1]:.6f} (oracle {o_mu[1]:.6f}), "
        f"Lambda1={big[0]:.6f} (oracle {o_big[0]:.6f})",
    )


def test_criterion_2_navier_equals_dirichlet(disk4, rect16, disk4_dirichlet, disk4_navier):
    rel_disk = np.abs(disk4_navier - disk4_dirichlet) / disk4_dirichlet
    nav_r = spectrum(rect16, "navier", 5).values
    dir_r = spectrum(rect16, "dirichlet", 5).values
    rel_rect = np.abs(nav_r - dir_r) / dir_r
    ok = bool(np.all(rel_disk < 0.02) and np.all(rel_rect < 0.02))
    _line(
        2,
        ok,
        "first 5 simply-supported vs Dirichlet values: "
        f"disk max rel diff {rel_disk.max():.2e}, "
        f"rectangle max rel diff {rel_rect.max():.2e} (tol 2e-2)",
    )


def _run_identity_scan(tmp_path, domain_args, kind, lmin, lmax):
    args = [
        "identity-scan", "--kind", kind, "--lmin", str(lmin), "--lmax", str(lmax),
        "--points", "20", "--run-root", str(tmp_path / "runs"),
    ] + domain_args
    assert cli_main(args) == 0
    run_dir = sorted((tmp_path / "runs").glob("*identity-scan*"))[-1]
    rows = (run_dir / "identities.csv").read_text().splitlines()[1:]
    skips = (run_dir / "skips.csv").exists()
    # no sparse factor failed a check: a failed check is a skip, never a second answer
    assert json.loads((run_dir / "manifest.json").read_text())["solver"]["check_failed"] == 0
    holds, exact = [], []
    for row in rows:
        lam, neg, lhs, rhs, holds_s, margin, nudged = row.split(",")
        holds.append(holds_s == "true")
        exact.append(int(neg) == int(lhs) - int(rhs))
    return rows, holds, exact, skips


@pytest.mark.parametrize("kind,lmin,lmax,num", [
    ("friedlander", 0.5, 40.0, 3),
    ("liu", 1.0, 60.0, 4),
])
def test_criteria_3_4_identity_scans(tmp_path, kind, lmin, lmax, num, disk3, rect16):
    all_ok = True
    details = []
    for label, domain_args in (
        ("disk level 3", ["--domain", "disk", "--refine", "3"]),
        ("rectangle 16x16", ["--domain", "rectangle", "--nx", "16", "--ny", "16"]),
    ):
        rows, holds, exact, skips = _run_identity_scan(
            tmp_path, domain_args, kind, lmin, lmax
        )
        ok = len(rows) == 20 and all(holds) and all(exact) and not skips
        all_ok &= ok
        details.append(f"{label}: {sum(holds)}/20 hold, skips={skips}")
    _line(num, all_ok, f"{kind} identity exact; " + "; ".join(details))


def test_criterion_5_trace_operator_sign(disk3):
    nav1 = float(pencil_eigenvalues(disk3, "navier", upto=0.0)[0])
    buck1 = float(pencil_eigenvalues(disk3, "buckling", upto=0.0)[0])
    below = np.linspace(0.4, nav1 * 0.92, 5)
    between = np.linspace(nav1 * 1.08, buck1 * 0.95, 5)
    res = scan_beta1(disk3, np.concatenate([below, between]))
    betas = [r["beta1"] for r in res.records]
    ok = (
        len(betas) == 10
        and all(b > 0 for b in betas[:5])
        and all(b < 0 for b in betas[5:])
    )
    _line(
        5,
        ok,
        f"beta1 > 0 on 5 points below lambda1_h={nav1:.4f}, "
        f"beta1 < 0 on 5 points in (lambda1_h, Lambda1_h={buck1:.4f}); "
        f"values {['%.3g' % b for b in betas]}",
    )


def test_criterion_6_divergence(disk4):
    pair = get_pair(disk4, "morley")
    report = divergence_sweep(pair, 20.0, [1e-1, 1e-2, 1e-3, 1e-4])
    slope_ok = abs(report.fitted_slope + 2.0) <= 0.15
    last = report.samples[-1]
    num_ok = abs(last.numerator - report.alpha) <= 1e-3 * abs(report.alpha)
    alpha_ok = abs(report.alpha - report.alpha_pencil) <= 1e-10
    _line(
        6,
        slope_ok and num_ok and alpha_ok and not report.anomaly,
        f"slope={report.fitted_slope:.4f} (need -2 +/- 0.15), "
        f"numerator(1e-4)={last.numerator:.8f} vs alpha={report.alpha:.8f}, "
        f"two-way alpha gap={abs(report.alpha - report.alpha_pencil):.2e}",
    )


def test_criterion_7_bounded_below(disk3):
    pair = get_pair(disk3, "morley")
    report = bounded_below_check(pair, 2.0, 200)
    ok = (
        report.passed
        and report.beta1 > 0
        and report.min_quotient >= report.beta1 - 1e-8 * abs(report.beta1)
        and report.interior_residual <= 1e-6
    )
    _line(
        7,
        ok,
        f"200 trial quotients >= beta1(2)={report.beta1:.6f} "
        f"(min {report.min_quotient:.6f}); lifted minimizer interior "
        f"residual {report.interior_residual:.2e} <= 1e-6",
    )


@pytest.fixture(scope="module")
def spherecap_rows(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("caprun")
    args = [
        "spherecap", "--eps-list", "0.4,0.2,0.1,0.05",
        "--run-root", str(tmp / "runs"),
    ]
    assert cli_main(args) == 0
    run_dir = sorted((tmp / "runs").glob("*spherecap*"))[-1]
    header, *rows = (run_dir / "spherecap.csv").read_text().splitlines()
    assert header == (
        "eps,lambda1,lambda2,mu2,Lambda1,friedlander_fails,payne_fails,"
        "resolution_warning"
    )
    parsed = []
    for row in rows:
        eps, l1, l2, mu2, big1, ff, pf, warn = row.split(",")
        parsed.append(
            {
                "eps": float(eps),
                "lambda1": float(l1),
                "lambda2": float(l2),
                "mu2": float(mu2),
                "Lambda1": float(big1),
                "friedlander_fails": ff == "true",
                "payne_fails": pf == "true",
                "resolution_warning": warn == "true",
            }
        )
    return parsed


def test_criterion_8_sphere_cap_failure(spherecap_rows):
    small = [r for r in spherecap_rows if r["eps"] <= 0.1]
    ok = (
        len(spherecap_rows) == 4
        and all(r["friedlander_fails"] for r in small)
        and all(r["lambda1"] < r["mu2"] for r in small)
        and all(abs(r["mu2"] - 2.0) / 2.0 < 0.02 for r in small)
        and not any(r["resolution_warning"] for r in spherecap_rows)
    )
    detail = ", ".join(
        f"eps={r['eps']}: lambda1={r['lambda1']:.4f} mu2={r['mu2']:.4f}"
        for r in spherecap_rows
    )
    _line(8, ok, "lambda1 < mu2 for eps <= 0.1, mu2 within 2% of 2, "
          "all rows mesh-Cauchy; " + detail)


def test_criterion_9_buckling_column_probe(spherecap_rows):
    ok = (
        all(np.isfinite(r["Lambda1"]) for r in spherecap_rows)
        and all(isinstance(r["payne_fails"], bool) for r in spherecap_rows)
        and not any(r["resolution_warning"] for r in spherecap_rows)
    )
    detail = ", ".join(
        f"eps={r['eps']}: Lambda1={r['Lambda1']:.5f} payne_fails={r['payne_fails']}"
        for r in spherecap_rows
    )
    _line(9, ok, "Lambda1 column mesh-Cauchy, payne_fails recorded "
          "(no asserted value); " + detail)


def test_criterion_10_linear_algebra_kernel():
    rng = np.random.default_rng(7)
    haynsworth_ok = True
    tested = 0
    while tested < 20:
        n = int(rng.integers(8, 40))
        q = random_symmetric(n, rng)
        split = int(rng.integers(1, n))
        perm = rng.permutation(n)
        try:
            pencil = boundary_last_pencil(q, sp.csc_array(q.shape), perm[:split], perm[split:])
            s = schur_complement(pencil.at(0.0)).matrix
        except FactorCheckError:
            continue
        tested += 1
        full = inertia(q)
        parts = inertia(q[np.ix_(perm[:split], perm[:split])])
        rest = inertia(s)
        haynsworth_ok &= (
            full.n_neg == parts.n_neg + rest.n_neg
            and full.n_pos == parts.n_pos + rest.n_pos
        )
    a = random_symmetric(100, rng)
    w, _ = sym_gen_eigs(a, np.eye(100), 100)
    agr = inertia(a).n_neg == int(np.sum(w < 0))
    _line(
        10,
        haynsworth_ok and agr,
        "Haynsworth additivity exact on 20 random symmetric matrices; "
        "inertia matches eigensolver negative count on 100x100",
    )
