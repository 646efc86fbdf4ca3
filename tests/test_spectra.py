import numpy as np
import pytest

from bucklab import (
    MeshError,
    SpectrumRangeError,
    disk_oracle,
    load_mesh,
    make_disk_mesh,
    save_mesh,
    spectra,
    spectrum,
)
from bucklab.spectra import Spectrum, spectrum_to_csv_rows


def test_rect_neumann_values(rect16):
    s = spectrum(rect16, "neumann", 2, order=2)
    assert abs(s.values[0]) < 1e-8
    assert abs(s.values[1] - np.pi**2) / np.pi**2 < 0.002


def test_disk_dirichlet_level3(disk3):
    s = spectrum(disk3, "dirichlet", 3, order=2)
    oracle = disk_oracle("dirichlet", 3)
    assert np.all(np.abs(s.values - oracle.values) / oracle.values < 0.01)


def test_disk_neumann_level3(disk3):
    s = spectrum(disk3, "neumann", 3, order=2)
    oracle = disk_oracle("neumann", 3)
    assert abs(s.values[0]) < 1e-8
    assert np.all(
        np.abs(s.values[1:] - oracle.values[1:]) / oracle.values[1:] < 0.01
    )


def test_disk_buckling_level3(disk3):
    s = spectrum(disk3, "buckling", 3)
    oracle = disk_oracle("buckling", 3)
    assert abs(s.values[0] - oracle.values[0]) / oracle.values[0] < 0.02
    assert np.all(np.abs(s.values[1:] - oracle.values[1:]) / oracle.values[1:] < 0.015)


def test_buckling_above_dirichlet(disk3, rect16):
    for mesh in (disk3, rect16):
        lam1 = spectrum(mesh, "dirichlet", 1, order=2).values[0]
        big = spectrum(mesh, "buckling", 1).values[0]
        assert big > lam1


def test_navier_matches_dirichlet(disk3, rect16):
    nav = spectrum(disk3, "navier", 5)
    dir_ = spectrum(disk3, "dirichlet", 5, order=2)
    assert np.all(np.abs(nav.values - dir_.values) / dir_.values < 0.02)

    nav_r = spectrum(rect16, "navier", 1)
    assert abs(nav_r.values[0] - 2 * np.pi**2) / (2 * np.pi**2) < 0.02


def test_disk_oracle_frozen_values():
    d = disk_oracle("dirichlet", 3)
    np.testing.assert_allclose(
        d.values, [5.783186, 14.681971, 14.681971], atol=5e-6
    )
    n = disk_oracle("neumann", 3)
    np.testing.assert_allclose(n.values, [0.0, 3.389957, 3.389957], atol=5e-6)
    b = disk_oracle("buckling", 3)
    np.testing.assert_allclose(
        b.values, [14.681971, 26.374616, 26.374616], atol=5e-6
    )
    with pytest.raises(SpectrumRangeError):
        disk_oracle("dirichlet", 51)


def test_payne_inequality_on_disk_oracles_and_fem(disk3):
    lam = disk_oracle("dirichlet", 7).values
    big = disk_oracle("buckling", 6).values
    for k in range(1, 6):
        assert big[k - 1] >= lam[k] - 1e-9
    # finite element counterpart within discretization tolerance
    lam_h = spectrum(disk3, "dirichlet", 7, order=2).values
    big_h = spectrum(disk3, "buckling", 6).values
    for k in range(1, 6):
        assert big_h[k - 1] >= lam_h[k] * (1 - 0.02)


def test_domain_monotonicity(disk3, rect16):
    disk_lam1 = spectrum(disk3, "dirichlet", 1, order=2).values[0]
    rect_lam1 = spectrum(rect16, "dirichlet", 1, order=2).values[0]
    assert disk_lam1 < rect_lam1


def test_convergence_rates():
    oracle_d = disk_oracle("dirichlet", 1).values[0]
    errs = []
    for level in (1, 2, 3):
        mesh = make_disk_mesh(1.0, level)
        errs.append(abs(spectrum(mesh, "dirichlet", 1, order=2).values[0] - oracle_d))
    rate = np.log2(errs[1] / errs[2])
    assert rate >= 1.7

    oracle_b = disk_oracle("buckling", 3).values
    errs_b = []
    for level in (1, 2, 3):
        mesh = make_disk_mesh(1.0, level)
        vals = spectrum(mesh, "buckling", 3).values
        errs_b.append(abs(vals[1] - oracle_b[1]))
    rate_b = np.log2(errs_b[1] / errs_b[2])
    assert rate_b >= 1.5


def test_spectrum_csv_rows(disk2):
    s = spectrum(disk2, "dirichlet", 2, order=1)
    rows = spectrum_to_csv_rows(s)
    assert len(rows) == 2
    idx, value, problem, source = rows[0].split(",")
    assert idx == "0"
    assert problem == "dirichlet"
    assert source == disk2.content_hash()
    assert float(value) == s.values[0]


def test_spectrum_validates_ordering():
    with pytest.raises(ValueError):
        Spectrum("dirichlet", np.array([2.0, 1.0]), "x")


def test_result_caches_keyed_on_radius(tmp_path, disk2, monkeypatch):
    # same vertices and triangles, another radius: another boundary
    # curvature, so the reload must not be served the original's pair
    path = tmp_path / "disk.mesh"
    save_mesh(disk2, path)
    original = spectrum(disk2, "navier", 3).values
    reload = load_mesh(path, domain_tag="disk", radius=2.0)
    warm = spectrum(reload, "navier", 3).values
    monkeypatch.setattr(spectra, "_PAIR_CACHE", {})
    monkeypatch.setattr(spectra, "_FULL_CACHE", {})
    cold = spectrum(reload, "navier", 3).values
    assert np.array_equal(warm, cold)
    assert not np.allclose(warm, original)
    with pytest.raises(MeshError):
        load_mesh(path, domain_tag="disk")
