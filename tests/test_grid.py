import numpy as np
import pytest

from gphier import make_grid, phase_weights, sobolev_weights, transform


def test_wavenumbers_m8_l2pi():
    g = make_grid(1, 8, 2 * np.pi)
    assert g.h == pytest.approx(np.pi / 4)
    np.testing.assert_allclose(g.wavenumbers, [0, 1, 2, 3, 4, -3, -2, -1])


def test_wavenumbers_m4_l1():
    g = make_grid(1, 4, 1.0)
    np.testing.assert_allclose(g.wavenumbers, [0, 2 * np.pi, 4 * np.pi, -2 * np.pi])


def test_exactly_one_zero_mode_and_nyquist():
    for M in (4, 6, 8, 12):
        g = make_grid(1, M, 2.5)
        assert np.count_nonzero(g.wavenumbers == 0) == 1
        assert g.wavenumbers.max() == pytest.approx(np.pi * M / 2.5)
        assert g.h * g.M == pytest.approx(2.5)


@pytest.mark.parametrize(
    "d,M,L",
    [(1, 7, 1.0), (1, 2, 1.0), (1, 8, 0.0), (1, 8, -1.0), (0, 8, 1.0), (1, 8, np.inf), (1, 8, np.nan)],
)
def test_make_grid_rejects(d, M, L):
    with pytest.raises(ValueError):
        make_grid(d, M, L)


def test_forward_of_constant_concentrates_on_zero_mode():
    g = make_grid(1, 8, 2 * np.pi)
    hat = transform(np.ones(8, dtype=complex), [0], "forward", M=8)
    assert hat[0] == pytest.approx(np.sqrt(8))
    assert np.max(np.abs(hat[1:])) < 1e-14


def test_single_mode_concentration():
    g = make_grid(1, 8, 2 * np.pi)
    field = np.exp(1j * g.wavenumbers[1] * g.points)
    hat = transform(field, [0], "forward")
    expected = np.zeros(8, dtype=complex)
    expected[1] = np.sqrt(8)
    np.testing.assert_allclose(hat, expected, atol=1e-12)


@pytest.mark.parametrize("shape", [(8,), (8, 8), (8, 8, 8)])
def test_roundtrip_unitarity(shape):
    rng = np.random.default_rng(11)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    back = transform(transform(x, range(len(shape)), "forward"), range(len(shape)), "inverse")
    assert np.max(np.abs(back - x)) / np.max(np.abs(x)) < 1e-12
    # Parseval
    hat = transform(x, range(len(shape)), "forward")
    assert np.sum(np.abs(hat) ** 2) == pytest.approx(np.sum(np.abs(x) ** 2))


def test_transform_axis_mismatch():
    x = np.zeros((8, 6), dtype=complex)
    with pytest.raises(ValueError):
        transform(x, [1], "forward", M=8)


def test_transform_bad_direction():
    with pytest.raises(ValueError):
        transform(np.zeros(8, dtype=complex), [0], "sideways")


def test_sobolev_weights_closed_forms():
    g = make_grid(1, 8, 2 * np.pi)
    w1 = sobolev_weights(g, 1.0)
    assert w1[0] == pytest.approx(1.0)  # zero mode
    assert w1[1] == pytest.approx(np.sqrt(2))  # |p| = 1
    w2 = sobolev_weights(g, 2.0)
    assert w2[1] == pytest.approx(2.0)
    w0 = sobolev_weights(g, 0.0)
    np.testing.assert_allclose(w0, 1.0)


def test_sobolev_weights_real_geq_one_even():
    g = make_grid(1, 8, 2 * np.pi)
    w = sobolev_weights(g, 1.7)
    assert np.all(np.isreal(w)) and np.all(w >= 1.0)
    # even in p: modes m and M-m carry opposite wavenumbers
    for m in range(1, 4):
        assert w[m] == pytest.approx(w[8 - m])
    with pytest.raises(ValueError):
        sobolev_weights(g, -0.5)


def test_phase_weights_closed_forms():
    g = make_grid(1, 8, 2 * np.pi)
    np.testing.assert_allclose(phase_weights(g, 0.0), 1.0)
    ph = phase_weights(g, np.pi)
    assert ph[0] == pytest.approx(1.0)
    assert ph[1] == pytest.approx(-1.0)  # exp(-i pi)


def test_phase_conjugation():
    g = make_grid(1, 8, 2 * np.pi)
    t = 0.37
    assert np.allclose(np.abs(phase_weights(g, t)), 1.0)
    with pytest.raises(ValueError):
        phase_weights(g, np.inf)


def test_make_grid_rejects_non_finite_wavenumbers():
    with pytest.raises(ValueError, match="non-finite wavenumbers"):
        make_grid(1, 4, 1e-320)
