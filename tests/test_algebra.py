import numpy as np
import pytest

from luinv.algebra import (
    AlgebraElement,
    ShapeError,
    SingularError,
    apply_local,
    digits_of,
    exp,
    flat_index,
    inverse,
    log,
    nilpotent_order,
    permute_sites,
    product,
    tensor,
)
from conftest import gaussian_state, tame_element


def test_flat_index_big_endian():
    # site 1 is the most significant digit
    assert flat_index((1, 0), 2) == 2
    assert flat_index((0, 1), 2) == 1
    assert flat_index((1, 2, 0), 3) == 15
    assert digits_of(15, 3, 3) == (1, 2, 0)
    for flat in range(27):
        assert flat_index(digits_of(flat, 3, 3), 3) == flat


def test_flat_index_rejects_bad_digits():
    with pytest.raises(ValueError):
        flat_index((0, 2), 2)
    with pytest.raises(ValueError):
        digits_of(8, 3, 2)


def test_constructor_validation():
    with pytest.raises(ShapeError):
        AlgebraElement(2, 2, [1, 0, 0])
    with pytest.raises(ValueError):
        AlgebraElement(1, 2, [1.0, np.inf])
    with pytest.raises(ValueError):
        AlgebraElement(0, 2, [])


def test_immutable():
    x = AlgebraElement.one(2, 2)
    with pytest.raises(AttributeError):
        x.n = 3
    with pytest.raises(ValueError):
        x.coeffs[0] = 5.0


def test_generator_nilpotency():
    # e^d = 0 for a single generator, any local dimension
    for d in (2, 3, 4):
        e = AlgebraElement.from_terms(1, d, {(1,): 1.0})
        p = AlgebraElement.one(1, d)
        for _ in range(d):
            p = p * e
        assert np.abs(p.coeffs).max() == 0.0


def test_product_hand_expansion():
    # (1 + e1 e2)^2 = 1 + 2 e1 e2 because (e1 e2)^2 = 0
    x = AlgebraElement.from_terms(2, 2, {(0, 0): 1, (1, 1): 1})
    sq = x * x
    assert sq.allclose(AlgebraElement.from_terms(2, 2, {(0, 0): 1, (1, 1): 2}))

    # (1 + e)^3 = 1 + 3 e + 3 e^2 when e^3 = 0
    y = AlgebraElement.from_terms(1, 3, {(0,): 1, (1,): 1})
    cube = y * y * y
    assert cube.allclose(
        AlgebraElement.from_terms(1, 3, {(0,): 1, (1,): 3, (2,): 3})
    )


def test_product_commutes_and_distributes():
    rng = np.random.default_rng(7)
    for n, d in [(2, 2), (3, 2), (2, 3)]:
        x, y, z = (gaussian_state(rng, n, d) for _ in range(3))
        assert (x * y).allclose(y * x)
        assert ((x + y) * z).allclose(x * z + y * z)
        assert ((x * y) * z).allclose(x * (y * z))


def test_inverse_hand_coefficients():
    # psi^-1 = 1/a - r/a^2 + r^2/a^3 gives, at the top word,
    # -a11/a00^2 + 2 a10 a01 / a00^3
    rng = np.random.default_rng(3)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = AlgebraElement(2, 2, c)
    inv = inverse(psi)
    a00, a01, a10, a11 = c
    assert np.isclose(inv[(0, 0)], 1 / a00)
    assert np.isclose(inv[(0, 1)], -a01 / a00**2)
    assert np.isclose(inv[(1, 0)], -a10 / a00**2)
    assert np.isclose(inv[(1, 1)], -a11 / a00**2 + 2 * a10 * a01 / a00**3)


def test_inverse_simple():
    x = AlgebraElement.from_terms(2, 2, {(0, 0): 1, (1, 1): 1})
    assert inverse(x).allclose(
        AlgebraElement.from_terms(2, 2, {(0, 0): 1, (1, 1): -1})
    )


def test_exp_log_hand_values():
    # exp(e1 + e2) = 1 + e1 + e2 + e1 e2
    x = AlgebraElement.from_terms(2, 2, {(1, 0): 1, (0, 1): 1})
    assert exp(x).allclose(AlgebraElement(2, 2, [1, 1, 1, 1]))

    # log((1 + e1)(1 + e2)) = e1 + e2
    f1 = AlgebraElement.from_terms(2, 2, {(0, 0): 1, (1, 0): 1})
    f2 = AlgebraElement.from_terms(2, 2, {(0, 0): 1, (0, 1): 1})
    assert log(f1 * f2).allclose(x)


def test_log_principal_branch():
    x = AlgebraElement.from_terms(1, 2, {(0,): -2.0, (1,): 0.0})
    val = log(x)[(0,)]
    assert np.isclose(val, np.log(2) + 1j * np.pi)


def _rel_residual(lhs, rhs):
    scale = max(np.abs(lhs.coeffs).max(), np.abs(rhs.coeffs).max(), 1.0)
    return np.abs(lhs.coeffs - rhs.coeffs).max() / scale


def test_field_identities_random():
    rng = np.random.default_rng(20240817)
    for n, d in [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]:
        for _ in range(5):
            x = tame_element(rng, n, d)
            y = tame_element(rng, n, d)
            one = AlgebraElement.one(n, d)
            assert _rel_residual(x * inverse(x), one) < 1e-12
            assert _rel_residual(log(x * y), log(x) + log(y)) < 1e-12
            assert _rel_residual(exp(x + y), exp(x) * exp(y)) < 1e-12
            assert _rel_residual(exp(log(x)), x) < 1e-12


def test_nilpotent_part_vanishing_power():
    rng = np.random.default_rng(5)
    for n, d in [(3, 2), (2, 3)]:
        x = gaussian_state(rng, n, d)
        r = AlgebraElement(n, d, np.concatenate(([0.0], x.coeffs[1:])))
        p = AlgebraElement.one(n, d)
        for _ in range(nilpotent_order(n, d)):
            p = p * r
        # r^(n(d-1)) can survive, one more power must vanish identically
        assert np.abs((p * r).coeffs).max() == 0.0


def test_singular_constant_rejected():
    x = AlgebraElement.from_terms(2, 2, {(1, 1): 1.0})
    for fn in (inverse, log):
        with pytest.raises(SingularError):
            fn(x)


def test_shape_mismatch_rejected():
    x = AlgebraElement.one(2, 2)
    y = AlgebraElement.one(3, 2)
    z = AlgebraElement.one(2, 3)
    for other in (y, z):
        with pytest.raises(ShapeError):
            x * other


def test_tensor_is_algebra_product_of_embeddings():
    rng = np.random.default_rng(11)
    x = gaussian_state(rng, 2, 2)
    y = gaussian_state(rng, 1, 2)
    xy = tensor(x, y)
    # embed x as x (x) 1 and y as 1 (x) y, multiply in the big algebra
    ex = tensor(x, AlgebraElement.one(1, 2))
    ey = tensor(AlgebraElement.one(2, 2), y)
    assert xy.allclose(ex * ey)
    # log is additive over tensor factors
    assert log(xy).allclose(log(ex) + log(ey))


def test_tensor_amplitude_layout():
    x = AlgebraElement.from_terms(1, 2, {(0,): 2.0, (1,): 3.0})
    y = AlgebraElement.from_terms(1, 2, {(0,): 5.0, (1,): 7.0})
    xy = tensor(x, y)
    assert xy[(1, 0)] == 3.0 * 5.0
    assert xy[(0, 1)] == 2.0 * 7.0


def test_apply_local_matches_kron_action():
    rng = np.random.default_rng(13)
    psi = gaussian_state(rng, 3, 2)
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(3)]
    got = apply_local(psi, mats)
    big = np.kron(np.kron(mats[0], mats[1]), mats[2])
    assert np.allclose(got.coeffs, big @ psi.coeffs)
    # skipping sites with None leaves them alone
    got2 = apply_local(psi, [None, mats[1], None])
    big2 = np.kron(np.kron(np.eye(2), mats[1]), np.eye(2))
    assert np.allclose(got2.coeffs, big2 @ psi.coeffs)


def test_apply_local_unitary_preserves_norm():
    rng = np.random.default_rng(17)
    psi = gaussian_state(rng, 2, 3)
    us = []
    for _ in range(2):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(m)
        us.append(q)
    assert np.isclose(apply_local(psi, us).norm_sq(), psi.norm_sq())


def test_permute_sites():
    rng = np.random.default_rng(19)
    psi = gaussian_state(rng, 3, 2)
    rolled = permute_sites(psi, (2, 3, 1))
    for flat in range(8):
        i, j, k = digits_of(flat, 3, 2)
        # result site 1 carries old site 2, so old digits read (k, i, j)
        assert rolled[(i, j, k)] == psi[(k, i, j)]
    assert permute_sites(rolled, (3, 1, 2)).allclose(psi)
    with pytest.raises(ValueError):
        permute_sites(psi, (1, 1, 2))


# Literal oracle: the product as a sum over every pair of words whose digits
# add without a carry, and inverse, log and exp as their finite Taylor sums
# over that product.  Independent of the ranked FFT engine.


def _carry_free_pairs(n, d):
    """Flat indices (i, j, i + j) of every carry-free pair of words."""
    a, b = np.nonzero(np.add.outer(np.arange(d), np.arange(d)) < d)
    i = j = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        i = (i[:, None] * d + a).ravel()
        j = (j[:, None] * d + b).ravel()
    return i, j, i + j


def _oracle_product(x, y, n, d):
    i, j, k = _carry_free_pairs(n, d)
    out = np.zeros(d**n, dtype=complex)
    np.add.at(out, k, x[i] * y[j])
    return out


def _oracle_series(x, series, n, d):
    r = np.array(x, dtype=complex)
    r[0] = 0.0
    out = np.zeros_like(r)
    out[0] = series[0]
    power = r
    for coeff in series[1:]:
        out += coeff * power
        power = _oracle_product(power, r, n, d)
    return out


def _oracle(name, x):
    n, d, c = x.n, x.d, x.coeffs
    a, order = c[0], nilpotent_order(n, d)
    ks = range(1, order + 1)
    series = {
        "inverse": [(-1) ** k / a ** (k + 1) for k in range(order + 1)],
        "log": [np.log(a)] + [(-1) ** (k - 1) / (k * a**k) for k in ks],
        "exp": np.exp(a) / np.cumprod([1.0, *ks]),
    }[name]
    return _oracle_series(c, series, n, d)


def _rel(got, want):
    # relative to the result's two-norm, as the acceptance battery measures
    return np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))


def _spread_element(rng, n, d):
    """Unit constant term; other amplitudes log-uniform over 1e-6..1."""
    mags = 10.0 ** rng.uniform(-6, 0, d**n)
    c = mags * np.exp(2j * np.pi * rng.uniform(size=d**n))
    c[0] = 1.0
    return AlgebraElement(n, d, c)


ORACLE_GRID = [(n, d) for d in (2, 3, 4) for n in range(1, 6)]


@pytest.mark.parametrize("n,d", ORACLE_GRID)
def test_kernels_match_oracle_on_spread_amplitudes(n, d):
    rng = np.random.default_rng(1000 * d + n)
    x, y = _spread_element(rng, n, d), _spread_element(rng, n, d)
    assert _rel((x * y).coeffs, _oracle_product(x.coeffs, y.coeffs, n, d)) < 1e-12
    for name, fn in (("inverse", inverse), ("log", log), ("exp", exp)):
        assert _rel(fn(x).coeffs, _oracle(name, x)) < 1e-12, name


@pytest.mark.parametrize("n,d", ORACLE_GRID)
def test_product_of_nilpotent_elements_matches_oracle(n, d):
    rng = np.random.default_rng(2000 * d + n)
    x, y = gaussian_state(rng, n, d).coeffs.copy(), gaussian_state(rng, n, d).coeffs.copy()
    x[0] = y[0] = 0.0
    got = product(AlgebraElement(n, d, x), AlgebraElement(n, d, y)).coeffs
    assert got[0] == 0.0
    assert _rel(got, _oracle_product(x, y, n, d)) < 1e-12


@pytest.mark.parametrize("n,d", [(10, 2), (7, 3)])
def test_identities_at_large_n(n, d):
    rng = np.random.default_rng(3000 * d + n)
    x = tame_element(rng, n, d)
    assert _rel(exp(log(x)).coeffs, x.coeffs) < 1e-10
    assert _rel((x * inverse(x)).coeffs, AlgebraElement.one(n, d).coeffs) < 1e-10
