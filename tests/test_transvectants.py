"""Covariant engine: transvectants, inner product, hyperdeterminant, families."""

from itertools import product
from math import factorial

import numpy as np
import pytest

from luinv.algebra import AlgebraElement, apply_local, permute_sites, tensor
from luinv.cumulants import cumulant_poly
from luinv.haar import haar_su2
from luinv.invariants import cumulant_invariant
from luinv.transvectants import (
    covariant_norm,
    family_covariant,
    fundamental_form,
    g_covariant,
    h_covariant,
    hyperdeterminant,
    iota_chain,
    three_tangle,
    transvectant,
)

from conftest import gaussian_state
from lift_oracle import raised


def ghz3():
    c = np.zeros(8)
    c[0] = c[7] = 1 / np.sqrt(2)
    return AlgebraElement(3, 2, c)


def w3():
    c = np.zeros(8)
    c[1] = c[2] = c[4] = 1 / np.sqrt(3)
    return AlgebraElement(3, 2, c)


# -- literal Omega process, the oracle for the dense transvectant ------------


def monomials(p):
    """Dense covariant as {per-site (x0, x1) exponents: coefficient}."""
    return {
        tuple((size - 1 - j, j) for size, j in zip(p.shape, js)): complex(p[js])
        for js in np.ndindex(p.shape)
    }


def literal_transvectant(p, q, bits):
    """Multiply p(x) q(y), apply dx0 dy1 - dx1 dy0 at each 1-site, set y -> x."""
    work = {}
    for kp, cp in p.items():
        for kq, cq in q.items():
            key = tuple(a + b for a, b in zip(kp, kq))
            work[key] = work.get(key, 0) + cp * cq
    for i, bit in enumerate(bits):
        if int(bit) == 0:
            continue
        out = {}
        for key, c in work.items():
            x0, x1, y0, y1 = key[i]
            if x0 and y1:
                new = key[:i] + ((x0 - 1, x1, y0, y1 - 1),) + key[i + 1 :]
                out[new] = out.get(new, 0) + c * x0 * y1
            if x1 and y0:
                new = key[:i] + ((x0, x1 - 1, y0 - 1, y1),) + key[i + 1 :]
                out[new] = out.get(new, 0) - c * x1 * y0
        work = out
    result = {}
    for key, c in work.items():
        new = tuple((x0 + y0, x1 + y1) for x0, x1, y0, y1 in key)
        result[new] = result.get(new, 0) + c
    return result


def assert_matches_literal(p, q, bits):
    got = monomials(transvectant(p, q, bits))
    want = literal_transvectant(monomials(p), monomials(q), bits)
    # a coefficient that cancels to zero is judged against its factors' size
    scale = max([abs(c) for c in want.values()] + [np.abs(p).max() * np.abs(q).max()])
    for key in set(got) | set(want):
        err = abs(got.get(key, 0) - want.get(key, 0))
        assert err <= 1e-12 * scale, (bits, key)


class TestAgainstLiteralOmega:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_mask(self, n):
        f = fundamental_form(gaussian_state(np.random.default_rng(20 + n), n))
        for bits in product((0, 1), repeat=n):
            assert_matches_literal(f, f, bits)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unequal_degrees(self, n):
        # second step of a chain: operands of degree 1 and 0..2 per site
        rng = np.random.default_rng(30 + n)
        f = fundamental_form(gaussian_state(rng, n))
        masks = list(product((0, 1), repeat=n))
        for first in masks:
            cov = transvectant(f, f, first)
            for bits in masks[:: 1 if n < 4 else 5]:
                assert_matches_literal(f, cov, bits)
                assert_matches_literal(cov, f, bits)

    def test_chain_steps(self):
        # the iota and H chains at n = 4 reach operand degree 3
        f = fundamental_form(gaussian_state(np.random.default_rng(35), 4))
        for steps in (("1100", "0010", "0001"), ("1100", "0010", "1110")):
            cov = transvectant(f, f, steps[0])
            for bits in steps[1:]:
                assert_matches_literal(f, cov, bits)
                cov = transvectant(f, cov, bits)

    def test_omega_at_degree_zero_site_is_zero(self):
        f = fundamental_form(gaussian_state(np.random.default_rng(40), 3))
        cov = transvectant(f, f, "110")  # degree 0 at sites 1 and 2
        for bits in ("100", "010", "111"):
            assert_matches_literal(f, cov, bits)
            assert covariant_norm(transvectant(f, cov, bits)) == 0.0
        assert covariant_norm(transvectant(cov, cov, "110")) == 0.0

    def test_site_count_mismatch_rejected(self):
        f = fundamental_form(AlgebraElement.one(2, 2))
        with pytest.raises(ValueError):
            transvectant(f, f, "110")


class TestXPolynomial:
    """The fundamental form and the dense covariant layout."""

    def test_fundamental_form_basis_state(self):
        ket00 = AlgebraElement.from_terms(2, 2, {(0, 0): 1.0})
        f = fundamental_form(ket00)
        assert f.tolist() == [[1.0 + 0.0j, 0.0], [0.0, 0.0]]

    def test_fundamental_form_general(self):
        psi = gaussian_state(np.random.default_rng(0), 2)
        f = fundamental_form(psi)
        # x1 at site 1, x0 at site 2
        assert f[1, 0] == pytest.approx(psi[(1, 0)])

    def test_fundamental_form_rejects_qutrits(self):
        with pytest.raises(ValueError):
            fundamental_form(AlgebraElement.one(2, 3))

    def test_immutable(self):
        # the form is a view of the state's amplitudes, so it is read-only
        f = fundamental_form(AlgebraElement.one(1, 2))
        with pytest.raises(ValueError):
            f[0] = 3.0

    def test_zero_mask_is_plain_product(self):
        psi = gaussian_state(np.random.default_rng(1), 2)
        f = fundamental_form(psi)
        prod = transvectant(f, f, "00")
        direct = np.zeros((3, 3), dtype=complex)
        for a1, a2, b1, b2 in product((0, 1), repeat=4):
            direct[a1 + b1, a2 + b2] += f[a1, a2] * f[b1, b2]
        assert prod == pytest.approx(direct, abs=1e-15)

    def test_constant_value_rejects_nonconstant(self):
        f = fundamental_form(AlgebraElement.one(1, 2))
        with pytest.raises(ValueError):
            f.item()


class TestInnerProduct:
    def test_constant(self):
        p = np.array([3.0 - 4.0j])
        assert covariant_norm(p) == pytest.approx(25.0)

    def test_mixed_exponents(self):
        p = np.array([0.0, 2.0, 0.0])  # x0 x1
        assert covariant_norm(p) == pytest.approx(4.0)  # 1! 1! weight

    def test_square_exponent(self):
        p = np.array([1.0 + 1.0j, 0.0, 0.0])  # x0^2
        assert covariant_norm(p) == pytest.approx(4.0)  # 2! 0! weight


class TestTransvectant:
    def test_ff11_is_twice_d11(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            psi = gaussian_state(rng, 2)
            f = fundamental_form(psi)
            p = transvectant(f, f, "11")
            d11 = cumulant_poly("11").evaluate(psi)
            assert p.item() == pytest.approx(2 * d11, abs=1e-14)

    def test_ff110_multiplet_structure(self):
        # (f,f)^{110} lays out d110 and its raised images as the
        # coefficients of the site-3 monomials, each doubled.
        rng = np.random.default_rng(4)
        psi = gaussian_state(rng, 3)
        f = fundamental_form(psi)
        p = transvectant(f, f, "110")
        d = cumulant_poly("110")
        # entry j at site 3 is the coefficient of x0^(2-j) x1^j
        expected = [
            2 * d.evaluate(psi),
            2 * raised(d, 3, 1).evaluate(psi),
            2 * raised(d, 3, 2).evaluate(psi),
        ]
        assert p.shape == (1, 1, 3)
        for j, val in enumerate(expected):
            assert p[0, 0, j] == pytest.approx(val, abs=1e-12)

    def test_g_full_mask_pairing_identity(self):
        # (f,f)^{1^n} = sum_u (-1)^{|u|} a_u a_{complement(u)}
        rng = np.random.default_rng(5)
        for n in (2, 4):
            psi = gaussian_state(rng, n)
            f = fundamental_form(psi)
            val = transvectant(f, f, "1" * n).item()
            acc = 0.0
            top = 2**n - 1
            for u in range(2**n):
                acc += (-1) ** bin(u).count("1") * psi[u] * psi[top - u]
            assert val == pytest.approx(acc, abs=1e-12)

    def test_norm_invariant_under_local_rotations(self):
        rng = np.random.default_rng(6)
        psi = gaussian_state(rng, 3)
        us = [haar_su2(np.random.default_rng(s)) for s in (10, 11, 12)]
        rot = apply_local(psi, us)
        for build in (
            lambda s: covariant_norm(iota_chain(s, 3)),
            lambda s: covariant_norm(g_covariant(s, "110")),
            lambda s: family_covariant(s, "H", "222"),
        ):
            a, b = build(psi), build(rot)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


class TestIotaChain:
    def test_k2_n2_constant(self):
        psi = gaussian_state(np.random.default_rng(7), 2)
        iota = iota_chain(psi, 2)
        d11 = cumulant_poly("11").evaluate(psi)
        assert iota.item() == pytest.approx(2 * d11, abs=1e-13)

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)])
    def test_xi_ratio(self, n, k):
        xi = 4 * factorial(k - 2) ** k * factorial(k) ** (n - k)
        rng = np.random.default_rng(100 + 10 * n + k)
        index = "1" * k + "0" * (n - k)
        for _ in range(10):
            psi = gaussian_state(rng, n)
            ratio = covariant_norm(iota_chain(psi, k)) / cumulant_invariant(psi, index)
            assert ratio == pytest.approx(xi, rel=1e-9)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            iota_chain(AlgebraElement.one(3, 2), 1)


class TestHyperdeterminant:
    def test_ghz(self):
        det = hyperdeterminant(ghz3())
        assert det.real == pytest.approx(-0.5, abs=1e-12)
        assert det.imag == pytest.approx(0.0, abs=1e-12)

    def test_w_vanishes(self):
        assert abs(hyperdeterminant(w3())) <= 1e-12

    def test_product_state_vanishes(self):
        assert abs(hyperdeterminant(AlgebraElement.from_terms(3, 2, {(0, 0, 0): 1.0}))) == 0.0

    def test_three_tangle_ghz(self):
        assert three_tangle(ghz3()) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_site_count_rejected(self):
        with pytest.raises(ValueError):
            hyperdeterminant(AlgebraElement.one(2, 2))

    def test_chain_matches_oracle_with_constant_four(self):
        # h222 norm tracks |Det|^2 with the literal-convention constant 4,
        # measured once and pinned here as a regression value.
        rng = np.random.default_rng(8)
        for _ in range(10):
            psi = gaussian_state(rng, 3)
            h = family_covariant(psi, "H", "222")
            det2 = abs(hyperdeterminant(psi)) ** 2
            assert h == pytest.approx(4.0 * det2, rel=1e-9)

    def test_h222_ghz_quarter(self):
        assert abs(hyperdeterminant(ghz3())) ** 2 == pytest.approx(0.25, abs=1e-12)


class TestFamilies:
    def test_g1111_ghz4(self):
        c = np.zeros(16)
        c[0] = c[15] = 1 / np.sqrt(2)
        assert family_covariant(AlgebraElement(4, 2, c), "G", "1111") == pytest.approx(
            1.0, abs=1e-12
        )

    def test_g1111_matches_displayed_polynomial(self):
        # literal (f,f)^{1111} is twice the eight-term display
        rng = np.random.default_rng(9)
        psi = gaussian_state(rng, 4)
        g = g_covariant(psi, "1111").item()
        a = psi.coeffs
        display = (
            a[0b0000] * a[0b1111]
            - (
                a[0b1000] * a[0b0111]
                + a[0b0100] * a[0b1011]
                + a[0b0010] * a[0b1101]
                + a[0b0001] * a[0b1110]
            )
            + (
                a[0b1100] * a[0b0011]
                + a[0b1010] * a[0b0101]
                + a[0b1001] * a[0b0110]
            )
        )
        assert g == pytest.approx(2 * display, abs=1e-12)

    def test_g_on_separable_vanishes(self):
        assert family_covariant(
            AlgebraElement.from_terms(4, 2, {(0, 0, 0, 0): 1.0}), "G", "1111"
        ) == pytest.approx(0.0, abs=1e-14)

    def test_g_odd_mask_rejected(self):
        with pytest.raises(ValueError):
            g_covariant(AlgebraElement.one(3, 2), "100")

    def test_h_lift_constant(self):
        # adding a lifted zero multiplies the invariant by 24 on product
        # states with |0> at the new site, any zero placement
        rng = np.random.default_rng(12)
        zero1 = AlgebraElement.from_terms(1, 2, {(0,): 1.0})
        for _ in range(3):
            psi3 = gaussian_state(rng, 3)
            h3 = family_covariant(psi3, "H", "222")
            suffix = tensor(psi3, zero1)
            assert family_covariant(suffix, "H", "2220") == pytest.approx(
                24 * h3, rel=1e-9
            )
            interior = permute_sites(suffix, (1, 2, 4, 3))
            assert family_covariant(interior, "H", "2202") == pytest.approx(
                24 * h3, rel=1e-9
            )

    def test_h_bad_index_rejected(self):
        st = AlgebraElement.one(3, 2)
        for bad in ("220", "2221", "212"):
            with pytest.raises(ValueError):
                h_covariant(st, bad)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            family_covariant(AlgebraElement.one(3, 2), "Q", "111")
