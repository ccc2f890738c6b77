"""Density matrices, mixed-state lifts, and the trace-norm cumulant invariant."""

import time

import numpy as np
import pytest

from luinv.algebra import AlgebraElement, permute_sites, tensor
from luinv import density, mixed
from luinv.density import density_matrix, partial_trace, reduced_state, sites_of
from luinv.haar import register_twirl_estimate
from luinv.invariants import cumulant_invariant, invariant_family
from luinv.mixed import (
    EIGENVALUE_FLOOR,
    lifted_invariant_pair,
    mixed_invariant,
    padded_index,
    zhou_cumulant,
    zhou_m,
)

from conftest import gaussian_state
from lift_oracle import literal_lift


def bell():
    return AlgebraElement(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))


def ghz3():
    c = np.zeros(8)
    c[0] = c[7] = 1 / np.sqrt(2)
    return AlgebraElement(3, 2, c)


def check_density(rho, psd=False):
    """Raise unless rho is Hermitian (and, with psd, positive) within tolerance."""
    rho = np.asarray(rho)
    sites_of(rho)
    scale = max(float(np.abs(rho).max()), 1e-300)
    if np.abs(rho - rho.conj().T).max() > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    if psd:
        evals = np.linalg.eigvalsh(rho)
        if evals.min() < -1e-10 * max(scale, 1.0):
            raise ValueError(f"matrix has negative eigenvalue {evals.min():.3e}")


def brute_partial_trace(rho, keep, n):
    t = rho.reshape([2] * (2 * n))
    for s in sorted((s for s in range(1, n + 1) if s not in keep), reverse=True):
        t = np.trace(t, axis1=s - 1, axis2=s - 1 + t.ndim // 2)
    m = len(keep)
    return t.reshape(2**m, 2**m)


class TestDensity:
    def test_outer_product(self):
        psi = gaussian_state(np.random.default_rng(0), 2)
        rho = density_matrix(psi)
        assert rho.shape == (4, 4)
        assert np.allclose(rho, np.outer(psi.coeffs, psi.coeffs.conj()))
        check_density(rho, psd=True)

    def test_sites_of(self):
        assert sites_of(np.eye(8)) == 3
        with pytest.raises(ValueError):
            sites_of(np.eye(3))

    def test_check_rejects_nonhermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            check_density(bad)

    def test_ghz_keep_front_pair(self):
        rho = partial_trace(density_matrix(ghz3()), [1, 2])
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(rho, expected, atol=1e-14)

    def test_partial_trace_against_brute_force(self):
        rng = np.random.default_rng(1)
        psi = gaussian_state(rng, 4)
        rho = density_matrix(psi)
        for keep in ([1], [3], [1, 3], [2, 4], [1, 2], [3, 4], [1, 3, 4], [1, 2, 3, 4]):
            mine = partial_trace(rho, keep)
            ref = brute_partial_trace(rho, keep, 4)
            assert np.allclose(mine, ref, atol=1e-14)
            assert np.trace(mine) == pytest.approx(1.0, abs=1e-12)

    def test_reduced_state_against_partial_trace(self):
        psi = gaussian_state(np.random.default_rng(4), 5)
        rho = density_matrix(psi)
        for keep in ([2], [5], [1, 4], [3, 2], [1, 2, 5], [2, 3, 4, 5], [1, 2, 3, 4, 5]):
            mine = reduced_state(psi, keep)
            assert np.allclose(mine, partial_trace(rho, keep), rtol=0, atol=1e-15)
        with pytest.raises(ValueError):
            reduced_state(psi, [6])


class TestMixedLift:
    def test_pure_state_reduction(self):
        # evaluating the lifted polynomial on |psi><psi| gives back the
        # pure-state invariant
        rng = np.random.default_rng(2)
        for n, index in ((2, "11"), (3, "110"), (3, "111"), (4, "1011")):
            psi = gaussian_state(rng, n)
            rho = density_matrix(psi)
            assert mixed_invariant(rho, index) == pytest.approx(
                cumulant_invariant(psi, index), rel=1e-10
            )

    def test_theta_one_is_trace(self):
        rho = np.diag([0.2, 0.3, 0.1, 0.4]).astype(complex)
        assert mixed_invariant(rho, "10") == pytest.approx(1.0)

    def test_single_trace_identity(self):
        # tracing one site off a pure state matches the invariant whose
        # index carries a 0 at that site, for every site and kept index
        rng = np.random.default_rng(3)
        psi = gaussian_state(rng, 4)
        for traced, kept_index in (
            ([4], "111"),
            ([1], "111"),
            ([2], "111"),
            ([4], "110"),
            ([1], "011"),
            ([3], "101"),
        ):
            closed, lifted = lifted_invariant_pair(psi, traced, kept_index)
            assert lifted == pytest.approx(closed, abs=1e-12)

    def test_maximally_mixed_pair_value(self):
        # by hand: on I/4 only the two diagonal monomial lifts survive,
        # each contributing 1/32
        assert mixed_invariant(np.eye(4, dtype=complex) / 4, "11") == pytest.approx(
            1 / 16, abs=1e-14
        )

    def test_multi_trace_gap_documented(self):
        # tracing two or more sites is NOT reproduced by the mixed lift:
        # the double twirl carries permutation cross terms that no
        # function of the traced density matrix can see.  Bell pairs on
        # sites (1,3) and (2,4) make this stark: sites 1,2 are
        # uncorrelated so the closed form vanishes, the lift does not.
        b = bell()
        psi = permute_sites(tensor(b, b), (1, 3, 2, 4))
        closed, lifted = lifted_invariant_pair(psi, [3, 4], "11")
        assert closed == pytest.approx(0.0, abs=1e-12)
        assert lifted == pytest.approx(1 / 16, abs=1e-12)

    def test_register_twirl_single_trace_is_ordinary_twirl(self):
        # with one traced site the register is one qubit and its U(2)
        # twirl is the SU(2) twirl, so the oracle estimates I with a 0
        # at the traced site
        psi = gaussian_state(np.random.default_rng(8), 3)
        for traced, kept_index, index in (([3], "11", "110"), ([2], "11", "101")):
            est = register_twirl_estimate(
                psi, traced, kept_index, samples=40_000, seed=31
            )
            closed = cumulant_invariant(psi, index)
            assert abs(est.mean - closed) <= 5 * est.std_error

    def test_lift_and_zhou_skip_the_density_matrix(self, monkeypatch):
        # values of the reduce-the-full-matrix formulas, taken before
        # density_matrix is made to refuse
        rng = np.random.default_rng(5)
        lifts, zhous = [], []
        for n, lift_cases in (
            (4, (([], "1011"), ([2], "111"), ([1, 4], "11"), ([2, 3], "11"))),
            (5, (([3], "1101"), ([1, 5], "111"), ([2, 3], "101"), ([1, 2, 4], "11"))),
        ):
            psi = gaussian_state(rng, n)
            rho = density_matrix(psi)
            for traced, kept_index in lift_cases:
                kept = [s for s in range(1, n + 1) if s not in traced]
                full = padded_index(n, traced, kept_index)
                ref = mixed_invariant(partial_trace(rho, kept), kept_index)
                lifts.append((psi, traced, kept_index, cumulant_invariant(psi, full), ref))
            for index in ("11" + "0" * (n - 2), "0" * (n - 3) + "111", "1" * n):
                supp = [s for s, b in enumerate(index, 1) if b == "1"]
                rc = zhou_cumulant(partial_trace(rho, supp))
                evals = np.linalg.eigvalsh((rc + rc.conj().T) / 2)
                evals[np.abs(evals) <= EIGENVALUE_FLOOR] = 0.0
                zhous.append((psi, index, 0.5 * np.abs(evals).sum()))

        def refuse(psi):
            raise AssertionError("density_matrix called")

        monkeypatch.setattr(density, "density_matrix", refuse)
        monkeypatch.setattr(mixed, "density_matrix", refuse, raising=False)
        for psi, traced, kept_index, i_ref, j_ref in lifts:
            i_val, j_val = lifted_invariant_pair(psi, traced, kept_index)
            assert i_val == i_ref
            assert abs(j_val - j_ref) <= 1e-14 * max(1.0, abs(j_ref))
        for psi, index, m_ref in zhous:
            assert abs(zhou_m(psi, index) - m_ref) <= 1e-14 * max(1.0, m_ref)


def assert_lift_matches(rho, index):
    want = literal_lift(rho, index)
    assert abs(mixed_invariant(rho, index) - want) <= 1e-10 * max(1.0, abs(want)), index


# (n, traced count, kept indices): reduced states of random pure states
REDUCED_CASES = [
    (3, 1, ("11",)),
    (4, 1, ("111", "101")),
    (4, 2, ("11",)),
    (5, 1, ("1111", "1011")),
    (5, 2, ("111", "110")),
    (5, 3, ("11",)),
    (6, 1, ("11100", "10101")),
    (6, 2, ("1111", "0111")),
    (6, 3, ("111", "011")),
]


class TestAgainstLiteralLift:
    """The lift by Wick's identity against the theta! permutation sum."""

    def test_rank_one(self):
        rng = np.random.default_rng(20)
        for n, index in ((2, "11"), (3, "111"), (3, "101"), (4, "1101"), (4, "1111")):
            assert_lift_matches(density_matrix(gaussian_state(rng, n)), index)

    @pytest.mark.parametrize("n,k,indices", REDUCED_CASES)
    def test_reduced_states(self, n, k, indices):
        rng = np.random.default_rng(10 * n + k)
        psi = gaussian_state(rng, n)
        traced = sorted(int(s) for s in rng.choice(np.arange(1, n + 1), k, replace=False))
        rho = reduced_state(psi, [s for s in range(1, n + 1) if s not in traced])
        for index in indices:
            assert_lift_matches(rho, index)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_full_rank_and_indefinite(self, m):
        rng = np.random.default_rng(30 + m)
        x = rng.normal(size=(2**m, 2**m)) + 1j * rng.normal(size=(2**m, 2**m))
        psd = x @ x.conj().T / 2**m
        # traceless and nonzero, so it has eigenvalues of both signs
        indefinite = (x + x.conj().T) / 2 - np.trace(x).real / 2**m * np.eye(2**m)
        assert np.linalg.eigvalsh(indefinite).min() < 0 < np.linalg.eigvalsh(indefinite).max()
        for bits in invariant_family(m):
            assert_lift_matches(psd, bits)
            assert_lift_matches(indefinite, bits)

    def test_maximally_mixed_and_zero(self):
        for index in ("11", "10", "01"):
            assert_lift_matches(np.eye(4) / 4, index)
        assert mixed_invariant(np.zeros((4, 4)), "11") == 0.0

    def test_lattice_over_the_cap_refused(self):
        # rank 64 at theta = 4: C(68, 4) lattice states of 2,025 coefficients
        with pytest.raises(ValueError, match="MAX_TABLE_BYTES"):
            mixed_invariant(np.eye(64) / 64, "111100")

    def test_non_hermitian_refused(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 0.1
        with pytest.raises(ValueError, match="not Hermitian"):
            mixed_invariant(rho, "11")

    def test_theta_five_single_trace(self):
        # the theta! permutation lift took about 100 s here
        psi = gaussian_state(np.random.default_rng(6), 6)
        start = time.perf_counter()
        closed, lifted = lifted_invariant_pair(psi, [6], "11111")
        assert time.perf_counter() - start < 5.0
        assert closed == cumulant_invariant(psi, "111110")
        assert abs(lifted - closed) <= 1e-10 * max(1.0, closed)

    def test_traced_sites_checked_alike(self):
        psi = gaussian_state(np.random.default_rng(9), 3)
        for call in (
            lambda: padded_index(3, [4], "11"),
            lambda: lifted_invariant_pair(psi, [0, 2], "11"),
            lambda: register_twirl_estimate(psi, [4], "11", samples=10),
        ):
            with pytest.raises(ValueError, match=r"traced sites \[.*\] outside 1\.\.3"):
                call()


class TestZhou:
    def test_product_state_cumulant_vanishes(self):
        rng = np.random.default_rng(4)
        mu = gaussian_state(rng, 1)
        nu = gaussian_state(rng, 2)
        rho = density_matrix(tensor(mu, nu))
        # normalize so the marginals are states
        rho = rho / np.trace(rho)
        rc = zhou_cumulant(rho)
        assert np.abs(rc).max() <= 1e-12

    def test_bell_cumulant_spectrum(self):
        rc = zhou_cumulant(density_matrix(bell()))
        ev = np.sort(np.linalg.eigvalsh(rc))
        assert np.allclose(ev, [-0.25, -0.25, -0.25, 0.75], atol=1e-12)

    def test_entrywise_against_definition(self):
        # independent reconstruction from reduced matrices, one entry
        # at a time, on an asymmetric mixed state
        from itertools import product as iproduct
        from math import factorial

        from luinv.cumulants import partitions_of

        rng = np.random.default_rng(5)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        ref = np.zeros((8, 8), dtype=complex)
        for pi in partitions_of((1, 2, 3)):
            w = (-1) ** (len(pi) - 1) * factorial(len(pi) - 1)
            reduced = {block: partial_trace(rho, list(block)) for block in pi}
            for i, j in iproduct(range(8), repeat=2):
                val = w
                for block in pi:
                    bi = int("".join(str((i >> (3 - s)) & 1) for s in block), 2)
                    bj = int("".join(str((j >> (3 - s)) & 1) for s in block), 2)
                    val = val * reduced[block][bi, bj]
                ref[i, j] += val
        assert np.allclose(zhou_cumulant(rho), ref, atol=1e-12)

    def test_m11_bell(self):
        assert zhou_m(bell(), "11") == pytest.approx(0.75, abs=1e-12)

    def test_m11_relation(self):
        # two-qubit pure states: M = I + sqrt(I); this is what pins the
        # half-trace-norm normalization
        rng = np.random.default_rng(6)
        for _ in range(20):
            psi = gaussian_state(rng, 2)
            psi = AlgebraElement(2, 2, psi.coeffs / np.linalg.norm(psi.coeffs))
            i11 = cumulant_invariant(psi, "11")
            assert zhou_m(psi, "11") == pytest.approx(
                i11 + np.sqrt(i11), abs=1e-10
            )

    def test_m_vanishes_on_products(self):
        rng = np.random.default_rng(7)
        mu = gaussian_state(rng, 1)
        nu = gaussian_state(rng, 1)
        psi = tensor(mu, nu)
        psi = AlgebraElement(2, 2, psi.coeffs / np.linalg.norm(psi.coeffs))
        assert zhou_m(psi, "11") <= 1e-10

    def test_ghz_half(self):
        # half the trace norm of the GHZ cumulant operator; the
        # eigenvalue pattern gives exactly 1/2
        assert zhou_m(ghz3(), "111") == pytest.approx(0.5, abs=1e-12)

    def test_ghz_family_closed_form(self):
        # along a|000> + b|111> the spectrum works out by hand to
        # M = 3 I sqrt(1-4I) + sqrt(I + I^2 - 4 I^3) with I the triple
        # cumulant invariant
        for t in (0.1, 0.25, 0.4, 0.7, 0.9):
            c = np.zeros(8)
            c[0], c[7] = np.sqrt(t), np.sqrt(1 - t)
            psi = AlgebraElement(3, 2, c)
            i = cumulant_invariant(psi, "111")
            m = zhou_m(psi, "111")
            expect = 3 * i * np.sqrt(max(1 - 4 * i, 0.0)) + np.sqrt(
                max(i + i**2 - 4 * i**3, 0.0)
            )
            assert m == pytest.approx(expect, abs=1e-10)

    def test_theta_below_two_rejected(self):
        with pytest.raises(ValueError):
            zhou_m(bell(), "10")
