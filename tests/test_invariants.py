"""Closed-form invariant values, family layout, Sudbery relations, Jacobian."""

import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from luinv import invariants, mixed
from luinv.algebra import AlgebraElement, apply_local, permute_sites, tensor
from luinv.cli import run_command
from luinv.cumulants import APolynomial, cumulant_poly, index_str, splitting_indices
from luinv.density import density_matrix, reduced_state
from luinv.haar import haar_su2, twirl_estimate
from luinv.invariants import (
    CHUNK,
    JACOBIAN_SV_RTOL,
    MAX_TABLE_BYTES,
    check_grid_table,
    check_relations,
    cumulant_invariant,
    cumulant_invariant_batch,
    evaluate_d,
    gamma_factor,
    grid_coefficients,
    invariant_family,
    invariant_jacobian,
    jacobian_rank,
    sudbery_j,
    total_invariant_count,
)
from luinv.mixed import lifted_invariant_pair, mixed_invariant, zhou_cumulant
from luinv.states import save_state

from conftest import gaussian_state
from grid_oracle import stacked_coefficients
from lift_oracle import invariant_pieces

# Deterministic examples, no example database written next to the tests.
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def bell():
    return AlgebraElement(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))


def ghz(n=3):
    c = np.zeros(2**n)
    c[0] = c[-1] = 1 / np.sqrt(2)
    return AlgebraElement(n, 2, c)


def w3():
    c = np.zeros(8)
    c[1] = c[2] = c[4] = 1 / np.sqrt(3)
    return AlgebraElement(3, 2, c)


class TestGamma:
    @pytest.mark.parametrize(
        "n,theta,value",
        [(2, 2, 1), (3, 2, 3), (3, 3, 8), (4, 2, 9), (4, 3, 32), (2, 1, 4), (4, 1, 16)],
    )
    def test_values(self, n, theta, value):
        assert gamma_factor(n, theta) == value


class TestClosedForm:
    def test_bell_quarter(self):
        assert cumulant_invariant(bell(), "11") == pytest.approx(0.25, abs=1e-12)

    def test_ghz_lifted_pair(self):
        for index in ("110", "101", "011"):
            assert cumulant_invariant(ghz(), index) == pytest.approx(0.125, abs=1e-12)

    def test_ghz_triple(self):
        assert cumulant_invariant(ghz(), "111") == pytest.approx(0.25, abs=1e-12)

    def test_w_triple(self):
        assert cumulant_invariant(w3(), "111") == pytest.approx(4 / 27, abs=1e-12)

    def test_theta_one_is_norm(self):
        psi = gaussian_state(np.random.default_rng(0), 3)
        n2 = float(np.sum(np.abs(psi.coeffs) ** 2))
        assert cumulant_invariant(psi, "100") == pytest.approx(n2, rel=1e-12)
        assert cumulant_invariant(psi, "001") == pytest.approx(n2, rel=1e-12)

    def test_nonnegative_clamp(self):
        # invariants are sums of weighted square moduli, never below zero
        rng = np.random.default_rng(1)
        for _ in range(20):
            psi = gaussian_state(rng, 3)
            for index in ("110", "111"):
                assert cumulant_invariant(psi, index) >= 0.0

    def test_lu_invariance(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            psi = gaussian_state(rng, 3)
            us = [haar_su2(np.random.default_rng(1000 + 3 * trial + k)) for k in range(3)]
            rot = apply_local(psi, us)
            for index in ("100", "110", "101", "011", "111"):
                a = cumulant_invariant(psi, index)
                b = cumulant_invariant(rot, index)
                assert abs(a - b) <= 1e-9 * max(1.0, a)

    def test_separable_product_factor(self):
        # I_{idx,0}(mu x |0>) = I_idx(mu)
        from luinv.algebra import tensor

        rng = np.random.default_rng(3)
        mu = gaussian_state(rng, 2)
        zero = AlgebraElement.from_terms(1, 2, {(0,): 1.0})
        psi = tensor(mu, zero)
        assert cumulant_invariant(psi, "110") == pytest.approx(
            cumulant_invariant(mu, "11"), rel=1e-12
        )

    def test_degree_homogeneity(self):
        rng = np.random.default_rng(20)
        psi = gaussian_state(rng, 3)
        lam = 1.7 - 0.4j
        scaled = AlgebraElement(3, 2, lam * psi.coeffs)
        for index in ("100", "110", "111"):
            theta = sum(int(c) for c in index)
            expect = abs(lam) ** (2 * theta) * cumulant_invariant(psi, index)
            assert cumulant_invariant(scaled, index) == pytest.approx(
                expect, rel=1e-12
            )

    def test_lower_triangular_scales_d(self):
        # g = [[1,0],[w,z]] on every site multiplies the cumulant
        # polynomial by z^theta
        from luinv.cumulants import cumulant_poly

        rng = np.random.default_rng(21)
        psi = gaussian_state(rng, 3)
        w, z = 0.3 - 0.2j, 0.8 + 0.35j
        g = np.array([[1, 0], [w, z]])
        rot = apply_local(psi, [g, g, g])
        for index in ("110", "111"):
            theta = sum(int(c) for c in index)
            d0 = cumulant_poly(index).evaluate(psi)
            d1 = cumulant_poly(index).evaluate(rot)
            assert d1 == pytest.approx(z**theta * d0, abs=1e-10)

    def test_permutation_equivariance(self):
        from luinv.algebra import permute_sites

        rng = np.random.default_rng(22)
        psi = gaussian_state(rng, 3)
        perm = (3, 1, 2)
        rolled = permute_sites(psi, perm)
        idx = (1, 1, 0)
        moved = tuple(idx[perm[p] - 1] for p in range(3))
        assert cumulant_invariant(rolled, moved) == pytest.approx(
            cumulant_invariant(psi, idx), rel=1e-12
        )


class TestFamily:
    def test_n4_layout(self):
        fam = invariant_family(4)
        assert len(fam) == 2**4 - 4
        assert fam[0] == (1, 0, 0, 0)
        assert fam[1:7] == [
            (1, 1, 0, 0),
            (1, 0, 1, 0),
            (0, 1, 1, 0),
            (1, 0, 0, 1),
            (0, 1, 0, 1),
            (0, 0, 1, 1),
        ]
        assert fam[-1] == (1, 1, 1, 1)

    def test_counts(self):
        assert total_invariant_count(3) == 6
        assert total_invariant_count(4) == 19
        assert total_invariant_count(5) == 48


class TestSudbery:
    def test_ghz_values(self):
        assert sudbery_j(ghz()) == pytest.approx((1.0, 0.5, 0.5, 0.5, 0.25), abs=1e-12)

    def test_which_selector(self):
        assert sudbery_j(ghz(), which=5) == pytest.approx(0.25, abs=1e-12)
        with pytest.raises(ValueError):
            sudbery_j(ghz(), which=6)

    def test_relations_random(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            psi = gaussian_state(rng, 3)
            for name, lhs, rhs in check_relations(psi):
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)), name

    def test_relations_ghz(self):
        for name, lhs, rhs in check_relations(ghz()):
            assert abs(lhs - rhs) <= 1e-12, name


class TestJacobian:
    def test_rank_three_qubits(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            psi = gaussian_state(rng, 3)
            assert jacobian_rank(psi) == 5

    def test_rank_two_qubits(self):
        rng = np.random.default_rng(6)
        psi = gaussian_state(rng, 2)
        assert jacobian_rank(psi) == 2

    def test_rank_collapses_on_basis_state(self):
        # only the norm row survives: every theta >= 2 gradient vanishes
        # because each monomial keeps a zero amplitude to first order
        psi = AlgebraElement.from_terms(3, 2, {(0, 0, 0): 1.0})
        assert jacobian_rank(psi) == 1

    def test_jacobian_shape(self):
        psi = gaussian_state(np.random.default_rng(7), 2)
        jac = invariant_jacobian(psi)
        assert jac.shape == (len(invariant_family(2)), 2 * 4)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            invariant_jacobian(gaussian_state(np.random.default_rng(8), 2), step=0.0)

    def test_non_qubit_tables_refused(self):
        with pytest.raises(ValueError, match="qubits only"):
            invariant_jacobian(AlgebraElement.one(2, 3))
        with pytest.raises(ValueError, match="length 6, not a power of 2"):
            invariant_jacobian(np.ones(6))


def literal_invariant(amps, bits) -> float:
    """The closed form term by term: sum of weight * |image of d|^2."""
    if sum(bits) == 1:
        return float(np.vdot(amps, amps).real)
    return sum(w * abs(poly.evaluate(amps)) ** 2 for w, poly in invariant_pieces(bits))


def oracle_states(n):
    """Random, GHZ, W (a_0 vanishes on grid points), basis and product states."""
    rng = np.random.default_rng(40 + n)
    out = [gaussian_state(rng, n).coeffs for _ in range(3)]
    ghz = np.zeros(2**n, dtype=complex)
    ghz[0] = ghz[-1] = 2**-0.5
    w = np.zeros(2**n, dtype=complex)
    w[[1 << k for k in range(n)]] = n**-0.5
    out += [ghz, w]
    for word in (0, 2**n - 1, 1, 2**n - 2):
        basis = np.zeros(2**n, dtype=complex)
        basis[word] = 1.0
        out.append(basis)
    product = gaussian_state(rng, 1)
    for _ in range(n - 1):
        product = tensor(product, gaussian_state(rng, 1))
    out.append(product.coeffs)
    out.append(tensor(gaussian_state(rng, 2), gaussian_state(rng, n - 2)).coeffs
               if n > 2 else gaussian_state(rng, 2).coeffs)
    return np.array(out)


class TestGridEvaluator:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_literal_piece_sum(self, n):
        batch = oracle_states(n)
        for bits in invariant_family(n):
            want = np.array([literal_invariant(a, bits) for a in batch])
            got = cumulant_invariant_batch(batch, bits)
            scale = np.maximum(np.abs(want), 1.0)
            assert np.all(np.abs(got - want) <= 1e-12 * scale), bits
            for a, value in zip(batch, got):
                assert cumulant_invariant(a, bits) == pytest.approx(value, rel=1e-15, abs=1e-18)

    def test_chunking_does_not_change_values(self, monkeypatch):
        # a tiny TABLE_BUDGET splits the states into many blocks, and a
        # state's grid into slabs
        batch = oracle_states(4)
        whole = {bits: cumulant_invariant_batch(batch, bits) for bits in invariant_family(4)}
        monkeypatch.setattr(invariants, "TABLE_BUDGET", 1000)
        for bits, want in whole.items():
            got = cumulant_invariant_batch(batch, bits)
            assert np.allclose(got, want, rtol=1e-13, atol=1e-16), bits

    def test_batch_shape_checked(self):
        with pytest.raises(ValueError):
            cumulant_invariant_batch(np.ones((2, 4)), "111")
        with pytest.raises(ValueError):
            cumulant_invariant_batch(np.ones(8), "111")


def grid_c(amps, bits):
    """Every c_k of a batch from grid_coefficients, one row per state."""
    blocks = list(grid_coefficients(amps, bits))
    starts = [s0 for s0, _ in blocks]
    assert starts == list(np.cumsum([0] + [len(c) for _, c in blocks[:-1]]))
    return np.concatenate([c for _, c in blocks])


class TestRaiseOracle:
    """The per-site contiguous raise, in blocks and slabs, against the
    stacked broadcast build it replaced: the same bits."""

    @pytest.mark.parametrize("states", [1, 37])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_c_equals_the_stacked_build(self, n, states):
        rng = np.random.default_rng(100 * n + states)
        special = oracle_states(n)  # W, where a_0 vanishes on grid points, and more
        amps = np.concatenate(
            [special, [gaussian_state(rng, n).coeffs for _ in range(states)]])[:states]
        for bits in invariant_family(n)[1:]:
            assert np.array_equal(grid_c(amps, bits), stacked_coefficients(amps, bits)), bits

    @pytest.mark.parametrize("bits", ["111100", "101101", "1100001"])
    def test_slabs_equal_the_whole_table(self, monkeypatch, bits):
        bits = tuple(int(ch) for ch in bits)
        n = len(bits)
        amps = np.array([gaussian_state(np.random.default_rng(n + k), n).coeffs
                         for k in range(2)])
        whole, values = grid_c(amps, bits), cumulant_invariant_batch(amps, bits)
        assert invariants._slab_sites(bits) == 0
        row, tails = 16 << sum(bits), invariants._grid_plan(bits)[3]
        for k in range(1, n):
            monkeypatch.setattr(invariants, "TABLE_BUDGET", row * tails[k])
            assert invariants._slab_sites(bits) == k
            assert np.array_equal(grid_c(amps, bits), whole), k
            assert np.array_equal(cumulant_invariant_batch(amps, bits), values), k

    def test_r16_lift_in_few_blocks(self, monkeypatch):
        # 4,844 lattice states on the 81-point grid of 1111 ran as 407
        # blocks of 12 states at 0.1.11; a block now fills TABLE_BUDGET
        sizes = []
        grid = mixed.grid_coefficients

        def spy(amps, bits):
            for s0, c in grid(amps, bits):
                sizes.append(len(c))
                yield s0, c

        monkeypatch.setattr(mixed, "grid_coefficients", spy)
        psi = gaussian_state(np.random.default_rng(16), 8)
        lifted_invariant_pair(psi, [5, 6, 7, 8], "1111")
        per = invariants.TABLE_BUDGET // (16 * 2**4 * 3**4)
        assert sum(sizes) == 4844 and sizes[:-1] == [per] * (len(sizes) - 1)
        assert len(sizes) == -(-4844 // per) < 10


def support_table(amps, bits):
    """The (2^theta, B) support table of a (B, 2^n) batch: row r holds the
    amplitude whose support digits spell r, the first support site as bit 0,
    with digit 0 off the support."""
    n = len(bits)
    supp = [p for p in range(1, n + 1) if bits[p - 1]]
    flat = [sum(1 << (n - p) for i, p in enumerate(supp) if r >> i & 1)
            for r in range(2 ** len(supp))]
    return amps[:, flat].T


def partition_sum_d(amps, bits):
    """d term by term from its partition sum, a few columns at a time."""
    poly = cumulant_poly(bits)
    return np.concatenate([poly.evaluate_batch(amps[c0 : c0 + 256])
                           for c0 in range(0, len(amps), 256)])


def assert_d_close(got, want):
    """Relative at 1e-12, or absolute at the largest |d| where d vanishes."""
    peak = np.abs(want).max()
    scale = np.where(np.abs(want) > 1e-12 * peak, np.abs(want), peak)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


class TestDKernel:
    """The subset recursion against d's partition sum."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_partition_sum_on_states(self, n):
        batch = oracle_states(n)
        for bits in invariant_family(n)[1:]:
            assert_d_close(evaluate_d(support_table(batch, bits)), partition_sum_d(batch, bits))

    @pytest.mark.parametrize("theta", [2, 3, 4, 5, 6, 7])
    def test_matches_partition_sum_on_tables(self, theta):
        # the columns cross CHUNK, and a0 vanishes on every third one
        rng = np.random.default_rng(70 + theta)
        m = CHUNK + 37
        table = rng.normal(size=(2**theta, m)) + 1j * rng.normal(size=(2**theta, m))
        table[0, ::3] = 0
        bits = (1,) * theta
        # the all-ones index at n = theta reads the support table in full
        amps = np.empty((m, 2**theta), dtype=complex)
        amps[:, support_table(np.arange(2**theta)[None], bits)[:, 0]] = table.T
        assert_d_close(evaluate_d(table), partition_sum_d(amps, bits))

    def test_w_vanishing_a0(self):
        # only the partition into singletons survives a0 = 0 on W
        for n, want in ((3, 2), (4, -6), (5, 24)):
            w = np.zeros((1, 2**n), dtype=complex)
            w[0, [1 << k for k in range(n)]] = 1.0
            assert evaluate_d(support_table(w, (1,) * n))[0] == want


@contextmanager
def symbolic_d_refused(monkeypatch):
    """Building or evaluating d as a dict polynomial raises inside."""
    def refuse(*args, **kwargs):
        raise AssertionError("symbolic d on the production path")

    with monkeypatch.context() as m:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "luinv" and hasattr(module, "cumulant_poly"):
                m.setattr(module, "cumulant_poly", refuse)
        m.setattr(APolynomial, "compiled", refuse)
        m.setattr(APolynomial, "evaluate_batch", refuse)
        yield


class TestProductionPath:
    """The grid, the twirl and the lift never build d symbolically."""

    def test_family_and_twirl_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(90)
        states = {n: gaussian_state(rng, n) for n in range(2, 6)}

        def values():
            family = {(n, b): cumulant_invariant(psi, b)
                      for n, psi in states.items() for b in invariant_family(n)}
            twirls = {b: twirl_estimate(states[len(b)], b, samples=3000, seed=9)
                      for n in (2, 3, 4) for b in invariant_family(n)[1:]}
            return family, twirls

        # the patched run goes first, so no cache of the unpatched one serves it
        with symbolic_d_refused(monkeypatch):
            got = values()
        assert got == values()

    def test_lift_bit_for_bit(self, monkeypatch, tmp_path):
        rng = np.random.default_rng(91)
        psi = gaussian_state(rng, 5)
        path = tmp_path / "psi.json"
        save_state(psi, path)
        rho = reduced_state(psi, [1, 2, 4])

        def values():
            return (
                lifted_invariant_pair(psi, [3], "1111"),
                lifted_invariant_pair(psi, [2, 5], "111"),
                mixed_invariant(rho, "101"),
                run_command(["lift", "--state", str(path), "--trace-out", "5",
                             "--index", "1101"]),
            )

        with symbolic_d_refused(monkeypatch):
            got = values()
        assert got[3][0] == 0
        assert got == values()


class TestGridTableCap:
    """The cap counts one state's samples, 16 bytes per grid point, and one
    slab of at most TABLE_BUDGET bytes."""

    def test_seven_qubits_admitted(self):
        check_grid_table((1,) * 7)  # 16 x 6^7 bytes of samples, about 4.5 MB
        check_grid_table((1,) * 6 + (0,))

    def test_eight_qubits_admitted(self):
        check_grid_table((1,) * 8)  # 16 x 7^8 bytes of samples, about 92 MB
        check_grid_table((1,) * 6 + (0, 0))  # its whole table would take 784 MB

    @pytest.mark.parametrize("bits", [(1,) * 9, (1,) * 9 + (0,)], ids=index_str)
    def test_larger_tables_refused(self, bits):
        # 16 x 8^9 bytes of samples, about 2.1 GB, and 11 times that
        with pytest.raises(ValueError, match="MAX_TABLE_BYTES"):
            check_grid_table(bits)
        with pytest.raises(ValueError, match=str(MAX_TABLE_BYTES)):
            cumulant_invariant(np.ones(2 ** len(bits)) / 2 ** (len(bits) / 2), bits)

    def test_one_cap_for_every_table(self, monkeypatch):
        # lowering the one constant refuses the grid (16 * 2^3 * 2^3 bytes),
        # the lift, the Zhou operator (16 * 5^3) and the twirl alike
        monkeypatch.setattr(invariants, "MAX_TABLE_BYTES", 1000)
        over = r", over the cap of 1000 \(invariants\.MAX_TABLE_BYTES\)"
        psi = gaussian_state(np.random.default_rng(9), 3)
        # 16 x 2^3 bytes of samples and the 16 x 2^3 x 2^3 byte table
        with pytest.raises(ValueError, match=r"needs a grid table of 1152 bytes "
                                             r"\(its samples and one slab\)" + over):
            cumulant_invariant(psi, "111")
        with pytest.raises(ValueError, match="lift of 111 at rank 8 needs .*" + over):
            mixed_invariant(np.eye(8) / 8, "111")
        with pytest.raises(ValueError, match="needs a subset table of 2000 bytes" + over):
            zhou_cumulant(density_matrix(psi))
        with pytest.raises(ValueError, match="twirl of theta = 2 over 3 sites .*" + over):
            twirl_estimate(psi, "110", samples=100)


def _normalized(re_im):
    c = np.asarray(re_im[0::2]) + 1j * np.asarray(re_im[1::2])
    return c / np.linalg.norm(c)


@st.composite
def states(draw, min_n=2, max_n=4):
    """A normalized n-qubit amplitude table with entries bounded away from overflow."""
    n = draw(st.integers(min_n, max_n))
    parts = draw(st.lists(st.floats(-1, 1), min_size=2 ** (n + 1), max_size=2 ** (n + 1))
                 .filter(lambda v: np.linalg.norm(v) > 0.1))
    return n, _normalized(parts)


def su2(parts):
    u, v = _normalized(parts)
    return np.array([[u, v], [-v.conjugate(), u.conjugate()]])


class TestProperties:
    @PROPERTY
    @given(states(), st.data())
    def test_local_unitary_invariance(self, state, data):
        n, amps = state
        quad = st.lists(st.floats(-1, 1), min_size=4, max_size=4).filter(
            lambda v: np.linalg.norm(v) > 0.1)
        us = [su2(data.draw(quad)) for _ in range(n)]
        psi = AlgebraElement(n, 2, amps)
        rotated = apply_local(psi, us)
        for bits in invariant_family(n):
            a, b = cumulant_invariant(psi, bits), cumulant_invariant(rotated, bits)
            assert abs(a - b) <= 1e-12 * max(1.0, a), bits

    @PROPERTY
    @given(states(), st.data())
    def test_permutation_covariance(self, state, data):
        n, amps = state
        perm = tuple(data.draw(st.permutations(range(1, n + 1))))
        psi = AlgebraElement(n, 2, amps)
        moved_psi = permute_sites(psi, perm)
        for bits in invariant_family(n):
            moved = tuple(bits[perm[p] - 1] for p in range(n))
            a, b = cumulant_invariant(psi, bits), cumulant_invariant(moved_psi, moved)
            assert abs(a - b) <= 1e-12 * max(1.0, a), (bits, perm)

    @PROPERTY
    @given(states(), st.floats(0.1, 3.0), st.floats(0, 2 * np.pi))
    def test_degree_homogeneity(self, state, modulus, phase):
        n, amps = state
        c = modulus * np.exp(1j * phase)
        for bits in invariant_family(n):
            theta = sum(bits)
            want = modulus ** (2 * theta) * cumulant_invariant(amps, bits)
            got = cumulant_invariant(c * amps, bits)
            assert abs(got - want) <= 1e-12 * max(1.0, want), bits

    @PROPERTY
    @given(st.integers(2, 5), st.data())
    def test_splitting_indices_vanish_on_products(self, n, data):
        labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
                           .filter(lambda v: len(set(v)) >= 2))
        blocks = [tuple(s for s in range(1, n + 1) if labels[s - 1] == lab)
                  for lab in sorted(set(labels))]
        t = np.ones(())
        order = []
        for block in blocks:
            size = len(block)
            parts = data.draw(st.lists(st.floats(-1, 1), min_size=2 ** (size + 1),
                                       max_size=2 ** (size + 1))
                              .filter(lambda v: np.linalg.norm(v) > 0.1))
            t = np.multiply.outer(t, _normalized(parts).reshape((2,) * size))
            order += block
        amps = t.transpose([order.index(s) for s in range(1, n + 1)]).reshape(-1)
        for bits in splitting_indices(blocks, n):
            assert cumulant_invariant(amps, bits) <= 1e-13, bits


def loop_jacobian(psi, step=1e-5):
    """The per-state central-difference loop, on the literal piece sum."""
    amps = psi.coeffs
    rows = []
    for bits in invariant_family(psi.n):
        grad = np.empty(2 * amps.size)
        for j in range(amps.size):
            for part, delta in ((0, step), (1, 1j * step)):
                shifted = amps.copy()
                shifted[j] += delta
                up = literal_invariant(shifted, bits)
                shifted[j] -= 2 * delta
                down = literal_invariant(shifted, bits)
                grad[2 * j + part] = (up - down) / (2 * step)
        rows.append(grad)
    return np.array(rows)


def loop_rank(psi):
    svals = np.linalg.svd(loop_jacobian(psi), compute_uv=False)
    if svals[0] == 0.0:
        return 0
    return int(np.sum(svals > JACOBIAN_SV_RTOL * svals[0]))


class TestBatchedJacobian:
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_per_state_loop(self, n):
        rng = np.random.default_rng(30 + n)
        for psi in (gaussian_state(rng, n), gaussian_state(rng, n)):
            want = loop_jacobian(psi)
            got = invariant_jacobian(psi)
            assert np.abs(got - want).max() <= 1e-9

    def test_ranks_on_criterion_11_states(self):
        # the states of acceptance criterion 11, drawn in its order
        rng = np.random.default_rng(111)
        states = [gaussian_state(rng, 3) for _ in range(10)]
        states += [gaussian_state(rng, 2) for _ in range(3)]
        states.append(AlgebraElement.from_terms(3, 2, {(0, 0, 0): 1.0}))
        for psi in states:
            assert jacobian_rank(psi) == loop_rank(psi)
