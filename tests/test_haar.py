"""Haar sampling, moment battery, and the twirl estimator."""

import threading
import time
from math import comb, prod, sqrt

import numpy as np
import pytest

from luinv import haar, invariants
from luinv.cli import run_command
from luinv.cumulants import cumulant_poly, index_str, parse_index
from luinv.haar import (
    BLOCK,
    CHUNK,
    TwirlEstimate,
    _rng_for,
    _sphere_rows,
    haar_su2,
    haar_su2_batch,
    haar_su2_rows,
    moment_battery,
    register_twirl_estimate,
    twirl_estimate,
    twirl_family,
)
from luinv.invariants import cumulant_invariant, gamma_factor, invariant_family
from luinv.states import save_state

from conftest import gaussian_state


class TestSampling:
    def test_special_unitary(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = haar_su2(rng)
            assert np.allclose(g @ g.conj().T, np.eye(2), atol=1e-12)
            assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-12)

    def test_batch_matches_structure(self):
        gs = haar_su2_batch(np.random.default_rng(1), 1000)
        assert gs.shape == (1000, 2, 2)
        assert np.allclose(gs[:, 1, 0], -gs[:, 0, 1].conj())
        assert np.allclose(gs[:, 1, 1], gs[:, 0, 0].conj())

    def test_batch_is_built_from_rows(self):
        u, v = haar_su2_rows(np.random.Generator(np.random.Philox(key=5)), 1000)
        gs = haar_su2_batch(np.random.Generator(np.random.Philox(key=5)), 1000)
        assert np.array_equal(gs[:, 0, 0], u) and np.array_equal(gs[:, 0, 1], v)
        assert np.array_equal(gs[:, 1, 0], -v.conj())
        assert np.array_equal(gs[:, 1, 1], u.conj())

    def test_su2_rows_are_sphere_rows(self):
        u, v = haar_su2_rows(_rng_for(11), 1000)
        uv = _sphere_rows(_rng_for(11), 1000, 2)
        assert np.array_equal(u, uv[:, 0]) and np.array_equal(v, uv[:, 1])
        # and the stream of the dedicated SU(2) sampler they replaced
        z = _rng_for(11).standard_normal((1000, 4))
        sq = z * z
        old = z.view(complex) / np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3])[:, None]
        assert np.array_equal(uv, old)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_sphere_rows_unit_norm(self, dim):
        rows = _sphere_rows(_rng_for(dim), 1000, dim)
        assert rows.shape == (1000, dim)
        assert np.abs(np.linalg.norm(rows, axis=1) - 1).max() <= 1e-15

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_sphere_rows_moments(self, dim):
        # E|r_j|^2 = 1/D, E|r_j|^4 = 2/(D(D+1)), E|r_0|^2|r_1|^2 = 1/(D(D+1))
        samples = 50_000
        sq = np.abs(_sphere_rows(_rng_for(100 + dim), samples, dim)) ** 2
        cases = [(sq[:, j], 1 / dim) for j in range(dim)]
        cases += [(sq[:, j] ** 2, 2 / (dim * (dim + 1))) for j in range(dim)]
        cases.append((sq[:, 0] * sq[:, 1], 1 / (dim * (dim + 1))))
        for x, expected in cases:
            se = x.std(ddof=1) / sqrt(samples)
            assert abs(x.mean() - expected) <= 5 * se

    def test_seeded_reproducibility(self):
        a = haar_su2_batch(np.random.Generator(np.random.Philox(key=7)), 10)
        b = haar_su2_batch(np.random.Generator(np.random.Philox(key=7)), 10)
        assert np.array_equal(a, b)


class TestMoments:
    def test_battery_within_five_se(self):
        rows = moment_battery(samples=50_000, seed=3)
        for a, b, c, e, est, expected, se in rows:
            if a == 0 and b == 0 and c == 0 and e == 0:
                assert est == pytest.approx(1.0)
                continue
            assert abs(est - expected) <= 5 * se, (a, b, c, e)

    def test_exact_moment_table(self):
        rows = moment_battery(samples=1000, seed=0)
        table = {(a, b, c, e): expected for a, b, c, e, _, expected, _ in rows}
        assert table[(1, 1, 0, 0)] == pytest.approx(0.5)  # E|u|^2
        assert table[(2, 2, 0, 0)] == pytest.approx(1 / 3)  # E|u|^4
        assert table[(1, 1, 1, 1)] == pytest.approx(1 / 6)  # E|u|^2|v|^2
        assert table[(3, 3, 0, 0)] == pytest.approx(1 / 4)
        assert table[(1, 0, 0, 1)] == 0.0  # unmatched conjugates

    def test_row_count(self):
        # all (a,b,c,e) with a+b+c+e <= 6
        rows = moment_battery(samples=100, seed=0)
        assert len(rows) == 210


class TestTwirl:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(4)
        psi = gaussian_state(rng, 3)
        est = twirl_estimate(psi, "110", samples=60_000, seed=5)
        closed = cumulant_invariant(psi, "110")
        assert isinstance(est, TwirlEstimate)
        assert abs(est.mean - closed) <= 5 * est.std_error + 1e-12

    def test_degenerate_two_qubit_case(self):
        # for two qubits the full-support integrand is already invariant,
        # so the estimator collapses onto the exact value with ~zero spread
        psi = gaussian_state(np.random.default_rng(6), 2)
        est = twirl_estimate(psi, "11", samples=5_000, seed=7)
        assert est.mean == pytest.approx(cumulant_invariant(psi, "11"), abs=1e-12)

    def test_seed_determinism(self):
        psi = gaussian_state(np.random.default_rng(8), 3)
        a = twirl_estimate(psi, "111", samples=30_000, seed=9)
        b = twirl_estimate(psi, "111", samples=30_000, seed=9)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_theta_below_two_rejected(self):
        psi = gaussian_state(np.random.default_rng(12), 2)
        with pytest.raises(ValueError):
            twirl_estimate(psi, "10", samples=100, seed=0)

    def test_too_few_samples_rejected(self):
        psi = gaussian_state(np.random.default_rng(13), 2)
        with pytest.raises(ValueError):
            twirl_estimate(psi, "11", samples=1, seed=0)


def _rotate_batch(amps, site, n, gs):
    """Apply per-sample 2x2 matrices at one site of a (samples, 2**n) batch."""
    b = amps.shape[0]
    a = amps.reshape(b, 2 ** (site - 1), 2, 2 ** (n - site))
    return np.einsum("sjk,slkr->sljr", gs, a).reshape(b, 2**n)


def _completed_unitaries(rows):
    """Unitaries U with U[0] = row, one per row.  With x = conj(row) and phi
    the phase of x_0, the Householder reflection P with w = e0 + conj(phi) x
    maps e0 to -conj(phi) x (w_0 >= 1, so nothing cancels); U = -conj(phi) P."""
    x = rows.conj()
    phi = x[:, 0] / np.abs(x[:, 0])
    w = phi.conj()[:, None] * x
    w[:, 0] += 1
    scale = 2 / np.einsum("sj,sj->s", w, w.conj()).real
    p = np.eye(rows.shape[1]) - scale[:, None, None] * np.einsum("sj,sk->sjk", w, w.conj())
    return -phi.conj()[:, None, None] * p


def literal_twirl(amps, bits, gamma, samples, seed, register=0):
    """The twirl as defined: rotate the whole table, one einsum per site and
    a full U(2^register) completed from the drawn row 0, evaluate d term by
    term, keep every sample.  Chunk k of CHUNK samples draws from the k-th
    jump of the Philox stream of the seed."""
    n = len(bits)
    free = n - register
    d = cumulant_poly(bits)
    vals = np.empty(samples)
    done = 0
    while done < samples:
        b = min(CHUNK, samples - done)
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(done // CHUNK))
        rotated = np.broadcast_to(amps, (b, amps.size)).copy()
        for site in range(1, free + 1):
            rotated = _rotate_batch(rotated, site, n, haar_su2_batch(rng, b))
        if register:
            rows = _sphere_rows(rng, b, 2**register)
            us = _completed_unitaries(rows)
            assert np.allclose(us[:, 0], rows, rtol=0, atol=1e-14)
            eye = np.eye(2**register)
            assert np.allclose(us @ us.conj().transpose(0, 2, 1), eye, rtol=0, atol=1e-14)
            rotated = np.einsum(
                "sjk,smk->smj", us, rotated.reshape(b, 2**free, 2**register)
            ).reshape(b, 2**n)
        vals[done : done + b] = np.abs(d.evaluate_batch(rotated)) ** 2
        done += b
    return gamma * vals.mean(), gamma * vals.std(ddof=1) / sqrt(samples)


def _register_oracle(psi, traced, kept, samples, seed):
    # the reordering and scale of register_twirl_estimate, stated again
    kept_bits = parse_index(kept)
    theta, k = sum(kept_bits), len(traced)
    n = len(kept_bits) + k
    order = [s - 1 for s in range(1, n + 1) if s not in traced] + [s - 1 for s in traced]
    amps = psi.coeffs.reshape((2,) * n).transpose(order).reshape(-1)
    gamma = prod(theta + 1 if b == 0 else theta - 1 for b in kept_bits)
    gamma *= comb(2**k + theta - 1, theta)
    return literal_twirl(amps, kept_bits + (0,) * k, gamma, samples, seed, k)


SAMPLES = CHUNK + 123  # a partial last chunk goes through the combine
MANY = 3 * CHUNK + 123  # several whole chunks as well, combined in order


def _close(new, old, absolute=False):
    return abs(new - old) <= 1e-12 * (1.0 if absolute else abs(old))


class TestAgainstLiteralTwirl:
    """Projection, the shared d kernel and streamed statistics against the
    full rotation, on the same draws."""

    @pytest.mark.parametrize(
        "bits", [b for n in (2, 3, 4) for b in invariant_family(n)[1:]], ids=index_str
    )
    def test_site_twirl(self, bits):
        n = len(bits)
        psi = gaussian_state(np.random.default_rng(20 + n), n)
        seed = 30 + int("".join(map(str, bits)), 2)
        est = twirl_estimate(psi, bits, samples=SAMPLES, seed=seed)
        mean, se = literal_twirl(psi.coeffs, bits, gamma_factor(n, sum(bits)), SAMPLES, seed)
        # for two sites |d|^2 does not vary, so its SE is roundoff
        flat = bits == (1, 1)
        assert _close(est.mean, mean)
        assert _close(est.std_error, se, absolute=flat)
        assert est.samples == SAMPLES

    @pytest.mark.parametrize(
        "n,traced,kept",
        [(3, (1,), "11"), (3, (2,), "11"), (3, (3,), "11"),
         (4, (4,), "111"), (4, (2,), "110"), (4, (1,), "101"), (4, (3,), "011"),
         (4, (1, 2), "11"), (4, (2, 4), "11"), (4, (1, 3), "11")],
    )
    def test_register_twirl(self, n, traced, kept):
        psi = gaussian_state(np.random.default_rng(40 + n), n)
        seed = 50 + sum(traced)
        est = register_twirl_estimate(psi, traced, kept, samples=SAMPLES, seed=seed)
        mean, se = _register_oracle(psi, traced, kept, SAMPLES, seed)
        assert _close(est.mean, mean) and _close(est.std_error, se)

    def test_many_chunks(self):
        psi = gaussian_state(np.random.default_rng(24), 4)
        est = twirl_estimate(psi, "1101", samples=MANY, seed=33)
        mean, se = literal_twirl(psi.coeffs, (1, 1, 0, 1), gamma_factor(4, 3), MANY, 33)
        assert _close(est.mean, mean) and _close(est.std_error, se)
        est = register_twirl_estimate(psi, (1, 3), "11", samples=MANY, seed=53)
        mean, se = _register_oracle(psi, (1, 3), "11", MANY, 53)
        assert _close(est.mean, mean) and _close(est.std_error, se)


def _both_twirls(samples):
    psi = gaussian_state(np.random.default_rng(60), 4)
    return (
        twirl_estimate(psi, "1110", samples=samples, seed=61),
        register_twirl_estimate(psi, (2, 4), "11", samples=samples, seed=62),
    )


class TestChunkedRun:
    """The chunks run on every core; what they return does not depend on it."""

    def test_bits_do_not_depend_on_the_worker_count(self, monkeypatch):
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(haar, "WORKERS", workers)
            runs.append(_both_twirls(MANY))
        assert runs[0] == runs[1] == runs[2]

    def test_single_chunk_bits_pinned(self):
        # one chunk draws the unjumped stream, as every chunk did before the
        # chunks had streams of their own: values pinned from that stream
        psi = gaussian_state(np.random.default_rng(23), 3)
        site = twirl_estimate(psi, "111", samples=CHUNK, seed=61)
        assert site.mean.hex() == "0x1.eb3f0383d9c6ep-4"
        assert site.std_error.hex() == "0x1.8b8ea69490b9bp-11"
        psi = gaussian_state(np.random.default_rng(44), 4)
        reg = register_twirl_estimate(psi, (2, 4), "11", samples=CHUNK, seed=62)
        assert reg.mean.hex() == "0x1.2aeb2fb95dff0p-4"
        assert reg.std_error.hex() == "0x1.f4485fe2ba9e5p-12"

    def test_worker_error_reaches_the_cli(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "psi.json"
        save_state(gaussian_state(np.random.default_rng(70), 3), path)
        draw = haar._draw

        def failing(seed, k, b, free, register, out):
            if k == 1:
                raise MemoryError("Unable to allocate")
            return draw(seed, k, b, free, register, out)

        monkeypatch.setattr(haar, "WORKERS", 2)
        monkeypatch.setattr(haar, "_draw", failing)
        threads = threading.active_count()
        code, doc = run_command(["twirl", "--state", str(path), "--index", "111",
                                 "--samples", str(MANY)])
        assert code == 2 and doc is None
        assert "out of memory" in capsys.readouterr().err
        assert threading.active_count() == threads

    def test_closing_early_leaves_no_thread(self, monkeypatch):
        # the caller stops after the first chunk: the queued chunks are
        # cancelled and the running ones joined, within a few seconds
        monkeypatch.setattr(haar, "WORKERS", 2)
        psi = gaussian_state(np.random.default_rng(75), 4)
        bits = parse_index("1110")
        plan = haar._plan(haar.qubit_amps(psi, 4), [bits], 0)
        threads = threading.active_count()
        start = time.perf_counter()
        results = haar._chunk_results(plan, 5, [CHUNK] * 5, 3)
        first = next(results)
        results.close()
        assert time.perf_counter() - start < 5
        assert threading.active_count() == threads
        monkeypatch.setattr(haar, "WORKERS", 1)
        assert np.array_equal(first, next(haar._chunk_results(plan, 5, [CHUNK] * 5, 3)))

    @pytest.mark.parametrize("args", [["--index", "111"], ["--all"]])
    def test_block_error_reaches_the_cli(self, tmp_path, monkeypatch, capsys, args):
        path = tmp_path / "psi.json"
        save_state(gaussian_state(np.random.default_rng(73), 3), path)
        block = haar._block
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 7:  # a block of the second chunk
                raise MemoryError("Unable to allocate")
            return block(*args)

        monkeypatch.setattr(haar, "WORKERS", 2)
        monkeypatch.setattr(haar, "_block", failing)
        threads = threading.active_count()
        code, doc = run_command(["twirl", "--state", str(path), *args,
                                 "--samples", str(MANY)])
        assert code == 2 and doc is None
        assert "out of memory" in capsys.readouterr().err
        assert threading.active_count() == threads

    def test_table_over_the_cap_refused(self, monkeypatch):
        # 1101 over 4 sites: rows of 2 * 4 numbers for 20,000 samples and
        # blocks of 2^3 rows (one 0-site projected) by BLOCK columns, then
        # 130 * 3^2 bytes of schedule; refused before anything is drawn
        chunk = 16 * (8 * CHUNK + 8 * BLOCK)
        monkeypatch.setattr(invariants, "MAX_TABLE_BYTES", chunk + 130 * 9 - 1)
        monkeypatch.setattr(haar, "_draw", None)
        psi = gaussian_state(np.random.default_rng(71), 4)
        with pytest.raises(ValueError, match=r"\(invariants\.MAX_TABLE_BYTES\)"):
            twirl_estimate(psi, "1101", samples=MANY, seed=0)
        monkeypatch.setattr(invariants, "MAX_TABLE_BYTES", chunk + 130 * 9)
        with pytest.raises(TypeError):  # admitted, and drawing starts
            twirl_estimate(psi, "1101", samples=MANY, seed=0)

    def test_fewer_chunks_in_flight_under_the_cap(self, monkeypatch):
        # room for one chunk of 1110 (sized as 1101 above) beside the
        # schedule, then for two: fewer chunks at a time, the same bits
        psi = gaussian_state(np.random.default_rng(72), 4)
        expected = twirl_estimate(psi, "1110", samples=MANY, seed=1)
        chunk_results = haar._chunk_results
        seen = []

        def spy(*args):
            seen.append(args[-1])
            return chunk_results(*args)

        monkeypatch.setattr(haar, "WORKERS", 3)
        monkeypatch.setattr(haar, "_chunk_results", spy)
        two_chunks = 2 * 16 * (8 * CHUNK + 8 * BLOCK)
        monkeypatch.setattr(invariants, "MAX_TABLE_BYTES", two_chunks)
        assert twirl_estimate(psi, "1110", samples=MANY, seed=1) == expected
        monkeypatch.setattr(invariants, "MAX_TABLE_BYTES", two_chunks + 130 * 9)
        assert twirl_estimate(psi, "1110", samples=MANY, seed=1) == expected
        assert seen == [1, 2]

    @pytest.mark.parametrize("workers,cap_chunks,limit", [(2, None, 3), (3, None, 4), (3, 2, 2)])
    def test_chunks_holding_rows_within_the_in_flight_rule(
        self, monkeypatch, workers, cap_chunks, limit
    ):
        # a chunk holds drawn rows from its draw until its last block; at
        # most one more chunk than threads, and no more than fit the cap
        draw, block = haar._draw, haar._block
        lock = threading.Lock()
        live, done, peak, lane = {}, {}, [0], [0, 0]

        def spy_draw(seed, k, b, free, register, out):
            with lock:
                live[k] = -(-b // BLOCK)
                peak[0] = max(peak[0], len(live))
            drawn = draw(seed, k, b, free, register, out)
            done[id(drawn[0])] = k
            return drawn

        def spy_block(plan, drawn, *args):
            with lock:  # blocks share one scratch: never two at once
                lane[0] += 1
                lane[1] = max(lane)
            block(plan, drawn, *args)
            with lock:
                lane[0] -= 1
                k = done[id(drawn[0])]
                live[k] -= 1
                if not live[k]:
                    del live[k]

        monkeypatch.setattr(haar, "WORKERS", workers)
        monkeypatch.setattr(haar, "_draw", spy_draw)
        monkeypatch.setattr(haar, "_block", spy_block)
        if cap_chunks:
            chunk = 16 * (8 * CHUNK + 8 * BLOCK)  # 1110 over 4 sites, as above
            monkeypatch.setattr(invariants, "MAX_TABLE_BYTES", cap_chunks * chunk + 130 * 9)
        psi = gaussian_state(np.random.default_rng(74), 4)
        est = twirl_estimate(psi, "1110", samples=5 * CHUNK, seed=3)
        assert 1 <= peak[0] <= limit and not live and lane == [0, 1]
        monkeypatch.setattr(haar, "WORKERS", 1)
        assert est == twirl_estimate(psi, "1110", samples=5 * CHUNK, seed=3)


class TestFamilyTwirl:
    """One draw per chunk serves every index of the state."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_one_twirl_per_index(self, n):
        psi = gaussian_state(np.random.default_rng(80 + n), n)
        family = twirl_family(psi, samples=MANY, seed=90 + n)
        indices = invariant_family(n)[1:]
        assert list(family) == indices
        for bits in indices:
            one = twirl_estimate(psi, bits, samples=MANY, seed=90 + n)
            est = family[bits]
            assert abs(est.mean - one.mean) <= 1e-13 * abs(one.mean)
            if n > 2:  # for two sites |d|^2 does not vary: the SE is roundoff
                assert abs(est.std_error - one.std_error) <= 1e-13 * one.std_error
            assert (est.samples, est.seed) == (MANY, 90 + n)

    def test_bits_do_not_depend_on_the_worker_count(self, monkeypatch):
        psi = gaussian_state(np.random.default_rng(85), 4)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(haar, "WORKERS", workers)
            runs.append(twirl_family(psi, ["1100", "0111", (1, 1, 1, 1)], MANY, 4))
        assert runs[0] == runs[1] == runs[2]
        assert list(runs[0]) == [(1, 1, 0, 0), (0, 1, 1, 1), (1, 1, 1, 1)]

    def test_subset_projects_the_sites_zero_in_every_index(self):
        # 1100 and 0100... site 4 is 0 in both, so it is projected, and the
        # estimates still match the single-index twirls
        psi = gaussian_state(np.random.default_rng(86), 4)
        family = twirl_family(psi, ["1100", "0110"], samples=SAMPLES, seed=5)
        for bits, est in family.items():
            one = twirl_estimate(psi, bits, samples=SAMPLES, seed=5)
            assert abs(est.mean - one.mean) <= 1e-13 * abs(one.mean)

    @pytest.mark.parametrize(
        "indices,match",
        [(["10"], "theta >= 2"), (["111"], "has 3 sites"), ([], "an index")],
    )
    def test_bad_indices_rejected(self, indices, match):
        psi = gaussian_state(np.random.default_rng(87), 2)
        with pytest.raises(ValueError, match=match):
            twirl_family(psi, indices, samples=100)

    def test_over_the_cap_refused_before_drawing(self, monkeypatch):
        # 1100 and 0110 over 4 sites: rows of 2 * 4 numbers; site 4 is
        # projected, so blocks of 2^3 rows, and each index copies its 2^2
        # support rows; 8 bytes a sample for the second index; one schedule
        chunk = 16 * (8 * CHUNK + (8 + 4) * BLOCK) + 8 * CHUNK
        monkeypatch.setattr(invariants, "MAX_TABLE_BYTES", chunk + 130 * 3 - 1)
        monkeypatch.setattr(haar, "_draw", None)
        psi = gaussian_state(np.random.default_rng(88), 4)
        with pytest.raises(ValueError, match=r"\(invariants\.MAX_TABLE_BYTES\)"):
            twirl_family(psi, ["1100", "0110"], samples=MANY)
        monkeypatch.setattr(invariants, "MAX_TABLE_BYTES", chunk + 130 * 3)
        with pytest.raises(TypeError):  # admitted, and drawing starts
            twirl_family(psi, ["1100", "0110"], samples=MANY)
