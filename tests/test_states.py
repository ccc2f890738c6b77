import json

import numpy as np
import pytest

from luinv.algebra import AlgebraElement
from luinv.cumulants import splitting_indices
from luinv.invariants import cumulant_invariant, invariant_family
from luinv.states import (
    generate_state,
    load_state,
    parse_partition,
    save_state,
    state_digest,
)

from conftest import gaussian_state


class TestFileFormat:
    def test_round_trip_exact(self, tmp_path):
        psi = gaussian_state(np.random.default_rng(3), 3)
        p = tmp_path / "s.json"
        save_state(psi, p)
        back = load_state(p)
        assert back.n == 3 and back.d == 2
        assert (back.coeffs == psi.coeffs).all()

    def test_basis_state_file(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text('{"n":1,"d":2,"amplitudes":[[1,0],[0,0]]}')
        psi = load_state(p)
        assert psi[(0,)] == 1.0 and psi[(1,)] == 0.0

    def test_ghz_file(self, tmp_path):
        amps = [[0.0, 0.0]] * 8
        amps[0] = amps[7] = [2**-0.5, 0.0]
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 3, "amplitudes": amps}))
        psi = load_state(p)
        assert psi.d == 2  # default
        assert psi[(0, 0, 0)] == pytest.approx(2**-0.5)
        assert psi[(1, 1, 1)] == pytest.approx(2**-0.5)

    def test_truncated_list_names_expected_length(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text('{"n":3,"amplitudes":[[1,0],[0,0]]}')
        with pytest.raises(ValueError, match="8"):
            load_state(p)

    @pytest.mark.parametrize(
        "doc,field",
        [
            ('{"amplitudes":[[1,0],[0,0]]}', "'n'"),
            ('{"n":1}', "'amplitudes'"),
            ('{"n":0,"amplitudes":[]}', "'n'"),
            ('{"n":1,"d":1,"amplitudes":[[1,0]]}', "'d'"),
            ('{"n":1,"amplitudes":[[1,0],"x"]}', r"amplitudes\[1\]"),
            ('{"n":1,"amplitudes":[[1,0],[0,0,0]]}', r"amplitudes\[1\]"),
            ("[1,2]", "object"),
            ('{"n":true,"amplitudes":[[1,0],[1,0]]}', "'n'"),
            ('{"n":1,"amplitudes":[[true,0],[0,0]]}', r"amplitudes\[0\]"),
            ('{"n":1,"amplitudes":[[1,0],[0,false]]}', r"amplitudes\[1\]"),
        ],
    )
    def test_diagnostics_name_offending_field(self, tmp_path, doc, field):
        p = tmp_path / "bad.json"
        p.write_text(doc)
        with pytest.raises(ValueError, match=field):
            load_state(p)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "nj.json"
        p.write_text("{nope")
        with pytest.raises(ValueError, match="JSON"):
            load_state(p)

    def test_digest_distinguishes_states(self):
        rng = np.random.default_rng(8)
        a, b = gaussian_state(rng, 2), gaussian_state(rng, 2)
        assert state_digest(a) == state_digest(a)
        assert state_digest(a) != state_digest(b)


class TestPartitionParsing:
    def test_blocks(self):
        assert parse_partition("1,2|3", 3) == ((1, 2), (3,))

    def test_canonical_order(self):
        assert parse_partition("3|2,1", 3) == ((1, 2), (3,))

    @pytest.mark.parametrize(
        "text", ["1,1|2", "1|4", "1|2", "1,2||3", "a|2,3", "1,2,3|"]
    )
    def test_rejects_bad_partitions(self, text):
        with pytest.raises(ValueError):
            parse_partition(text, 3)

    @pytest.mark.parametrize("token", ["a", "-1", "²", "1.0", ""])
    def test_bad_token_named(self, token):
        with pytest.raises(ValueError, match=f"partition site {token!r} is not"):
            parse_partition(f"1,2|{token}", 3)


class TestGenerators:
    def test_ghz(self):
        psi = generate_state("ghz", 3)
        assert psi[(0, 0, 0)] == pytest.approx(2**-0.5)
        assert psi[(1, 1, 1)] == pytest.approx(2**-0.5)
        assert abs(psi.coeffs[1:7]).max() == 0.0

    def test_w(self):
        psi = generate_state("w", 3)
        for idx in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            assert psi[idx] == pytest.approx(3**-0.5)
        assert psi.norm_sq() == pytest.approx(1.0)

    def test_bell_two_sites_only(self):
        psi = generate_state("bell", 2)
        assert psi[(0, 0)] == pytest.approx(2**-0.5)
        assert psi[(1, 1)] == pytest.approx(2**-0.5)
        with pytest.raises(ValueError):
            generate_state("bell", 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            generate_state("cat", 3)

    def test_random_seeded(self):
        a = generate_state("random", 3, seed=5)
        b = generate_state("random", 3, seed=5)
        c = generate_state("random", 3, seed=6)
        assert (a.coeffs == b.coeffs).all()
        assert not (a.coeffs == c.coeffs).all()
        assert a.norm_sq() == pytest.approx(1.0)

    def test_separable_respects_partition(self):
        blocks = ((1, 3), (2,))
        psi = generate_state("separable", 3, seed=2, partition="1,3|2")
        for idx in splitting_indices(blocks, 3):
            assert cumulant_invariant(psi, idx) <= 1e-12
        # support {1,3} sits inside one block, so that invariant survives
        assert cumulant_invariant(psi, (1, 0, 1)) > 1e-6

    def test_separable_default_is_full_product(self):
        psi = generate_state("separable", 3, seed=9)
        for idx in invariant_family(3):
            if sum(idx) >= 2:
                assert cumulant_invariant(psi, idx) <= 1e-12

    def test_separable_bad_partition(self):
        with pytest.raises(ValueError):
            generate_state("separable", 3, seed=0, partition="1|2")
