import numpy as np
import pytest

from luinv.algebra import AlgebraElement, exp, log
from luinv.cumulants import (
    APolynomial,
    check_partition,
    cumulant_poly,
    cumulant_table,
    dimension_counts,
    parse_index,
    partitions_of,
    set_partitions,
    splits_partition,
    splitting_indices,
    support,
)
from luinv.haar import twirl_estimate
from luinv.invariants import cumulant_invariant, invariant_family
from conftest import anchored_state, gaussian_state
from lift_oracle import raised


BELL = AlgebraElement(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
GHZ3 = AlgebraElement(3, 2, np.concatenate(([1], np.zeros(6), [1])) / np.sqrt(2))


def same_terms(poly: APolynomial, expected: dict, tol: float = 0.0) -> bool:
    """Whether a polynomial has exactly the {key: coeff} terms given."""
    want = {tuple(sorted(k)): complex(c) for k, c in expected.items() if c != 0}
    if set(want) != set(poly.terms):
        return False
    return all(abs(poly.terms[k] - want[k]) <= tol for k in want)


def lowered(poly: APolynomial, site: int) -> APolynomial:
    """Lowering operator L_site: set the site's digit to 0 in every factor."""
    mask = ~(1 << (poly.n - site))
    new: dict[tuple[int, ...], complex] = {}
    for key, coeff in poly.terms.items():
        lk = tuple(sorted(f & mask for f in key))
        new[lk] = new.get(lk, 0) + coeff
    return APolynomial(poly.n, new)


def test_parse_index():
    assert parse_index("0110") == (0, 1, 1, 0)
    assert parse_index([1, 0]) == (1, 0)
    assert support("0110") == (2, 3)
    for bad in ("", "012", "1a0"):
        with pytest.raises(ValueError):
            parse_index(bad)


def test_set_partition_counts():
    # Bell numbers 1, 2, 5, 15, 52, 203
    for m, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]:
        assert len(set_partitions(m)) == bell


def test_set_partition_order_and_blocks():
    # restricted-growth lex order for m = 3
    assert set_partitions(3) == [
        ((1, 2, 3),),
        ((1, 2), (3,)),
        ((1, 3), (2,)),
        ((1,), (2, 3)),
        ((1,), (2,), (3,)),
    ]
    # every partition covers the ground set with disjoint blocks
    for blocks in set_partitions(4):
        assert sorted(x for b in blocks for x in b) == [1, 2, 3, 4]


def test_set_partition_guard():
    for m in (0, 13):
        with pytest.raises(ValueError):
            set_partitions(m)


def test_partitions_of_relabels():
    got = list(partitions_of([2, 5]))
    assert got == [((2, 5),), ((2,), (5,))]


def test_check_partition():
    assert check_partition([(3,), (1, 2)], 3) == ((1, 2), (3,))
    with pytest.raises(ValueError):
        check_partition([(1, 2)], 3)
    with pytest.raises(ValueError):
        check_partition([(1, 2), (2, 3)], 3)
    with pytest.raises(ValueError):
        check_partition([(1, 4)], 3)


def test_cumulant_poly_theta1():
    p = cumulant_poly("100")
    assert same_terms(p, {(4,): 1})


def test_cumulant_poly_pair():
    # d_11 = a00 a11 - a01 a10
    p = cumulant_poly("11")
    assert same_terms(p, {(0, 3): 1, (1, 2): -1})


def test_cumulant_poly_triple():
    # d_111 = a000^2 a111 - a000(a110 a001 + a101 a010 + a011 a100)
    #         + 2 a100 a010 a001
    p = cumulant_poly("111")
    assert same_terms(
        p, {(0, 0, 7): 1, (0, 1, 6): -1, (0, 2, 5): -1, (0, 3, 4): -1, (1, 2, 4): 2}
    )


def test_cumulant_poly_embedded_pair():
    # zeros in the index only pad the word length
    p = cumulant_poly("101")
    assert same_terms(p, {(0, 5): 1, (1, 4): -1})


def test_cumulant_values_frozen():
    assert np.isclose(cumulant_poly("11").evaluate(BELL), 0.5)
    assert np.isclose(cumulant_poly("111").evaluate(GHZ3), 1 / (2 * np.sqrt(2)))


def test_cumulant_poly_matches_log():
    # a_{0..0}^theta * c_index equals the cleared-denominator polynomial
    rng = np.random.default_rng(101)
    for n in (2, 3, 4):
        for _ in range(5):
            psi = anchored_state(rng, n)
            c = cumulant_table(psi)
            a0 = psi.constant_term
            for flat in range(1, 2**n):
                bits = tuple((flat >> (n - 1 - i)) & 1 for i in range(n))
                theta = sum(bits)
                d_val = cumulant_poly(bits).evaluate(psi)
                assert abs(d_val - a0**theta * c[flat]) < 1e-12


def test_cumulant_table_constant_term():
    rng = np.random.default_rng(5)
    psi = anchored_state(rng, 3)
    c = cumulant_table(psi)
    assert np.isclose(c[0], np.log(psi.constant_term))


def test_raising_basics():
    d110 = cumulant_poly("110")
    # R_{3,0} is the identity
    assert same_terms(raised(d110, 3, 0), d110.terms)
    # R_{3,1} d110 = a111 a000 + a110 a001 - a101 a010 - a100 a011
    assert same_terms(raised(d110, 3, 1), {(0, 7): 1, (1, 6): 1, (2, 5): -1, (3, 4): -1})
    # R_{3,2} d110 = a111 a001 - a101 a011
    assert same_terms(raised(d110, 3, 2), {(1, 7): 1, (3, 5): -1})
    # more raises than 0-slots: zero polynomial
    assert raised(d110, 3, 3).terms == {}


def test_raising_site_with_one():
    # R_{1,1} d11 = a10 a11 - a11 a10, identically zero
    d11 = cumulant_poly("11")
    assert raised(d11, 1, 1).terms == {}
    # R_{1,1} d111, expanded by hand slot by slot
    d111 = cumulant_poly("111")
    assert same_terms(
        raised(d111, 1, 1),
        {(0, 4, 7): 1, (1, 4, 6): 1, (0, 5, 6): -2, (2, 4, 5): 1, (3, 4, 4): -1}
    )


def test_raising_repeated_slots_weighting():
    # both a0 slots of a monomial are independently flippable
    p = APolynomial(1, {(0, 0): 1.0})
    assert same_terms(raised(p, 1, 1), {(0, 1): 2})
    assert same_terms(raised(p, 1, 2), {(1, 1): 1})


def test_raising_commutes_across_sites():
    d = cumulant_poly("1101")
    a = raised(raised(d, 2, 1), 3, 2)
    b = raised(raised(d, 3, 2), 2, 1)
    assert same_terms(a, b.terms)


def test_raising_top_counts_vanish():
    # At a 1-site every monomial of d has at most theta-1 digit-0 slots, and
    # R_{i,theta-1} d cancels to no terms: F(t) then has degree <= theta-2 in
    # t_i, which is what lets the evaluator's 1-site grid axes have length
    # theta-1.  Symbolic, for every family index with n <= 5.
    for n in range(2, 6):
        for bits in invariant_family(n)[1:]:
            theta = sum(bits)
            d = cumulant_poly(bits)
            for site in support(bits):
                assert raised(d, site, theta).terms == {}
                assert raised(d, site, theta - 1).terms == {}, (bits, site)


def test_lowering():
    p = APolynomial(2, {(1, 2): 1.0})  # a01 a10
    assert same_terms(lowered(p, 2), {(0, 2): 1})  # a00 a10
    # L_i annihilates cumulant polynomials at their own 1-sites
    for index in ("11", "110", "111", "1011"):
        d = cumulant_poly(index)
        for site in support(index):
            assert lowered(d, site).terms == {}


def test_apolynomial_validation():
    with pytest.raises(ValueError):
        APolynomial(2, {(0,): 1, (0, 1): 1})  # inhomogeneous
    with pytest.raises(ValueError):
        APolynomial(1, {(2,): 1})  # factor out of range
    p = APolynomial(2, {(0, 3): 1, (3, 0): -1})  # cancels to zero
    assert p.terms == {}
    assert p.evaluate(BELL) == 0


def test_evaluate_batch():
    rng = np.random.default_rng(31)
    amps = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
    p = cumulant_poly("11")
    vals = p.evaluate_batch(amps)
    for s in range(10):
        assert np.isclose(vals[s], p.evaluate(amps[s]))


def test_splits_partition():
    assert not splits_partition("110", [(1, 2), (3,)])
    assert splits_partition("110", [(1,), (2, 3)])
    assert splits_partition("111", [(1, 2), (3,)])
    assert not splits_partition("100", [(1,), (2,), (3,)])


def test_splitting_indices():
    got = splitting_indices([(1, 2), (3,)], 3)
    # exactly the indices with a 1 in {1,2} and a 1 at 3
    assert set(got) == {(0, 1, 1), (1, 0, 1), (1, 1, 1)}


def test_dimension_counts_frozen():
    # n=3, d=2, blocks {1,2}|{3}: d_pi = 6 + 2 = 8, N_pi = 7 - (3 + 1) = 3
    assert dimension_counts(3, 2, [(1, 2), (3,)]) == (8, 3)
    assert dimension_counts(2, 2, [(1, 2)]) == (6, 0)


def test_dimension_count_identity():
    for n in (2, 3, 4):
        for d in (2, 3):
            for blocks in set_partitions(n):
                d_pi, n_pi = dimension_counts(n, d, blocks)
                assert d_pi == (2 * d**n - 2) - 2 * n_pi


def test_zeroed_splitting_cumulants_factorize():
    # zero every splitting cumulant of pi, exponentiate, and the result
    # is rank one across each block-vs-rest cut
    rng = np.random.default_rng(41)
    for blocks in [((1, 2), (3,)), ((1, 3), (2,)), ((1,), (2,), (3,))]:
        psi = anchored_state(rng, 3)
        c = cumulant_table(psi)
        for bits in splitting_indices(blocks, 3):
            flat = int("".join(map(str, bits)), 2)
            c[flat] = 0.0
        chi = exp(AlgebraElement(3, 2, c))
        t = chi.tensor()
        for block in blocks:
            rest = tuple(s for s in (1, 2, 3) if s not in block)
            perm = [s - 1 for s in block + rest]
            m = t.transpose(perm).reshape(2 ** len(block), 2 ** len(rest))
            svals = np.linalg.svd(m, compute_uv=False)
            assert svals[1:].max(initial=0.0) < 1e-10 * svals[0]


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda state, idx: cumulant_poly(idx).evaluate(state),
        cumulant_invariant,
        lambda state, idx: twirl_estimate(state, idx, samples=100),
    ],
    ids=["APolynomial.evaluate", "cumulant_invariant", "twirl_estimate"],
)
def test_amplitude_tables_are_checked(evaluate):
    with pytest.raises(ValueError, match="qubits only"):
        evaluate(AlgebraElement.one(2, 3), "11")
    with pytest.raises(ValueError, match="3 sites, expected 2"):
        evaluate(GHZ3, "11")
    with pytest.raises(ValueError, match="length 8, expected 4"):
        evaluate(GHZ3.coeffs, "11")
