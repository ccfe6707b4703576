import random
from fractions import Fraction

import pytest

from anosovkit import resonance as rz
from anosovkit.jsonio import stable_dumps
from oracles import brute_force_relations


def bands_21():
    return rz.SpectrumBands.make(
        [["-1386294/1000000", "-1386294/1000000"],
         ["-693147/1000000", "-693147/1000000"]], [1, 1])


# ---------------------------------------------------------------------------
# narrow band condition
# ---------------------------------------------------------------------------


def test_single_band_narrow():
    b = rz.SpectrumBands.make([["-0.9624", "-0.9624"]], [1])
    assert rz.is_narrow_band(b)


def test_two_band_narrow():
    b = rz.SpectrumBands.make([["-1.386", "-1.386"], ["-0.693", "-0.693"]], [1, 1])
    assert rz.is_narrow_band(b)


def test_narrow_band_boundary_strict():
    # mu_1 + mu_2 == lambda_1 exactly: not narrow (strict inequality)
    b = rz.SpectrumBands.make([[-5, -4], [-1, -1]], [1, 1])
    assert not rz.is_narrow_band(b)
    b2 = rz.SpectrumBands.make([[-3, -3], [-1, -1]], [1, 1])
    assert rz.is_narrow_band(b2)


def test_band_validation():
    with pytest.raises(ValueError):
        rz.SpectrumBands.make([[-1, -0.5], [-0.7, -0.2]], [1, 1])  # overlap
    with pytest.raises(ValueError):
        rz.SpectrumBands.make([[-1, -0.5], [-0.2, 0.1]], [1, 1])   # not contraction
    with pytest.raises(ValueError):
        rz.SpectrumBands.make([[-0.5, -1]], [1])                   # empty interval


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_single_block_linear_only():
    b = rz.SpectrumBands.make([["-1.386", "-1.386"]], [1])
    rels = rz.enumerate_subresonance(b)
    assert [(r.target_block, r.exponents, r.trivial) for r in rels] == \
        [(1, (1,), True)]


def test_21_relations():
    rels = rz.enumerate_subresonance(bands_21())
    as_tuples = [(r.target_block, r.exponents, r.trivial) for r in rels]
    assert as_tuples == [
        (1, (0, 1), True),
        (1, (0, 2), False),
        (1, (1, 0), True),
        (2, (0, 1), True),
    ]


def test_strictly_narrow_has_no_nontrivial():
    b = rz.SpectrumBands.make([["-0.8", "-0.75"], ["-0.5", "-0.45"]], [1, 1])
    assert all(r.trivial for r in rz.enumerate_subresonance(b))


def test_nontrivial_upper_block_vanishing():
    # narrow band: nontrivial (i, s) has s_j = 0 for j <= i
    rng = random.Random(17)
    found = 0
    while found < 40:
        bands = _random_narrow_bands(rng)
        if bands is None:
            continue
        found += 1
        for r in rz.enumerate_subresonance(bands):
            if not r.trivial:
                assert all(r.exponents[j] == 0 for j in range(r.target_block))


def _random_narrow_bands(rng, max_blocks=4, max_bound=6):
    l = rng.randint(1, max_blocks)
    points = sorted({Fraction(rng.randint(-60, -4), 40) for _ in range(2 * l)})
    if len(points) < 2 * l:
        return None
    intervals = [(points[2 * i], points[2 * i + 1]) for i in range(l)]
    try:
        bands = rz.SpectrumBands.make(intervals, [rng.randint(1, 3) for _ in range(l)])
    except ValueError:
        return None
    if not rz.is_narrow_band(bands) or rz.degree_bound(bands) > max_bound:
        return None
    return bands


def test_oracle_equivalence_sample():
    rng = random.Random(23)
    found = 0
    while found < 30:
        bands = _random_narrow_bands(rng)
        if bands is None:
            continue
        found += 1
        assert rz.enumerate_subresonance(bands) == brute_force_relations(bands)


# ---------------------------------------------------------------------------
# descriptor
# ---------------------------------------------------------------------------


def test_21_descriptor_counts():
    d = rz.sr_group_descriptor(bands_21())
    assert d.degree_bound == 2
    assert d.monomial_count == 4
    assert len(d.nontrivial_relations()) == 1
    assert d.nontrivial_relations()[0].exponents == (0, 2)


def test_block_triangular_count():
    b = rz.SpectrumBands.make([["-0.8", "-0.75"], ["-0.5", "-0.45"]], [2, 1])
    assert rz.sr_group_descriptor(b).monomial_count == 7


def test_gl_count():
    b = rz.SpectrumBands.make([["-0.9", "-0.5"]], [3])
    assert rz.sr_group_descriptor(b).monomial_count == 9


def test_descriptor_requires_narrow():
    b = rz.SpectrumBands.make([[-5, -4], [-1, -1]], [1, 1])
    with pytest.raises(rz.NotNarrowBand):
        rz.sr_group_descriptor(b)


def test_descriptor_json_deterministic():
    a = stable_dumps(rz.sr_group_descriptor(bands_21()).to_json())
    b = stable_dumps(rz.sr_group_descriptor(bands_21()).to_json())
    assert a == b
    assert "degree_bound" in a


def test_json_roundtrip():
    b = bands_21()
    again = rz.SpectrumBands.from_json(b.to_json())
    assert again == b
