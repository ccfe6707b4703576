"""Narrow-band spectra and sub-resonance relation enumeration.

A contraction's spectral data is a list of disjoint negative intervals
[lambda_i, mu_i] with block dimensions m_i.  A monomial of block
multi-degree s = (s_1..s_l) targeting block i is admissible ("a
sub-resonance relation") when lambda_i <= sum_j s_j mu_j, evaluated at the
stored rational endpoints; equality counts.  The admissible relations of
total degree up to floor(lambda_1/mu_l) describe the group of
sub-resonance polynomial maps.

All endpoint arithmetic is exact rational; decimal inputs are parsed to
exact fractions so the load-bearing equality case lambda_1 = 2*mu_2 is a
true equality, not a float coincidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exact import format_rational, parse_rational


class NotNarrowBand(ValueError):
    """The narrow-band condition mu_i + mu_l < lambda_i fails."""


@dataclass(frozen=True)
class SpectrumBands:
    """Disjoint increasing intervals [lambda_i, mu_i] < 0 with block dims."""

    intervals: tuple   # ((lambda_i, mu_i) Fractions), increasing
    block_dims: tuple  # positive ints

    def __post_init__(self):
        if not self.intervals or len(self.intervals) != len(self.block_dims):
            raise ValueError("need one (lambda, mu) interval per block")
        for lam, mu in self.intervals:
            if lam > mu:
                raise ValueError(f"interval [{lam}, {mu}] is empty")
        for (_, mu), (lam2, _) in zip(self.intervals, self.intervals[1:]):
            if not mu < lam2:
                raise ValueError("intervals must be disjoint and increasing")
        if not self.intervals[-1][1] < 0:
            raise ValueError("not a contraction: mu_l must be negative")
        if any(d < 1 for d in self.block_dims):
            raise ValueError("block dimensions must be positive")

    @property
    def blocks(self) -> int:
        return len(self.intervals)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    @staticmethod
    def make(intervals, block_dims) -> "SpectrumBands":
        ivs = tuple((parse_rational(a), parse_rational(b)) for a, b in intervals)
        return SpectrumBands(intervals=ivs, block_dims=tuple(int(d) for d in block_dims))

    @staticmethod
    def from_json(obj: dict) -> "SpectrumBands":
        return SpectrumBands.make(obj["intervals"], obj["block_dims"])

    def to_json(self) -> dict:
        return {
            "intervals": [[format_rational(a), format_rational(b)]
                          for a, b in self.intervals],
            "block_dims": list(self.block_dims),
        }


@dataclass(frozen=True, order=True)
class SubResonanceRelation:
    target_block: int   # 1-based i
    exponents: tuple    # s = (s_1..s_l), nonnegative, |s| >= 1
    trivial: bool

    def to_json(self) -> dict:
        return {"target_block": self.target_block,
                "exponents": list(self.exponents),
                "trivial": self.trivial}


@dataclass(frozen=True)
class SRGroupDescriptor:
    bands: SpectrumBands
    degree_bound: int
    relations: tuple
    monomial_count: int

    def nontrivial_relations(self):
        return tuple(r for r in self.relations if not r.trivial)

    def to_json(self) -> dict:
        return {
            "bands": self.bands.to_json(),
            "degree_bound": self.degree_bound,
            "relations": [r.to_json() for r in self.relations],
            "monomial_count": self.monomial_count,
        }


def is_narrow_band(bands: SpectrumBands) -> bool:
    """mu_i + mu_l < lambda_i for every i (strict, exact rationals)."""
    mu_l = bands.intervals[-1][1]
    return all(mu + mu_l < lam for lam, mu in bands.intervals)


def degree_bound(bands: SpectrumBands) -> int:
    """floor(lambda_1 / mu_l): from lambda_1 <= sum s_j mu_j <= |s| mu_l."""
    lam1 = bands.intervals[0][0]
    mu_l = bands.intervals[-1][1]
    ratio = lam1 / mu_l  # both negative, ratio >= 1
    return ratio.numerator // ratio.denominator


def satisfies_relation(bands: SpectrumBands, i: int, s) -> bool:
    """Endpoint test of lambda_i <= sum_j s_j mu_j (i is 1-based)."""
    lam_i = bands.intervals[i - 1][0]
    total = sum(Fraction(sj) * mu for sj, (_, mu) in zip(s, bands.intervals))
    return lam_i <= total


def enumerate_subresonance(bands: SpectrumBands):
    """All relations (i, s) with 1 <= |s| <= degree_bound, deterministic order.

    Trivial relations are the admissible linear ones s = e_j; under the
    narrow band condition every nontrivial relation has s_j = 0 for j <= i.
    """
    bound = degree_bound(bands)
    l = bands.blocks
    out = []
    for i in range(1, l + 1):
        for total in range(1, bound + 1):
            for s in _compositions(total, l):
                if satisfies_relation(bands, i, s):
                    trivial = total == 1
                    out.append(SubResonanceRelation(target_block=i,
                                                    exponents=s, trivial=trivial))
    out.sort(key=lambda r: (r.target_block, r.exponents))
    return out


def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def monomial_space_dimension(bands: SpectrumBands, relations) -> int:
    """Dimension of the coefficient space of sub-resonance maps.

    A relation (i, s) contributes m_i * prod_j C(m_j + s_j - 1, s_j)
    (target components times monomials of degree s_j in the m_j block
    variables).
    """
    dims = bands.block_dims
    total = 0
    for rel in relations:
        m_i = dims[rel.target_block - 1]
        count = 1
        for m_j, s_j in zip(dims, rel.exponents):
            count *= comb(m_j + s_j - 1, s_j)
        total += m_i * count
    return total


def sr_group_descriptor(bands: SpectrumBands) -> SRGroupDescriptor:
    """Descriptor of the sub-resonance group for narrow-band data."""
    if not is_narrow_band(bands):
        raise NotNarrowBand("mu_i + mu_l < lambda_i fails for some i")
    relations = tuple(enumerate_subresonance(bands))
    return SRGroupDescriptor(
        bands=bands,
        degree_bound=degree_bound(bands),
        relations=relations,
        monomial_count=monomial_space_dimension(bands, relations),
    )


def smoothness_metadata(desc: SRGroupDescriptor) -> dict:
    """Which finite-differentiability regime this spectrum demands, read
    from the descriptor's relations.

    Metadata only: strictly narrow spectra admit a C^2 linear normal form
    for C^4 data; the two-block 2:1 resonance case needs C^6 data for a
    C^3 sub-resonance form.
    """
    bands = desc.bands
    lam1 = bands.intervals[0][0]
    mu_l = bands.intervals[-1][1]
    nontrivial = desc.nontrivial_relations()
    if lam1 > 2 * mu_l:
        assert not nontrivial
        return {"regime": "linear (no nontrivial sub-resonance relations)",
                "finite_smoothness": "C2 normal form for C4 data"}
    if (bands.blocks == 2
            and all(r.exponents == (0, 2) and r.target_block == 1
                    for r in nontrivial)):
        return {"regime": "2:1 quadratic resonance",
                "finite_smoothness": "C3 normal form for C6 data"}
    # a descriptor exists only for narrow-band data
    return {"regime": "general narrow-band", "finite_smoothness": "unspecified"}
