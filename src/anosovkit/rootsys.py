"""Restricted root systems of classical types and their Weyl-flow data.

The Lyapunov functionals of a Weyl chamber flow are the restricted roots
(with multiplicities), so the coarse Lyapunov structure and the smoothness
class of the rigidity statement are fully determined by the abstract root
system.  Types A, B, C, D and the non-reduced BC are supported.

Coordinates are exact rationals in R^rank: B/C/D/BC use the standard
epsilon-basis realization; A_n (naturally rank n in an (n+1)-dim space) is
realized by simple-root coordinates, a linear isomorphism that preserves
all proportionality and chamber combinatorics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import chambers


class InvalidType(ValueError):
    """Unknown type label or rank out of range for the type."""


@dataclass(frozen=True)
class RestrictedRootSystem:
    type_label: str
    rank: int
    roots: tuple           # tuple of coefficient tuples (Fractions)
    multiplicities: tuple  # positive ints, aligned with roots

    def root_count(self) -> int:
        return len(self.roots)

    def to_json(self) -> dict:
        return {"type": self.type_label, "rank": self.rank,
                "roots": [[str(x) for x in r] for r in self.roots],
                "multiplicities": list(self.multiplicities)}


def _label_of_root(type_label: str, root) -> str:
    support = [abs(x) for x in root if x != 0]
    if type_label in ("A", "D"):
        return "root"
    if len(support) == 2:
        return "e+e"
    return "2e" if support[0] == 2 else "e"


_EXPECTED_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "BC": lambda n: 2 * n * (n + 1),
}


def build_root_system(type_label: str, rank: int,
                      multiplicities=None) -> RestrictedRootSystem:
    """Standard realization with deterministic ordering.

    ``multiplicities``: optional map from root class label ("root", "e",
    "2e", "e+e") to a positive integer, for non-split real forms.  Default
    is 1 everywhere (split case).
    """
    type_label = type_label.upper()
    if type_label not in _EXPECTED_COUNTS:
        raise InvalidType(f"unknown type {type_label!r}")
    min_rank = {"A": 1, "B": 2, "C": 2, "D": 3, "BC": 1}[type_label]
    if rank < min_rank:
        raise InvalidType(f"type {type_label} needs rank >= {min_rank}")
    n = rank
    roots = []

    def e(i, scale=1):
        return tuple(Fraction(scale * int(j == i)) for j in range(n))

    def epm(i, j, si, sj):
        return tuple(Fraction(si * int(t == i) + sj * int(t == j)) for t in range(n))

    if type_label == "A":
        # simple-root coordinates: e_i - e_j -> consecutive-ones vectors
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                if i == j:
                    continue
                vec = [0] * n
                lo, hi, sign = (i, j, 1) if i < j else (j, i, -1)
                for t in range(lo, hi):
                    vec[t - 1] = sign
                roots.append(tuple(Fraction(x) for x in vec))
    else:
        pm = [1, -1]
        if type_label in ("B", "BC"):
            for i in range(n):
                for s in pm:
                    roots.append(e(i, s))
        if type_label in ("C", "BC"):
            for i in range(n):
                for s in pm:
                    roots.append(e(i, 2 * s))
        for i in range(n):
            for j in range(i + 1, n):
                for si in pm:
                    for sj in pm:
                        roots.append(epm(i, j, si, sj))
    roots = sorted(set(roots))
    expected = _EXPECTED_COUNTS[type_label](n)
    assert len(roots) == expected, (len(roots), expected)
    mults = []
    multiplicities = multiplicities or {}
    for r in roots:
        label = _label_of_root(type_label, r)
        m = int(multiplicities.get(label, 1))
        if m < 1:
            raise InvalidType(f"multiplicity for {label!r} must be positive")
        mults.append(m)
    return RestrictedRootSystem(type_label=type_label, rank=rank,
                                roots=tuple(roots), multiplicities=tuple(mults))


class _RootFunctional:
    __slots__ = ("coeffs", "multiplicity")

    def __init__(self, coeffs, multiplicity):
        self.coeffs = tuple(coeffs)
        self.multiplicity = multiplicity


def weyl_flow_lyapunov_data(system: RestrictedRootSystem) -> dict:
    """Coarse Lyapunov decomposition of the Weyl chamber flow.

    Functionals are the roots with their multiplicities.  The
    proportionality coefficients are checked to lie in {1, 2}: only the
    double of a restricted root can be a restricted root.
    """
    funcs = [_RootFunctional(r, m) for r, m in zip(system.roots,
                                                   system.multiplicities)]
    spaces = chambers.group_functionals(funcs).coarse_spaces
    coeff_sets = sorted({tuple(s.coefficients) for s in spaces})
    for s in spaces:
        assert set(s.coefficients) <= {Fraction(1), Fraction(2)}, s
    report = {
        "type": system.type_label,
        "rank": system.rank,
        "coarse_spaces": len(spaces),
        "coefficient_sets": [[str(c) for c in cs] for cs in coeff_sets],
        "total_dimension": sum(s.dimension for s in spaces),
        "rank_warning": system.rank < 2,
    }
    return report, spaces


def smoothness_class_report(system: RestrictedRootSystem) -> dict:
    """C4 when no two roots are positively proportional, C6 otherwise.

    The doubled-root pairs (short root, its double) force the quadratic
    2:1 normal-form regime and with it the higher smoothness demand.
    """
    _, spaces = weyl_flow_lyapunov_data(system)
    doubled = []
    for s in spaces:
        if any(c != 1 for c in s.coefficients):
            members = s.halfspace.member_functionals
            doubled.append([list(map(str, system.roots[i])) for i in members])
    klass = "C4" if not doubled else "C6"
    return {
        "type": system.type_label,
        "rank": system.rank,
        "class": klass,
        "doubled_root_pairs": doubled,
        "normal_form_regime": ("no nontrivial sub-resonance relations"
                               if klass == "C4" else
                               "2:1 quadratic resonance (doubled roots)"),
        "rank_warning": system.rank < 2,
        "reason": ("no positively proportional restricted roots"
                   if klass == "C4" else
                   f"{len(doubled)} coarse space(s) carry a doubled root"),
    }
