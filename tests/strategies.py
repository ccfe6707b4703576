"""Hypothesis strategies for the actions that several test modules draw."""

from hypothesis import assume
from hypothesis import strategies as st

# the fields of the unit-sum fuzz: x^2 - 3x + 1, x^2 - x - 1, x^3 - x - 1 (a
# complex pair), x^4 - x - 1, the corpus's real cubic and quartic, the Salem
# quartic, Phi_4 and Phi_6
UNIT_POLYS = [(1, -3, 1), (1, -1, -1), (1, 0, -1, -1), (1, 0, 0, -1, -1), (1, 0, -3, 1),
              (1, 0, -4, 0, 1), (1, -1, -1, -1, 1), (1, 0, 1), (1, -1, 1)]
# the pass-biased family: the real cubic, the real quartic and x^4 - x - 1
PASS_POLYS = [(1, 0, -3, 1), (1, 0, -4, 0, 1), (1, 0, 0, -1, -1)]


def block_units(poly):
    """The companion C of ``poly`` and the first unimodular C - aI, a = 1, -1,
    2, -2 (|poly(a)| = 1), where there is one."""
    n = len(poly) - 1
    c = [[int(i == j + 1) for j in range(n)] for i in range(n)]
    for i in range(n):
        c[i][n - 1] = -poly[n - i]
    units = [c]
    for a in (1, -1, 2, -2):
        if abs(sum(x * a ** (n - i) for i, x in enumerate(poly))) == 1:
            units.append([[x - a * (i == j) for j, x in enumerate(row)]
                          for i, row in enumerate(c)])
            break
    return units


@st.composite
def unit_sums(draw, pass_biased=False):
    """k generators acting on a direct sum of 1-3 blocks (dim <= 9), each
    block a product of powers of one or two units of its field, conjugated by
    0-4 transvections.  In the pass-biased family k = 2 and every block has
    two units with an invertible exponent matrix."""
    import sympy

    k = 2 if pass_biased else draw(st.sampled_from([2, 3]))
    polys = draw(st.lists(st.sampled_from(PASS_POLYS if pass_biased else UNIT_POLYS),
                          min_size=1, max_size=3)
                 .filter(lambda ps: sum(len(p) - 1 for p in ps) <= 9))
    dim = sum(len(p) - 1 for p in polys)
    gens = [sympy.zeros(dim, dim) for _ in range(k)]
    at = 0
    for poly in polys:
        units = block_units(poly)
        if pass_biased:
            units = units[:2]
            exps = draw(st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2),
                                 min_size=2, max_size=2)
                        .filter(lambda e: e[0][0] * e[1][1] != e[0][1] * e[1][0]))
        else:
            units = units[:draw(st.integers(1, len(units)))]
            exps = [[draw(st.integers(-2, 2)) for _ in units] for _ in range(k)]
        size = len(poly) - 1
        for g in range(k):
            block = sympy.eye(size)
            for u, e in zip(units, exps[g]):
                block *= sympy.Matrix(u) ** e
            gens[g][at:at + size, at:at + size] = block
        at += size
    p = sympy.eye(dim)
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
        p[i, :] += draw(st.sampled_from([1, -1])) * p[j, :]
    return [[[int(x) for x in (p * g * p.inv()).row(r)] for r in range(dim)] for g in gens]


def cat_power_blocks(exponents):
    """Generator g acts on 2 x 2 block i as C^(exponents[i][g]), C the cat map."""
    cat, inv = [[2, 1], [1, 1]], [[1, -1], [-1, 2]]

    def power(e):
        m = [[1, 0], [0, 1]]
        for _ in range(abs(e)):
            m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*(cat if e > 0 else inv))]
                 for row in m]
        return m

    n = 2 * len(exponents)
    gens = []
    for g in range(len(exponents[0])):
        m = [[0] * n for _ in range(n)]
        for i, e in enumerate(exponents):
            for r, row in enumerate(power(e[g])):
                m[2 * i + r][2 * i:2 * i + 2] = row
        gens.append(m)
    return gens


@st.composite
def cat_power_sums(draw):
    """Exponents for ``cat_power_blocks``: 2-3 blocks, k = 2 or 3, each in [-3, 3]."""
    k = draw(st.sampled_from([2, 3]))
    blocks = draw(st.integers(2, 3))
    return [tuple(draw(st.integers(-3, 3)) for _ in range(k)) for _ in range(blocks)]


@st.composite
def semisimple_matrices(draw, max_dim=5, max_entry=64):
    """Integer matrices of dimension 2..max_dim with entries of size at most
    max_entry that are diagonalizable over C: a direct sum of 1 x 1 blocks
    and 2 x 2 blocks with distinct eigenvalues (complex pairs included), one
    of them possibly repeated (repeated eigenvalues), conjugated by 0-4
    integer transvections."""
    entry = st.integers(-4, 4)
    two = st.lists(st.lists(entry, min_size=2, max_size=2), min_size=2, max_size=2).filter(
        lambda m: (m[0][0] - m[1][1]) ** 2 + 4 * m[0][1] * m[1][0] != 0)
    blocks = draw(st.lists(st.one_of(entry.map(lambda x: [[x]]), two), min_size=1, max_size=3))
    if draw(st.booleans()):
        blocks.append(draw(st.sampled_from(blocks)))
    dim = sum(len(b) for b in blocks)
    assume(2 <= dim <= max_dim)
    a = [[0] * dim for _ in range(dim)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            a[at + i][at:at + len(b)] = row
        at += len(b)
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
        s = draw(st.sampled_from([1, -1]))
        # a -> E a E^-1 for E = I + s e_ij: row i += s row j, then column j -= s column i
        a[i] = [x + s * y for x, y in zip(a[i], a[j])]
        for row in a:
            row[j] -= s * row[i]
    assume(max(abs(x) for row in a for x in row) <= max_entry)
    return a
