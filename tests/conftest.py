import random

import pytest

from cycrew import UniversalContext, samples
from cycrew.constructions import FiniteGroupTable, hnn_pregroup
from cycrew.pregroup import Pregroup

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def corpus_pregroups():
    return [
        ("dinf", samples.dihedral_infinity()),
        ("z4z6", samples.z4_amalgam_z6()),
        ("hnn", samples.hnn_s3()),
        ("free", samples.free_pregroup(2)),
        ("z4-table", samples.z4_table()),
        ("s3-table", samples.s3_table()),
    ]


def hnn_cyclic(n, k):
    """HNN(Z_n, t; t^-1 A t = A), A the subgroup of order k, phi the
    identity."""
    H = FiniteGroupTable.cyclic(n, "x")
    sub = [tok for i, tok in enumerate(H.elements) if i % (n // k) == 0]
    return hnn_pregroup(H, sub, sub, {tok: tok for tok in sub})


def hnn_z10_z2():
    """HNN(Z10, t; t^-1 A t = A) with A of order 2; |P| = 110."""
    return hnn_cyclic(10, 2)


def p6_failing():
    """The smallest pregroup on which P6 fails: epsilon, x, x~, y, y~ and
    z = z~, with [xz] = y, [x~y] = z, [yz] = x, [y~x] = z, [zx~] = y~ and
    [zy~] = x~ besides the epsilon and inverse entries.  P1-P5 hold, G_P =
    {epsilon}, and check_p6 gives the witness (f, g, b) = (x, y~, z)."""
    inverse = {"x": "X", "X": "x", "y": "Y", "Y": "y", "z": "z"}
    product = {(a, b): "e" for a, b in inverse.items()}
    product.update({
        ("x", "z"): "y", ("X", "y"): "z", ("y", "z"): "x",
        ("Y", "x"): "z", ("z", "X"): "Y", ("z", "Y"): "X",
    })
    return Pregroup(("e", "x", "X", "y", "Y", "z"), "e", inverse, product)


@pytest.fixture(scope="session")
def dinf():
    return samples.dihedral_infinity()


@pytest.fixture(scope="session")
def z4z6():
    return samples.z4_amalgam_z6()


@pytest.fixture(scope="session")
def hnn():
    return samples.hnn_s3()


@pytest.fixture(scope="session")
def dinf_ctx(dinf):
    return UniversalContext(dinf)


@pytest.fixture(scope="session")
def z4z6_ctx(z4z6):
    return UniversalContext(z4z6)


@pytest.fixture(scope="session")
def hnn_ctx(hnn):
    return UniversalContext(hnn)


@pytest.fixture(scope="session")
def free_ctx():
    return UniversalContext(samples.free_pregroup(2))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_word(rng, k, max_len, min_len=0):
    n = rng.randrange(min_len, max_len + 1)
    return tuple(rng.randrange(k) for _ in range(n))


def conjugated(rng, ctx, w, max_conj=3):
    """w conjugated by a random short word, as an unreduced gamma word."""
    from cycrew.words import involute

    x = random_word(rng, len(ctx.alphabet), max_conj)
    return x + w + involute(x, ctx.alphabet)
