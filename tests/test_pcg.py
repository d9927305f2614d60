"""The in-package PCG64 stream against numpy.random.default_rng, its oracle:
the same doubles bit for bit and the same 128-bit state after the draws."""

import subprocess
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_cli import child_env

from tpsgeo import pcg

# a seed of each bit length up to 161 alike, so seeds of five and six
# 32-bit words, more than the entropy pool holds, are common
SEED = st.integers(0, 161).flatmap(lambda bits: st.integers(1 << bits >> 1, (1 << bits) - 1))
# any two of these are at most 2e300 apart, so every width is finite
BOUND = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw):
    """(low, high): two scalars, or one bound per column of a (k, 2) draw."""
    (lo0, hi0), (lo1, hi1) = (sorted((draw(BOUND), draw(BOUND))) for _ in range(2))
    if draw(st.booleans()):
        return lo0, hi0
    return (lo0, lo1), (hi0, hi1)


@settings(max_examples=200, deadline=None)
# one 32-bit entropy word, three, four (the whole pool), five and more
@example(seed=0, box=(-2.0, 2.0), k=50)
@example(seed=20260825, box=((-1.5, 1.3), (1.5, 4.0)), k=100)
@example(seed=2**96 - 1, box=(0.0, 1.0), k=3)
@example(seed=2**128 - 1, box=(0.0, 1.0), k=3)
@example(seed=2**128, box=(0.0, 1.0), k=3)
@example(seed=2**160 + 2**32 + 7, box=((-1.0, 0.5), (1.0, 3.0)), k=0)
@given(seed=SEED, box=boxes(), k=st.integers(0, 50))
def test_the_stream_is_numpys_default_rng(seed, box, k):
    # numpy computes low + (high - low) * u in C; a platform whose compiler
    # fuses that into one multiply-add rounds differently and fails here
    low, high = box
    rng, replica = np.random.default_rng(seed), pcg.PCG64(seed)
    want = rng.uniform(low, high, size=(k, 2))
    got = replica.uniform(low, high, size=(k, 2))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state["state"] == {"state": replica.state, "inc": replica.inc}


def test_the_legendre_suite_loads_no_numpy_random():
    # numpy.random and the hashing modules it pulls in cost the verify-all
    # worker about 6 MB of RSS; the suite draws from the replica instead
    probe = (
        "import sys; from tpsgeo import suites; suites.SUITES['legendre'](None); "
        "print(sorted({'numpy.random', 'secrets', 'hashlib'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
