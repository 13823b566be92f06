"""The bulk number formatter of the text artifacts, gasket._fields, against
Python's own "%.17g" and "%.4f" on seeded values: every binade, random bit
patterns, ties, signed zeros, the format's edges, powers of ten and the
values that are not finite."""

import random
import struct

import numpy as np
import pytest

from kleinlab.gasket import _fields, _join_rows


def texts(fields):
    return _join_rows([fields, b"\n"]).decode().split("\n")[:-1]


def assert_matches_percent(values, fmt):
    values = np.array(values, dtype=float)
    with np.errstate(all="raise"):
        got = texts(_fields(values, fmt))
    assert len(got) == len(values)
    expected = [fmt % v for v in values.tolist()]
    wrong = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
    assert not wrong, wrong[:5]


def every_binade(rng, per_binade):
    """Random mantissas in every binade from the subnormals to 2^1023, of
    both signs."""
    out = []
    for e in range(-1074, 1024):
        for _ in range(per_binade):
            v = (1.0 + rng.random()) * 2.0**e if e >= -1022 else rng.randrange(1, 2**52) * 2.0**-1074
            out.append(v if rng.random() < 0.5 else -v)
    return out


def bit_patterns(rng, count):
    return [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0] for _ in range(count)]


def near(values):
    """Each value and its neighbours one ulp away."""
    return [w for v in values for w in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))]


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308]


def test_g17_matches_percent():
    rng = random.Random(17)
    values = every_binade(rng, 20) + bit_patterns(rng, 30000) + SPECIAL + [1.7976931348623157e308]
    # The powers of ten and their neighbours: the digit count and the
    # exponent roll over there.
    values += near([10.0**k for k in range(-323, 309)])
    # The fixed and exponent forms meet at X = -5/-4 and 16/17.
    for lo in (1e-5, 1e-4, 1e16, 1e17):
        values += [lo * (1.0 + rng.random() * 9.0) for _ in range(2000)]
        values += near([lo * 9.999999999999999, lo * 9.9999999999999995])
    # Short decimals, whose trailing zeros go; integers up to 17 digits.
    values += [rng.randrange(1, 10**6) / 10**rng.randrange(0, 12) for _ in range(20000)]
    values += [float(rng.randrange(1, 10**17)) for _ in range(5000)]
    values += [-v for v in values[-5000:]]
    assert_matches_percent(values, "%.17g")


def test_f4_matches_percent():
    rng = random.Random(4)
    values = [v for v in every_binade(rng, 10) + bit_patterns(rng, 20000) if abs(v) < 1e17]
    values += SPECIAL
    values += [rng.uniform(-1e4, 1e4) for _ in range(30000)]
    values += [10.0 ** rng.uniform(-8, 18) * rng.choice((-1, 1)) for _ in range(30000)]
    # Exact ties (k + 1/2) 10^-4: the doubles that hold one are the odd
    # multiples of 1/32.  % rounds them half to even.
    values += [(2 * m + 1) / 32 for m in range(20000)]
    values += [(2 * rng.randrange(2**45) + 1) / 32 for _ in range(5000)]
    values += [-(2 * m + 1) / 32 for m in range(2000)]
    # Signed zeros and tiny negatives print "-0.0000"; the carries.
    values += [-1e-300, -1e-9, -0.00004999, 0.00005, -0.00005, 0.00015, 9999.99995, -9999.99995, 0.99995]
    # The 10^15 edge, where the bulk path hands over to %.
    values += near([1e15, 1e14, 999999999999999.9, 1e16])
    assert_matches_percent(values, "%.4f")
    # Past 10^15 every value takes %, and its field widens to hold it.
    assert_matches_percent(every_binade(rng, 1)[-1000::5] + [0.5, 1e300, 1.7976931348623157e308], "%.4f")


@pytest.mark.parametrize("fmt", ["%.17g", "%.4f"])
def test_fields_of_short_columns(fmt):
    for values in ([], [0.5], [np.nan], [-0.0, 1e300]):
        assert_matches_percent(values, fmt)


def test_join_rows_lays_fields_beside_text():
    x = _fields(np.array([0.5, -2.0, np.inf]), "%.4f")
    words = np.array([b"ab", b"-", b"cde"]).view(np.uint8).reshape(3, -1)
    assert _join_rows([b"<", x, b" ", words, b">\n"]) == b"<0.5000 ab>\n<-2.0000 ->\n<inf cde>\n"
    assert _join_rows([b"<", x[:0], b">\n"]) == b""
