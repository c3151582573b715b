import base64
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tabfusion.artifact import pack_floats, unpack_floats


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


@given(arrays(np.float64, st.integers(0, 40), elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([]))
@example(np.array([-0.0]))
@example(np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, sys.float_info.max, -sys.float_info.max]))
@settings(max_examples=200, deadline=None)
def test_packed_floats_come_back_bit_exact(a):
    text = pack_floats(a)
    # deterministic, and little-endian whatever the input's byte order
    assert text == pack_floats(a.copy()) == pack_floats(a.astype(">f8"))
    assert text == _b64(a.astype("<f8").tobytes())
    back = unpack_floats("'w'", text)
    assert back.dtype == np.float64 and back.shape == a.shape and back.tobytes() == a.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pack_floats_refuses_non_finite_values(bad):
    with pytest.raises(ValueError, match="non-finite"):
        pack_floats([0.5, bad, 1.0])


_EIGHT_BYTES = _b64(np.array([0.5]).tobytes())  # "AAAAAAAA4D8="


@pytest.mark.parametrize(
    "text, detail",
    [
        # not a str: the JSON types a list of numbers or a number would bring, and bytes
        (None, "must be base64 text, got NoneType"),
        (0.5, "must be base64 text, got float"),
        (True, "must be base64 text, got bool"),
        ([0.5], "must be base64 text, got list"),
        ({"a": 1}, "must be base64 text, got dict"),
        (_EIGHT_BYTES.encode("ascii"), "must be base64 text, got bytes"),
        # a character outside the base64 alphabet
        (_EIGHT_BYTES + "\n", "is not base64 text"),
        (_EIGHT_BYTES[:4] + "\n" + _EIGHT_BYTES[4:], "is not base64 text"),
        (_EIGHT_BYTES[:4] + " " + _EIGHT_BYTES[4:], "is not base64 text"),
        (_EIGHT_BYTES.replace("4", "-"), "is not base64 text"),  # the URL-safe alphabet
        (_EIGHT_BYTES.replace("4", "é"), "is not base64 text"),
        ("0.5", "is not base64 text"),
        # bad padding
        (_EIGHT_BYTES.rstrip("="), "is not base64 text"),
        (_EIGHT_BYTES + "=", "is not base64 text"),
        ("=" + _EIGHT_BYTES.rstrip("="), "is not base64 text"),
        (_EIGHT_BYTES + _EIGHT_BYTES, "is not base64 text"),
        # a byte count that is not a multiple of 8
        (_b64(bytes(7)), "holds 7 bytes, not a whole number of float64 values"),
        (_b64(bytes(9)), "holds 9 bytes, not a whole number of float64 values"),
        (_b64(bytes(1)), "holds 1 bytes, not a whole number of float64 values"),
        # non-finite values
        (_b64(np.array([0.5, np.nan]).tobytes()), "holds non-finite values"),
        (_b64(np.array([np.inf]).tobytes()), "holds non-finite values"),
        (_b64(np.array([-np.inf, 1.0]).tobytes()), "holds non-finite values"),
        (_b64(bytes.fromhex("010000000000f07f")), "holds non-finite values"),  # a signalling NaN
    ],
)
def test_unpack_floats_rejects_anything_but_base64_text_of_finite_float64s(text, detail):
    with pytest.raises(ValueError, match="^'w' " + detail):
        unpack_floats("'w'", text)
