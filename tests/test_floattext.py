"""floattext.format_floats against repr: a seeded sweep of random bit
patterns, a hypothesis property, and the boundary values of the layout
and of the Schubfach steps."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2qes import floattext
from sl2qes.floattext import CHUNK, format_floats


def _reference(values, seps) -> str:
    return "".join(repr(v) + chr(s)
                   for v, s in zip(np.asarray(values, float).tolist(),
                                   np.asarray(seps).tolist()))


def _mismatches(values, sep=ord(",")):
    """The values whose text differs from repr, with both texts."""
    values = np.asarray(values, float)
    got = format_floats(values, sep).split(chr(sep))[:-1]
    want = [repr(v) for v in values.tolist()]
    assert len(got) == len(want)
    return [(v, g, w) for v, g, w in zip(values.tolist(), got, want)
            if g != w]


def test_a_million_random_bit_patterns_take_repr_text():
    bits = np.random.default_rng(20).integers(0, 2**64, 1_000_000,
                                              dtype=np.uint64)
    values = bits.view(np.float64)
    assert np.isfinite(values).sum() > 990_000
    assert _mismatches(values) == []


def _explicit_values() -> list[float]:
    tiny = 2.2250738585072014e-308     # the lowest normal double
    values = [0.0, -0.0, 5e-324, tiny, math.nextafter(tiny, 0.0),
              math.nextafter(tiny, 1.0), 1e16, 9999999999999998.0, 1e-4,
              9.999999999999999e-05, 1e-5, 2.0**53 + 2, 2.0**53 - 2,
              123456789012345680.0, math.inf, -math.inf, math.nan]
    for e in range(-1074, 1024):
        power = math.ldexp(1.0, e)
        values += [power, math.nextafter(power, 0.0),
                   math.nextafter(power, math.inf)]
    values += [float(f"1e{k}") for k in range(-323, 309)]
    return values


def test_the_explicit_list_takes_repr_text():
    values = np.array(_explicit_values())
    assert _mismatches(values) == []
    assert _mismatches(-values) == []
    assert (format_floats(values[:17], ord("\n")).splitlines()[:6]
            == ["0.0", "-0.0", "5e-324", "2.2250738585072014e-308",
                "2.225073858507201e-308", "2.225073858507202e-308"])


def test_every_layout_class_and_digit_count():
    # the decimal point from 3 places before the digits to 16 after, on
    # both sides of the exponent form, at every digit count
    digits = "12345678901234567"
    values = [float(f"{sign}{digits[:n]}e{e}") for sign in "+-"
              for n in range(1, 18) for e in range(-330, 310, 1)]
    values = [v for v in values if v != 0.0 and math.isfinite(v)]
    assert _mismatches(values) == []


def test_separators_are_per_value():
    values = np.array([0.5, -1.0, 1e300, math.nan, 5e-324, 3.0])
    seps = np.frombuffer(b",\n,;,\n", np.uint8)
    assert format_floats(values, seps) == _reference(values, seps)
    assert format_floats(values.reshape(2, 3), seps.reshape(2, 3)) == (
        _reference(values, seps))
    assert format_floats(np.array([]), ord(",")) == ""


@pytest.mark.parametrize("size", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK])
def test_chunk_edges(size):
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
    values[::97] = 0.0
    seps = rng.choice(np.frombuffer(b",\n", np.uint8), size)
    assert format_floats(values, seps) == _reference(values, seps)


def test_integers_below_2_to_the_53_take_repr_text():
    # the digits of an integer's own value, through the Schubfach steps
    rng = np.random.default_rng(53)
    values = np.concatenate([np.arange(2**17 + 1),
                             rng.integers(0, 2**53, 100_000)]).astype(float)
    assert _mismatches(values) == []
    assert _mismatches(-values) == []


@pytest.mark.parametrize("size", [1, 2, CHUNK, CHUNK + 2, 2 * CHUNK])
def test_zeros_at_the_edges_of_a_pass(size):
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size)
    for start in range(0, size, CHUNK):
        stop = min(start + CHUNK, size)
        values[start], values[stop - 1] = -0.0, 0.0
    seps = rng.choice(np.frombuffer(b",\n", np.uint8), size)
    assert format_floats(values, seps) == _reference(values, seps)
    assert format_floats(-values, seps) == _reference(-values, seps)


@pytest.mark.parametrize("size", [1, 17, CHUNK, CHUNK + 1])
def test_a_pass_of_zeros_only(size):
    values = np.zeros(size)
    values[1::2] = -0.0
    assert format_floats(values, ord(",")) == _reference(
        values, [ord(",")] * size)


def test_zeros_beside_subnormals_inf_and_nan():
    tiny = 2.2250738585072014e-308
    values = np.array([0.0, 5e-324, -0.0, math.inf, 0.0, -math.inf, math.nan,
                       -0.0, -5e-324, math.nextafter(tiny, 0.0), 0.0, 1.5,
                       -0.0, 1e-310, -math.nan, 0.0] * 3)
    seps = np.frombuffer(b",\n;" * 16, np.uint8)
    assert format_floats(values, seps) == _reference(values, seps)


def test_digits_that_carry_to_17_places():
    # below a power of ten the rounded-up candidate s + 1, or the shorter
    # candidate's upper neighbour, can carry from 16 nines to 10^16 (the
    # digits stay below 2^53 10, so never reach 10^17)
    centres = [float(f"1e{k}") for k in range(-307, 309)] + [
        9.999999999999999e16, 9999999999999998.0, 99999999999999984.0]
    values = []
    for centre in centres:
        lo = hi = centre
        values.append(centre)
        for _ in range(8):
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
            values += [lo, hi]
    assert _mismatches(values) == []
    assert _mismatches(-np.array(values)) == []


@given(st.lists(st.floats(), min_size=1, max_size=40),
       st.sampled_from([ord(","), ord("\n")]))
@settings(max_examples=400, deadline=None)
def test_any_float_takes_repr_text(values, sep):
    assert format_floats(values, sep) == _reference(values, [sep] * len(values))


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@settings(max_examples=400, deadline=None)
def test_any_bit_pattern_takes_repr_text(patterns):
    values = np.array(patterns, np.uint64).view(np.float64)
    assert format_floats(values, ord(",")) == _reference(
        values, [ord(",")] * len(values))


def test_importing_the_package_builds_no_table(tmp_path):
    src = Path(floattext.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import json, sl2qes, sl2qes.cli\n"
            "from sl2qes import floattext\n"
            "print(json.dumps(floattext.tables.cache_info().misses))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == 0
