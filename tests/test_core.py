"""Certificates, primitive points, and the generic ring helpers."""

import ast
import inspect
import pathlib
from fractions import Fraction

import pytest

import goodrings

from goodrings import polyuniv as pu
from goodrings.core import (
    BezoutCertificate,
    NotPrimitiveError,
    ParseError,
    bezout,
    is_primitive,
    require_primitive,
    verify_certificate,
)
from goodrings.rings import Integers, IntegersMod, PrimeField, Rationals, parse_ring

Z = Integers()


def test_bezout_certificate_verifies():
    cert = bezout(Z, (6, 10, 15))
    assert cert is not None
    assert verify_certificate(Z, (6, 10, 15), cert)


def test_bezout_none_for_non_coprime():
    assert bezout(Z, (4, 6)) is None


def test_certificate_length_mismatch_fails_verification():
    cert = BezoutCertificate((1,))
    assert not verify_certificate(Z, (2, 3), cert)


def test_is_primitive_roundtrip():
    pt = is_primitive(Z, (5, 2))
    assert pt is not None
    assert pt.coordinates == (5, 2)
    assert len(pt) == 2
    assert verify_certificate(Z, pt.coordinates, pt.certificate)


def test_require_primitive_raises_with_coordinates():
    with pytest.raises(NotPrimitiveError, match=r"\(4, 6\)"):
        require_primitive(Z, (4, 6))


def test_ring_pow_matches_repeated_multiplication():
    r = IntegersMod(11)
    x = 7
    acc = r.one()
    for n in range(8):
        assert r.pow(x, n) == acc
        acc = r.mul(acc, x)


class _CountingRationals(Rationals):
    """The rationals, counting calls to mul."""

    mul_calls = 0

    def mul(self, x, y):
        self.mul_calls += 1
        return super().mul(x, y)


def test_ring_pow_squares_only_while_bits_remain():
    # one multiplication per set bit and one square per bit below the top
    q = _CountingRationals()
    x = Fraction(-3, 2)
    acc = q.one()
    for n in range(130):
        q.mul_calls = 0
        assert q.pow(x, n) == acc
        assert q.mul_calls == (bin(n).count("1") + n.bit_length() - 1 if n else 0)
        acc = acc * x


def test_powmod_squares_only_while_bits_remain(monkeypatch):
    # powmod runs the same loop as Ring.pow, one reduced product per call
    calls = []
    real_mul = pu.mul

    def counting_mul(*args):
        calls.append(args)
        return real_mul(*args)

    monkeypatch.setattr(pu, "mul", counting_mul)
    field, m = PrimeField(5), (2, 0, 1, 3, 1)
    f, acc = (1, 4, 0, 0, 0, 2), (1,)
    for n in range(130):
        calls.clear()
        assert pu.powmod(field, f, n, m) == pu.divmod_poly(field, acc, m)[1]
        assert len(calls) == (bin(n).count("1") + n.bit_length() - 1 if n else 0)
        acc = pu.divmod_poly(field, real_mul(field, acc, f), m)[1]


def test_ring_pow_rejects_negative():
    with pytest.raises(ValueError):
        Z.pow(2, -1)
    # Q[T] and GF(5)[T] reach Ring.pow's own check; Z and Z/n override pow
    for spec in ("Q[T]", "GF(5)[T]"):
        ring = parse_ring(spec)
        with pytest.raises(ValueError, match="negative ring power"):
            ring.pow(ring.parse_element("T+1"), -1)


def test_sub_is_add_neg():
    assert Z.sub(5, 9) == -4


def test_parse_error_carries_position():
    err = ParseError("bad token", 7)
    assert "position 7" in str(err)
    assert err.position == 7


def test_zero_pair_is_not_primitive():
    assert is_primitive(Z, (0, 0)) is None


def test_quotient_helpers_on_finite_ring():
    r = parse_ring("Z/12")
    assert r.unit_quotient(0) == (4, 1)
    assert r.quotient_size(4) == 4
    assert r.unit_quotient(4) == (2, 1)


def test_package_checks_survive_optimized_mode():
    # python -O strips assert statements; the package's own checks must
    # raise GoodRingsError instead. oracle.py is test ground truth.
    package = pathlib.Path(goodrings.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "oracle.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert offenders == []


def test_public_names_import():
    for name in goodrings.__all__:
        assert getattr(goodrings, name) is not None
    assert "UnivariatePolyRing" in goodrings.__all__
    # every public class and function the package binds is exported, and so
    # is the SearchOutcome alias, which is neither
    bound = {
        name
        for name, obj in vars(goodrings).items()
        if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
    }
    assert bound | {"SearchOutcome"} <= set(goodrings.__all__)
