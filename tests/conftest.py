"""Fixtures shared by the test modules."""

from fractions import Fraction

import pytest


@pytest.fixture
def fraction_constructions(monkeypatch):
    """A list whose length counts the Fractions built since the fixture started.

    Python 3.12+ builds arithmetic results with `Fraction._from_coprime_ints`,
    which bypasses `__new__`; both are rebound where they exist.
    """
    built = []
    original_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(None)
        return original_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    coprime = vars(Fraction).get("_from_coprime_ints")
    if coprime is not None:
        def counting_coprime(cls, numerator, denominator):
            built.append(None)
            return coprime.__func__(cls, numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    return built
