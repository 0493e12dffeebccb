import pytest

from normlds import dkseq, numberfield
from normlds.numberfield import NumberField


@pytest.mark.parametrize(
    "alpha, quartic, irreducible",
    [((2, 1), (1, 0, -4, 0, 1), True), ((7, 4), (1, 0, -14, 0, 1), False)],
)
def test_match_dk_basis_tests_irreducibility_once(monkeypatch, alpha, quartic, irreducible):
    field = NumberField((-3, 0, 1))
    calls = []
    original = numberfield._is_irreducible

    def counting(coeffs):
        calls.append(tuple(coeffs))
        return original(coeffs)

    monkeypatch.setattr(numberfield, "_is_irreducible", counting)
    report = dkseq.match_dk_basis(field.element(alpha), field.power_basis(), kmax=20)
    assert calls == [quartic]
    assert report.quartic_poly == quartic
    assert report.poly_irreducible is irreducible
    assert (report.basis is not None) is irreducible
    if irreducible:
        assert report.basis.field == NumberField(quartic)
