from math import comb

import pytest

from hsc.parity import (
    PeriodicityError,
    admissible,
    binom_parity,
    residue_classes,
)


def test_binom_parity_small():
    assert binom_parity(4, 2) == 0
    assert binom_parity(3, 1) == 1
    assert binom_parity(5, 0) == 1
    assert binom_parity(2, 5) == 0  # comb(a, b) = 0 when b > a


def test_binom_parity_matches_exact_arithmetic():
    for a in range(65):
        for b in range(65):
            assert binom_parity(a, b) == comb(a, b) % 2


def test_binom_parity_rejects_negative():
    with pytest.raises(ValueError):
        binom_parity(-1, 0)
    with pytest.raises(ValueError):
        binom_parity(3, -2)


def test_admissible_reports():
    rep = admissible(6, 3, 2)
    assert rep.admissible
    assert rep.parities == (0, 0, 0)
    assert not admissible(7, 3, 2).admissible
    assert admissible(5, 2, 1).admissible


def test_admissible_parameter_order_enforced():
    with pytest.raises(ValueError):
        admissible(6, 3, 3)
    with pytest.raises(ValueError):
        admissible(3, 3, 2)
    with pytest.raises(ValueError):
        admissible(6, 3, 0)


def test_admissible_matches_congruence_class():
    for n in range(4, 257):
        assert admissible(n, 3, 2).admissible == (n % 4 == 2)


def test_report_lines_format():
    lines = admissible(7, 3, 2).to_lines()
    assert lines == [
        "i=0 C(7,3) odd",
        "i=1 C(6,2) odd",
        "i=2 C(5,1) odd",
        "admissible false",
    ]
    assert admissible(6, 3, 2).to_lines()[-1] == "admissible true"


def test_residue_classes_known_instances():
    assert residue_classes(2, 1, 4) == {1}
    assert residue_classes(3, 1, 4) == {1, 2}
    assert residue_classes(3, 2, 4) == {2}


def test_residue_classes_stable_across_longer_scans():
    # The eight-block scan agrees with 32 and 16 blocks of orders scanned here.
    for modulus, blocks, expected in ((4, 32, {2}), (8, 16, {2, 6})):
        orders = range(4, 4 + blocks * modulus)
        scanned = {n % modulus for n in orders if admissible(n, 3, 2).admissible}
        assert residue_classes(3, 2, modulus) == scanned == expected


def test_residue_classes_rejects_bad_modulus():
    with pytest.raises(ValueError):
        residue_classes(3, 2, 6)
    with pytest.raises(ValueError):
        residue_classes(3, 2, 0)
    with pytest.raises(ValueError, match="exceeds the bound of 65536"):
        residue_classes(3, 2, 1 << 17)


def test_residue_classes_detects_instability():
    # the true period of (k=3, t=1) is 4, so a modulus-2 scan cannot settle
    with pytest.raises(PeriodicityError):
        residue_classes(3, 1, 2)
