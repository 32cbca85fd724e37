"""Parameter-count formulas for the four factorization schemes."""

import numpy as np
import pytest

from fdht.complexity import (FactorizationSpec, compression_ratio,
                             emit_rank_sweep, scheme_params)

FIG5_M = (4, 4, 2, 4, 2)
FIG5_N = (8, 10, 10, 9, 8)


def counts_at(r, m=FIG5_M, n=FIG5_N):
    return {s: scheme_params(FactorizationSpec(m, n, r, s)) for s in
            ("tt", "tr", "bt", "ht")}


def test_tt_smallest_case():
    spec = FactorizationSpec((1, 1), (1, 1), 1, "tt")
    assert scheme_params(spec) == 2


def test_ht_rank2_reference_value():
    assert counts_at(2)["ht"] == 316


def test_hand_computed_rank2_all_schemes():
    c = counts_at(2)
    assert c == {"tt": 480, "tr": 576, "bt": 320, "ht": 316}


def test_ht_is_minimal_from_rank_two():
    # the headline comparison claim, away from the degenerate rank-1 point
    for r in range(2, 17):
        c = counts_at(r)
        assert c["ht"] <= min(c["tt"], c["tr"], c["bt"])


def test_rank1_is_the_known_degenerate_point():
    # at r=1 the cubic tree terms are constants and HT sits 3 above BT;
    # pinned here so any formula change that moves it is visible
    c = counts_at(1)
    assert c == {"tt": 144, "tr": 144, "bt": 145, "ht": 148}


def test_bt_core_overtakes_tt_tr_from_rank_five():
    # the r^d core makes BT the largest scheme once r^3 > sum(m_k n_k)
    for r in range(2, 17):
        c = counts_at(r)
        assert (c["bt"] > max(c["tt"], c["tr"])) == (r >= 5)


def test_ht_balanced_tree_closed_form():
    # uniform rank r, root rank 1: d leaves r*m_k*n_k, d-2 inner transfer
    # tensors r^3 and the root's r^2
    def closed_form(m, n, r):
        return sum(r * a * b for a, b in zip(m, n)) + (len(m) - 2) * r ** 3 + r ** 2

    rng = np.random.default_rng(0)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        m = tuple(int(x) for x in rng.integers(1, 5, size=d))
        n = tuple(int(x) for x in rng.integers(1, 5, size=d))
        r = int(rng.integers(1, 9))
        assert scheme_params(FactorizationSpec(m, n, r, "ht")) == closed_form(m, n, r)
    for r in range(1, 17):  # criterion 7b's form at the Fig. 5 shapes
        assert closed_form(FIG5_M, FIG5_N, r) == 144 * r + 3 * r ** 3 + r ** 2
        assert counts_at(r)["ht"] == closed_form(FIG5_M, FIG5_N, r)


def test_asymptotic_rank_scaling():
    # tt/tr grow quadratically in r, ht's tree term cubically
    for r in (2, 4, 8, 16):
        c = counts_at(r)
        mn = sum(a * b for a, b in zip(FIG5_M, FIG5_N))
        assert c["tt"] <= len(FIG5_M) * mn * r * r
        assert c["tr"] == mn * r * r
        assert c["ht"] - r * mn - r * r == 3 * r ** 3


def test_spec_validation():
    with pytest.raises(ValueError, match="scheme"):
        FactorizationSpec((2,), (2,), 1, "cp")
    with pytest.raises(ValueError, match="rank"):
        FactorizationSpec((2,), (2,), 0, "tt")
    with pytest.raises(ValueError, match="length"):
        FactorizationSpec((2, 2), (2,), 1, "tt")
    with pytest.raises(ValueError, match="d >= 2"):
        scheme_params(FactorizationSpec((1,), (1,), 3, "ht"))


def test_compression_ratio_rounds_to_nearest_half_up():
    assert compression_ratio(33_554_432, 8_416) == 3_987  # 3,986.98
    assert compression_ratio(59_244_544, 8_808) == 6_726  # 6,726.22
    assert compression_ratio(5, 2) == 3  # an exact half rounds up
    assert compression_ratio(7, 2) == 4
    assert compression_ratio(9, 3) == 3


class TestRankSweep:
    def test_single_rank(self):
        csv = emit_rank_sweep(FIG5_M, FIG5_N, [2])
        lines = csv.strip().split("\n")
        assert lines[0] == "rank,tt,tr,bt,ht"
        assert lines[1] == "2,480,576,320,316"
        assert len(lines) == 2

    def test_counts_strictly_increase_with_rank(self):
        csv = emit_rank_sweep(FIG5_M, FIG5_N, range(1, 17))
        rows = [list(map(int, line.split(","))) for line in
                csv.strip().split("\n")[1:]]
        for prev, cur in zip(rows, rows[1:]):
            for col in range(1, 5):
                assert cur[col] > prev[col]

    def test_round_trip_against_formulas(self):
        csv = emit_rank_sweep(FIG5_M, FIG5_N, range(1, 9))
        for line in csv.strip().split("\n")[1:]:
            r, tt, tr, bt, ht = map(int, line.split(","))
            c = counts_at(r)
            assert (tt, tr, bt, ht) == (c["tt"], c["tr"], c["bt"], c["ht"])

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            emit_rank_sweep(FIG5_M, FIG5_N, [])
