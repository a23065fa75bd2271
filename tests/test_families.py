import hashlib

import pytest

from specconn.connectivity import CutMode, CutQuery, min_cut
from specconn.families import (
    FAMILY_IDS,
    Family,
    FamilyParams,
    InfeasibleFamilyError,
    Shape,
    claimed_extremal,
    construct,
    extremal_family_for,
    feasibility_violations,
    verify_witness,
    witness_cut,
)
from specconn.graphs import degree_profile, graph6_encode, is_isomorphic


def test_family_ids_cover_cli_names():
    assert set(FAMILY_IDS) == {"delta0", "deltamg-g", "km1", "zero-delta", "join-vi"}


def test_delta0_edge_count():
    # base join K_2 v (K_3 u K_2) has 15 edges; two pendant edges on top
    g = construct(FamilyParams(Family.DELTA_0, 8, 3, 2, 1, 2))
    assert g.n == 8
    assert g.edge_count() == 17
    assert degree_profile(g).min_degree == 2


def test_join_vi_matches_assembled_shape():
    p = FamilyParams(Family.JOIN_VI, 8, 2, 3, 1, 2)
    g = construct(p)
    assert degree_profile(g).min_degree == 3
    # vertex-for-vertex equality with the assembled join of cliques
    shape = Shape(2, (4, 2))
    assert g.adj == shape.build().adj


def test_zero_delta_pendant_degrees():
    p = FamilyParams(Family.ZERO_DELTA, 11, 1, 3, 4, 2)
    g = construct(p)
    prof = degree_profile(g)
    assert prof.min_degree == 3
    assert prof.degrees[0] == 3  # the pendant vertex attains it


def test_zero_delta_rejects_degree_not_below_g():
    p = FamilyParams(Family.ZERO_DELTA, 9, 1, 2, 1, 2)
    bad = feasibility_violations(p)
    assert any("delta < g" in reason for reason in bad)
    with pytest.raises(InfeasibleFamilyError):
        construct(p)


def test_deltamg_g_with_zero_threshold_keeps_pendant_isolated_after_cut():
    p = FamilyParams(Family.DELTAMG_G, 7, 2, 2, 0, 2)
    g = construct(p)
    assert degree_profile(g).min_degree == 2
    assert min_cut(g, CutQuery(0, 2, CutMode.FULL)).value == 2


def test_witnesses_are_valid_cuts():
    grid = [
        FamilyParams(Family.DELTA_0, 9, 4, 2, 1, 2),
        FamilyParams(Family.DELTA_0, 10, 3, 1, 2, 2),
        FamilyParams(Family.DELTAMG_G, 10, 3, 3, 2, 2),
        FamilyParams(Family.DELTAMG_G, 7, 3, 2, 0, 3),  # delta < k at g = 0, r >= 3
        FamilyParams(Family.KM1_DMKP1, 10, 2, 2, 3, 2),
        FamilyParams(Family.ZERO_DELTA, 10, 1, 2, 3, 2),
        FamilyParams(Family.JOIN_VI, 10, 2, 3, 1, 3),
    ]
    for p in grid:
        assert feasibility_violations(p) == []
        assert verify_witness(p), p
        assert witness_cut(p).bit_count() == p.k


def test_infeasibility_reports_named_constraints():
    p = FamilyParams(Family.JOIN_VI, 8, 2, 6, 1, 2)
    bad = feasibility_violations(p)
    assert any("big part" in reason for reason in bad)
    p = FamilyParams(Family.DELTA_0, 20, 3, 5, 6, 2)
    assert any("delta <= k-1" in reason for reason in feasibility_violations(p))
    p = FamilyParams(Family.KM1_DMKP1, 20, 1, 3, 6, 2)
    assert any("2 <= k <= delta" in reason for reason in feasibility_violations(p))
    p = FamilyParams(Family.DELTAMG_G, 20, 1, 5, 2, 2)
    assert any("delta-g <= k" in reason for reason in feasibility_violations(p))
    p = FamilyParams(Family.DELTAMG_G, 7, 3, 2, 0, 2)
    assert any("delta = k" in reason for reason in feasibility_violations(p))
    p = FamilyParams(Family.JOIN_VI, 5, 2, 3, 1, 2)
    assert any("n >= k + r(g+1)" in reason for reason in feasibility_violations(p))


def test_dispatch_examples():
    assert extremal_family_for(3, 2, 4) is Family.DELTA_0
    assert extremal_family_for(2, 5, 1) is Family.JOIN_VI
    assert extremal_family_for(2, 2, 1) is Family.DELTAMG_G
    assert extremal_family_for(4, 2, 1) is Family.DELTAMG_G
    assert extremal_family_for(2, 3, 5) is Family.KM1_DMKP1
    assert extremal_family_for(1, 3, 5) is Family.ZERO_DELTA


def test_dispatch_regimes_partition_parameter_space():
    # the five regimes cover every cell exactly once, and the dispatcher
    # picks the matching one
    for k in range(1, 7):
        for delta in range(1, 9):
            for g in range(0, 7):
                regimes = {
                    Family.DELTA_0: k > delta and delta < g,
                    Family.DELTAMG_G: (k > delta >= g)
                    or (k <= delta and g <= delta < g + k),
                    Family.KM1_DMKP1: 2 <= k <= delta < g,
                    Family.ZERO_DELTA: 1 == k <= delta < g,
                    Family.JOIN_VI: delta >= g + k,
                }
                matches = [fam for fam, hit in regimes.items() if hit]
                assert len(matches) == 1, (k, delta, g, matches)
                assert extremal_family_for(k, delta, g) is matches[0]


def test_claimed_extremal_checks_hypothesis():
    params = claimed_extremal(8, 2, 3, 1, 2)
    assert params.family is Family.JOIN_VI
    with pytest.raises(ValueError):
        claimed_extremal(7, 2, 3, 2, 2)  # 7 < 2 + 2*3


def test_claimed_extremal_order_eight_cells():
    # the two (delta=2, g=1) regimes: k <= delta and k > delta both map to
    # the same family here, through different predicates
    assert claimed_extremal(8, 2, 2, 1, 2).family is Family.DELTAMG_G
    assert claimed_extremal(8, 3, 2, 1, 2).family is Family.DELTAMG_G


def test_neighbor_specialization():
    # kappa_g classes use the r = 2 families
    params = claimed_extremal(8, 2, 2, 1, r=2)
    assert params.family is Family.DELTAMG_G and params.r == 2
    g = construct(claimed_extremal(8, 2, 4, 1, r=2))
    assert is_isomorphic(g, Shape(2, (3, 3)).build())
    # hypothesis boundary n >= kappa_g + 2(g+1): equality accepted, below rejected
    claimed_extremal(6, 2, 2, 1, r=2)
    with pytest.raises(ValueError):
        claimed_extremal(5, 2, 2, 1, r=2)


def test_self_verification_spot_grid():
    # min degree and full-mode cut value equal the class parameters; the
    # graph6 strings pin each family's labelling, which reports publish
    grid = [
        (FamilyParams(Family.DELTA_0, 8, 3, 2, 1, 2), "Gz\\zBC"),
        (FamilyParams(Family.DELTAMG_G, 8, 2, 2, 1, 2), "Gj\\z~?"),
        (FamilyParams(Family.DELTAMG_G, 9, 3, 2, 1, 2), "Hj\\zz~o"),
        (FamilyParams(Family.KM1_DMKP1, 10, 2, 2, 3, 2), "Iz\\yADBOw"),
        (FamilyParams(Family.ZERO_DELTA, 9, 1, 2, 3, 2), "Hj]?GKF"),
        (FamilyParams(Family.JOIN_VI, 9, 2, 3, 1, 3), "H~~EMB@"),
    ]
    for p, labelled in grid:
        assert feasibility_violations(p) == [], p
        g = construct(p)
        assert graph6_encode(g) == labelled, p
        assert degree_profile(g).min_degree == p.delta, p
        assert min_cut(g, CutQuery(p.g, p.r, CutMode.FULL)).value == p.k, p


def test_family_labelling_digest():
    # pins the graph6 labelling of every feasible family graph on a small grid,
    # which reports publish; the value predates the Shape layout
    digest = hashlib.sha256()
    count = 0
    for family in Family:
        for n in range(2, 11):
            for g in range(4):
                for r in range(2, 5):
                    for k in range(1, n):
                        for delta in range(1, n):
                            p = FamilyParams(family, n, k, delta, g, r)
                            if feasibility_violations(p):
                                continue
                            line = f"{family.value} {n} {k} {delta} {g} {r} "
                            digest.update((line + graph6_encode(construct(p)) + "\n").encode())
                            count += 1
    assert count == 587
    assert digest.hexdigest() == (
        "c42f21bb91af1a24c8bbe0db069d085666acc985aa4f21246adcbfa30756d2a5"
    )
