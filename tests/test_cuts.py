"""Cut separation: greedy/DP cores against brute force, emitted-cut algebra,
and the independent validity referee."""
import dataclasses
import itertools

import numpy as np
import pytest

from drccp import formulations as F
from drccp.cuts import (
    Cut,
    FractionalPoint,
    MixingSeparator,
    PathSeparator,
    best_path_sequence,
    cut_row,
    format_cut,
    most_violated_star,
    point_from_solution,
)
from drccp.bnc import model_to_lp
from drccp.oracles import check_cut_validity
from drccp.simplex import solve_lp
from conftest import assert_supports_solve_as_cold, box_instance, milp_minimum, small_transport


def star_value(h, z, seq):
    val = 0.0
    for a, pos in enumerate(seq):
        nxt = h[seq[a + 1]] if a + 1 < len(seq) else 0.0
        val += (h[pos] - nxt) * (1.0 - z[pos])
    return val


def path_value(h, z, r, seq):
    return star_value(h, z, seq) - sum(r[pos] for pos in seq)


def brute_force_star(h, z):
    """Best telescoped value over every h-descending subsequence."""
    m = len(h)
    order = sorted(range(m), key=lambda i: (-h[i], i))
    pool = [i for i in order if h[i] > 0.0]
    best = 0.0
    for size in range(1, len(pool) + 1):
        for seq in itertools.combinations(pool, size):
            best = max(best, star_value(h, z, seq))
    return best


def brute_force_path(h, z, r):
    """Best value over every nonempty h-descending subsequence, or None when
    there are no positive-h candidates."""
    m = len(h)
    order = sorted(range(m), key=lambda i: (-h[i], i))
    pool = [i for i in order if h[i] > 0.0]
    best = None
    for size in range(1, len(pool) + 1):
        for seq in itertools.combinations(pool, size):
            v = path_value(h, z, r, seq)
            best = v if best is None else max(best, v)
    return best


class TestStarCore:
    def test_greedy_matches_brute_force(self):
        rng = np.random.default_rng(111)
        for _ in range(500):
            m = int(rng.integers(1, 11))
            h = np.round(rng.uniform(-0.5, 2.0, m), 4)
            z = np.round(rng.uniform(0.0, 1.0, m), 4)
            seq, val = most_violated_star(h, z)
            assert val == pytest.approx(brute_force_star(h, z), abs=1e-12)
            # Returned sequence must evaluate to the returned value.
            assert star_value(h, z, seq) == pytest.approx(val, abs=1e-12)
            # Sequence is h-descending with strictly increasing weights.
            hs = [h[p] for p in seq]
            assert all(a >= b for a, b in zip(hs, hs[1:]))
            ws = [1.0 - z[p] for p in seq]
            assert all(b > a for a, b in zip(ws, ws[1:]))

    def test_all_nonpositive_h_gives_empty(self):
        seq, val = most_violated_star([-1.0, 0.0], [0.5, 0.5])
        assert seq == () and val == 0.0

    def test_integral_z_one_contributes_nothing(self):
        # z = 1 entries have weight 0 and are never selected.
        seq, val = most_violated_star([2.0, 1.0], [1.0, 0.0])
        assert seq == (1,)
        assert val == pytest.approx(1.0)


class TestPathCore:
    def test_dp_matches_brute_force(self):
        rng = np.random.default_rng(222)
        for _ in range(500):
            m = int(rng.integers(1, 9))
            h = np.round(rng.uniform(-0.5, 1.5, m), 4)
            z = np.round(rng.uniform(0.0, 1.0, m), 4)
            r = np.round(rng.uniform(0.0, 0.4, m), 4)
            seq, val = best_path_sequence(h, z, r)
            ref = brute_force_path(h, z, r)
            if ref is None:
                assert seq == () and val == 0.0
            else:
                assert val == pytest.approx(ref, abs=1e-12)
                assert path_value(h, z, r, seq) == pytest.approx(val, abs=1e-12)

    def test_empty_candidates(self):
        seq, val = best_path_sequence([-0.1], [0.0], [0.0])
        assert seq == () and val == 0.0

    def test_skips_expensive_members(self):
        # Middle element has a huge shortfall: the chain should skip it.
        h = [3.0, 2.0, 1.0]
        z = [0.5, 0.5, 0.5]
        r = [0.0, 10.0, 0.0]
        seq, val = best_path_sequence(h, z, r)
        assert 1 not in seq
        assert val == pytest.approx(path_value(h, z, r, seq), abs=1e-12)


class TestFormatting:
    def test_format_cut_exact(self):
        cut = Cut(
            family="mixing", p=3, sequence=(17, 9, 4),
            x_coefs=np.array([0.0]), z_coefs=((17, 1.0),), r_coefs=(),
            t_coef=0.0, rhs=0.0, violation=0.00023,
        )
        assert format_cut(cut) == "mixing p=3 J=[17,9,4] viol=2.3e-4"

    def test_point_from_solution_blocks(self):
        inst = box_instance(seed=2, n=5, dim=2, rows=1)
        model = F.build_basic(inst)
        values = np.arange(model.num_vars, dtype=float)
        pt = point_from_solution(model, values)
        np.testing.assert_array_equal(pt.x, values[model.block_indices("x")])
        np.testing.assert_array_equal(pt.z, values[model.block_indices("z")])
        np.testing.assert_array_equal(pt.r, values[model.block_indices("r")])
        assert pt.t == values[model.block_indices("t")[0]]

    def test_cut_row_requires_blocks(self):
        inst = box_instance(seed=2, n=5, dim=2, rows=1)
        saa = F.build_formulation(inst, "saa")  # no r/t blocks
        cut = Cut(
            family="path", p=0, sequence=(0,), x_coefs=np.zeros(2),
            z_coefs=((0, 0.5),), r_coefs=((0, 1.0),), t_coef=-1.0,
            rhs=0.0, violation=1.0,
        )
        with pytest.raises(ValueError, match="shortfall"):
            cut_row(cut, saa)


def column_values(model, point):
    """The point as a vector over the model columns, z and r placed on the
    columns of their sample ids."""
    values = np.zeros(model.num_vars)
    values[model.block_indices("x")] = point.x
    for tag, by_sample in (("z", point.z), ("r", point.r)):
        if by_sample is not None:
            cols = model.sample_columns(tag)
            values[cols[cols >= 0]] = by_sample[cols >= 0]
    if point.t is not None:
        values[model.block_indices("t")[0]] = point.t
    return values


class TestSampleMap:
    """The compact model carries z and r only for the samples above the
    quantile in some row; cuts and points address them by sample id."""

    @pytest.fixture
    def case(self):
        inst = box_instance(seed=5, n=8, dim=2, rows=3, epsilon=0.25, theta=0.04)
        quant = F.compute_quantiles(inst)
        model = F.build_formulation(inst, "compact", quant=quant)
        kept = sorted(set(np.concatenate(quant.surviving).tolist()))
        dropped = sorted(set(range(inst.n)) - set(kept))
        assert kept and dropped
        return inst, model, kept, dropped

    def test_columns_follow_sample_ids(self, case):
        inst, model, kept, dropped = case
        names = model.names.tolist()
        for tag in ("z", "r"):
            cols = model.sample_columns(tag)
            assert cols.size == inst.n
            assert [names[cols[i]] for i in kept] == [f"{tag}[{i}]" for i in kept]
            assert (cols[dropped] == -1).all()

    def test_point_scatters_by_sample_id(self, case):
        inst, model, kept, dropped = case
        values = np.arange(1.0, model.num_vars + 1.0)
        pt = point_from_solution(model, values)
        assert pt.z.shape == pt.r.shape == (inst.n,)
        assert (pt.z[dropped] == 0.0).all() and (pt.r[dropped] == 0.0).all()
        col = {name: j for j, name in enumerate(model.names.tolist())}
        for i in kept:
            assert pt.z[i] == values[col[f"z[{i}]"]]
            assert pt.r[i] == values[col[f"r[{i}]"]]
        assert pt.t == values[col["t"]]

    def test_cut_row_places_coefficients_by_sample_id(self, case):
        inst, model, kept, dropped = case
        seq = tuple(kept[::-1])
        cut = Cut(
            family="path", p=0, sequence=seq, x_coefs=np.zeros(inst.dim_x),
            z_coefs=tuple((i, 0.5 + i) for i in seq), r_coefs=tuple((i, 2.0 + i) for i in seq),
            t_coef=-1.0, rhs=0.0, violation=1.0,
        )
        coefs, _ = cut_row(cut, model)
        col = {name: j for j, name in enumerate(model.names.tolist())}
        for i in seq:
            assert coefs[col[f"z[{i}]"]] == 0.5 + i
            assert coefs[col[f"r[{i}]"]] == 2.0 + i
        assert coefs[col["t"]] == -1.0
        assert np.count_nonzero(coefs) == 2 * len(seq) + 1

    def test_cut_naming_a_dropped_sample_raises(self, case):
        inst, model, kept, dropped = case
        for z_coefs, r_coefs in ((((dropped[0], 1.0),), ()),
                                 (((kept[0], 1.0),), ((dropped[0], 1.0),))):
            cut = Cut(
                family="path", p=0, sequence=(dropped[0],), x_coefs=np.zeros(inst.dim_x),
                z_coefs=z_coefs, r_coefs=r_coefs, t_coef=0.0, rhs=0.0, violation=1.0,
            )
            with pytest.raises(ValueError, match="sample"):
                cut_row(cut, model)


def fractional_root(inst, kind="compact"):
    bm = F.compute_big_m(inst)
    quant = F.compute_quantiles(inst)
    model = F.build_formulation(inst, kind, big_m=bm, quant=quant)
    prob, _ = model_to_lp(model)
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    return model, sol, bm, quant


def test_one_record_feeds_the_builder_and_the_separator():
    # Scenario rows and emitted cuts take a_p and the sample terms from the
    # record they are given, so a perturbed record shows up in both.
    inst = box_instance(seed=3, epsilon=0.3)
    quant = F.compute_quantiles(inst)
    bent = dataclasses.replace(quant, a=quant.a + 0.25, bxi=quant.bxi - 0.5)
    model = F.build_formulation(inst, "basic", quant=bent)
    _, A, _, b, _, _ = model.to_dense()
    x = model.block_indices("x")
    rows = np.flatnonzero(model.labels == "scenario")  # i-major over (i, p)
    assert rows.size == inst.n * inst.p
    for ridx, (i, p) in zip(rows, itertools.product(range(inst.n), range(inst.p))):
        np.testing.assert_array_equal(A[ridx, x], -bent.a[p])
        assert b[ridx] == -bent.bxi[i, p]
    # far along a_0 the quantile margin g*_0(x) is very negative
    point = FractionalPoint(x=100.0 * bent.a[0], z=np.zeros(inst.n))
    cuts = MixingSeparator(inst, bent).separate(point)
    assert any(cut.p == 0 for cut in cuts)
    for cut in cuts:
        np.testing.assert_array_equal(cut.x_coefs, -bent.a[cut.p])
        assert cut.rhs == -bent.bxi[cut.sequence[0], cut.p]


class TestSeparators:
    def find_instance_with_cut(self, family, seeds=range(40)):
        for seed in seeds:
            inst = box_instance(seed=seed, n=10, dim=2, rows=2, epsilon=0.3, theta=0.05)
            model, sol, bm, quant = fractional_root(inst)
            point = point_from_solution(model, sol.x)
            sep = (MixingSeparator if family == "mixing" else PathSeparator)(inst, quant)
            cuts = sep.separate(point)
            if cuts:
                return inst, model, point, cuts, bm
        raise AssertionError(f"no {family} cut found on any seeded instance")

    def test_mixing_cut_structure(self):
        inst, model, point, cuts, bm = self.find_instance_with_cut("mixing")
        for cut in cuts:
            assert cut.family == "mixing"
            assert cut.violation > 1e-6
            # z coefficients telescope to h of the leading scenario.
            quant = F.compute_quantiles(inst)
            total = sum(v for _, v in cut.z_coefs)
            assert total == pytest.approx(quant.h[cut.sequence[0], cut.p], abs=1e-12)
            # Violation equals rhs minus the lhs value at the point.
            coefs, rhs = cut_row(cut, model)
            lhs = float(column_values(model, point) @ coefs)
            assert cut.violation == pytest.approx(rhs - lhs, abs=1e-9)

    def test_path_cut_structure(self):
        inst, model, point, cuts, bm = self.find_instance_with_cut("path")
        for cut in cuts:
            assert cut.family == "path"
            assert cut.t_coef == -1.0
            assert all(v == 1.0 for _, v in cut.r_coefs)
            coefs, rhs = cut_row(cut, model)
            lhs = float(column_values(model, point) @ coefs)
            assert cut.violation == pytest.approx(rhs - lhs, abs=1e-9)

    def test_path_needs_rt_values(self):
        inst = box_instance(seed=0, n=6, dim=2, rows=1)
        sep = PathSeparator(inst)
        point = FractionalPoint(x=np.zeros(2), z=np.zeros(6))
        with pytest.raises(ValueError, match="shortfall"):
            sep.separate(point)

    def test_integral_points_yield_no_mixing_cuts(self):
        # At a feasible integral solution no star inequality can be violated.
        from drccp import bnc

        for seed in (3, 7):
            tp, inst = small_transport(seed=seed)
            model = F.build_formulation(inst, "compact")
            res = bnc.solve(model)
            assert res.status == "optimal"
            point = point_from_solution(model, res.values)
            cuts = MixingSeparator(inst).separate(point)
            assert cuts == []


def refereed(cut, inst, big_m):
    """check_cut_validity's verdict, once it agrees with scipy's MILP minimum
    of the cut's left-hand side over the same knapsack model (its knapsack
    row at floor(eps*N))."""
    verdict = check_cut_validity(cut, inst, big_m=big_m)
    model = F.build_formulation(inst, "knapsack", big_m=big_m,
                                quant=F.compute_quantiles(inst, k=inst.k))
    lhs, _ = cut_row(cut, model)
    assert verdict == (milp_minimum(model, lhs) >= cut.rhs - 1e-6)
    return verdict


class TestValidityReferee:
    def test_emitted_cuts_are_valid(self):
        count = 0
        for seed in range(12):
            inst = box_instance(seed=seed, n=10, dim=2, rows=2, epsilon=0.3, theta=0.05)
            model, sol, bm, quant = fractional_root(inst)
            point = point_from_solution(model, sol.x)
            for sep in (MixingSeparator(inst, quant), PathSeparator(inst, quant)):
                for cut in sep.separate(point):
                    assert refereed(cut, inst, bm)
                    count += 1
        assert count >= 5

    def test_referee_rejects_corrupted_rhs(self):
        inst, model, point, cuts, bm = TestSeparators().find_instance_with_cut("mixing")
        cut = cuts[0]
        bad = Cut(
            family=cut.family, p=cut.p, sequence=cut.sequence,
            x_coefs=cut.x_coefs, z_coefs=cut.z_coefs, r_coefs=cut.r_coefs,
            t_coef=cut.t_coef, rhs=cut.rhs + 10.0, violation=cut.violation,
        )
        assert not refereed(bad, inst, bm)

    def test_referee_rejects_corrupted_path_cut(self):
        inst, model, point, cuts, bm = TestSeparators().find_instance_with_cut("path")
        cut = cuts[0]
        inflated = Cut(
            family=cut.family, p=cut.p, sequence=cut.sequence,
            x_coefs=cut.x_coefs, z_coefs=cut.z_coefs, r_coefs=cut.r_coefs,
            t_coef=cut.t_coef, rhs=cut.rhs + 2.0, violation=cut.violation,
        )
        assert not refereed(inflated, inst, bm)
        # Negated shortfall coefficients drop the lhs wherever r > 0.
        negated = Cut(
            family=cut.family, p=cut.p, sequence=cut.sequence,
            x_coefs=cut.x_coefs, z_coefs=cut.z_coefs,
            r_coefs=tuple((j, -1.0) for j, _ in cut.r_coefs),
            t_coef=cut.t_coef, rhs=cut.rhs, violation=cut.violation,
        )
        assert not refereed(negated, inst, bm)

    def test_referee_rejects_cut_violated_only_at_full_discard(self):
        # sum z <= k - 1 holds on every support but those of size exactly k;
        # eps * N = 3.5 leaves budget for them (at an integral eps * N, k
        # discards leave none and the cut is valid)
        inst = box_instance(seed=1, n=10, dim=2, rows=2, epsilon=0.35, theta=0.05)
        assert inst.k == 3
        cut = Cut(
            family="mixing", p=0, sequence=(), x_coefs=np.zeros(2),
            z_coefs=tuple((j, -1.0) for j in range(inst.n)), r_coefs=(),
            t_coef=0.0, rhs=-(inst.k - 1.0), violation=1.0,
        )
        assert not refereed(cut, inst, F.compute_big_m(inst))

    def test_singleton_star_rows_valid_for_all_scenarios(self):
        # For every above-quantile scenario j the one-element star inequality
        # margin_j(x) + h_j z_j >= 0 is valid; referee must agree.
        inst = box_instance(seed=4, n=8, dim=2, rows=1, epsilon=0.3, theta=0.05)
        quant = F.compute_quantiles(inst)
        bm = F.compute_big_m(inst)
        p = 0
        for j in map(int, quant.surviving[p]):
            cut = Cut(
                family="mixing", p=p, sequence=(j,),
                x_coefs=-quant.a[p], z_coefs=((j, float(quant.h[j, p])),), r_coefs=(),
                t_coef=0.0, rhs=-float(quant.bxi[j, p]), violation=1.0,
            )
            assert check_cut_validity(cut, inst, big_m=bm)

    def test_budget_guard(self):
        inst = box_instance(seed=1, n=40, epsilon=0.4)
        cut = Cut(
            family="mixing", p=0, sequence=(0,), x_coefs=np.zeros(2),
            z_coefs=((0, 1.0),), r_coefs=(), t_coef=0.0, rhs=0.0, violation=1.0,
        )
        with pytest.raises(ValueError, match="budget"):
            check_cut_validity(cut, inst, max_supports=5)

    @pytest.mark.parametrize("family", ["mixing", "path"])
    def test_warm_supports_minimize_the_lhs_as_cold(self, family):
        # check_cut_validity's supports, on the knapsack model with the
        # cut's left-hand side as the objective, solve warm as they do cold.
        # On the first path-cut instance (seed 1) the supports solve in
        # fewer iterations cold than warm (924 against 1,020), so the path
        # case starts at seed 3
        seeds = range(40) if family == "mixing" else range(3, 40)
        inst, _, _, cuts, bm = TestSeparators().find_instance_with_cut(family, seeds)
        model = F.build_formulation(inst, "knapsack", big_m=bm,
                                    quant=F.compute_quantiles(inst, k=inst.k))
        for cut in cuts[:2]:
            lhs, _ = cut_row(cut, model)
            statuses, warm, cold = assert_supports_solve_as_cold(model, inst, objective=lhs)
            assert "optimal" in statuses[1]
            assert warm < cold
