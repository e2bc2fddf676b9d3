"""Data model: norms, margins, count floor, MIP container, JSON round trip."""
import math

import numpy as np
import pytest

from drccp.model import (
    BINARY,
    CONTINUOUS,
    DrccpInstance,
    MipModel,
    Polyhedron,
    SafetyRow,
    SampleSet,
    distance_discard_count,
    distance_profile,
    dual_norm,
    dump_instance,
    floor_frac_count,
    load_instance,
    margins,
    norm_value,
)
from conftest import box_instance, line_instance


class TestNorms:
    def test_values(self):
        v = [3.0, -4.0]
        assert norm_value(v, "one") == 7.0
        assert norm_value(v, "two") == 5.0
        assert norm_value(v, "inf") == 4.0

    def test_dual_pairs(self):
        v = [3.0, -4.0]
        assert dual_norm(v, "one") == 4.0  # dual of l1 is linf
        assert dual_norm(v, "inf") == 7.0  # dual of linf is l1
        assert dual_norm(v, "two") == 5.0  # l2 is self-dual

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="degenerate"):
            dual_norm([0.0, 0.0], "two")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="norm kind"):
            norm_value([1.0], "three")


class TestFloorFracCount:
    def test_binary_representation_hazard(self):
        # 0.3 * 10 is 2.9999999999999996 in doubles; the count must still be 3.
        assert floor_frac_count(0.3, 10) == 3
        assert floor_frac_count(0.1, 100) == 10
        assert floor_frac_count(0.2, 10) == 2

    def test_non_integral_product_floors(self):
        assert floor_frac_count(0.25, 10) == 2
        assert floor_frac_count(0.15, 10) == 1
        assert floor_frac_count(0.05, 10) == 0


class TestDistanceDiscardCount:
    def test_integral_product_drops_one(self):
        # 0.3 * 10 is 2.9999999999999996 and 0.28 * 25 is 7.000000000000001
        # in doubles; both are integral under the nudge
        assert distance_discard_count(0.3, 10) == 2
        assert distance_discard_count(0.28, 25) == 6
        assert distance_discard_count(0.1, 100) == 9
        assert distance_discard_count(0.1, 10) == 0

    def test_non_integral_product_matches_the_floor(self):
        for eps, n in ((0.25, 10), (0.15, 10), (0.05, 10), (0.255, 12)):
            assert distance_discard_count(eps, n) == floor_frac_count(eps, n)


class TestInstanceValidation:
    def test_epsilon_range(self):
        with pytest.raises(ValueError, match="epsilon"):
            line_instance([1.0], epsilon=0.0, theta=0.1)
        with pytest.raises(ValueError, match="epsilon"):
            line_instance([1.0], epsilon=1.0, theta=0.1)

    def test_negative_theta(self):
        with pytest.raises(ValueError, match="theta"):
            line_instance([1.0], epsilon=0.2, theta=-0.1)

    def test_non_finite_theta(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="theta must be finite"):
                line_instance([1.0], epsilon=0.2, theta=bad)

    def test_non_finite_cost(self):
        dom = Polyhedron(G=np.zeros((0, 2)), g=[], lb=[0, 0], ub=[1, 1])
        row = SafetyRow(a=[1.0, 1.0], b=[1.0], d=0.0)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="cost must be finite"):
                DrccpInstance(cost=[1.0, bad], domain=dom, rows=(row,),
                              samples=SampleSet(np.ones((3, 1))), epsilon=0.2, theta=0.1)

    def test_dimension_mismatches(self):
        dom = Polyhedron(G=np.zeros((0, 2)), g=[], lb=[0, 0], ub=[1, 1])
        ss = SampleSet(np.ones((3, 2)))
        row = SafetyRow(a=[1.0, 1.0], b=[1.0, 1.0], d=0.0)
        with pytest.raises(ValueError, match="cost length"):
            DrccpInstance(cost=[1.0], domain=dom, rows=(row,), samples=ss, epsilon=0.2, theta=0.1)
        bad_a = SafetyRow(a=[1.0], b=[1.0, 1.0], d=0.0)
        with pytest.raises(ValueError, match="a-length"):
            DrccpInstance(cost=[1, 1], domain=dom, rows=(bad_a,), samples=ss, epsilon=0.2, theta=0.1)
        bad_b = SafetyRow(a=[1.0, 1.0], b=[1.0], d=0.0)
        with pytest.raises(ValueError, match="b-length"):
            DrccpInstance(cost=[1, 1], domain=dom, rows=(bad_b,), samples=ss, epsilon=0.2, theta=0.1)

    def test_rejects_empty_rows(self):
        dom = Polyhedron(G=np.zeros((0, 1)), g=[], lb=[0], ub=[1])
        with pytest.raises(ValueError, match="safety row"):
            DrccpInstance(cost=[1.0], domain=dom, rows=(), samples=SampleSet(np.ones((2, 1))),
                          epsilon=0.2, theta=0.1)

    def test_polyhedron_bound_order(self):
        with pytest.raises(ValueError, match="lb exceeds ub"):
            Polyhedron(G=np.zeros((0, 1)), g=[], lb=[2.0], ub=[1.0])

    def test_polyhedron_nan_bounds(self):
        with pytest.raises(ValueError, match="NaN"):
            Polyhedron(G=np.zeros((0, 2)), g=[], lb=[0.0, math.nan], ub=[1.0, 1.0])
        with pytest.raises(ValueError, match="NaN"):
            Polyhedron(G=np.zeros((0, 1)), g=[], lb=[0.0], ub=[math.nan])
        # infinite bounds stay allowed
        Polyhedron(G=np.zeros((0, 1)), g=[], lb=[-math.inf], ub=[math.inf])

    def test_k_property(self):
        inst = line_instance([0.1] * 10, epsilon=0.3, theta=0.1)
        assert inst.k == 3
        assert inst.n == 10 and inst.p == 1 and inst.dim_x == 1


class TestMargins:
    def test_hand_case(self):
        # Row: xi + 1 - 2x > 0 with b=[1], a=[2], d=1, l2 norm => scale 1.
        inst = DrccpInstance(
            cost=[1.0],
            domain=Polyhedron(G=np.zeros((0, 1)), g=[], lb=[0], ub=[5]),
            rows=(SafetyRow(a=[2.0], b=[1.0], d=1.0),),
            samples=SampleSet(np.array([[0.0], [2.0], [5.0]])),
            epsilon=0.2,
            theta=0.1,
        )
        m = margins(inst, [1.0])
        assert m.shape == (3, 1)
        np.testing.assert_allclose(m[:, 0], [-1.0, 1.0, 4.0])
        # Negative margin clamps to distance zero; boundary also counts unsafe.
        np.testing.assert_allclose(distance_profile(inst, [1.0]), [0.0, 1.0, 4.0])

    def test_scaling_by_dual_norm(self):
        # b=[3,4] under l2: margin divides by 5.
        inst = DrccpInstance(
            cost=[1.0],
            domain=Polyhedron(G=np.zeros((0, 1)), g=[], lb=[0], ub=[5]),
            rows=(SafetyRow(a=[0.0], b=[3.0, 4.0], d=0.0),),
            samples=SampleSet(np.array([[1.0, 0.5]])),
            epsilon=0.2,
            theta=0.1,
        )
        np.testing.assert_allclose(margins(inst, [0.0]), [[1.0]])

    def test_min_over_rows(self):
        inst = box_instance(seed=3, rows=2)
        prof = distance_profile(inst, [1.0, 1.0])
        m = margins(inst, [1.0, 1.0])
        np.testing.assert_allclose(prof, np.maximum(0.0, m.min(axis=1)))


class TestMipModel:
    def build_toy(self):
        m = MipModel()
        x = m.add_var("x", CONTINUOUS, 0.0, 4.0, block="x")
        z = m.add_var("z", BINARY, block="z")
        m.add_constraint([(x, 1.0), (z, -2.0)], "<=", 1.5, label="domain")
        m.add_constraint([(x, 1.0)], ">=", 0.5, label="budget")
        m.set_objective([(x, 1.0), (z, 3.0)])
        return m, x, z

    def test_blocks_and_labels(self):
        m, x, z = self.build_toy()
        assert m.block_indices("x") == [x]
        assert m.block_indices("z") == [z]
        assert np.flatnonzero(m.labels == "domain").tolist() == [0]
        assert np.flatnonzero(m.labels == "budget").tolist() == [1]
        assert m.num_vars == 2 and m.num_constraints == 2
        m.validate()

    def test_binary_bounds_clamped(self):
        m = MipModel()
        j = m.add_var("z", BINARY, lb=-3.0, ub=7.0)
        assert m.lb[j] == 0.0 and m.ub[j] == 1.0 and m.binary[j]

    def test_validate_catches_bad_index(self):
        m, x, z = self.build_toy()
        m.add_constraint([(5, 1.0)], "<=", 0.0, label="domain")
        with pytest.raises(ValueError, match="out of range"):
            m.validate()

    def test_validate_catches_duplicate_name(self):
        m = MipModel()
        m.add_var("x")
        m.add_var("x")
        with pytest.raises(ValueError, match="duplicate"):
            m.validate()

    def test_validate_catches_non_finite_objective(self):
        for bad in (math.inf, math.nan):
            m, x, z = self.build_toy()
            m.set_objective([(x, 1.0), (z, bad)])
            with pytest.raises(ValueError, match="objective: non-finite"):
                m.validate()

    def test_rejects_unknown_sense_and_kind(self):
        m = MipModel()
        m.add_var("x")
        with pytest.raises(ValueError, match="sense"):
            m.add_constraint([(0, 1.0)], "<", 0.0, label="domain")
        with pytest.raises(ValueError, match="kind"):
            m.add_var("y", kind="integer")

    def test_to_dense(self):
        m, x, z = self.build_toy()
        c, A, senses, b, lb, ub = m.to_dense()
        np.testing.assert_allclose(c, [1.0, 3.0])
        np.testing.assert_allclose(A, [[1.0, -2.0], [1.0, 0.0]])
        assert senses == ["<=", ">="]
        np.testing.assert_allclose(b, [1.5, 0.5])
        np.testing.assert_allclose(lb, [0.0, 0.0])
        np.testing.assert_allclose(ub, [4.0, 1.0])

    def test_add_rows_drops_zeros_and_to_dense_sums_duplicates(self):
        m = MipModel()
        x = m.add_vars(["x0", "x1", "x2"], CONTINUOUS, 0.0, [1.0, 2.0, 3.0], block="x")
        assert x.tolist() == [0, 1, 2] and m.ub.tolist() == [1.0, 2.0, 3.0]
        # two rows over the same columns; the zero and minus-zero terms are dropped
        m.add_rows(x, [[1.0, 0.0, 2.0], [0.0, -0.0, 3.0]], "<=", [4.0, 5.0], "domain")
        assert m.start.tolist() == [0, 2, 3]
        assert m.cols.tolist() == [0, 2, 2] and m.vals.tolist() == [1.0, 2.0, 3.0]
        # a repeated index is kept as two terms and sums in to_dense
        m.add_constraint([(x[0], 0.5), (x[1], 0.0), (x[0], 0.25)], ">=", 1.0, "budget")
        assert m.start.tolist() == [0, 2, 3, 5] and m.cols.tolist()[3:] == [0, 0]
        m.set_objective([(x[0], 0.0), (x[2], 1.5)])
        assert m.obj_cols.tolist() == [2] and m.obj_vals.tolist() == [1.5]
        c, A, senses, b, lb, ub = m.validate().to_dense()
        assert A.tolist() == [[1.0, 0.0, 2.0], [0.0, 0.0, 3.0], [0.75, 0.0, 0.0]]
        assert not np.any(np.signbit(A[A == 0.0]))
        assert c.tolist() == [0.0, 0.0, 1.5]
        assert senses == ["<=", "<=", ">="] and b.tolist() == [4.0, 5.0, 1.0]
        assert m.to_text().splitlines()[2] == "domain: 3*x2 <= 5"

    def test_to_dense_negates_for_max(self):
        m, x, z = self.build_toy()
        m.set_objective([(x, 1.0)], sense="max")
        c = m.to_dense()[0]
        np.testing.assert_allclose(c, [-1.0, 0.0])

    def test_to_text(self):
        m, x, z = self.build_toy()
        text = m.to_text()
        lines = text.splitlines()
        assert lines[0] == "min: 1*x + 3*z"
        assert lines[1] == "domain: 1*x + -2*z <= 1.5"
        assert lines[2] == "budget: 1*x >= 0.5"


class TestJsonRoundTrip:
    def test_exact_round_trip(self):
        inst = box_instance(seed=11, n=6, dim=3, rows=2)
        text = dump_instance(inst)
        back = load_instance(text)
        np.testing.assert_array_equal(back.cost, inst.cost)
        np.testing.assert_array_equal(back.samples.samples, inst.samples.samples)
        np.testing.assert_array_equal(back.domain.lb, inst.domain.lb)
        np.testing.assert_array_equal(back.domain.ub, inst.domain.ub)
        for r0, r1 in zip(inst.rows, back.rows):
            np.testing.assert_array_equal(r0.a, r1.a)
            np.testing.assert_array_equal(r0.b, r1.b)
            assert r0.d == r1.d
        assert back.epsilon == inst.epsilon and back.theta == inst.theta
        assert back.norm == inst.norm

    def test_dump_is_deterministic(self):
        inst = box_instance(seed=11)
        assert dump_instance(inst) == dump_instance(inst)
        # Second decode/encode cycle is byte-stable too.
        assert dump_instance(load_instance(dump_instance(inst))) == dump_instance(inst)

    def test_infinite_bounds_survive(self):
        inst = DrccpInstance(
            cost=[1.0],
            domain=Polyhedron(G=np.zeros((0, 1)), g=[], lb=[0.0], ub=[math.inf]),
            rows=(SafetyRow(a=[-1.0], b=[-1.0], d=0.0),),
            samples=SampleSet(np.array([[0.3]])),
            epsilon=0.5,
            theta=0.0,
        )
        back = load_instance(dump_instance(inst))
        assert back.domain.ub[0] == math.inf

    def test_file_round_trip(self, tmp_path, tiny_line):
        from drccp.model import read_instance, save_instance

        path = tmp_path / "inst.json"
        save_instance(tiny_line, path)
        back = read_instance(path)
        assert dump_instance(back) == dump_instance(tiny_line)
