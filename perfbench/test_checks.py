"""Self-tests of the benchmark's reference computations, on cases worked by hand.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import math
import unittest

import checks


class Dominance(unittest.TestCase):
    def test_strictly_better_somewhere(self):
        self.assertTrue(checks.dominates((1.0, 2.0), (1.0, 3.0)))
        self.assertFalse(checks.dominates((1.0, 3.0), (1.0, 2.0)))

    def test_equal_points_do_not_dominate(self):
        self.assertFalse(checks.dominates((1.0, 2.0), (1.0, 2.0)))

    def test_trade_off_is_mutual_non_dominance(self):
        self.assertFalse(checks.dominates((1.0, 3.0), (2.0, 1.0)))
        self.assertFalse(checks.dominates((2.0, 1.0), (1.0, 3.0)))

    def test_dominated_pairs(self):
        # (2, 2) dominates (3, 3); (1, 4) and (4, 1) trade off with both
        points = [(1.0, 4.0), (2.0, 2.0), (3.0, 3.0), (4.0, 1.0), (2.0, 2.0)]
        self.assertEqual(checks.dominated_pairs(points), [(1, 2), (4, 2)])
        self.assertEqual(checks.dominated_pairs(points[:2] + points[3:]), [])


class Hypervolume(unittest.TestCase):
    def test_single_point_is_a_rectangle(self):
        self.assertEqual(checks.hypervolume_2d([(1.0, 2.0)], (4.0, 5.0)), 9.0)

    def test_staircase(self):
        # ref (4, 4): (1, 3) adds 3 x 1, (2, 2) adds 2 x 1, (3, 1) adds 1 x 1
        points = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0)]
        self.assertEqual(checks.hypervolume_2d(points, (4.0, 4.0)), 6.0)

    def test_dominated_and_duplicate_points_add_nothing(self):
        # (1, 3) adds 3 x 1, (3, 1) adds 1 x 2
        base = checks.hypervolume_2d([(1.0, 3.0), (3.0, 1.0)], (4.0, 4.0))
        self.assertEqual(base, 5.0)
        more = [(1.0, 3.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)]
        self.assertEqual(checks.hypervolume_2d(more, (4.0, 4.0)), base)

    def test_points_outside_the_reference_are_ignored(self):
        self.assertEqual(checks.hypervolume_2d([(5.0, 0.0), (0.0, 4.0)], (4.0, 4.0)), 0.0)
        self.assertEqual(checks.hypervolume_2d([], (4.0, 4.0)), 0.0)

    def test_negative_objectives(self):
        # a subsidy gives a negative price: (-2, 1) against (3, 2) spans 5 x 1
        self.assertEqual(checks.hypervolume_2d([(-2.0, 1.0)], (3.0, 2.0)), 5.0)


class GenerationalDistance(unittest.TestCase):
    def test_points_on_the_front_are_at_zero(self):
        for f1 in (0.0, 0.25, 0.64, 1.0):
            self.assertAlmostEqual(checks.distance_to_zdt1_front((f1, 1.0 - math.sqrt(f1))), 0.0, places=12)

    def test_off_front_points(self):
        # (0, 2): d^2 = t^4 + (1 + t)^2 grows with t, so the nearest point is the start (0, 1)
        self.assertAlmostEqual(checks.distance_to_zdt1_front((0.0, 2.0)), 1.0, places=12)
        # (1, 1): d^2 = (t^2 - 1)^2 + t^2 is least at t^2 = 1/2, where it is 1/4 + 1/2
        self.assertAlmostEqual(checks.distance_to_zdt1_front((1.0, 1.0)), math.sqrt(0.75), places=12)

    def test_interior_normal_offset(self):
        # at f1 = 0.25 the curve (t^2, 1 - t), t = 0.5, has tangent (1, -1): moving d along
        # the normal (1, 1)/sqrt(2) gives a point exactly d from the curve
        d = 0.01
        point = (0.25 + d / math.sqrt(2.0), 0.5 + d / math.sqrt(2.0))
        self.assertAlmostEqual(checks.distance_to_zdt1_front(point), d, places=9)

    def test_gd_formula(self):
        # distances 0 and 1: sqrt(0 + 1) / 2
        self.assertAlmostEqual(checks.generational_distance_zdt1([(0.25, 0.5), (0.0, 2.0)]), 0.5, places=12)

    def test_zdt1_objectives(self):
        self.assertEqual(checks.zdt1_objectives([0.25] + [0.0] * 29), (0.25, 0.5))
        # g = 1 + 9 * 29 / 29 = 10, f2 = 10 * (1 - sqrt(1 / 10))
        f1, f2 = checks.zdt1_objectives([1.0] * 30)
        self.assertEqual(f1, 1.0)
        self.assertAlmostEqual(f2, 10.0 - math.sqrt(10.0), places=12)


SCENARIO = {
    "start_year": 2000,
    "demand_growth": 1.1,
    "base_carbon_intensity": 0.5,
    "technologies": [
        {"name": "coal", "emission_factor": 0.9},
        {"name": "wind", "emission_factor": 0.0},
    ],
    "gencos": [{"id": "a", "budget": 100.0}],
    "representative_days": [
        {"weight_days": 365.0, "segments": [
            {"demand_mw": 100.0, "duration_hours": 12.0},
            {"demand_mw": 200.0, "duration_hours": 12.0},
        ]},
    ],
}


def outputs(coal=1_000_000.0, wind=589_940.0, unserved=0.0, rci=None, spent=(60.0, 40.0)):
    served = coal + wind
    intensity = coal * 0.9 / served
    return {
        "energy": {2002: {"coal": coal, "wind": wind}},
        "years": {2002: {"served_mwh": served, "unserved_mwh": unserved, "emissions_t": coal * 0.9,
                         "carbon_intensity": intensity, "average_price": 30.0}},
        "events": [{"kind": "invest", "genco": "a", "npv": "1.5", "capital_cost": str(c), "plant_id": "p"}
                   for c in spent],
        "objectives": {"objective_price": 30.0, "objective_rci": intensity / 0.5 if rci is None else rci},
    }


class EnergyBalance(unittest.TestCase):
    def test_yearly_demand(self):
        # (100 x 12 + 200 x 12) MW h x 365 days x 1.1^2 = 3600 x 365 x 1.21
        self.assertAlmostEqual(checks.yearly_demand_mwh(SCENARIO, 2002), 1_589_940.0, places=6)
        self.assertEqual(checks.yearly_demand_mwh(SCENARIO, 2000), 1_314_000.0)

    def test_emissions(self):
        self.assertEqual(checks.emissions_t({"coal": 10.0, "wind": 5.0}, SCENARIO), 9.0)

    def test_consistent_outputs_pass(self):
        self.assertEqual(checks.check_simulate_outputs(outputs(), SCENARIO, noise_free=True), [])

    def test_missing_energy_is_caught(self):
        problems = checks.check_simulate_outputs(outputs(wind=500_000.0), SCENARIO, noise_free=True)
        self.assertEqual(len(problems), 1)
        self.assertIn("served + unserved", problems[0])
        # demand noise breaks the balance, so it is not checked then
        self.assertEqual(checks.check_simulate_outputs(outputs(wind=500_000.0), SCENARIO, noise_free=False), [])

    def test_unserved_energy_closes_the_balance(self):
        out = outputs(wind=500_000.0, unserved=89_940.0)
        self.assertEqual(checks.check_simulate_outputs(out, SCENARIO, noise_free=True), [])

    def test_wrong_sums_and_objectives_are_caught(self):
        out = outputs()
        out["years"][2002]["served_mwh"] += 1.0
        out["years"][2002]["emissions_t"] += 1.0
        self.assertEqual(len(checks.check_simulate_outputs(out, SCENARIO, noise_free=False)), 2)
        self.assertEqual(len(checks.check_simulate_outputs(outputs(rci=0.1), SCENARIO, noise_free=True)), 1)

    def test_budget_and_npv(self):
        over = outputs(spent=(60.0, 41.0))
        self.assertIn("above its budget", checks.check_simulate_outputs(over, SCENARIO, True)[0])
        loss = outputs()
        loss["events"][0]["npv"] = "-2.0"
        self.assertIn("NPV", checks.check_simulate_outputs(loss, SCENARIO, True)[0])


if __name__ == "__main__":
    unittest.main()
