"""Tests for the benchmark's own helpers (perfbench/benchlib.py).

    python3 -m unittest discover -s perfbench
"""

import math
import unittest

import benchlib


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_with_count(self):
        samples = list(range(1, 1001))  # 1..1000
        self.assertEqual(benchlib.percentile(samples, 0.99), (990, 1000))
        self.assertEqual(benchlib.percentile(samples, 0.5), (500, 1000))

    def test_needs_ten_samples_beyond(self):
        # p99 of 1000 leaves exactly 10 beyond it; 999 leaves 9.
        benchlib.percentile(range(1000), 0.99)
        with self.assertRaises(benchlib.InsufficientSamples):
            benchlib.percentile(range(999), 0.99)
        benchlib.percentile(range(20), 0.5)
        with self.assertRaises(benchlib.InsufficientSamples):
            benchlib.percentile(range(19), 0.5)
        with self.assertRaises(benchlib.InsufficientSamples):
            benchlib.percentile([], 0.5)

    def test_unsorted_input_and_infinite_misses(self):
        samples = [5.0] * 990 + [math.inf] * 10 + [1.0] * 1000
        value, n = benchlib.percentile(samples, 0.99)
        self.assertEqual(n, 2000)
        self.assertEqual(value, 5.0)


class HypervolumeTest(unittest.TestCase):
    def test_staircase_area(self):
        front = [(1.0, 1.0), (2.0, 3.0)]
        # Reference (4, 0): [1,2) x 1 + [2,4) x 3 = 1 + 6.
        self.assertEqual(benchlib.hypervolume(front, 4.0, 0.0), 7.0)

    def test_dominated_and_outside_points_ignored(self):
        front = [(1.0, 1.0), (2.0, 3.0)]
        noisy = front + [(3.0, 2.0), (5.0, 10.0), (1.5, -1.0)]
        self.assertEqual(benchlib.hypervolume(noisy, 4.0, 0.0),
                         benchlib.hypervolume(front, 4.0, 0.0))

    def test_normalized_against_bounds_reference(self):
        e_lo, u_hi = 100.0, 50.0
        # The ideal point fills the whole box: share 1.
        self.assertAlmostEqual(
            benchlib.normalized_hv([(e_lo, u_hi)], e_lo, u_hi), 1.0)
        # Half the utility at the energy floor fills half the box.
        self.assertAlmostEqual(
            benchlib.normalized_hv([(e_lo, u_hi / 2)], e_lo, u_hi), 0.5)
        # Anything at or past the 2 * energy_lower reference counts nothing.
        self.assertEqual(
            benchlib.normalized_hv([(2 * e_lo, u_hi)], e_lo, u_hi), 0.0)
        # The box comes from the bounds, not from the front: scaling the
        # front leaves it comparable only through the same bounds.
        front = [(120.0, 10.0), (150.0, 40.0)]
        expected = ((150 - 120) * 10 + (200 - 150) * 40) / (100 * 50)
        self.assertAlmostEqual(benchlib.normalized_hv(front, e_lo, u_hi), expected)

    def test_within_bounds(self):
        self.assertTrue(benchlib.within_bounds([(100.0, 50.0)], 100.0, 50.0))
        self.assertFalse(benchlib.within_bounds([(99.0, 10.0)], 100.0, 50.0))
        self.assertFalse(benchlib.within_bounds([(120.0, 51.0)], 100.0, 50.0))


class NondominanceTest(unittest.TestCase):
    FRONT = [(1.0, 1.0), (2.0, 3.0), (3.0, 4.0)]

    def test_accepts_a_front_and_duplicates(self):
        self.assertTrue(benchlib.is_nondominated(self.FRONT))
        self.assertTrue(benchlib.is_nondominated(self.FRONT + [(2.0, 3.0)]))
        self.assertTrue(benchlib.is_nondominated([]))

    def test_rejects_an_injected_dominated_point(self):
        for injected in [(2.5, 2.0), (3.0, 3.5), (4.0, 4.0), (1.0, 0.5)]:
            with self.subTest(injected=injected):
                self.assertFalse(
                    benchlib.is_nondominated(self.FRONT + [injected]))


class DigestTest(unittest.TestCase):
    def test_rejects_a_single_perturbed_point(self):
        fronts = [[[(1.0, 2.0), (3.0, 4.5)]], [[(0.25, 7.0)]]]
        digest = benchlib.front_digest(fronts)
        self.assertEqual(digest, benchlib.front_digest(
            [[[(1.0, 2.0), (3.0, 4.5)]], [[(0.25, 7.0)]]]))
        perturbed = [[[(1.0, 2.0), (3.0, math.nextafter(4.5, 5.0))]],
                     [[(0.25, 7.0)]]]
        self.assertNotEqual(digest, benchlib.front_digest(perturbed))

    def test_structure_matters(self):
        self.assertNotEqual(benchlib.front_digest([[(1.0, 2.0)], []]),
                            benchlib.front_digest([[], [(1.0, 2.0)]]))


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            {"start_s": 0.0, "end_s": 10.0, "parent": -1},
            {"start_s": 1.0, "end_s": 4.0, "parent": 0},
            {"start_s": 3.0, "end_s": 6.0, "parent": 0},  # overlaps the first
            {"start_s": 8.0, "end_s": 12.0, "parent": 0},  # runs past the end
            {"start_s": 2.0, "end_s": 3.0, "parent": 1},  # grandchild
        ]
        self_s = benchlib.self_times(spans)
        # Root: 10 - ([1,6] + [8,10]) = 3.
        self.assertAlmostEqual(self_s[0], 3.0)
        self.assertAlmostEqual(self_s[1], 2.0)
        self.assertAlmostEqual(self_s[2], 3.0)
        self.assertAlmostEqual(self_s[3], 4.0)
        self.assertAlmostEqual(self_s[4], 1.0)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchlib.self_times(
            [{"start_s": 2.0, "end_s": 2.5, "parent": -1}]), [0.5])


if __name__ == "__main__":
    unittest.main()
