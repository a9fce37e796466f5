"""Tests for the host-time gate's verdicts and its fingerprint checks.

    python3 -m unittest discover -s .github/scripts -p 'test_*.py'
"""

import unittest

from paired_gate import (RunError, failed_share, failure_verdict, fingerprint_of,
                         fingerprint_report, side_fingerprint, verdict)


class VerdictTest(unittest.TestCase):
    def test_higher_is_better_fails_below_one_minus_the_bound(self):
        self.assertEqual(verdict([(100.0, 80.0)], "higher", 0.24), (0.8, True))
        self.assertEqual(verdict([(100.0, 75.0)], "higher", 0.24), (0.75, False))
        # Faster is never a failure.
        self.assertEqual(verdict([(100.0, 300.0)], "higher", 0.24), (3.0, True))

    def test_lower_is_better_fails_above_one_plus_the_bound(self):
        self.assertEqual(verdict([(10.0, 12.0)], "lower", 0.25), (1.2, True))
        self.assertEqual(verdict([(10.0, 13.0)], "lower", 0.25), (1.3, False))
        self.assertEqual(verdict([(10.0, 1.0)], "lower", 0.25), (0.1, True))

    def test_a_ratio_exactly_at_the_bound_passes(self):
        self.assertEqual(verdict([(100.0, 76.0)], "higher", 0.24), (0.76, True))
        self.assertEqual(verdict([(100.0, 125.0)], "lower", 0.25), (1.25, True))

    def test_odd_pair_counts_take_the_middle_ratio(self):
        # Ratios 0.5, 0.9 and 2.0 out of order: one bad pair does not fail
        # the gate, and one fast pair does not hide a slow median.
        pairs = [(10.0, 20.0), (10.0, 5.0), (10.0, 9.0)]
        self.assertEqual(verdict(pairs, "higher", 0.24), (0.9, True))
        slow = [(10.0, 7.0), (10.0, 30.0), (10.0, 7.5)]
        self.assertEqual(verdict(slow, "higher", 0.24), (0.75, False))

    def test_even_pair_counts_average_the_two_middle_ratios(self):
        pairs = [(10.0, 7.0), (10.0, 8.0), (10.0, 7.4), (10.0, 9.0)]
        ratio, ok = verdict(pairs, "higher", 0.24)
        self.assertAlmostEqual(ratio, 0.77)
        self.assertTrue(ok)
        pairs = [(10.0, 7.0), (10.0, 8.0), (10.0, 7.0), (10.0, 9.0)]
        ratio, ok = verdict(pairs, "higher", 0.24)
        self.assertAlmostEqual(ratio, 0.75)
        self.assertFalse(ok)

    def test_ratios_are_taken_within_pairs(self):
        # The machine drifts between pairs. Two of three pairs read the head
        # twice as slow, which the ratio of the two sides' medians (50 / 50)
        # would miss.
        pairs = [(1.0, 2.0), (100.0, 50.0), (50.0, 100.0)]
        self.assertEqual(verdict(pairs, "lower", 0.25), (2.0, False))

    def test_malformed_input_is_refused(self):
        with self.assertRaises(ValueError):
            verdict([], "higher", 0.24)
        with self.assertRaises(ValueError):
            verdict([(-1.0, 5.0)], "higher", 0.24)
        with self.assertRaises(ValueError):
            verdict([(1.0, 1.0)], "sideways", 0.24)


class FailureShareTest(unittest.TestCase):
    def test_the_share_is_failed_over_attempted(self):
        self.assertEqual(failed_share({"attempted": 400, "failed": 0}), 0.0)
        self.assertEqual(failed_share({"attempted": 400, "failed": 100}), 0.25)
        self.assertEqual(failed_share({"attempted": 3, "failed": 3}), 1.0)

    def test_malformed_counts_are_an_error(self):
        for counts in ({"attempted": 0, "failed": 0}, {"attempted": 5, "failed": 6},
                       {"attempted": 5, "failed": -1}, {"attempted": "5", "failed": 0},
                       {"attempted": 5.0, "failed": 0}, {"attempted": True, "failed": False}):
            with self.assertRaises(RunError, msg=str(counts)):
                failed_share(counts)
        with self.assertRaises(KeyError):
            failed_share({"attempted": 5})

    def test_equal_or_fewer_failures_pass(self):
        self.assertEqual(failure_verdict([(0.0, 0.0), (0.0, 0.0)]), (0.0, 0.0, True))
        self.assertEqual(failure_verdict([(0.5, 0.25)]), (0.5, 0.25, True))

    def test_more_failures_than_the_base_fail(self):
        self.assertEqual(failure_verdict([(0.0, 0.001)]), (0.0, 0.001, False))
        self.assertEqual(failure_verdict([(0.1, 0.2), (0.1, 0.3), (0.1, 0.1)]),
                         (0.1, 0.2, False))

    def test_the_medians_are_compared_not_single_pairs(self):
        # One head run with a failure does not fail the gate while most of
        # its runs fail nothing; a base run with many does not hide a head
        # that fails in most runs.
        self.assertTrue(failure_verdict([(0.0, 0.0), (0.0, 0.5), (0.0, 0.0)])[2])
        self.assertFalse(failure_verdict([(0.9, 0.1), (0.0, 0.1), (0.0, 0.1)])[2])

    def test_no_pairs_is_refused(self):
        with self.assertRaises(ValueError):
            failure_verdict([])


RUN_OUTPUT = """manifest: {"workload": "hit-update"}
hit-update: 1 sessions
simulated fingerprint 185a4b0e4a20edda
{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}
"""


class FingerprintTest(unittest.TestCase):
    def test_the_one_fingerprint_line_is_parsed(self):
        self.assertEqual(fingerprint_of(RUN_OUTPUT), "185a4b0e4a20edda")

    def test_a_run_without_exactly_one_fingerprint_line_is_an_error(self):
        missing = RUN_OUTPUT.replace("simulated fingerprint 185a4b0e4a20edda\n", "")
        with self.assertRaises(RunError):
            fingerprint_of(missing)
        twice = RUN_OUTPUT + "simulated fingerprint 185a4b0e4a20edda\n"
        with self.assertRaises(RunError):
            fingerprint_of(twice)
        # Only a line that starts with the prefix counts.
        quoted = RUN_OUTPUT.replace("simulated fingerprint", "no simulated fingerprint")
        with self.assertRaises(RunError):
            fingerprint_of(quoted)

    def test_a_malformed_fingerprint_is_an_error(self):
        with self.assertRaises(RunError):
            fingerprint_of(RUN_OUTPUT.replace("185a4b0e4a20edda", "not-hex"))
        with self.assertRaises(RunError):
            fingerprint_of(RUN_OUTPUT.replace("185a4b0e4a20edda", ""))

    def test_every_run_of_a_side_must_agree(self):
        self.assertEqual(side_fingerprint("base", ["a1", "a1", "a1"]), "a1")
        with self.assertRaises(RunError) as caught:
            side_fingerprint("head", ["a1", "b2", "a1"])
        self.assertIn("nondeterministic", str(caught.exception))
        self.assertIn("head", str(caught.exception))
        with self.assertRaises(RunError):
            side_fingerprint("base", [])

    def test_the_report_says_whether_the_fingerprint_moved(self):
        self.assertTrue(fingerprint_report("hit-update", "a1", "a1").endswith(
            "base a1 head a1: same"))
        self.assertTrue(fingerprint_report("hit-update", "a1", "b2").endswith(
            "base a1 head b2: moved"))


if __name__ == "__main__":
    unittest.main()
