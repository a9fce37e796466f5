"""Tests for the host-time gate's verdicts and its fingerprint and output checks.

    python3 -m unittest discover -s .github/scripts -p 'test_*.py'
"""

import unittest

from paired_gate import (RunError, failed_share, failure_verdict, fingerprint_of,
                         output_hash, report, side_value, verdict)


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
        what = "simulated fingerprints"
        self.assertEqual(side_value("base", what, ["a1", "a1", "a1"]), "a1")
        with self.assertRaises(RunError) as caught:
            side_value("head", what, ["a1", "b2", "a1"])
        self.assertIn("nondeterministic", str(caught.exception))
        self.assertIn("head", str(caught.exception))
        self.assertIn(what, str(caught.exception))
        with self.assertRaises(RunError):
            side_value("base", what, [])

    def test_the_report_says_whether_the_fingerprint_moved(self):
        self.assertTrue(report("hit-update", "simulated fingerprint", "a1", "a1").endswith(
            "simulated fingerprint base a1 head a1: same"))
        self.assertTrue(report("hit-update", "simulated fingerprint", "a1", "b2").endswith(
            "simulated fingerprint base a1 head b2: moved"))


class ProbeOutputTest(unittest.TestCase):
    def test_the_hash_is_16_hex_digits_of_the_whole_output(self):
        digest = output_hash(b"fig26 p99 12.5\n")
        self.assertEqual(len(digest), 16)
        int(digest, 16)
        self.assertEqual(digest, output_hash(b"fig26 p99 12.5\n"))
        # One changed byte, or a missing trailing newline, moves it.
        self.assertNotEqual(digest, output_hash(b"fig26 p99 12.6\n"))
        self.assertNotEqual(digest, output_hash(b"fig26 p99 12.5"))
        self.assertNotEqual(output_hash(b""), output_hash(b"\n"))

    def test_a_side_whose_probe_runs_print_two_outputs_is_an_error(self):
        what = "outputs of figures fig26"
        same = [output_hash(b"a\n")] * 3
        self.assertEqual(side_value("base", what, same), same[0])
        with self.assertRaises(RunError) as caught:
            side_value("base", what, same + [output_hash(b"b\n")])
        self.assertIn("nondeterministic", str(caught.exception))
        self.assertIn("figures fig26", str(caught.exception))

    def test_the_report_says_whether_the_output_moved(self):
        a, b = output_hash(b"a\n"), output_hash(b"b\n")
        self.assertEqual(report("figures fig26", "output", a, a),
                         f"figures fig26    output base {a} head {a}: same")
        self.assertEqual(report("figures fig26", "output", a, b),
                         f"figures fig26    output base {a} head {b}: moved")


if __name__ == "__main__":
    unittest.main()
