"""Self-tests of the benchmark's correctness checks.

Each check is shown to pass on a consistent result and to fail on a
deliberately corrupted one. Run with: python3 perfbench/test_checks.py
"""

import os
import struct
import tempfile
import unittest

import checks
from checks import INBOUND, OUTBOUND, pair_key

NET = checks.parse_cidr("10.0.0.0/24")
CLIENT = (10 << 24) | 5
REMOTE = (192 << 24) | (168 << 16) | 7
SEC = 1000000


def key(port):
    return pair_key(6, CLIENT, port, REMOTE, 80)


def capture(packets):
    """packets: (ts_us, direction, client port, wire bytes)."""
    cap = checks.Capture()
    for i, (ts, d, port, size) in enumerate(packets):
        cap.append(ts, d, key(port), size, crc=i)
    return cap


def report(**fields):
    base = dict.fromkeys(checks.REPORT_FIELDS, 0)
    base.update(fields)
    return base


class ConservationTest(unittest.TestCase):
    cap = capture([(0, OUTBOUND, 1, 100), (1, INBOUND, 1, 60),
                   (2, INBOUND, 2, 60), (3, OUTBOUND, 2, 100)])
    good = report(outbound_packets=1, outbound_bytes=100,
                  suppressed_outbound_packets=1,
                  suppressed_outbound_bytes=100,
                  inbound_passed_packets=1, inbound_passed_bytes=60,
                  inbound_dropped_packets=1, blocked_drops=0)

    def test_consistent_totals_pass(self):
        self.assertEqual(checks.check_conservation(self.cap, self.good), [])

    def test_lost_packet_fails(self):
        bad = dict(self.good, inbound_dropped_packets=0)
        self.assertTrue(checks.check_conservation(self.cap, bad))

    def test_wrong_bytes_fail(self):
        bad = dict(self.good, outbound_bytes=99)
        self.assertTrue(checks.check_conservation(self.cap, bad))


class SurvivorTest(unittest.TestCase):
    cap = capture([(0, OUTBOUND, 1, 100), (1, INBOUND, 1, 60),
                   (2, INBOUND, 2, 60)])

    def survivors(self, indices):
        s = checks.Capture()
        for i in indices:
            s.append(self.cap.ts[i], self.cap.dirs[i], self.cap.keys[i],
                     self.cap.sizes[i], self.cap.crcs[i])
        return s

    def test_subset_passes(self):
        passed, errors = checks.match_survivors(self.cap,
                                                self.survivors([0, 1]))
        self.assertEqual(errors, [])
        self.assertEqual(list(passed), [1, 1, 0])
        rep = report(outbound_packets=1, outbound_bytes=100,
                     inbound_passed_packets=1, inbound_passed_bytes=60)
        self.assertEqual(checks.check_survivors(self.cap, passed, rep), [])

    def test_foreign_survivor_fails(self):
        s = self.survivors([0])
        s.append(5, INBOUND, key(9), 60, 99)
        _, errors = checks.match_survivors(self.cap, s)
        self.assertTrue(errors)

    def test_reordered_survivors_fail(self):
        _, errors = checks.match_survivors(self.cap, self.survivors([1, 0]))
        self.assertTrue(errors)

    def test_survivor_missing_from_report_fails(self):
        passed, _ = checks.match_survivors(self.cap, self.survivors([0, 1]))
        rep = report(outbound_packets=1, outbound_bytes=100,
                     inbound_passed_packets=0, inbound_passed_bytes=0)
        self.assertTrue(checks.check_survivors(self.cap, passed, rep))


class NoFalseNegativeTest(unittest.TestCase):
    window = 15 * SEC
    cap = capture([(0, OUTBOUND, 1, 100), (SEC, INBOUND, 1, 60),
                   (2 * SEC, INBOUND, 2, 60), (3 * SEC, INBOUND, 2, 60)])

    def test_answered_inbound_passing_is_fine(self):
        passed = bytearray([1, 1, 0, 0])
        self.assertEqual(
            checks.check_no_false_negatives(self.cap, passed, self.window), [])

    def test_dropped_answer_fails(self):
        passed = bytearray([1, 0, 0, 0])
        self.assertTrue(
            checks.check_no_false_negatives(self.cap, passed, self.window))

    def test_drop_after_window_is_allowed(self):
        cap = capture([(0, OUTBOUND, 1, 100), (20 * SEC, INBOUND, 1, 60)])
        self.assertEqual(checks.check_no_false_negatives(
            cap, bytearray([1, 0]), self.window), [])

    def test_blocked_pair_is_exempt(self):
        cap = capture([(0, INBOUND, 1, 60), (SEC, OUTBOUND, 1, 100),
                       (2 * SEC, INBOUND, 1, 60)])
        self.assertEqual(checks.check_no_false_negatives(
            cap, bytearray([0, 1, 0]), self.window), [])


class Eq1Test(unittest.TestCase):
    low = 8000.0  # 1000 bytes per 1 s window

    def test_drop_above_low_passes(self):
        cap = capture([(0, OUTBOUND, 1, 2000), (SEC // 2, INBOUND, 2, 60)])
        rep = report(inbound_dropped_packets=1, blocked_drops=0)
        self.assertEqual(checks.check_eq1(cap, bytearray([1, 0]), rep,
                                          self.low, SEC), [])

    def test_drop_below_low_fails(self):
        cap = capture([(0, OUTBOUND, 1, 500), (SEC // 2, INBOUND, 2, 60)])
        rep = report(inbound_dropped_packets=1, blocked_drops=0)
        self.assertTrue(checks.check_eq1(cap, bytearray([1, 0]), rep,
                                         self.low, SEC))

    def test_upload_outside_window_does_not_count(self):
        cap = capture([(0, OUTBOUND, 1, 2000), (3 * SEC, INBOUND, 2, 60)])
        rep = report(inbound_dropped_packets=1, blocked_drops=0)
        self.assertTrue(checks.check_eq1(cap, bytearray([1, 0]), rep,
                                         self.low, SEC))

    def test_policy_drop_count_mismatch_fails(self):
        cap = capture([(0, OUTBOUND, 1, 2000), (SEC // 2, INBOUND, 2, 60)])
        rep = report(inbound_dropped_packets=1, blocked_drops=1)
        self.assertTrue(checks.check_eq1(cap, bytearray([1, 0]), rep,
                                         self.low, SEC))

    def test_no_policy_drops(self):
        counters = {"blocklist.inserts": 0, "blocklist.hits": 0,
                    "policy.drops": 0}
        self.assertEqual(checks.check_no_policy_drops(report(), counters), [])
        self.assertTrue(checks.check_no_policy_drops(
            report(inbound_dropped_packets=1), counters))
        self.assertTrue(checks.check_no_policy_drops(
            report(), dict(counters, **{"blocklist.inserts": 2})))


class BloomBoundTest(unittest.TestCase):
    dt = 5 * SEC
    # Two answered inbound packets, two unsolicited ones.
    cap = capture([(0, OUTBOUND, 1, 100), (SEC, INBOUND, 1, 60),
                   (2 * SEC, INBOUND, 1, 60), (3 * SEC, INBOUND, 7, 60),
                   (4 * SEC, INBOUND, 8, 60)])
    passed = bytearray([1, 1, 1, 1, 1])

    def bound(self, hits):
        return checks.check_bloom_bound(self.cap, self.passed,
                                        {"state.hits": hits}, 4, self.dt, 3,
                                        20)

    def test_classes(self):
        self.assertEqual(checks.state_classes(self.cap, self.passed, 4,
                                              self.dt), (2, 0, 2, 1))

    def test_exact_hits_pass(self):
        errors, info = self.bound(2)
        self.assertEqual(errors, [])
        self.assertEqual(info["unsolicited"], 2)

    def test_admitted_unsolicited_fails(self):
        self.assertTrue(self.bound(3)[0])

    def test_missing_guaranteed_hit_fails(self):
        self.assertTrue(self.bound(1)[0])

    def test_bound_formula(self):
        self.assertAlmostEqual(checks.bloom_fp_bound(3, 1 << 20, 20),
                               (1 - 2.718281828459045 ** -3) ** 3, places=9)


class LiveEqualsOfflineTest(unittest.TestCase):
    offline = report(outbound_packets=5, outbound_bytes=500,
                     inbound_passed_packets=3, inbound_passed_bytes=180)

    def test_equal_totals_pass(self):
        self.assertEqual(checks.check_live_equals_offline(
            dict(self.offline), self.offline), [])

    def test_any_differing_total_fails(self):
        for field in checks.REPORT_FIELDS:
            live = dict(self.offline)
            live[field] += 1
            self.assertTrue(checks.check_live_equals_offline(
                live, self.offline), field)


class ReaderTest(unittest.TestCase):
    def test_round_trip_and_report_parse(self):
        frame = bytearray(14 + 20 + 20)
        frame[12:14] = b"\x08\x00"
        struct.pack_into("!BBHHHBBHII", frame, 14, 0x45, 0, 40 + 100, 0, 0,
                         64, 6, 0, CLIENT, REMOTE)
        struct.pack_into("!HH", frame, 34, 4242, 80)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "one.pcap")
            checks.write_empty_pcap(path)
            with open(path, "ab") as f:
                f.write(struct.pack("<IIII", 3, 5, len(frame), 154))
                f.write(frame)
            cap = checks.read_pcap(path, NET)
        self.assertEqual(len(cap), 1)
        self.assertEqual(cap.ts[0], 3 * SEC + 5)
        self.assertEqual(cap.dirs[0], OUTBOUND)
        self.assertEqual(cap.sizes[0], 154)
        self.assertEqual(cap.keys[0], key(4242))

        text = ("outbound passed:  1 packets, 154 bytes\n"
                "inbound passed:   0 packets, 0 bytes\n"
                "inbound dropped:  0 packets (0.00%), 0 via blocklist\n"
                "upload suppressed: 0 packets, 0 bytes\n"
                "datapath stage counters:\n"
                "  classify.ignored_packets     0\n"
                "  state.hits                   0\n")
        rep, counters = checks.parse_filter_report(text)
        self.assertEqual(checks.check_conservation(cap, rep), [])
        self.assertTrue(checks.check_conservation(
            cap, dict(rep, outbound_packets=0)))
        self.assertEqual(counters["state.hits"], 0)


if __name__ == "__main__":
    unittest.main()
