"""Self-tests of the benchmark's failure accounting. Each test injects a
failure the benchmark can cause from outside the program and checks how
it is counted.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import shutil
import socket
import time
import unittest

import run


class FailureAccounting(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exp, cls.layers = run.build()
        cls.work = run.fresh_dir(run.WORK / "selftest")
        (run.WORK / "tmp").mkdir(exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        run.reap_children()
        shutil.rmtree(run.WORK, ignore_errors=True)

    def test_sweep_naming_a_missing_trace_fails_every_run(self):
        sweep = self.work / "missing-trace.json"
        sweep.write_text(json.dumps({
            "name": "missing-trace",
            "workloads": ["li", {"trace": str(self.work / "no-such.rfct")}],
            "rf": ["one-cycle"], "insts": 1000, "warmup": 100}))
        campaign = run.Campaign("service-small", 1)
        campaign.args = ["--sweep", str(sweep), "--seed", "1"]
        with self.assertRaises(RuntimeError):
            campaign.plan(self.layers, run.Deadline(30))
        campaign.runs = 2
        tally = run.Tally()
        run.cli_rep(self.exp, campaign, tally, self.work / "missing", run.Deadline(30), {})
        self.assertEqual(tally.attempted, 2)
        self.assertEqual(tally.failed, 2)

    def test_unreachable_service_times_out_as_failed(self):
        # A listener that never accepts: connects succeed, answers never come.
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(0)
        addr = "127.0.0.1:%d" % silent.getsockname()[1]
        try:
            campaign = run.Campaign("service-small", 1)
            campaign.runs = 2000
            start = time.monotonic()
            exits, _, _ = run.service_pass(self.exp, campaign, addr, self.work / "silent",
                                           run.Deadline(20))
            elapsed = time.monotonic() - start
        finally:
            silent.close()
        self.assertFalse(len(exits) == 2 and all(e.ok for e in exits))
        self.assertLess(elapsed, 15.0)
        tally = run.Tally()
        tally.add(campaign.runs, False, "unreachable")
        self.assertEqual((tally.attempted, tally.failed), (2000, 2000))

    def test_worker_killed_mid_campaign_is_re_leased_not_failed(self):
        campaign = run.Campaign("service-small", 3)
        deadline = run.Deadline(120)
        campaign.plan(self.layers, deadline)
        exit_, _, outputs = run.cli_pass(self.exp, campaign, self.work / "reference", deadline,
                                         ("--jobs", str(run.JOBS)))
        self.assertTrue(exit_.ok)
        tally = run.Tally()
        rep = run.service_rep(self.exp, campaign, tally, self.work / "killed", deadline,
                              {"outputs": outputs}, kill_worker=True)
        self.assertIsNotNone(rep)
        # The worker died with part of the campaign done and part to go.
        self.assertEqual(len(rep["killed_after"]), 1)
        self.assertLess(rep["killed_after"][0], campaign.runs)
        self.assertEqual(tally.failed, 0, tally.notes)
        self.assertEqual(tally.attempted, campaign.runs * (1 + run.WARM_PASSES))


if __name__ == "__main__":
    unittest.main()
