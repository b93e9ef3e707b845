#!/usr/bin/env python3
"""Tests of ci/validate_trace.py on small hand-written traces.

    python3 -m unittest discover -s ci -p 'test_*.py'

Each case writes a document in the exporter's layout (or breaks it)
and checks the validator's exit status and message.
"""

import os
import subprocess
import sys
import tempfile
import unittest

VALIDATOR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "validate_trace.py")

HEAD = '{"displayTimeUnit":"ms","traceEvents":['
META = ('{"name":"process_name","ph":"M","pid":0,"tid":0,'
        '"args":{"name":"node 0"}}')


def event(ts, cat="packet-tx", ph="i", pid=0, ident=0):
    tail = ',"s":"t"' if ph == "i" else ""
    return (f'{{"name":"tx","cat":"{cat}","ph":"{ph}","ts":{ts},'
            f'"pid":{pid},"tid":0{tail},'
            f'"args":{{"id":{ident},"value":0}}}}')


def document(lines):
    """The exporter's layout: header, one entry per line, closer."""
    return HEAD + "\n" + ",\n".join(lines) + "\n]}\n"


GOOD = document([META, event(1), event(2, "stage-start", "B"),
                 event(3, "stage-finish", "E"), event(3)])


class ValidateTrace(unittest.TestCase):
    def run_on(self, text, *flags):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as handle:
            handle.write(text)
        try:
            proc = subprocess.run(
                [sys.executable, VALIDATOR, handle.name, *flags],
                capture_output=True, text=True, timeout=60)
        finally:
            os.unlink(handle.name)
        return proc.returncode, proc.stdout + proc.stderr

    def assert_fails(self, text, needle, *flags):
        status, output = self.run_on(text, *flags)
        self.assertEqual(status, 1, output)
        self.assertIn(needle, output)

    def test_well_formed_trace_passes(self):
        status, output = self.run_on(GOOD)
        self.assertEqual(status, 0, output)
        self.assertIn("OK: 5 events (B=1 E=1 M=1 i=2)", output)

    def test_truncated_after_an_event_fails(self):
        cut = GOOD[: GOOD.rindex("\n]}")] + ",\n"
        self.assert_fails(cut, "truncated")
        self.assert_fails(GOOD[: GOOD.rindex("\n]}") + 1], "truncated")

    def test_truncated_inside_an_event_fails(self):
        self.assert_fails(GOOD[: len(GOOD) // 2], "not valid JSON")

    def test_empty_file_fails(self):
        self.assert_fails("", "not valid JSON")

    def test_malformed_line_fails(self):
        broken = GOOD.replace('"ts":2,', '"ts":2,,', 1)
        self.assert_fails(broken, "not valid JSON: line 4")

    def test_missing_and_trailing_commas_fail(self):
        self.assert_fails(HEAD + "\n" + META + "\n" + event(1) + "\n]}\n",
                          "no ','")
        self.assert_fails(HEAD + "\n" + META + ",\n]}\n", "after ','")

    def test_data_after_the_closer_fails(self):
        self.assert_fails(GOOD + event(9) + "\n", "extra data")

    def test_other_layouts_fail(self):
        self.assert_fails('{"traceEvents":[' + META + "]}\n",
                          "not valid JSON")
        self.assert_fails("[\n" + META + "\n]}\n",
                          "not valid JSON")
        self.assert_fails(document(["[1, 2]"]), "not an event object")

    def test_empty_event_array_fails(self):
        self.assert_fails(HEAD + "\n]}\n", "non-empty array")

    def test_invariants_still_checked(self):
        self.assert_fails(document([META, event(5), event(4)]),
                          "time-sorted")
        self.assert_fails(
            document([META, event(1, "stage-start", "B")]),
            "unclosed duration spans")
        self.assert_fails(GOOD, "no fault-framework events",
                          "--require-fault-events")


if __name__ == "__main__":
    unittest.main()
