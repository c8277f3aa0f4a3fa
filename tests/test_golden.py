"""The verify report against the one stored in tests/golden.

golden/verify_report.json holds report_to_json(run_verification()) and a
newline, the bytes ``ncqm verify --out`` writes. The in-process report
must reproduce it as text. The float data of the Bogoliubov check are the
one exception: its branch gaps come from np.linalg.eigh, whose last bits
may differ on another machine, so those fields are compared within
GOLDEN_EIGH_RTOL relative first and then take the stored values.
"""

import json
from pathlib import Path

from ncqm import verify

GOLDEN = Path(__file__).parent / "golden" / "verify_report.json"
EIGH_CHECK = "bogoliubov_single_vs_two_frequency"
GOLDEN_EIGH_RTOL = 1e-12


def by_name(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


def test_verify_report_matches_the_golden_file():
    stored_text = GOLDEN.read_text()
    report = verify.run_verification()
    got = by_name(report, EIGH_CHECK)["data"]
    for key, want in by_name(json.loads(stored_text), EIGH_CHECK)[
            "data"].items():
        if isinstance(want, float):
            diff = abs(got[key] - want)
            assert diff <= GOLDEN_EIGH_RTOL * abs(want), (
                f"{EIGH_CHECK} data[{key!r}] is {got[key]!r}, stored "
                f"{want!r}: difference {diff:.3e}, past {GOLDEN_EIGH_RTOL:g} "
                "relative")
            got[key] = want
    assert verify.report_to_json(report) + "\n" == stored_text
