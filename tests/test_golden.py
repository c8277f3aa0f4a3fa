"""Outputs against the ones stored in tests/golden.

golden/verify_report.json holds report_to_json(run_verification()) and a
newline, the bytes ``ncqm verify --out`` writes. The in-process report
must reproduce it as text. The float data of the Bogoliubov check are the
one exception: its branch gaps come from np.linalg.eigh, whose last bits
may differ on another machine, so those fields are compared within
GOLDEN_EIGH_RTOL relative first and then take the stored values.

golden/readme_spectrum.csv and .stderr hold the stdout and stderr of the
README EC spectrum (SPECTRUM_ARGV), and golden/ring_default.csv the
stdout of ``ncqm ring``. No LAPACK call touches either table (Brent's
method and closed forms only), so run_cli must reproduce them byte for
byte.
"""

import json
from pathlib import Path

import pytest

from conftest import run_cli
from ncqm import verify

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "verify_report.json"
SPECTRUM_ARGV = ["spectrum", "--mechanism", "ec", "--eta0", "0.1",
                 "--theta0", "0.1", "--alpha", "1", "--beta", "1",
                 "--e-ref", "10", "--spring-k", "1", "--n", "0..4",
                 "--mphi", "0..3"]
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


@pytest.mark.parametrize("argv,stem", [(SPECTRUM_ARGV, "readme_spectrum"),
                                       (["ring"], "ring_default")],
                         ids=["readme_spectrum", "ring_default"])
def test_csv_matches_the_golden_file(argv, stem):
    code, out, err = run_cli(argv)
    assert code == 0
    assert out == (GOLDEN_DIR / f"{stem}.csv").read_text()
    note = GOLDEN_DIR / f"{stem}.stderr"
    assert err == (note.read_text() if note.exists() else "")
