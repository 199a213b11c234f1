"""The property-suite runner: registry, reports, reproducibility, and the
failure pathways (exercised with deliberately broken cochains and planted
invariant breaches)."""

import hashlib
import json
from fractions import Fraction

import pytest

import eulerflags.cli as cli
import eulerflags.verify as verify
from eulerflags.linalg import InputError, PropertyViolation
from eulerflags.serialize import load_flags, load_points
from eulerflags.surfaces import rational_flat_rep
from eulerflags.verify import SUITES, run_suite, run_suites

EXPECTED = {
    "alternating", "equivariance", "descent", "cocycle-pcoc", "cocycle-coco",
    "cocycle-coc", "cocycle-sul", "smillie-relation", "deflation-diff",
    "realize-points", "supnorm", "bundle",
}


def test_registry():
    assert set(SUITES) == EXPECTED
    for name, (identity, fn) in SUITES.items():
        assert identity and callable(fn)


@pytest.mark.parametrize("name", sorted(EXPECTED - {"bundle",
                                                    "realize-points"}))
def test_suites_green(name):
    rep = run_suite(name, seed=3, trials=8)
    assert rep["failures"] == []
    assert rep["suite"] == name and rep["seed"] == 3 and rep["trials"] == 8
    assert rep["wall_time"] >= 0 and rep["identity"]


def test_slow_suites_green():
    assert run_suite("realize-points", seed=3, trials=4)["failures"] == []
    assert run_suite("bundle", seed=3, trials=2)["failures"] == []


def test_all_expands():
    reports = run_suites("all", seed=1, trials=2)
    assert [r["suite"] for r in reports] == sorted(EXPECTED)


def test_unknown_suite():
    with pytest.raises(InputError):
        run_suite("nope", 0, 1)


def test_trial_count_below_one_rejected(capsys):
    for trials in (-3, 0, True, 2.0):
        with pytest.raises(InputError, match="trials"):
            run_suite("descent", 1, trials)
    with pytest.raises(InputError, match="seed must be an integer"):
        run_suite("descent", 1.5, 2)
    argv = ["verify", "--suite", "descent", "--trials", "-3", "--seed", "1"]
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: trials")


def test_reproducible():
    a = run_suite("cocycle-coco", seed=9, trials=6)
    b = run_suite("cocycle-coco", seed=9, trials=6)
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b


def _broken(name):
    # first coordinate of the first vector: d f = x_1[0] - x_0[0] != 0
    # generically, so essentially every trial must fail
    broken = lambda vs: Fraction(vs[0][0])
    broken.__name__ = name
    return broken


def test_failure_records_are_replayable(monkeypatch):
    monkeypatch.setattr(verify, "pcoc", _broken("broken"))
    failures = run_suite("cocycle-pcoc", 17, 5)["failures"]
    assert len(failures) == 5
    for rec in failures:
        n, pts = load_points(rec["input"])  # input doc round-trips
        assert len(pts) == n + 2
        assert "broken" in rec["detail"]
    # identical inputs on a second run: replayable from (seed, trial) alone
    again = run_suite("cocycle-pcoc", 17, 5)["failures"]
    assert [r["input"] for r in again] == [r["input"] for r in failures]


def _planted(*args, **kwargs):
    raise PropertyViolation("planted")


def test_invariant_breach_becomes_a_record(monkeypatch, capsys):
    # a PropertyViolation inside any suite ends only its own trial: every
    # report is still returned, and the breach is recorded against the
    # input being checked
    monkeypatch.setattr(verify, "coco", _planted)
    reports = run_suites("all", 1, 2)
    assert [r["suite"] for r in reports] == sorted(EXPECTED)
    hit = {r["suite"]: r["failures"] for r in reports if r["failures"]}
    assert set(hit) == {"cocycle-coco", "equivariance", "supnorm"}
    for suite, failures in hit.items():
        assert [rec["trial"] for rec in failures] == [0, 1]
        for rec in failures:
            assert rec["detail"] == "internal assertion: planted"
            n, flags = load_flags(rec["input"])
            assert n == rec["n"] and len(flags) == n + (
                2 if suite == "cocycle-coco" else 1)
    rc = cli.main(["verify", "--suite", "all", "--seed", "1",
                   "--trials", "2"])
    printed = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert [r["suite"] for r in printed] == sorted(EXPECTED)


def _breach_when(fn, breach):
    def stand_in(*args, **kwargs):
        if breach(*args):
            _planted()
        return fn(*args, **kwargs)
    return stand_in


# sha256 of json.dumps(run_suites("all", seed, trials)) with every
# wall_time removed, recorded before the suites moved behind one runner:
# the runner may not change a byte of any report, on clean runs, on broken
# cochains, or on invariant breaches inside a suite.
@pytest.mark.parametrize("attr, stand_in, seed, trials, digest", [
    (None, None, 1, 40,
     "b07df0e5c8fffae87d3f8368dff4bbf0b5b3b8124ab8731d4ccd9bdcd4c33333"),
    ("pcoc", lambda: _broken("pcoc"), 5, 10,
     "43148ccb038c6cf51bcdd6027144c343a84999a73e7dcccd2d404f7a26591bee"),
    ("realize_points",
     lambda: _breach_when(verify.realize_points, lambda Fs: len(Fs) == 6),
     2, 10,
     "6f0cc433dd296874d37e59198c8379ac03b1f7cf210c83dd411bb5d3aa9c8458"),
    ("genus_surface_bundle",
     lambda: _breach_when(verify.genus_surface_bundle,
                          lambda rep: rep == rational_flat_rep()),
     3, 4,
     "2f9e99feef0d391fd6e36a9899ca283c90aa97a3328189004a8bdc55ebd75e97"),
], ids=["clean", "broken-pcoc", "realize-breach", "bundle-breach"])
def test_reports_pinned(monkeypatch, attr, stand_in, seed, trials, digest):
    if attr:
        monkeypatch.setattr(verify, attr, stand_in())
    reports = run_suites("all", seed, trials)
    for r in reports:
        r.pop("wall_time")
    doc = json.dumps(reports)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest
