"""The verdict corpus's gate (tests/verdicts.py) on synthetic lines."""

from verdicts import KNOWN, RUNS, gate

#: the listed lines as listed (a twin equal, the phi65 line skipped)
LISTED = [f"{key} numeric {'equal' if key.startswith('twin-') else 'skipped'}"
          " - -" for key in KNOWN]
GOOD = LISTED + ["auto-o40-s1 qgauss seed=1/0 exact equal - -",
                 "twin-exact-o40-s1 qgauss seed=1/0 exact mismatch 7 -"]
BAD = ["twin-exact-o40-s2 qbailey seed=2/1 exact equal - -",
       "auto-o120-s3 cpte3 seed=3/2 exact skipped - NonTruncatable: x",
       "numeric-o40-s1 phi65 seed=1/0 numeric mismatch - -"]


def test_gate():
    assert len({run.name for run in RUNS}) == len(RUNS)
    assert gate(GOOD) == []
    assert gate(GOOD + BAD) == [f"not as expected and not listed: {text}"
                                for text in BAD]
    fixed = LISTED[0].replace("skipped", "equal")
    assert gate([fixed] + GOOD[1:]) == [
        f"listed but reads as expected: {fixed}"]
    first = next(iter(KNOWN))
    assert gate(GOOD[1:]) == [f"listed but not in the corpus: {first}"]
