"""Every record's summands and sides, pinned.

A record wired to a sibling's parameters is usually still a true identity
(rogers1 built as rogers2 reads "equal" everywhere), and some siblings even
share both sides exactly (rogers1 and rrs3), so no verdict catches the
slip. This test fingerprints what each builder actually sums: for the
first seed-1 exact sample, the first few summands of every `summation`
call and both sides, at a small fixed order. The pins were taken from the
hand-written builders before the Rogers-Ramanujan-Slater families
replaced them.
"""

import hashlib

import pytest

from qident.context import ExactCtx
from qident.registry import catalog, lookup, sample_params

ORDER = 12
HEAD = 3


class RecordingCtx(ExactCtx):
    """An ExactCtx that logs the first HEAD summands of every sum; the
    headroom is fixed at the target, so no rebuild changes the log."""

    def __init__(self, order: int, denom: int):
        super().__init__(order, denom, headroom=order * denom)
        self.log = []

    def summation(self, term, start=0, times=1):
        self.log.append([str(self.finalize(term(start + n)))
                         for n in range(HEAD)])
        return super().summation(term, start, times)


def fingerprint(record_id: str) -> str:
    rec = lookup(record_id)
    a = sample_params(rec.id, 1, 1, "exact")[0]
    ctx = RecordingCtx(ORDER, rec.exponent_denominator)
    lhs, rhs = map(ctx.finalize, rec.build(ctx, a.values))
    text = repr((ctx.log, str(lhs), str(rhs)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


PINS = {
    "qgauss": "b80e27396c2c2202",
    "qbinom": "3ac30c63301763e0",
    "bailey-transform": "1e3f86b64156fe78",
    "thm-wp-transform": "ff63f3d568c5a14c",
    "cor-central": "dac13396c6c43f34",
    "alt-alpha": "1175b2ca008bf610",
    "alt-sum": "088051cbb3d3647a",
    "ones-alpha": "c5e7d2ee9fe6eaaa",
    "ones-sum": "73ecae5051e14018",
    "u-power": "2c9ab7e29bba7e21",
    "phi54": "6c6cf024664c7551",
    "phi32": "ad968d075cca14c9",
    "poly2": "62dbc6e63209d55b",
    "poly2q": "733b99424d5593c9",
    "phi65": "5e3b3d995026d248",
    "ppte-m": "f72a5fc142a65db2",
    "cpte3": "2b01327271926427",
    "cpte5": "23ab458615560eb9",
    "bibasic-ab": "d84e6f71bf7e5b4d",
    "bibasic-ab2": "76feb11519eb820a",
    "rrs3eq1": "23607ef71b79a43f",
    "rrs3": "3615a2aadd65fb60",
    "rrs3n": "86f9208b94599fc0",
    "rrs6": "1e58cb15d7ae530f",
    "rrs6-2": "3484bfc45f3068f3",
    "rrs6-3": "be15265de065d5dd",
    "rrs6-4": "859739d22c425703",
    "rrs6-5": "a4e6cb830cd82c41",
    "gg1a": "ac4b530d88d18afa",
    "gg1b": "c9c4ee2b2b7ead9d",
    "rogers1": "60ad734af0b00944",
    "rogers2": "70209d7576fc384b",
    "qbailey": "3080c2a2bcc41517",
    "gs1": "f0216de4d6a02e51",
    "gs2": "059c96552d2187ab",
    "slater69": "9b475914034b2020",
    "slater121": "1577359a567df022",
    "s69": "0cf636fa7e6a6f64",
    "s121": "8db6eac7f5a21eb2",
    "r1": "42c669b87d4dd75f",
    "r2a": "846a9d903a717158",
    "r2b": "fb4fde98c49efc22",
    "ft1": "a923285d215602d9",
    "ft2": "b14b7e166a18db62",
    "ft3": "aaf8edde37ff3043",
    "bb-z0": "931c471bcb3fdde8",
    "bb-yinf": "ecd05bac4821f7bf",
}


def test_pins_cover_the_catalog():
    assert list(PINS) == [r.id for r in catalog()]


@pytest.mark.parametrize("record_id", list(PINS))
def test_record_summands_and_sides_pinned(record_id):
    assert fingerprint(record_id) == PINS[record_id]
