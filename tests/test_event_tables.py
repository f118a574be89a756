"""The lookup tables behind the detection classifier and Bob's declared bit.

Each table is checked entry by entry against the boolean formulas the
session evaluated on whole arrays before it kept one event code per round,
and the declared bit also against the class-then-bit composition of two
16-entry tables that it replaced.
"""

import itertools

import numpy as np

from mubqct import detection
from mubqct.detection import RIGHT, WRONG

# (arrivals, arrivals in the good detector) of each signal class
SIGNAL_CLASSES = {"no arrival": (0, 0), "all good": (3, 3), "all bad": (3, 0), "split": (3, 1)}


def _event_codes():
    """(code, right, wrong) of every event code, right and wrong from the raw events."""
    for (arrivals, n_good), dark_good, dark_bad in itertools.product(
        SIGNAL_CLASSES.values(), (False, True), (False, True)
    ):
        code = (
            (n_good < arrivals) * detection._SIGNAL_BAD
            + (n_good > 0) * detection._SIGNAL_GOOD
            + dark_good * detection._DARK_GOOD
            + dark_bad * detection._DARK_BAD
        )
        got_signal = arrivals > 0
        all_good = got_signal and n_good == arrivals
        all_bad = got_signal and n_good == 0
        dark_none = not dark_good and not dark_bad
        right = (all_good and (dark_none or dark_good)) or (not got_signal and dark_good)
        wrong = (all_bad and (dark_none or dark_bad)) or (not got_signal and dark_bad)
        yield code, right, wrong


def test_every_event_code_maps_to_the_boolean_masks():
    seen = set()
    for code, right, wrong in _event_codes():
        seen.add(code)
        assert detection._click_class()[code] == right * RIGHT + wrong * WRONG, code
    assert seen == set(range(detection._click_class().size)) == set(range(16))


def _class_outcome_table():
    """Bob's bit per (click class, x, coin) key, class + 4 x + 8 coin: the second
    of the two tables the declared bit was once read through."""
    key = np.arange(16)
    right = (key & RIGHT) > 0
    wrong = (key & WRONG) > 0
    x = key >> 2 & 1
    coin = (key >> 3) > 0
    flip = wrong & (~right | coin)
    return np.where(right | wrong, x ^ flip, -1).astype(np.int8)


def test_every_outcome_key_gives_the_declared_bit():
    table = detection._declared_bit()
    assert table.dtype == np.int8 and table.size == 64 and not table.flags.writeable
    by_class = _class_outcome_table()
    seen = set()
    for (code, right, wrong), x, coin in itertools.product(_event_codes(), (0, 1), (0, 1)):
        key = code + 16 * x + 32 * coin
        seen.add(key)
        if right and wrong:  # the overlap: the coin keeps x on 0 and flips it on 1
            want = x ^ coin
        elif right or wrong:
            want = x ^ wrong
        else:
            want = -1
        assert table[key] == want, (code, x, coin)
        # the same bit as the class table followed by the class-keyed bit table
        assert table[key] == by_class[detection._click_class()[code] + 4 * x + 8 * coin], key
    assert seen == set(range(64))
