"""The lookup tables behind the detection classifier and Bob's declared bit.

Each table is checked entry by entry against the boolean formulas the
session evaluated on whole arrays before it kept one event code per round.
"""

import itertools

import numpy as np

from mubqct import detection, protocol
from mubqct.detection import RIGHT, WRONG

# (arrivals, arrivals in the good detector) of each signal class
SIGNAL_CLASSES = {"no arrival": (0, 0), "all good": (3, 3), "all bad": (3, 0), "split": (3, 1)}


def test_every_event_code_maps_to_the_boolean_masks():
    seen = set()
    for (arrivals, n_good), dark_good, dark_bad in itertools.product(
        SIGNAL_CLASSES.values(), (False, True), (False, True)
    ):
        code = (
            (n_good < arrivals) * detection._SIGNAL_BAD
            + (n_good > 0) * detection._SIGNAL_GOOD
            + dark_good * detection._DARK_GOOD
            + dark_bad * detection._DARK_BAD
        )
        seen.add(code)
        got_signal = arrivals > 0
        all_good = got_signal and n_good == arrivals
        all_bad = got_signal and n_good == 0
        dark_none = not dark_good and not dark_bad
        right = (all_good and (dark_none or dark_good)) or (not got_signal and dark_good)
        wrong = (all_bad and (dark_none or dark_bad)) or (not got_signal and dark_bad)
        assert detection._click_class()[code] == right * RIGHT + wrong * WRONG, code
    assert seen == set(range(detection._click_class().size)) == set(range(16))


def test_every_outcome_key_gives_the_declared_bit():
    assert protocol._OUTCOME.dtype == np.int8 and protocol._OUTCOME.size == 16
    for right, wrong, x, coin in itertools.product((False, True), repeat=4):
        key = right * RIGHT + wrong * WRONG + 4 * x + 8 * coin
        if right and wrong:  # the overlap: the coin keeps x on 0 and flips it on 1
            want = x ^ coin
        elif right or wrong:
            want = x ^ wrong
        else:
            want = -1
        assert protocol._OUTCOME[key] == want, (right, wrong, x, coin)
