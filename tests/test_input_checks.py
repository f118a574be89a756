"""One rule per input: the copy count m, the photon budget mu and (d, m) of `pguess`.

`models.copy_count` is the one check of m and `models.coherent_mu_max` the
one photon budget; every layer that takes them calls these, so each bad
value fails the same way wherever it enters.
"""

import math

import numpy as np
import pytest

from mubqct import (
    ConstraintError,
    DetectorModel,
    ProtocolParams,
    bounds_report,
    coherent_mu_max,
    helstrom_exact,
    helstrom_multi_bound,
    mc_detection_stats,
    pguess,
    pguess_multi_paper,
)
from mubqct.models import copy_count
from mubqct.ratemodel import key_rate
from mubqct.security import majority_attack

IDEAL = DetectorModel(eta=1.0, visibility=1.0, p_dark=0.0)

# every layer that takes a copy count m >= 1, called at d = 16
COPY_COUNT_ENTRIES = {
    "copy_count": copy_count,
    "helstrom_exact": lambda m: helstrom_exact(16, m),
    "majority_attack": lambda m: majority_attack(16, m),
    "pguess_multi_paper": lambda m: pguess_multi_paper(16, m),
    "helstrom_multi_bound": lambda m: helstrom_multi_bound(16, m),
    "pguess-paper": lambda m: pguess(16, m, "paper"),
    "pguess-certified": lambda m: pguess(16, m, "certified"),
    "bounds_report": lambda m: bounds_report(16, m),
    "bounds_report-oracle": lambda m: bounds_report(16, m, oracle=True),
    "key_rate": lambda m: key_rate(16, m, 0.0, IDEAL),
    "ProtocolParams": lambda m: ProtocolParams(d=16, m=m, n_rounds=10, seed=0),
    "mc_detection_stats": lambda m: mc_detection_stats(1.0, IDEAL, m, 10, seed=0),
}


@pytest.mark.parametrize("entry", list(COPY_COUNT_ENTRIES))
@pytest.mark.parametrize("m", [0, -1, 2.5, True, np.int64(2)], ids=repr)
def test_every_layer_rejects_what_is_no_copy_count(entry, m):
    # a float count once ran 2.5 // 1 = 2.0 copies, True counted as one copy and
    # math.comb raised TypeError; m is a Python int >= 1 everywhere
    with pytest.raises(ValueError, match=r"m must be >= 1, got "):
        COPY_COUNT_ENTRIES[entry](m)


@pytest.mark.parametrize("k", range(1, 17))
def test_poisson_source_is_admitted_up_to_the_rate_models_budget(k):
    d = 2**k
    mu = coherent_mu_max(d)

    def params(mu, **switch):
        return ProtocolParams(
            d=d, m=1, n_rounds=10, seed=0, photon_statistics="poisson", mu=mu, **switch
        )

    assert params(mu).mu == mu
    above = math.nextafter(mu, math.inf)
    with pytest.raises(ConstraintError, match="set allow_insecure_mu to override"):
        params(above)
    assert params(above, allow_insecure_mu=True).mu == above


@pytest.mark.parametrize("source", ["paper", "certified"])
@pytest.mark.parametrize("d", [12, 1, 0, 16.0, True, np.int64(16)], ids=repr)
def test_pguess_checks_d_for_every_source(source, d):
    with pytest.raises(ValueError, match="d must be a power of two >= 2"):
        pguess(d, 1, source)
