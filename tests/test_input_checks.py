"""One rule per input: every count, the photon budget mu and d of the guessing forms.

`models.count` is the one check of a count (m, n_rounds, n_samples, n_trials,
n_parties), `models.dimension_k` the one check of d and
`models.coherent_mu_max` the one photon budget; every layer that takes them
calls these, so each bad value fails the same way wherever it enters.
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
    build_mub_family,
    helstrom_multi_bound,
    lambda_paper_bound,
    mc_detection_stats,
    multiparty_run,
    pguess,
    pguess_multi_paper,
    pguess_single_paper,
    privacy_amplify,
    simulate_eve_random_basis,
)
from mubqct.models import count
from mubqct.ratemodel import key_rate
from mubqct.security import majority_attack

IDEAL = DetectorModel(eta=1.0, visibility=1.0, p_dark=0.0)

# every layer that takes a copy count m >= 1, called at d = 16
COPY_COUNT_ENTRIES = {
    "copy_count": lambda m: count(m, "m"),
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


# every other count, one entry per name; each is checked before anything is drawn
COUNT_ENTRIES = {
    "n_rounds": lambda n: ProtocolParams(d=16, m=1, n_rounds=n, seed=0),
    "n_samples": lambda n: mc_detection_stats(1.0, IDEAL, 1, n, seed=0),
    "n_trials": lambda n: simulate_eve_random_basis(build_mub_family(1), n, 0),
    "n_parties": lambda n: multiparty_run(ProtocolParams(d=16, m=4, n_rounds=10, seed=0), n),
}


@pytest.mark.parametrize("name", list(COUNT_ENTRIES))
@pytest.mark.parametrize("n", [0, -1, 2.5, True, np.int64(2)], ids=repr)
def test_every_count_is_a_python_int_of_at_least_one(name, n):
    # 2.5 and True once reached numpy's sampler and raised TypeError there, and
    # multiparty_run ran one party for True and two for np.int64(2)
    with pytest.raises(ValueError, match=rf"{name} must be >= 1, got "):
        COUNT_ENTRIES[name](n)


# the paper's closed forms, each at a valid m
PAPER_FORMS = {
    "lambda_paper_bound": lambda_paper_bound,
    "pguess_single_paper": pguess_single_paper,
    "pguess_multi_paper": lambda d: pguess_multi_paper(d, 2),
    "helstrom_multi_bound": lambda d: helstrom_multi_bound(d, 1),
}


@pytest.mark.parametrize("form", list(PAPER_FORMS))
@pytest.mark.parametrize("d", [12, 12.5, True, np.int64(16)], ids=repr)
def test_the_paper_forms_check_d_as_pguess_does(form, d):
    # these once checked only d < 2: pguess_multi_paper(12, 2) read 1.0 and
    # helstrom_multi_bound(12.5, 1) 0.636
    with pytest.raises(ValueError, match="d must be a power of two >= 2"):
        PAPER_FORMS[form](d)


@pytest.mark.parametrize("out_len", [True, 2.5, np.int64(2), -1], ids=repr)
def test_privacy_amplify_takes_out_len_as_a_python_int_in_range(out_len):
    # True once returned a 1-bit key and 2.5 raised AttributeError
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0])
    with pytest.raises(ValueError, match=r"out_len must be in 0\.\.8, got "):
        privacy_amplify(bits, seed=1, out_len=out_len)


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
