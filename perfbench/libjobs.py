"""Library jobs of the benchmark: one user-level library call each.

Each prints one JSON object on standard output.  The benchmark runs them
in a fresh interpreter (untraced run) or calls `main` in-process (traced
run), always with `src/` on the import path:

    python3 perfbench/libjobs.py eve_sim --seed 7
    python3 perfbench/libjobs.py distill --protocol-seed 1 --pa-seed 2 --out key.u8
    python3 perfbench/libjobs.py kernels

`kernels` times the three dense kernels (verification at d = 128, the
lambda oracle at d = 16, Helstrom at d = 16, m = 3) inside this process;
run it with OPENBLAS_NUM_THREADS=1 for the single-thread baseline.
Job sizes are defined once, in workloads.py.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from mubqct import (
    DETECTOR_PRESETS,
    ChannelModel,
    ProtocolParams,
    build_mub_family,
    helstrom_numeric,
    lambda_numeric,
    privacy_amplify,
    run_protocol,
    simulate_eve_random_basis,
    verify_unbiasedness,
)
from workloads import DISTILL_BITS_IN, DISTILL_BITS_OUT, EVE_K, EVE_TRIALS, SIM_ROUNDS


def eve_sim(args) -> dict:
    result = simulate_eve_random_basis(build_mub_family(EVE_K), EVE_TRIALS, args.seed)
    return {"d": result.d, "n_trials": result.n_trials, "p_success": result.p_success}


def distill(args) -> dict:
    """Simulate a session, sift it, and hash a prefix of Alice's sifted key."""
    params = ProtocolParams(
        d=16,
        m=4,
        n_rounds=SIM_ROUNDS,
        seed=args.protocol_seed,
        channel=ChannelModel(alpha_db_per_km=0.2, length_km=50.0),
        detector=DETECTOR_PRESETS["snspd_lab"],
    )
    transcript = run_protocol(params)
    sifted = transcript.alice_sifted
    if sifted.size < DISTILL_BITS_IN:
        raise ValueError(f"only {sifted.size} sifted bits, need {DISTILL_BITS_IN}")
    key = privacy_amplify(sifted[:DISTILL_BITS_IN], args.pa_seed, DISTILL_BITS_OUT)
    np.asarray(key, dtype=np.uint8).tofile(args.out)
    return {"n_rounds": transcript.n_rounds, "n_sifted": int(sifted.size)}


def kernels(args) -> dict:
    out = {}
    family = build_mub_family(7)
    t0 = time.perf_counter()
    out["verify_passed"] = verify_unbiasedness(family).passed
    out["verify_s"] = time.perf_counter() - t0
    family = build_mub_family(4)
    t0 = time.perf_counter()
    out["lambda"] = lambda_numeric(family)
    out["lambda_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    out["helstrom"] = helstrom_numeric(family, 3)
    out["helstrom_s"] = time.perf_counter() - t0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="job", required=True)
    p = sub.add_parser("eve_sim")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=eve_sim)
    p = sub.add_parser("distill")
    p.add_argument("--protocol-seed", type=int, required=True)
    p.add_argument("--pa-seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=distill)
    p = sub.add_parser("kernels")
    p.set_defaults(func=kernels)
    args = parser.parse_args(argv)
    sys.stdout.write(json.dumps(args.func(args)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
