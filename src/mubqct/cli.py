"""Command-line front end.

Subcommands: mub-verify, bounds, sweep, simulate, multiparty, oracle.

Exit codes: 0 success, 1 usage or parameter errors, 2 verification
failure, 3 capability cap exceeded or out of memory, 4 I/O errors.

Options may be preloaded from a flat config file (`key = value` lines,
`#` comments, each key once) via one --config, where true and false set
only the subcommand's own switches; explicit flags override config
entries, and --seed falls back to 12345.  Every subcommand echoes its
fully resolved configuration as a `# config: ...` comment line: the
first line of the sweep CSV and of the simulate transcript, and on
stderr for JSON-emitting commands and `sweep --out`.
Per-party multiparty transcripts have no comment line: the header, then
one row per round.  All output is seed-deterministic: identical config
and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import TYPE_CHECKING

# Only numpy-free modules load with this one; each subcommand imports the
# layers it calls when it runs, so `bounds` never loads numpy.
from . import __version__
from .errors import CapabilityError
from .models import (
    BOUNDS_SOURCES,
    DEFAULT_BOUNDS_SOURCE,
    DETECTOR_PRESETS,
    SWEEP_MAX_CELLS,
    ChannelModel,
    DetectorModel,
    transmittance,
)

if TYPE_CHECKING:
    from .protocol import ProtocolParams

FORMAT_VERSION = 1
DEFAULT_SEED = 12345


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 and no abbreviated flags."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    lines: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if not sep or not key or not value:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            if key in lines:
                raise ValueError(f"{path}:{lineno}: key {key} is already set on line {lines[key]}")
            entries[key], lines[key] = value, lineno
    return entries


def _extract_config_path(argv: list[str]) -> str | None:
    paths = [argv[i + 1] for i, tok in enumerate(argv[:-1]) if tok == "--config"]
    paths += [tok.split("=", 1)[1] for tok in argv if tok.startswith("--config=")]
    if len(paths) > 1:
        raise ValueError(f"--config given {len(paths)} times: {', '.join(paths)}; a run takes one")
    return paths[0] if paths else None


def _resolve_argv(parser: _Parser, argv: list[str]) -> list[str]:
    """argv with its config entries as flags, ahead of explicit ones; true and false set
    only the switches (store_true flags) of the subcommand's own parser."""
    path = _extract_config_path(argv)
    (commands,) = (action.choices for action in parser._actions if action.dest == "cmd")
    if path is None or not argv or argv[0] not in commands:
        return argv
    switches = {f for a in commands[argv[0]]._actions if a.const is True for f in a.option_strings}
    flags: list[str] = []
    for key, value in sorted(_load_config(path).items()):
        flag = "--" + key.replace("_", "-")
        if value.lower() not in ("true", "false"):
            flags.extend([flag, value])
        elif flag not in switches:
            raise ValueError(f"config key {key} = {value}: true and false set switches only, "
                             f"and {argv[0]} has no switch {flag}")
        elif value.lower() == "true":
            flags.append(flag)
    return [argv[0], *flags, *argv[1:]]


def _config_items(args: argparse.Namespace) -> dict[str, str]:
    skip = {"func", "cmd", "config"}
    items: dict[str, str] = {}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        items[key] = str(value)
    return dict(sorted(items.items()))


def _config_comment(args: argparse.Namespace) -> str:
    items = _config_items(args)
    body = " ".join(f"{k}={v}" for k, v in items.items())
    return f"config: cmd={args.cmd} {body}".rstrip()


def _emit_json(obj, args, out_path: str | None = None) -> None:
    print(f"# {_config_comment(args)}", file=sys.stderr)
    text = json.dumps(obj, indent=2) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _nan_to_none(x: float) -> float | None:
    return None if (x != x) else x


def _zscore(empirical: float, p: float, n: int) -> float | None:
    if n <= 0 or not 0.0 < p < 1.0:
        return None
    return (empirical - p) / math.sqrt(p * (1.0 - p) / n)


def _detector_from_args(args) -> "DetectorModel":
    detector = DETECTOR_PRESETS[args.profile]
    overrides = {}
    if args.eta is not None:
        overrides["eta"] = args.eta
    if args.visibility is not None:
        overrides["visibility"] = args.visibility
    if args.p_dark is not None:
        overrides["p_dark"] = args.p_dark
    return dataclasses.replace(detector, **overrides) if overrides else detector


def _parse_int_list(spec: str) -> list[int]:
    toks = [tok.strip() for tok in spec.split(",") if tok.strip()]
    if not toks:
        raise ValueError(f"expected a comma-separated integer list, got {spec!r}")
    return [int(tok) for tok in toks]


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:step, got {spec!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"grid start, stop and step must be finite, got {spec!r}")
    if step <= 0:
        raise ValueError(f"grid step must be > 0, got {step}")
    if stop < start:
        raise ValueError(f"grid stop must be >= start, got {spec!r}")
    span = (stop - start) / step  # may be inf, which floor() cannot take
    if span + 1 > SWEEP_MAX_CELLS:
        raise CapabilityError(
            f"grid {spec!r} has {span + 1:.3g} points; a sweep is capped at {SWEEP_MAX_CELLS} cells"
        )
    n = int(math.floor(span + 1e-9)) + 1
    return [start + i * step for i in range(n)]


def cmd_mub_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be finite and > 0, got {args.tol}")
    from .mub import certify_build

    report = certify_build(args.k, tol=args.tol)
    _emit_json({"format_version": FORMAT_VERSION, **report.to_dict()}, args)
    return 0 if report.passed else 2


def cmd_bounds(args) -> int:
    from .security import bounds_report

    report = bounds_report(args.d, args.m, oracle=args.oracle)
    _emit_json({"format_version": FORMAT_VERSION, **report.to_dict()}, args)
    return 0


def cmd_sweep(args) -> int:
    from .ratemodel import sweep, sweep_rows_to_csv

    ds = _parse_int_list(args.d)
    lengths = _parse_grid(args.length_grid)
    profiles = [tok.strip() for tok in args.profile.split(",") if tok.strip()]
    rows = sweep(
        ds,
        lengths,
        profiles,
        alpha_db_per_km=args.alpha,
        bounds_source=args.bounds_source,
    )
    comment = _config_comment(args)
    text = sweep_rows_to_csv(rows, header_comment=comment)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"# {comment}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _summary_core(transcript, stats) -> dict:
    click_analytic = stats.p_click
    n_clicks = transcript.n_clicks
    return {
        "n_rounds": transcript.n_rounds,
        "n_clicks": n_clicks,
        "click_rate": transcript.click_rate,
        "click_rate_analytic": click_analytic,
        "z_click_rate": _zscore(transcript.click_rate, click_analytic, transcript.n_rounds),
        "p_c_empirical": _nan_to_none(transcript.p_c_empirical),
        "p_e_empirical": _nan_to_none(transcript.p_e_empirical),
        "p_c_analytic": stats.p_c,
        "p_e_analytic": stats.p_e,
        "z_p_c": _zscore(transcript.p_c_empirical, stats.p_c, n_clicks),
        "z_p_e": _zscore(transcript.p_e_empirical, stats.p_e, n_clicks),
    }


def _protocol_params(args) -> ProtocolParams:
    from .protocol import ProtocolParams

    detector = _detector_from_args(args)
    channel = ChannelModel(alpha_db_per_km=args.alpha, length_km=args.length_km)
    return ProtocolParams(
        d=args.d,
        m=args.m,
        n_rounds=args.rounds,
        seed=args.seed,
        channel=channel,
        detector=detector,
        photon_statistics=args.photon_statistics,
        mu=args.mu,
        allow_insecure_mu=args.allow_insecure_mu,
    )


def cmd_simulate(args) -> int:
    from .detection import detection_stats, poisson_detection_stats
    from .protocol import run_protocol

    params = _protocol_params(args)
    t = params.channel.transmittance
    # the closed forms come first, so a run they reject writes no file
    if params.photon_statistics == "poisson":
        stats = poisson_detection_stats(t, params.detector, params.mu)
    else:
        stats = detection_stats(t, params.detector, params.m)
    transcript = run_protocol(params)
    if args.out_transcript:
        transcript.to_csv(args.out_transcript, comment=_config_comment(args))
    summary = {
        "format_version": FORMAT_VERSION,
        "config": _config_items(args),
        **_summary_core(transcript, stats),
    }
    _emit_json(summary, args, out_path=args.out_summary)
    return 0


def cmd_multiparty(args) -> int:
    from .detection import detection_stats
    from .protocol import multiparty_run

    params = _protocol_params(args)
    t = params.channel.transmittance

    def write_and_summarise(p, transcript):
        # in here: no file if the closed forms fail, and one party's outcomes alive at a time
        stats = detection_stats(t, params.detector, transcript.m)
        if args.out_transcript:
            transcript.to_csv(f"{args.out_transcript}.party{p}.csv")
        return {"party": p, **_summary_core(transcript, stats)}

    parties = multiparty_run(params, args.parties, write_and_summarise)
    out = {
        "format_version": FORMAT_VERSION,
        "config": _config_items(args),
        "n_parties": len(parties),
        "copies_per_party": params.m // args.parties,
        "parties": list(parties),
    }
    _emit_json(out, args, out_path=args.out_summary)
    return 0


def cmd_oracle(args) -> int:
    from .detection import detection_stats, mc_detection_stats
    from .security import helstrom_exact, lambda_exact, lambda_paper_bound

    lam = lambda_exact(args.d)
    hel = helstrom_exact(args.d, args.m)
    detector = _detector_from_args(args)
    t = transmittance(args.length_km, args.alpha)
    stats = detection_stats(t, detector, args.m)
    mc = mc_detection_stats(t, detector, args.m, args.samples, args.seed)
    out = {
        "format_version": FORMAT_VERSION,
        "config": _config_items(args),
        "lambda_numeric": lam,
        "lambda_paper": lambda_paper_bound(args.d),
        "helstrom_numeric": hel,
        "detection_analytic": {"t": t, "p_c": stats.p_c, "p_e": stats.p_e},
        "detection_mc": {
            "p_c": mc.p_c,
            "p_e": mc.p_e,
            "n_right": mc.n_right,
            "n_wrong": mc.n_wrong,
            "n_samples": mc.n_samples,
        },
    }
    _emit_json(out, args)
    return 0


def _add_common(parser: _Parser) -> None:
    parser.add_argument("--config", help="flat key = value config file; flags override it")
    parser.set_defaults(format_version=FORMAT_VERSION)  # echoed in every config, never set


def _add_detector_options(parser: _Parser) -> None:
    parser.add_argument(
        "--profile",
        default="snspd_lab",
        choices=sorted(DETECTOR_PRESETS),
        help="detector preset",
    )
    parser.add_argument("--eta", type=float, help="override detector efficiency")
    parser.add_argument("--visibility", type=float, help="override interference visibility")
    parser.add_argument("--p-dark", type=float, dest="p_dark", help="override dark-count probability")
    parser.add_argument("--alpha", type=float, default=0.2, help="fiber loss in dB/km")


def _add_simulation_options(parser: _Parser) -> None:
    parser.add_argument("--d", type=int, required=True, help="Hilbert space dimension (power of 2)")
    parser.add_argument("--m", type=int, default=1, help="signal copies per round")
    parser.add_argument("--L", type=float, default=0.0, dest="length_km", help="fiber length in km")
    parser.add_argument("--rounds", type=int, default=10000, help="protocol rounds to simulate")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed")
    parser.add_argument(
        "--photon-statistics",
        choices=("fixed", "poisson"),
        default="fixed",
        help="copy-count statistics of the source",
    )
    parser.add_argument("--mu", type=float, help="mean photon number for poisson statistics")
    parser.add_argument(
        "--allow-insecure-mu",
        action="store_true",
        help="bypass the photon budget mu <= coherent_mu_max(d), i.e. mu + 4 sqrt(mu) <= sqrt(d)",
    )
    _add_detector_options(parser)
    parser.add_argument("--out-transcript", help="write per-round CSV here")
    parser.add_argument("--out-summary", help="also write the summary JSON here")


def build_parser() -> _Parser:
    parser = _Parser(prog="mubqct", description=__doc__, add_help=True)
    parser.add_argument("--version", action="version", version=f"mubqct {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p = sub.add_parser(
        "mub-verify",
        help="certify the basis family from its integer trace tables, no family built "
        "(a failed certificate exits 1 naming its check)",
    )
    p.add_argument("--k", type=int, required=True, help="dimension exponent 1..16, d = 2^k")
    p.add_argument("--tol", type=float, default=1e-9, help="max allowed deviation")
    _add_common(p)
    p.set_defaults(func=cmd_mub_verify)

    p = sub.add_parser("bounds", help="adversary bounds for one (d, m) point")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    oracle_help = "exact lambda from the commutation classes of the split observables"
    p.add_argument("--oracle", action="store_true", help=oracle_help)
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="optimized key-rate table over (profile, d, L)")
    p.add_argument("--d", required=True, help="comma-separated dimensions")
    p.add_argument("--L", required=True, dest="length_grid", help="distance grid start:stop:step in km")
    p.add_argument("--profile", default="snspd_lab", help="comma-separated detector presets")
    p.add_argument("--alpha", type=float, default=0.2, help="fiber loss in dB/km")
    p.add_argument("--bounds-source", choices=BOUNDS_SOURCES, default=DEFAULT_BOUNDS_SOURCE)
    p.add_argument("--out", help="write CSV here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo protocol run with transcript")
    _add_simulation_options(p)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("multiparty", help="one encoding stream, several receivers", description=(
        "Eve taps at the sender or once per receiver fiber. All receivers read one x, so they "
        "share one key: an untrusted receiver is an untrusted device. The floor(sqrt(d)) cap on "
        "--parties rests on the paper bounds, which attacks beat at d >= 16."))
    p.add_argument("--parties", type=int, required=True, help="number of receivers")
    _add_simulation_options(p)
    _add_common(p)
    p.set_defaults(func=cmd_multiparty)

    p = sub.add_parser(
        "oracle",
        help="the closed-form lambda and Helstrom values every path uses (Helstrom at m >= 2: "
        "a fresh r per copy); only its detection Monte Carlo is independent",
    )
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--L", type=float, default=50.0, dest="length_km")
    p.add_argument("--samples", type=int, default=200000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_detector_options(p)
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def exit_code(run, argv) -> int:
    """run(argv)'s return code, or the documented code of the way it failed.

    The package's one exception-to-exit-code map: `main` and both scripts
    in scripts/ return through it.  A usage error has already printed its
    message (see `_Parser`); every other failure prints an `error:` line.
    """
    try:
        return run(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    except (CapabilityError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(_resolve_argv(parser, list(argv)))
    return args.func(args)


def main(argv=None) -> int:
    return exit_code(_run, sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
