"""Command-line interface.

Subcommands: analyze (entropy/information profile of a price CSV), simulate
(write a synthetic price CSV), theory (closed-form information curves), and
hurst (structure-function scaling of a price CSV).  Output goes to stdout
unless --output is given; header comment lines start with '#'.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure (out of
memory included).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys

import numpy as np

from .information import profile_from_prices, profile_to_csv, profile_to_json
from .scaling import DEFAULT_FIT_RANGE, estimate_hurst
from .series import _freeze, load_prices, write_prices
from .simulate import NumericError, simulate_delampertized, simulate_fbm, \
    simulate_pseudo_periodic, to_price_series
from .theory import DelampertizedParams, FbmParams, theory_curve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


@contextlib.contextmanager
def _output(path: str | None):
    """The --output file, opened for writing, or stdout."""
    if path:
        with open(path, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text: str, output: str | None) -> None:
    with _output(output) as fh:
        fh.write(text)


def _load(path: str, mode: str):
    if path == "-":
        return load_prices(sys.stdin, mode)
    return load_prices(path, mode)


def _float_type(requirement: str, holds):
    """An argparse type: a float for which `holds` is true, else the error
    '<requirement>, got <text>'."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not holds(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value
    return parse


_finite_float = _float_type("must be finite", math.isfinite)
_positive_float = _float_type("must be positive and finite", lambda value: 0.0 < value < math.inf)


def cmd_analyze(args: argparse.Namespace) -> int:
    prices = _load(args.input, args.price_mode)
    ep, ip = profile_from_prices(prices, args.L_max, args.m_values, args.confidence)
    if args.format == "json":
        _emit(profile_to_json(ep, ip) + "\n", args.output)
    else:
        _emit(profile_to_csv(ep, ip), args.output)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    sigma = 1.0 if args.sigma is None else args.sigma
    if args.model == "fbm":
        path = simulate_fbm(FbmParams(args.hurst, sigma), args.n, args.dt, args.seed)
        header = (f"# model=fbm hurst={args.hurst} sigma={sigma}"
                  f" n={args.n} dt={args.dt} seed={args.seed} p0={args.p0}")
    elif args.model == "delampertized":
        path = simulate_delampertized(
            DelampertizedParams(args.hurst, args.theta, sigma),
            args.n, args.dt, args.seed)
        header = (f"# model=delampertized hurst={args.hurst} theta={args.theta}"
                  f" sigma={sigma} n={args.n} dt={args.dt}"
                  f" seed={args.seed} p0={args.p0}")
    else:
        path = simulate_pseudo_periodic(args.beta, args.tau, args.n, args.seed)
        # unit-variance returns cannot compound into positive prices, so the
        # CLI applies a volatility scale (signs, hence information, unchanged)
        scale = 0.01 if args.sigma is None else args.sigma
        path = dataclasses.replace(path, values=_freeze(scale * path.values))
        header = (f"# model=pseudo-periodic beta={args.beta} tau={args.tau}"
                  f" sigma={scale} n={args.n} seed={args.seed} p0={args.p0}")
    prices = to_price_series(path, args.p0)
    with _output(args.output) as fh:
        fh.write(header + "\n")
        write_prices(prices, fh)
    return EXIT_OK


# the largest error, as a fraction of --hurst-step, a theory grid point may have
_GRID_TOLERANCE = 2.0 ** -20


def cmd_theory(args: argparse.Namespace) -> int:
    h_min, step = args.hurst_min, args.hurst_step
    # a printed point h_min + step*i lies inside (0, 1), so step*i is below
    # |h_min| + 1 and its rounding error below the float spacing there; keep
    # that under _GRID_TOLERANCE of a step, or the points drift off the grid.
    # This also keeps the indices below, (|h_min| + 1)/step, under 2**33
    bound = abs(h_min) + 1.0
    spacing = math.ulp(bound)
    if spacing > _GRID_TOLERANCE * step:
        print(f"error: Hurst grid too fine: --hurst-step {step} is less than 2**20 times"
              f" {spacing}, the float spacing at |--hurst-min| + 1 = {bound}", file=sys.stderr)
        return EXIT_USAGE
    to_zero, to_one = -h_min / step, (1.0 - h_min) / step
    # point i is h_min + step*i for i = 0..round((hurst_max - h_min)/step);
    # only the indices whose points can lie strictly inside (0, 1), with one
    # step of margin each side for rounding, are built, so a wide range is cheap
    first = max(0, math.floor(to_zero) - 1)
    last = math.ceil(to_one) + 1
    n_steps = (args.hurst_max - h_min) / step
    if not n_steps >= last:
        # below first - 1 the range is empty either way; this also keeps -inf out
        last = round(max(n_steps, first - 1))
    grid = h_min + step * np.arange(first, last + 1)
    grid = grid[(grid > 0.0) & (grid < 1.0)]
    if grid.size == 0:
        print(f"error: empty Hurst grid: --hurst-min {args.hurst_min} to --hurst-max"
              f" {args.hurst_max} in steps of {args.hurst_step} holds no value in (0, 1)",
              file=sys.stderr)
        return EXIT_USAGE
    if args.model == "fbm":
        curves = [theory_curve("fbm", grid)]
    else:
        curves = [theory_curve("delampertized", grid, {"theta": t, "m": args.m})
                  for t in args.theta]
    if args.format == "json":
        payload = [c.to_json_dict() for c in curves]
        _emit(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2) + "\n",
              args.output)
    else:
        _emit("".join(c.to_csv() for c in curves), args.output)
    return EXIT_OK


# the largest --max-scale: every scale up to it is listed, as used or dropped
_MAX_SCALE_LIMIT = 2 ** 20


def cmd_hurst(args: argparse.Namespace) -> int:
    if not args.scales and args.max_scale > _MAX_SCALE_LIMIT:
        raise ValueError(f"max-scale must be at most {_MAX_SCALE_LIMIT}")
    prices = _load(args.input, args.price_mode)
    logprices = np.log(prices.prices)
    scales = args.scales if args.scales else range(1, args.max_scale + 1)
    curve = estimate_hurst(logprices, scales, (args.fit_min, args.fit_max))
    if args.format == "json":
        _emit(curve.to_json() + "\n", args.output)
    else:
        _emit(curve.to_csv(), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mktinfo",
        description="Multiscale market information of price time series.")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="entropy/information profile of a price CSV")
    pa.add_argument("input", help="price CSV path, or - for stdin")
    pa.add_argument("--L-max", dest="L_max", type=int, default=7)
    pa.add_argument("--m-values", dest="m_values", type=int, nargs="+", default=[1, 2, 3])
    pa.add_argument("--confidence", type=float, default=0.95)
    pa.add_argument("--price-mode", choices=("close", "midrange"), default="close")
    pa.add_argument("--format", choices=("json", "csv"), default="json")
    pa.add_argument("--output", "-o", default=None)
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("simulate", help="write a synthetic price CSV")
    ps.add_argument("model", choices=("fbm", "delampertized", "pseudo-periodic"))
    ps.add_argument("--hurst", type=float, default=0.5)
    ps.add_argument("--sigma", type=float, default=None,
                    help="volatility scale (default 1.0; pseudo-periodic"
                         " returns are scaled by 0.01 unless overridden)")
    ps.add_argument("--theta", type=float, default=1.0)
    ps.add_argument("--beta", type=float, default=-0.9)
    ps.add_argument("--tau", type=int, default=5)
    ps.add_argument("--n", type=int, default=3000)
    ps.add_argument("--dt", type=float, default=1.0)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--p0", type=float, default=100.0)
    ps.add_argument("--output", "-o", default=None)
    ps.set_defaults(func=cmd_simulate)

    pt = sub.add_parser("theory", help="closed-form information curves")
    pt.add_argument("model", choices=("fbm", "delampertized"))
    pt.add_argument("--theta", type=_finite_float, nargs="+", default=[1.0])
    pt.add_argument("--m", type=_finite_float, default=1.0)
    pt.add_argument("--hurst-min", dest="hurst_min", type=_finite_float, default=0.05)
    pt.add_argument("--hurst-max", dest="hurst_max", type=_finite_float, default=0.95)
    pt.add_argument("--hurst-step", dest="hurst_step", type=_positive_float, default=0.05)
    pt.add_argument("--format", choices=("json", "csv"), default="csv")
    pt.add_argument("--output", "-o", default=None)
    pt.set_defaults(func=cmd_theory)

    ph = sub.add_parser("hurst", help="structure-function scaling of a price CSV")
    ph.add_argument("input", help="price CSV path, or - for stdin")
    ph.add_argument("--scales", type=int, nargs="+", default=None)
    ph.add_argument("--max-scale", dest="max_scale", type=int, default=20)
    ph.add_argument("--fit-min", dest="fit_min", type=int, default=DEFAULT_FIT_RANGE[0])
    ph.add_argument("--fit-max", dest="fit_max", type=int, default=DEFAULT_FIT_RANGE[1])
    ph.add_argument("--price-mode", choices=("close", "midrange"), default="close")
    ph.add_argument("--format", choices=("json", "csv"), default="json")
    ph.add_argument("--output", "-o", default=None)
    ph.set_defaults(func=cmd_hurst)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
