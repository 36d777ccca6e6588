"""Command-line front end.

Subcommands: sample-matrix, sample-gas, dh, equilibrium, rate-largest,
quantile-check, lambertw, verify; each subparser carries its handler.  Exit
codes: 0 success, 1 domain or validation error, 2 numerical failure
(non-convergence, a failed SVD, a singular solve).  Result values print
at 17 significant digits (_g17), CSV under a header row; JSON reports are
flat snake_case objects embedding the run configuration, so every run is
reproducible from its own output.
SVG plots are hand-emitted with fixed float formatting, which keeps output
byte-identical for identical inputs.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import dh_law, ensemble, equilibrium, proof_lab, special
from .gas_sampler import GasConfig, GasModel, GFunction, Potential, mcmc_sample
from .measures import voronoi_cell_edges


def _g17(v):
    return f"{float(v):.17g}"


def _csv(values):
    return ",".join(_g17(v) for v in values)


def _json(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract,
    after the usage and argparse's own error line; handler= is the
    subcommand's handler, the one dispatch calls."""

    def __init__(self, *args, handler=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.set_defaults(handler=handler)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_pair(text):
    """The two floats of "A,B"."""
    try:
        a, b = map(float, text.split(","))
    except ValueError:
        raise ValueError(f"expected A,B, got {text!r}") from None
    return a, b


# ----------------------------------------------------------------------
# SVG emission

_SVG_W, _SVG_H = 640, 420
_MARGIN = dict(left=62, right=16, top=34, bottom=44)


def emit_svg(histogram, overlay=None, title=""):
    """Standalone SVG: a histogram (edges, heights) and an optional overlay
    polyline (x, y).  Deterministic byte output for identical input; the
    overlay is the only <path> element."""
    edges, heights = (np.asarray(a, dtype=float) for a in histogram)
    if edges.size < 2 or heights.size != edges.size - 1:
        raise ValueError("histogram needs edges (m+1) and heights (m)")
    xs = [edges.min(), edges.max()]
    ys = [0.0, float(heights.max())]
    if overlay is not None:
        ox, oy = (np.asarray(a, dtype=float) for a in overlay)
        if ox.size == 0:
            raise ValueError("empty overlay")
        xs += [float(ox.min()), float(ox.max())]
        ys += [float(min(oy.min(), 0.0)), float(oy.max())]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0
    y1 *= 1.05
    iw = _SVG_W - _MARGIN["left"] - _MARGIN["right"]
    ih = _SVG_H - _MARGIN["top"] - _MARGIN["bottom"]

    def sx(v):
        return _MARGIN["left"] + (v - x0) / (x1 - x0) * iw

    def sy(v):
        return _SVG_H - _MARGIN["bottom"] - (v - y0) / (y1 - y0) * ih

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
           f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
           f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>']
    if title:
        out.append(f'<text x="{_SVG_W // 2}" y="20" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="13">{title}</text>')
    ax_y = _SVG_H - _MARGIN["bottom"]
    out.append(f'<line x1="{_MARGIN["left"]}" y1="{ax_y}" x2="{_SVG_W - _MARGIN["right"]}" '
               f'y2="{ax_y}" stroke="black" stroke-width="1"/>')
    out.append(f'<line x1="{_MARGIN["left"]}" y1="{_MARGIN["top"]}" '
               f'x2="{_MARGIN["left"]}" y2="{ax_y}" stroke="black" stroke-width="1"/>')
    for tv in np.linspace(x0, x1, 5):
        px = sx(tv)
        out.append(f'<line x1="{px:.2f}" y1="{ax_y}" x2="{px:.2f}" y2="{ax_y + 5}" '
                   'stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{px:.2f}" y="{ax_y + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{tv:.4g}</text>')
    for tv in np.linspace(y0, y1, 5):
        py = sy(tv)
        out.append(f'<line x1="{_MARGIN["left"] - 5}" y1="{py:.2f}" '
                   f'x2="{_MARGIN["left"]}" y2="{py:.2f}" stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{_MARGIN["left"] - 8}" y="{py + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{tv:.4g}</text>')
    for k in range(heights.size):
        hx0, hx1 = sx(edges[k]), sx(edges[k + 1])
        hy = sy(heights[k])
        out.append(f'<rect x="{hx0:.3f}" y="{hy:.3f}" width="{hx1 - hx0:.3f}" '
                   f'height="{sy(0.0) - hy:.3f}" fill="#7696c4" '
                   'fill-opacity="0.75" stroke="none"/>')
    if overlay is not None:
        coords = [f"{sx(ox[0]):.3f} {sy(oy[0]):.3f}"]
        coords += [f"L {sx(a):.3f} {sy(b):.3f}" for a, b in zip(ox[1:], oy[1:])]
        out.append(f'<path d="M {" ".join(coords)}" fill="none" '
                   'stroke="#208040" stroke-width="1.5" stroke-dasharray="6,3"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# subcommand handlers

def _cmd_lambertw(args):
    re_, im_ = _parse_pair(args.z)
    if im_ == 0.0 and re_ < special.BRANCH_POINT:
        w = special.lambert_w0_cut_above(re_)
    else:
        w = special.lambert_w0_complex(complex(re_, im_))
    print(_csv((w.real, w.imag)))
    return 0


def _cmd_dh(args):
    law = dh_law.DHLaw()
    if args.op in ("density", "cdf", "quantile"):
        fn = {"density": dh_law.dh_density, "cdf": law.cdf,
              "quantile": law.quantile}[args.op]
        if args.csv:
            special.check_count("--grid-points", args.grid_points, 1)
            lo, hi = (0.005, 0.995) if args.op == "quantile" else (0.0, float(np.e))
            grid = np.linspace(lo, hi, args.grid_points)
            print("\n".join(["x,value"] + [_csv(row) for row in zip(grid, fn(grid))]))
        else:
            if args.x is None:
                raise ValueError("--x is required without --csv")
            print(_g17(fn(args.x)))
    elif args.op == "moment":
        if args.k is None:
            raise ValueError("--k is required for dh moment")
        val = law.moment_numeric(args.k) if args.numeric else dh_law.dh_moment_exact(args.k)
        print(_g17(val))
    else:
        re_, im_ = _parse_pair(args.z)
        if args.op == "stieltjes":
            w = dh_law.dh_stieltjes(complex(re_, im_))
        else:
            # a zero imaginary part asks for the real value on the real axis
            w = complex(dh_law.dh_r_transform(complex(re_, im_) if im_ else re_))
        print(_csv((w.real, w.imag)))
    return 0


def _cmd_sample_matrix(args):
    params = ensemble.EnsembleParams(n=args.n, theta=args.theta, b=args.b,
                                     seed=args.seed)
    specs = ensemble.sample_spectra(params, args.trials)
    _write_table(args.out, "trial", args.n, (s.points for s in specs))
    print(f"wrote {args.trials} spectra (n={args.n}) to {args.out}")
    return 0


def _cmd_sample_gas(args):
    cfg = GasConfig(n=args.n, g=GFunction.parse(args.g),
                    v=Potential.parse(args.V), b=args.b)
    _, diag = mcmc_sample(cfg, steps=args.steps, burn_in=args.burn_in,
                          seed=args.seed, chains=args.chains)
    _write_table(args.out, "chain", args.n, (np.sort(x) for x in diag.final))
    acc = ", ".join(f"{a:.3f}" for a in diag.chain_acceptance)
    print(f"wrote {args.chains} chains to {args.out}; acceptance rates: {acc}")
    return 0


def _solve(args):
    """(model, report): the rate-functional solve the shared solver flags
    ask for."""
    special.check_count("--grid", args.grid, 2)
    model = GasModel(GFunction.parse(args.g), Potential.parse(args.V))
    grid = equilibrium.make_grid(args.grid, *_parse_pair(args.domain))
    report = equilibrium.minimize_I(model, grid, tol=args.tol, max_iter=args.max_iter)
    return model, report


def _run_config(args, **params):
    """The invocation as JSON reports embed it: the solver flags, the
    subcommand's own parameters and the output path given."""
    return {"subcommand": args.cmd, "out": args.out,
            "params": {"g": args.g, "V": args.V, "grid": args.grid,
                       "domain": args.domain, "tol": args.tol,
                       "max_iter": args.max_iter, **params}}


def _cmd_equilibrium(args):
    _, report = _solve(args)
    payload = report.to_dict()
    payload["run_config"] = {**_run_config(args), "plot": args.plot}
    _write_text(args.out, _json(payload) + "\n")
    print(f"objective {report.objective:.9g}  kkt {report.kkt_residual:.3g}  "
          f"b_eq {report.b_eq:.6g}  converged {report.converged}")
    if args.plot:
        overlay = None
        if args.overlay_dh:
            xs = np.linspace(1e-3, float(np.e), 300)
            overlay = (xs, dh_law.dh_density(xs))
        edges = voronoi_cell_edges(report.minimizer.nodes)
        svg = emit_svg((edges, report.minimizer.weights / np.diff(edges)),
                       overlay=overlay, title="equilibrium weight density")
        _write_text(args.plot, svg)
        print(f"plot written to {args.plot}")
    return 0 if report.converged else 2


def _cmd_rate_largest(args):
    special.check_count("--points", args.points, 1)
    model, report = _solve(args)
    x_hi = args.x_max if args.x_max is not None else 3.0 * report.b_eq
    if not (np.isfinite(x_hi) and x_hi > report.b_eq):
        raise ValueError(f"--x-max must be finite and above b_eq = {report.b_eq:.6g}")
    xs = np.linspace(report.b_eq, x_hi, args.points)
    js = equilibrium.rate_J_largest(xs, report, model)
    payload = {"b_eq": report.b_eq, "kappa": report.kappa, "objective": report.objective,
               "x": xs.tolist(), "j": [float(v) for v in js],
               "run_config": _run_config(args, x_max=x_hi, points=int(args.points))}
    _write_text(args.out, _json(payload) + "\n")
    print(f"b_eq {report.b_eq:.6g}  kappa {report.kappa:.6g}  "
          f"J range [{js[0]:.4g}, {js[-1]:.4g}]  converged {report.converged}")
    return 0 if report.converged else 2


def _cmd_quantile_check(args):
    name, _, spec_arg = args.dist.partition(":")
    if name == "uniform":
        sigma = proof_lab.uniform_nice(*_parse_pair(spec_arg))
        e_half = 0.5 * sigma.analytic_energy
    elif name == "dh-trunc":
        try:
            lo = float(spec_arg)
        except ValueError:
            raise ValueError(f"cannot parse distribution {args.dist!r}") from None
        sigma = proof_lab.truncated_dh(lo)
        e_half = 0.5 * proof_lab.nice_energy(sigma, n0=512, tol=1e-5,
                                             max_doublings=2)
    else:
        raise ValueError(f"unknown distribution {args.dist!r}")
    g = GFunction.parse(args.g)
    if g.kind == "identity":
        e_half_g = e_half
    else:
        e_half_g = 0.5 * proof_lab.nice_energy(sigma, g, n0=512, tol=1e-5,
                                               max_doublings=2)
    grid = proof_lab.build_quantile_grid(sigma, args.n)
    ok, worst = proof_lab.check_spacing_bounds(grid, sigma.C)
    stats = proof_lab.ratio_statistics(grid, g, args.eps)
    gaps = proof_lab.energy_gap(grid, g, e_half, e_half_g)
    bl_val = proof_lab.configuration_bl_check(grid, sigma, m=args.m)
    payload = {
        "distribution": args.dist,
        "n": args.n,
        "eps": args.eps,
        "g": g.label,
        "density_bound_c": sigma.C,
        "spacing_ok": bool(ok),
        "spacing_worst_ratio": worst,
        "a_max": stats.a_max,
        "a_max_g": stats.a_max_g,
        "fraction": stats.fraction,
        "fraction_g": stats.fraction_g,
        "ratios_evaluated": stats.evaluated,
        "gap": gaps.gap,
        "gap_g": gaps.gap_g,
        "bl_value": bl_val,
        "bl_bound": sigma.C / args.n + 2.0 / args.m,
        "box_mass_log_rate": proof_lab.box_mass_log_rate(grid),
    }
    print(_json(payload))
    return 0


def _cmd_verify(args):
    from . import acceptance
    indices = [idx for idx, _, _ in acceptance.CRITERIA]
    if args.only:
        try:
            only = {int(v) for v in args.only.split(",")}
        except ValueError:
            raise ValueError(f"--only takes criterion numbers, not {args.only!r}") from None
        if only - set(indices):
            raise ValueError(f"--only: no criterion {min(only - set(indices))}")
        indices = [idx for idx in indices if idx in only]
    print(f"{'':>4} {'criterion':<28} {'result':<6} {'time':>9}  detail")
    ok = True
    for idx in indices:
        r = acceptance.run_criterion(idx)
        ok &= r.passed
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.index:>4} {r.name:<28} {status:<6} {r.seconds:>8.3f}s  {r.detail}")
    print()
    print("all criteria passed" if ok else "FAILURES PRESENT")
    return 0 if ok else 1


def _write_text(path, text):
    if not path:
        raise ValueError("output path is required")
    with open(path, "w") as fh:
        fh.write(text)


def _write_table(path, label, n, rows):
    """CSV of numbered rows of n values under the header label,x1..xn."""
    lines = [label + "," + ",".join(f"x{i + 1}" for i in range(n))]
    lines += [f"{k},{_csv(row)}" for k, row in enumerate(rows)]
    _write_text(path, "\n".join(lines) + "\n")


# ----------------------------------------------------------------------

def _solver_flags(tol):
    """Parent parser of the flags _solve reads; one per subcommand, since
    the tol default differs and argparse shares a parent's actions with
    every child."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--g", default="log")
    p.add_argument("--V", default="linear:1")
    p.add_argument("--grid", type=int, default=400)
    p.add_argument("--domain", default="1e-4,4")
    p.add_argument("--tol", type=float, default=tol)
    p.add_argument("--max-iter", type=int, default=200000)
    return p


@functools.cache
def build_parser():
    """The one parser of the process: parse_args keeps no state between
    calls, so dispatch reuses it instead of rebuilding every subparser."""
    p = _Parser(prog="biortho",
                description="numerical laboratory for biorthogonal ensembles")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("lambertw", handler=_cmd_lambertw, description="principal Lambert W")
    s.add_argument("--z", required=True, help="argument RE,IM")

    s = sub.add_parser("dh", handler=_cmd_dh, description="Dykema-Haagerup law evaluations")
    s.add_argument("op", choices=["density", "cdf", "quantile", "moment",
                                  "stieltjes", "rtransform"])
    s.add_argument("--x", type=float, default=None)
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--numeric", action="store_true")
    s.add_argument("--z", default="0,1")
    s.add_argument("--csv", action="store_true")
    s.add_argument("--grid-points", type=int, default=200)

    s = sub.add_parser("sample-matrix", handler=_cmd_sample_matrix,
                       description="triangular-ensemble spectra")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--theta", type=float, default=0.0)
    s.add_argument("--b", type=float, default=1.0)
    s.add_argument("--trials", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)

    s = sub.add_parser("sample-gas", handler=_cmd_sample_gas,
                       description="Metropolis gas sampler")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--g", default="id")
    s.add_argument("--V", default="linear:1")
    s.add_argument("--b", type=float, default=1.0)
    s.add_argument("--steps", type=int, default=2000)
    s.add_argument("--burn-in", type=int, default=1000)
    s.add_argument("--chains", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)

    s = sub.add_parser("equilibrium", handler=_cmd_equilibrium,
                       parents=[_solver_flags(tol=1e-6)],
                       description="rate-functional minimizer")
    s.add_argument("--out", required=True)
    s.add_argument("--plot", default="")
    s.add_argument("--overlay-dh", action="store_true")

    s = sub.add_parser("rate-largest", handler=_cmd_rate_largest,
                       parents=[_solver_flags(tol=1e-4)],
                       description="largest-particle rate function")
    s.add_argument("--x-max", type=float, default=None)
    s.add_argument("--points", type=int, default=20)
    s.add_argument("--out", required=True)

    s = sub.add_parser("quantile-check", handler=_cmd_quantile_check,
                       description="lower-bound proof diagnostics")
    s.add_argument("--dist", default="uniform:1,2")
    s.add_argument("--n", type=int, default=100)
    s.add_argument("--eps", type=float, default=0.1)
    s.add_argument("--g", default="id")
    s.add_argument("--m", type=int, default=10000)

    s = sub.add_parser("verify", handler=_cmd_verify,
                       description="run the acceptance suite")
    s.add_argument("--only", default="", help="comma-separated criterion numbers")

    return p


def dispatch(argv):
    """Route argv to a subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # LinAlgError is a ValueError, so numerical failures are caught first
    try:
        return args.handler(args)
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
