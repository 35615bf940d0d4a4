"""Command line interface.

Subcommands::

    generate   sample a dataset (optionally noisy) to CSV
    pointwise  one pipeline run, errors on stdout
    sweep      replicated bandwidth sweep to CSV (+ slope JSON)
    embed      spectral-embedding comparison to CSV
    skdiag     scaling residual trace to CSV
    moments    kernel profile moments to stdout

Options can also come from a file: a word ``@FILE`` is replaced by the
command-line words that FILE holds, split at white space, each line's
``#`` comment dropped, so a later word wins over an earlier one, in the
file or out of it.  Any word that starts with ``@`` is read as such a
file.  Exit codes: 0 on success, 1 on usage errors, 2 on numerical
failure; a pointwise, sweep or embed run whose scalings ran out of
``max_iter`` exits 0 and says so in one ``warning:`` line on stderr
(pointwise also names the last tested residual).  All floats in output
files use 17 significant digits, so identical invocations produce
byte-identical artifacts.

Parsing turns option text into values and checks only what text alone
decides: option syntax, the ``--eps-grid`` grammar, ``--slope-points``
against the grid and ``--fixture``.  The library judges every value by
name, grid points included, and its drivers judge every argument,
before any draw.  The closing stderr line names the sizes the run used.
"""

import argparse
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from .csvio import fmt, write_slopes_json, write_table
from .errors import (
    DegenerateInputError,
    NumericalFailureError,
    UsageError,
    integer_at_least,
    positive_finite,
    scalar,
)
from .experiments import (
    LaplacianKind,
    embedding_experiment,
    epsilon_sweep,
    noisy_dataset,
    pointwise_experiment,
    sweep_slopes,
)
from .kernel import build_affinity, kernel_moments
from .manifold import DensitySpec
from .noise import NoiseKind, NoiseModel
from .sinkhorn import SkConfig, approx_sym_sk

_REQUIRED = object()

# CSV columns, each named after the record attribute it holds
_POINTWISE_COLUMNS = ("relerr2", "relerrinf", "sk_iters", "projection_hits")
_SWEEP_COLUMNS = (
    "epsilon",
    "relerr2_mean",
    "relerr2_std",
    "relerrinf_mean",
    "relerrinf_std",
    "mean_sk_iters",
    "replicas",
)
_EMBEDDING_COLUMNS = ("method", "pair", "mse_mean", "mse_std", "replicas")


def _one_of(enum, none=None):
    """Converter from an option's text to the ``enum`` member with that
    value; ``none``, when given, is one more spelling, parsed to None."""
    table = {member.value: member for member in enum}
    if none is not None:
        table[none] = None

    def convert(s):
        if s not in table:
            raise ValueError(f"must be one of {sorted(table)}")
        return table[s]

    return convert


_density = _one_of(DensitySpec)
_noise = _one_of(NoiseKind, none="none")
_lap = _one_of(LaplacianKind)


def _write_records(path, columns, records):
    write_table(path, columns, ([getattr(r, c) for c in columns] for r in records))


def parse_grid(s):
    """Parse ``start:stop:COUNTlog`` / ``start:stop:COUNTlin`` grids.

    Only the grammar is judged here: the form, a count of at least one
    and, for a log grid, positive endpoints.  Whether the points are
    finite, positive and ordered is ``epsilon_sweep``'s to judge.
    """
    parts = str(s).split(":")
    match = re.fullmatch(r"(\d+)(log|lin)", parts[-1].strip()) if len(parts) == 3 else None
    if match is None:
        raise ValueError("grid must look like start:stop:10log or start:stop:10lin")
    start, stop = float(parts[0]), float(parts[1])
    count, kind = int(match.group(1)), match.group(2)
    if count < 1:
        raise ValueError("grid needs at least one point")
    if kind == "log" and not (start > 0 and stop > 0):
        raise ValueError("a log grid needs positive endpoints")
    space = np.geomspace if kind == "log" else np.linspace
    # an infinite endpoint gives non-finite points, for epsilon_sweep to name
    with np.errstate(invalid="ignore"):
        return [float(e) for e in space(start, stop, count)]


_SK_OPTS = [
    ("eps_sk", float, SkConfig.eps_sk),
    ("c_sk", float, SkConfig.c_sk),
    ("max_iter", int, SkConfig.max_iter),
]
_NOISE_OPTS = [
    ("noise", _noise, None),
    ("m", int, 2000),
    ("sigma_out", float, NoiseModel.sigma_out),
    ("p_out", float, NoiseModel.p_out),
]
_DATA_OPTS = [
    ("n", int, 3000),
    ("density", _density, DensitySpec.SINUSOIDAL_1D),
    ("seed", int, 0),
]


@dataclass
class RunConfig:
    """A parsed command name plus its parameter table."""

    command: str
    params: dict


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def convert_arg_line_to_args(self, arg_line):
        return arg_line.split("#", 1)[0].split()


def _typed(conv):
    """conv as an argparse ``type``: its ValueError's text names the cause."""

    def convert(text):
        try:
            return conv(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def parse_config(argv=None):
    """Parse argv, each ``@FILE`` word read as the words FILE holds, into
    a RunConfig."""
    parser = _Parser(
        prog="sinklap", description=__doc__.splitlines()[0], fromfile_prefix_chars="@"
    )
    subs = parser.add_subparsers(dest="command", metavar="command", required=True)
    for command, (_handler, options) in _SUBCOMMANDS.items():
        sub = subs.add_parser(command, prog=f"sinklap {command}")
        for name, conv, default in options:
            sub.add_argument(
                "--" + name.replace("_", "-"),
                dest=name,
                type=_typed(conv),
                default=None if default is _REQUIRED else default,
                required=default is _REQUIRED,
            )
    params = vars(parser.parse_args(argv))
    return RunConfig(command=params.pop("command"), params=params)


def _noise_model(p):
    if p["noise"] is None:
        return None
    return NoiseModel(p["noise"], p["m"], p["sigma_out"], p["p_out"])


def _sk_config(p):
    return SkConfig(p["c_sk"], p["eps_sk"], p["max_iter"])


def _warn_unconverged(p, unconverged, total, residual=None):
    """One stderr line when any scaling ran out of max_iter, naming the
    last tested residual when one is given."""
    if unconverged:
        last = "" if residual is None else f", last residual {residual:.3e}"
        print(
            f"warning: {unconverged} of {total} scalings did not converge "
            f"within max_iter={p['max_iter']} (eps_sk={p['eps_sk']:g}){last}",
            file=sys.stderr,
        )


def _used(p, *names):
    """The named parameters, for the closing stderr line: each handler
    names what its run used, not every parsed default."""
    return {name: p[name] for name in names}


def _cmd_generate(p):
    ds = noisy_dataset(p["n"], p["density"], _noise_model(p), p["seed"])
    points = ds.points
    write_table(
        p["out"],
        ("t",) + tuple(f"x{j + 1}" for j in range(points.shape[1])) + ("outlier",),
        ([t, *x, int(f)] for t, x, f in zip(ds.t, points, ds.outlier_flags)),
    )
    return _used(p, "n")


def _cmd_pointwise(p):
    res = pointwise_experiment(
        p["n"],
        p["density"],
        p["epsilon"],
        p["lap"],
        sk_config=_sk_config(p),
        noise_model=_noise_model(p),
        seed=p["seed"],
    )
    for column in _POINTWISE_COLUMNS:
        print(f"{column} = {fmt(getattr(res, column))}")
    if p["out"]:
        _write_records(p["out"], _POINTWISE_COLUMNS, [res])
    _warn_unconverged(p, int(not res.sk_converged), 1, res.sk_residual)
    return _used(p, "n", "epsilon")


def _cmd_sweep(p):
    grid, k = p["eps_grid"], p["slope_points"]
    if p["slopes_out"] and not 2 <= k <= len(grid):
        raise UsageError("slope_points must lie in [2, grid size]")
    records = epsilon_sweep(
        p["n"],
        p["density"],
        grid,
        p["replicas"],
        p["lap"],
        sk_config=_sk_config(p),
        noise_model=_noise_model(p),
        base_seed=p["seed"],
        threads=p["threads"],
    )
    _write_records(p["out"], _SWEEP_COLUMNS, records)
    if p["slopes_out"]:
        write_slopes_json(p["slopes_out"], sweep_slopes(records, k))
    _warn_unconverged(
        p, sum(r.sk_unconverged for r in records), sum(r.replicas for r in records)
    )
    return _used(p, "n", "replicas")


def _cmd_embed(p):
    if p["noise"] is None:
        raise UsageError("embed needs a noise model (use --noise simple|heteroskedastic|iid)")
    result = embedding_experiment(
        p["n"],
        _noise_model(p),
        p["epsilon"],
        sk_config=_sk_config(p),
        replicas=p["replicas"],
        base_seed=p["seed"],
        threads=p["threads"],
    )
    _write_records(p["out"], _EMBEDDING_COLUMNS, result.records)
    if p["eigen_out"]:
        for method, eig in result.first_eigenpairs.items():
            n = eig.vectors.shape[0]
            write_table(
                f"{p['eigen_out']}_{method}.csv",
                ("mode", "eigenvalue") + tuple(f"v{i + 1}" for i in range(n)),
                ([k, val, *eig.vectors[:, k]] for k, val in enumerate(eig.values)),
            )
    _warn_unconverged(p, result.sk_unconverged, p["replicas"])
    return _used(p, "n", "epsilon", "replicas")


def _cmd_skdiag(p):
    if p["fixture"] is not None:
        if p["fixture"] != "perm2":
            raise UsageError("the only built-in fixture is 'perm2'")
        target = np.array([[0.0, 1.0], [1.0, 0.0]])
        used = _used(p, "fixture")
    else:
        if p["epsilon"] is None:
            raise UsageError("--epsilon is required without --fixture")
        # the kernel needs n >= 2 and a positive bandwidth, judged before
        # the draw
        integer_at_least("n", p["n"], 2)
        scalar("epsilon", p["epsilon"])
        positive_finite("epsilon", p["epsilon"])
        ds = noisy_dataset(p["n"], p["density"], _noise_model(p), p["seed"])
        target = build_affinity(ds, p["epsilon"])
        used = _used(p, "n", "epsilon")
    res = approx_sym_sk(target, _sk_config(p))
    write_table(
        p["out"], ("iter", "residual_inf"), enumerate(res.residual_history, 1)
    )
    print(f"iterations = {res.iterations}")
    print(f"converged = {str(res.converged).lower()}")
    print(f"projection_hits = {res.projection_hits}")
    return used


def _cmd_moments(p):
    m0, m2 = kernel_moments(p["d"])
    print(f"m0 = {fmt(m0)}")
    print(f"m2 = {fmt(m2)}")
    return _used(p, "d")


# each subcommand's handler and options: (name, converter, default)
_SUBCOMMANDS = {
    "generate": (_cmd_generate, _DATA_OPTS + [("out", str, _REQUIRED)] + _NOISE_OPTS),
    "pointwise": (
        _cmd_pointwise,
        _DATA_OPTS
        + [
            ("epsilon", float, _REQUIRED),
            ("lap", _lap, LaplacianKind.BISTOCH_UN),
            ("out", str, None),
        ]
        + _SK_OPTS
        + _NOISE_OPTS,
    ),
    "sweep": (
        _cmd_sweep,
        _DATA_OPTS
        + [
            ("eps_grid", parse_grid, _REQUIRED),
            ("replicas", int, 20),
            ("lap", _lap, LaplacianKind.BISTOCH_UN),
            ("threads", int, None),
            ("out", str, _REQUIRED),
            ("slopes_out", str, None),
            ("slope_points", int, 3),
        ]
        + _SK_OPTS
        + _NOISE_OPTS,
    ),
    "embed": (
        _cmd_embed,
        [
            ("n", int, 1000),
            ("seed", int, 0),
            ("epsilon", float, 5e-4),
            ("replicas", int, 20),
            ("threads", int, None),
            ("out", str, _REQUIRED),
            ("eigen_out", str, None),
            ("noise", _noise, NoiseKind.SIMPLE),
        ]
        + _SK_OPTS
        + _NOISE_OPTS[1:],
    ),
    "skdiag": (
        _cmd_skdiag,
        [("fixture", str, None), ("epsilon", float, None), ("out", str, _REQUIRED)]
        + _DATA_OPTS
        + _SK_OPTS
        + _NOISE_OPTS,
    ),
    "moments": (_cmd_moments, [("d", int, 1)]),
}


def run(cfg):
    """Execute a parsed RunConfig; returns the process exit code."""
    start = time.perf_counter()
    try:
        used = _SUBCOMMANDS[cfg.command][0](cfg.params)
    except (DegenerateInputError, NumericalFailureError) as exc:
        print(f"sinklap {cfg.command}: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, OSError) as exc:
        print(f"sinklap {cfg.command}: error: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - start
    bits = [cfg.command, *(f"{key}={value}" for key, value in used.items())]
    print(f"sinklap {' '.join(bits)} wall={wall:.2f}s", file=sys.stderr)
    return 0


def main(argv=None):
    try:
        cfg = parse_config(argv)
    except UsageError as exc:
        print(f"sinklap: error: {exc}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
