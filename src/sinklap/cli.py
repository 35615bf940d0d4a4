"""Command line interface.

Subcommands::

    generate   sample a dataset (optionally noisy) to CSV
    pointwise  one pipeline run, errors on stdout
    sweep      replicated bandwidth sweep to CSV (+ slope JSON)
    embed      spectral-embedding comparison to CSV
    skdiag     scaling residual trace to CSV
    moments    kernel profile moments to stdout

Every option can also be supplied through ``--config FILE``, a flat
``key = value`` text file whose keys are the option names with
underscores; explicit flags win over file values.  Exit codes: 0 on
success, 1 on usage errors, 2 on numerical failure; a pointwise, sweep
or embed run whose scalings ran out of ``max_iter`` exits 0 and says so
in one ``warning:`` line on stderr (pointwise also names the last
tested residual).  All floats in
output files use 17 significant digits, so identical invocations
produce byte-identical artifacts.
"""

import argparse
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from .csvio import fmt, write_slopes_json, write_table
from .errors import DegenerateInputError, NumericalFailureError, UsageError
from .experiments import (
    EMBEDDING_EIGENPAIRS,
    LaplacianKind,
    embedding_experiment,
    epsilon_sweep,
    noisy_dataset,
    pointwise_experiment,
    slope_fit,
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


def _at_least(low):
    """Converter from an option's text to an int no smaller than ``low``."""

    def convert(s):
        if int(s) < low:
            raise ValueError(f"must be >= {low}")
        return int(s)

    return convert


_density = _one_of(DensitySpec)
_noise = _one_of(NoiseKind, none="none")
_lap = _one_of(LaplacianKind)


def _write_records(path, columns, records):
    write_table(path, columns, ([getattr(r, c) for c in columns] for r in records))


def parse_grid(s):
    """Parse ``start:stop:COUNTlog`` / ``start:stop:COUNTlin`` grids."""
    parts = str(s).split(":")
    match = re.fullmatch(r"(\d+)(log|lin)", parts[-1].strip()) if len(parts) == 3 else None
    if match is None:
        raise ValueError("grid must look like start:stop:10log or start:stop:10lin")
    start, stop = float(parts[0]), float(parts[1])
    if not np.isfinite([start, stop]).all():
        raise ValueError("grid endpoints must be finite")
    if not 0 < start <= stop:
        raise ValueError("grid needs 0 < start <= stop")
    count, kind = int(match.group(1)), match.group(2)
    if count < 1:
        raise ValueError("grid needs at least one point")
    if kind == "log":
        return [float(e) for e in np.geomspace(start, stop, count)]
    return [float(e) for e in np.linspace(start, stop, count)]


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

# n >= 2 for a kernel, and one more than the eigenpairs for an embedding
_SCHEMAS = {
    "generate": [
        ("n", _at_least(1), 3000),
        ("density", _density, DensitySpec.SINUSOIDAL_1D),
        ("seed", _at_least(0), 0),
        ("out", str, _REQUIRED),
    ]
    + _NOISE_OPTS,
    "pointwise": [
        ("n", _at_least(2), 3000),
        ("density", _density, DensitySpec.SINUSOIDAL_1D),
        ("epsilon", float, _REQUIRED),
        ("lap", _lap, LaplacianKind.BISTOCH_UN),
        ("seed", _at_least(0), 0),
        ("out", str, None),
    ]
    + _SK_OPTS
    + _NOISE_OPTS,
    "sweep": [
        ("n", _at_least(2), 3000),
        ("density", _density, DensitySpec.SINUSOIDAL_1D),
        ("eps_grid", parse_grid, _REQUIRED),
        ("replicas", int, 20),
        ("lap", _lap, LaplacianKind.BISTOCH_UN),
        ("seed", _at_least(0), 0),
        ("threads", int, None),
        ("out", str, _REQUIRED),
        ("slopes_out", str, None),
        ("slope_points", int, 3),
    ]
    + _SK_OPTS
    + _NOISE_OPTS,
    "embed": [
        ("n", _at_least(EMBEDDING_EIGENPAIRS + 1), 1000),
        ("epsilon", float, 5e-4),
        ("replicas", int, 20),
        ("seed", _at_least(0), 0),
        ("threads", int, None),
        ("out", str, _REQUIRED),
        ("eigen_out", str, None),
    ]
    + _SK_OPTS
    + [("noise", _noise, NoiseKind.SIMPLE)]
    + _NOISE_OPTS[1:],
    "skdiag": [
        ("fixture", str, None),
        ("n", _at_least(2), 3000),
        ("density", _density, DensitySpec.SINUSOIDAL_1D),
        ("epsilon", float, None),
        ("seed", _at_least(0), 0),
        ("out", str, _REQUIRED),
    ]
    + _SK_OPTS
    + _NOISE_OPTS,
    "moments": [("d", int, 1)],
}


@dataclass
class RunConfig:
    """A validated command name plus its parameter table."""

    command: str
    params: dict


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_config_file(path, allowed):
    table = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in allowed:
            raise UsageError(f"{path}:{lineno}: unknown key '{key}'")
        table[key] = value
    return table


def parse_config(argv=None):
    """Parse argv (and an optional config file) into a RunConfig."""
    parser = _Parser(prog="sinklap", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", metavar="command")
    for command, schema in _SCHEMAS.items():
        sub = subs.add_parser(command, prog=f"sinklap {command}")
        sub.add_argument("--config", default=None)
        for name, _conv, _default in schema:
            sub.add_argument("--" + name.replace("_", "-"), dest=name, default=None)
    ns = vars(parser.parse_args(argv))
    command = ns.get("command")
    if command is None:
        raise UsageError("a command is required (see sinklap --help)")
    schema = _SCHEMAS[command]
    names = {name for name, _c, _d in schema}
    file_values = (
        _read_config_file(ns["config"], names) if ns.get("config") else {}
    )
    params = {}
    for name, conv, default in schema:
        raw = ns.get(name)
        if raw is None:
            raw = file_values.get(name)
        if raw is None:
            if default is _REQUIRED:
                raise UsageError(f"--{name.replace('_', '-')} is required")
            params[name] = default
            continue
        try:
            params[name] = conv(raw)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad value for --{name.replace('_', '-')}: {exc}")
    return RunConfig(command=command, params=params)


def _noise_model(params):
    if params["noise"] is None:
        return None
    return NoiseModel(
        kind=params["noise"],
        m=params["m"],
        sigma_out=params["sigma_out"],
        p_out=params["p_out"],
    )


def _sk_config(params):
    return SkConfig(
        c_sk=params["c_sk"],
        eps_sk=params["eps_sk"],
        max_iter=params["max_iter"],
    )


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


def _cmd_generate(p):
    ds = noisy_dataset(p["n"], p["density"], _noise_model(p), p["seed"])
    flags = ds.outlier_flags if ds.outlier_flags is not None else np.zeros(ds.n, bool)
    m = ds.points.shape[1]
    write_table(
        p["out"],
        ("t",) + tuple(f"x{j + 1}" for j in range(m)) + ("outlier",),
        ([t, *x, int(f)] for t, x, f in zip(ds.t, ds.points, flags)),
    )


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
    print(f"relerr2 = {fmt(res.relerr2)}")
    print(f"relerrinf = {fmt(res.relerrinf)}")
    print(f"sk_iters = {res.sk_iters}")
    print(f"projection_hits = {res.projection_hits}")
    if p["out"]:
        _write_records(p["out"], _POINTWISE_COLUMNS, [res])
    _warn_unconverged(p, int(not res.sk_converged), 1, res.sk_residual)


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
        log_eps = np.log([r.epsilon for r in records])
        errinf = [r.relerrinf_mean for r in records]
        # the sup-norm bias branch starts where the U-shaped curve turns,
        # not at the end of the grid (past the bias branch the error
        # saturates and bends back down)
        start = min(int(np.argmin(errinf)), len(records) - k)
        slopes = [
            (
                "small_eps",
                slope_fit(log_eps, np.log([r.relerr2_mean for r in records]), (0, k)),
            ),
            (
                "large_eps",
                slope_fit(log_eps, np.log(errinf), (start, start + k)),
            ),
        ]
        write_slopes_json(p["slopes_out"], slopes)
    _warn_unconverged(
        p, sum(r.sk_unconverged for r in records), sum(r.replicas for r in records)
    )


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


def _cmd_skdiag(p):
    if p["fixture"] is not None:
        if p["fixture"] != "perm2":
            raise UsageError("the only built-in fixture is 'perm2'")
        target = np.array([[0.0, 1.0], [1.0, 0.0]])
    else:
        if p["epsilon"] is None:
            raise UsageError("--epsilon is required without --fixture")
        ds = noisy_dataset(
            p["n"], p["density"], _noise_model(p), p["seed"]
        )
        target = build_affinity(ds.points, p["epsilon"])
    res = approx_sym_sk(target, _sk_config(p))
    write_table(
        p["out"], ("iter", "residual_inf"), enumerate(res.residual_history, 1)
    )
    print(f"iterations = {res.iterations}")
    print(f"converged = {str(res.converged).lower()}")
    print(f"projection_hits = {res.projection_hits}")


def _cmd_moments(p):
    m0, m2 = kernel_moments(p["d"])
    print(f"m0 = {fmt(m0)}")
    print(f"m2 = {fmt(m2)}")


_COMMANDS = {
    "generate": _cmd_generate,
    "pointwise": _cmd_pointwise,
    "sweep": _cmd_sweep,
    "embed": _cmd_embed,
    "skdiag": _cmd_skdiag,
    "moments": _cmd_moments,
}


def run(cfg):
    """Execute a parsed RunConfig; returns the process exit code."""
    start = time.perf_counter()
    try:
        _COMMANDS[cfg.command](cfg.params)
    except UsageError as exc:
        print(f"sinklap {cfg.command}: error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateInputError, NumericalFailureError) as exc:
        print(f"sinklap {cfg.command}: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"sinklap {cfg.command}: error: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - start
    bits = [cfg.command]
    for key in ("n", "epsilon", "replicas", "d"):
        if cfg.params.get(key) is not None:
            bits.append(f"{key}={cfg.params[key]}")
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
