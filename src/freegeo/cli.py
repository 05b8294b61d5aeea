"""Command-line front door: space/element ingestion, command dispatch,
JSON/CSV reports with certificates and margins.

Exit codes: 0 for ok/certified results, 2 for precondition or validation
failures, 1 for I/O, parsing, or solver errors.  Reports embed the library
version and the tolerances in effect; identical inputs and seed produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__
from .free_space import (FreeSpaceError, MoleculeCombination,
                         element_from_json, free_norm, molecule,
                         norming_functional, optimal_representation)
from .gromov import PairError, analyze_pair, classify_space, family_trend
from .lipschitz import (LipschitzError, aux_f_xy, from_values, lip_norm,
                        peaking_check)
from .lp import LpError
from .metric import (MetricError, PointedMetricSpace, gallery, gamma_fatten,
                     validate)
from .ssd import (CERTIFIED, SsdError, almost_aligned_certificate,
                  bilipschitz_distortion, exposedness_probe,
                  find_common_norming, perturbation_pipeline,
                  single_molecule_perturb)
from .tolerances import TAU_METRIC, lp_tol


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing does not change it."""
    p = argparse.ArgumentParser(
        prog="freegeo",
        description="Computable geometry of Lipschitz-free spaces over "
                    "finite pointed metric spaces.")
    p.add_argument("command", choices=[
        "validate", "gallery", "norm", "represent", "classify-pair",
        "classify-space", "family-trend", "modulus", "perturb",
        "perturb-single", "certify-almost-aligned", "distort"])
    p.add_argument("--space", help="JSON file with a pointed metric space")
    p.add_argument("--gallery", dest="gallery_name",
                   help="named gallery space or family")
    p.add_argument("--params", default="",
                   help="comma-separated K=V parameters for --gallery")
    p.add_argument("--element", help="JSON file with masses or molecules")
    p.add_argument("--pair", help="pair of point indices, e.g. 1,2")
    p.add_argument("--indices", help="family indices, e.g. 1,2,3 or 1-10")
    p.add_argument("--index", type=int, help="single family index")
    p.add_argument("--gamma", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--eta-grid", dest="eta_grid",
                   help="comma-separated slab depths")
    p.add_argument("--samples", type=int, default=32)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    return p


class _UsageError(ValueError):
    pass


def _number(text: str, kind, what: str):
    try:
        return kind(text)
    except ValueError:
        raise _UsageError(f"malformed {what} {text!r}") from None


def _numbers(text: str, kind, what: str) -> list:
    return [_number(t, kind, what) for t in text.split(",")]


def _parse_params(text: str) -> dict:
    params = {}
    if text:
        for item in text.split(","):
            if "=" not in item:
                raise _UsageError(f"malformed --params item {item!r}")
            k, v = item.split("=", 1)
            try:
                params[k] = int(v)
            except ValueError:
                x = _number(v, float, f"--params value for {k}")
                if not math.isfinite(x):
                    raise _UsageError(
                        f"--params value for {k} must be finite, got "
                        f"{v!r}") from None
                params[k] = x
    return params


def _parse_indices(text: str):
    if not text:
        raise _UsageError("family-trend needs --indices (e.g. 1-10)")
    if "-" in text and "," not in text:
        lo, hi = _numbers(text.replace("-", ",", 1), int, "--indices")
        return list(range(lo, hi + 1))
    return _numbers(text, int, "--indices")


def _parse_pair(text: str, space: PointedMetricSpace):
    if not text:
        raise _UsageError("this command needs --pair X,Y")
    parts = _numbers(text, int, "--pair")
    if len(parts) != 2:
        raise _UsageError("--pair wants two comma-separated indices")
    if not all(0 <= i < space.n for i in parts):
        raise _UsageError(f"--pair {text} is out of range for {space.n} "
                          "points")
    return parts[0], parts[1]


def _load_space(args, check: bool = True) -> PointedMetricSpace:
    if args.space and args.gallery_name:
        raise _UsageError("give either --space or --gallery, not both")
    if args.space:
        with open(args.space) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict) or "dist" not in obj:
            raise _UsageError("malformed space file: need a JSON object "
                              "with a 'dist' matrix")
        try:
            return PointedMetricSpace.from_json(obj, check=check)
        except MetricError:
            raise
        except (ValueError, TypeError) as exc:
            raise _UsageError(f"malformed space file: {exc}") from None
    if args.gallery_name:
        obj = gallery(args.gallery_name, **_parse_params(args.params))
        if not isinstance(obj, PointedMetricSpace):
            if args.index is None:
                raise _UsageError(
                    f"gallery {args.gallery_name!r} is a family; add --index")
            return obj.generate(args.index)[0]
        return obj
    raise _UsageError("no space given: use --space FILE or --gallery NAME")


def _load_family(args):
    if not args.gallery_name:
        raise _UsageError("family-trend needs --gallery NAME")
    obj = gallery(args.gallery_name, **_parse_params(args.params))
    if isinstance(obj, PointedMetricSpace):
        raise _UsageError(f"{args.gallery_name!r} is a single space, "
                          "not a family")
    return obj


def _load_element(args, space):
    if not args.element:
        raise _UsageError("this command needs --element FILE")
    with open(args.element) as fh:
        obj = json.load(fh)
    try:
        return element_from_json(space, obj)
    except (FreeSpaceError, ValueError, TypeError, KeyError) as exc:
        raise _UsageError(f"malformed element file: {exc}") from None


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise _UsageError(f"this command needs --{name.replace('_', '-')}")


def _check_tolerance() -> None:
    try:
        lp_tol()
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _report(args, statement: str, inputs: dict, outputs: dict) -> dict:
    return {"command": args.command, "version": __version__,
            "tolerances": {"tau_metric": TAU_METRIC, "tau_lp": lp_tol()},
            "statement": statement, "inputs": inputs, "outputs": outputs}


def _emit(args, report, csv_text=None) -> None:
    if args.format == "csv":
        if csv_text is None:
            raise _UsageError(
                f"command {args.command!r} has no CSV representation")
        text = csv_text
    else:
        text = json.dumps(report, sort_keys=True, indent=2,
                          allow_nan=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args):
    space = _load_space(args, check=False)
    rep = validate(space)
    out = {"ok": rep.ok, "n": space.n,
           "bad_triples": [list(t) for t in rep.bad_triples],
           "bad_pairs": [list(p) for p in rep.bad_pairs]}
    _emit(args, _report(args, "metric axioms checked by enumeration",
                        {"space": space.to_json()}, out))
    return 0 if rep.ok else 2


def _cmd_gallery(args):
    space = _load_space(args)
    _emit(args, _report(args, "named example space emitted",
                        {"gallery": args.gallery_name,
                         "params": _parse_params(args.params)},
                        {"space": space.to_json()}))
    return 0


def _cmd_norm(args):
    space = _load_space(args)
    mu = _load_element(args, space)
    cert = free_norm(mu)
    out = {"value": cert.value, "primal_value": cert.primal_value,
           "dual_value": cert.dual_value,
           "flow": [list(a) for a in cert.flow],
           "potential": cert.potential.to_json()}
    _emit(args, _report(args,
                        "transport optimum equals Lipschitz-ball optimum",
                        {"space": space.to_json(), "element": mu.to_json()},
                        out))
    return 0


def _cmd_represent(args):
    space = _load_space(args)
    mu = _load_element(args, space)
    cert = free_norm(mu)
    comb = cert.representation()
    out = {"combination": comb.to_json(), "weight_sum": comb.weight_sum(),
           "norm": cert.value}
    _emit(args, _report(args, "optimal molecule decomposition from the "
                        "transport flow",
                        {"space": space.to_json(), "element": mu.to_json()},
                        out))
    return 0


def _cmd_classify_pair(args):
    space = _load_space(args)
    x, y = _parse_pair(args.pair, space)
    rep = analyze_pair(space, x, y)
    _emit(args, _report(args, "pair-level product gap, rotundity ratio and "
                        "concavity profile by enumeration",
                        {"space": space.to_json(), "pair": [x, y]},
                        rep.to_json()))
    return 0


def _cmd_classify_space(args):
    space = _load_space(args)
    out = classify_space(space)
    _emit(args, _report(args, "uniform non-alignment across all pairs",
                        {"space": space.to_json()}, out))
    return 0


def _cmd_family_trend(args):
    family = _load_family(args)
    indices = _parse_indices(args.indices)
    rows = family_trend(family, indices)
    csv_lines = ["index,eta,delta_rotund"]
    csv_lines += [f"{r['index']},{r['eta']!r},{r['delta_rotund']!r}"
                  for r in rows]
    _emit(args, _report(args, "asymptotics of the distinguished pair along "
                        "the family",
                        {"family": family.name, "indices": indices},
                        {"rows": rows}),
          csv_text="\n".join(csv_lines) + "\n")
    return 0


def _cmd_modulus(args):
    space = _load_space(args)
    mu = _load_element(args, space)
    if args.seed is None:
        raise _UsageError("modulus needs --seed for reproducibility")
    if args.seed < 0:
        raise _UsageError("--seed must be nonnegative")
    if args.samples < 1:
        raise _UsageError("--samples must be at least 1")
    if not args.eta_grid:
        raise _UsageError("modulus needs --eta-grid a,b,c")
    grid = _numbers(args.eta_grid, float, "--eta-grid")
    curve = exposedness_probe(mu, grid, args.samples, args.seed)
    _emit(args, _report(args, "sampled lower bound on the exposedness "
                        "modulus of the dual face",
                        {"space": space.to_json(), "element": mu.to_json(),
                         "eta_grid": grid, "samples": args.samples,
                         "seed": args.seed},
                        curve.to_json()),
          csv_text=curve.to_csv())
    return 0


def _cmd_perturb(args):
    space = _load_space(args)
    _require(args, "gamma", "epsilon")
    fattened = gamma_fatten(space, args.gamma)
    mu = _load_element(args, fattened)
    comb = optimal_representation(mu)
    scale = comb.weight_sum()
    comb = MoleculeCombination(
        fattened, tuple((lam / scale, x, y) for lam, x, y in comb.terms))
    f = find_common_norming(
        space, MoleculeCombination(space, comb.terms))
    g = norming_functional(comb.element())
    res = perturbation_pipeline(space, args.gamma, comb, f, g, args.epsilon)
    _emit(args, _report(args, "certified norm-attaining perturbation in the "
                        "fattened metric",
                        {"space": space.to_json(), "element": mu.to_json(),
                         "gamma": args.gamma, "eps": args.epsilon},
                        res.to_json()))
    return 0 if res.status == CERTIFIED else 2


def _cmd_perturb_single(args):
    space = _load_space(args)
    _require(args, "epsilon")
    x, y = _parse_pair(args.pair, space)
    f = aux_f_xy(space, x, y)
    gamma_peak = peaking_check(f, x, y)
    if gamma_peak is None:
        raise SsdError(f"the pair ({x}, {y}) admits no peaking function")
    g = norming_functional(molecule(space, x, y))
    g = from_values(space, g.values / lip_norm(g))
    h, bound = single_molecule_perturb(space, x, y, f, gamma_peak, g,
                                       args.epsilon)
    dist = lip_norm(from_values(space, h.values - g.values))
    _emit(args, _report(args, "single-molecule perturbation via a peaking "
                        "function",
                        {"space": space.to_json(), "pair": [x, y],
                         "eps": args.epsilon},
                        {"h": h.to_json(), "bound": bound,
                         "distance": dist,
                         "gamma_peak": gamma_peak}))
    return 0


def _cmd_certify_almost_aligned(args):
    _require(args, "epsilon", "index")
    family = gallery("almost_aligned")
    space, (x, y) = family.generate(args.index)
    f = norming_functional(molecule(space, x, y))
    f = from_values(space, f.values / lip_norm(f))
    cert = almost_aligned_certificate(space, lambda k: 2.0 ** -k,
                                      args.epsilon, f)
    _emit(args, _report(args, "norm-attaining function within 4*eps of a "
                        "near-norming one on the almost-aligned truncation",
                        {"index": args.index, "eps": args.epsilon},
                        cert.to_json()))
    return 0


def _cmd_distort(args):
    space = _load_space(args)
    _require(args, "gamma")
    value = bilipschitz_distortion(space, args.gamma)
    _emit(args, _report(args, "Lipschitz constant of the identity into the "
                        "fattened metric",
                        {"space": space.to_json(), "gamma": args.gamma},
                        {"distortion": value}))
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "gallery": _cmd_gallery,
    "norm": _cmd_norm,
    "represent": _cmd_represent,
    "classify-pair": _cmd_classify_pair,
    "classify-space": _cmd_classify_space,
    "family-trend": _cmd_family_trend,
    "modulus": _cmd_modulus,
    "perturb": _cmd_perturb,
    "perturb-single": _cmd_perturb_single,
    "certify-almost-aligned": _cmd_certify_almost_aligned,
    "distort": _cmd_distort,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_tolerance()
        return _COMMANDS[args.command](args)
    except (_UsageError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MetricError, PairError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SsdError, LipschitzError, FreeSpaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LpError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
