"""Command-line entry point: every operation behind reproducible file I/O.

System files are JSON documents

    {"space": {"dim": N}, "maps": [{"lift": ["poly", ...]}, ...]}

with lift polynomials in the X0..XN grammar; family files may additionally
use t in coefficients and carry a "section": ["poly-in-t", ...] entry.
Sweep tables are CSV with the fixed header t,h_T,point,value,aux and 12
significant digits.  All randomness is seeded and echoed in the output.

Exit codes: 0 success, 2 validation error, 3 bad parameter or point on
divisor, 4 node budget exceeded or a number too hard to factor (Pollard
rho stops at exactnum.RHO_MAX_STEPS steps per factorization).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import click

from .canonical import (
    GreenConfig,
    canonical_height,
    canonical_height_oracle_detailed,
    canonical_local_height,
    green_local,
    height_equality_report,
    metric_equality_report,
)
from .dynsys import Morphism, PolarizedSystem, validate_system
from .errors import DynHeightError, ValidationError
from .exactnum import Place, clear_denominators
from .family import (
    ParamSystem,
    Section,
    limit_ratio,
    local_variation_sweep,
    rows_to_csv,
    variation_sweep,
)
from .fibral import (
    PermTypeMatrix,
    model_from_json,
    model_to_json,
    random_synthetic,
    solve_weights,
    verify_intersection_formula,
)
from .projective import normalize, parse_coords, parse_point
from .rng import Lcg64

__all__ = ["main", "load_system_file"]


@dataclass
class SystemFile:
    """Parsed system/family document: system for a constant file, else family."""

    system: PolarizedSystem | None
    family: ParamSystem | None
    section: Section | None


def load_system_file(path: str | Path) -> SystemFile:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    try:
        dim = doc["space"]["dim"]
        lift_docs = [entry["lift"] for entry in doc["maps"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: bad system document: {exc}") from exc
    if type(dim) is not int or dim < 1:
        raise ValidationError(f"{path}: space.dim must be an integer >= 1, not {dim!r}")
    if not all(isinstance(lift, list) for lift in lift_docs):
        raise ValidationError(f"{path}: each lift must be a list of {dim + 1} polynomials")
    lifts = [[str(s) for s in lift] for lift in lift_docs]
    section_doc = doc.get("section")
    if section_doc is not None and not (isinstance(section_doc, list) and len(section_doc) == dim + 1):
        raise ValidationError(f"{path}: section must be a list of {dim + 1} polynomials in t")
    maps = [Morphism.from_strings(lift, dim) for lift in lifts]
    if section_doc is not None or any(m.has_param for m in maps):
        family = ParamSystem.build(maps)
        section = Section.from_strings([str(s) for s in section_doc]) if section_doc else None
        return SystemFile(None, family, section)
    return SystemFile(validate_system(maps), None, None)


def _require_system(sf: SystemFile) -> PolarizedSystem:
    if sf.system is None:
        raise ValidationError("this command needs a constant system file (no t)")
    return sf.system


def _family_section(sf: SystemFile, point_text: str | None) -> tuple[ParamSystem, Section]:
    """The family and the section to sweep: the file's, or --point as a constant."""
    if sf.family is None:
        raise ValidationError("this command needs a family file (coefficients in t)")
    section = Section.constant(parse_point(point_text)) if point_text else sf.section
    if section is None:
        raise ValidationError("family file has no section; pass --point")
    return sf.family, section


def _green_cfg(depth: int | None, eps: float | None) -> GreenConfig:
    if eps is not None:
        return GreenConfig(depth=60 if depth is None else depth, target_eps=eps, mode="adaptive")
    return GreenConfig(depth=20 if depth is None else depth, mode="fixed")


def _rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse {what} {text!r}: {exc}") from exc


def _lift_coords(text: str) -> tuple[int, ...]:
    # Lift coordinates keep their scaling: clear denominators, nothing else.
    return tuple(clear_denominators(parse_coords(text)))


def _parse_t_samples(text: str) -> list[Fraction]:
    out: list[Fraction] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        signs = (1,)
        if token.startswith(("+-", "±")):
            token = token[1 if token[0] == "±" else 2 :].lstrip()
            signs = (1, -1)
            if token.startswith(("+", "-", "±")):
                raise ValidationError(f"no sign may follow the +- prefix in t sample {text!r}")
        try:
            if ".." in token:
                lo_s, hi_s = token.split("..")
                values = [Fraction(v) for v in range(int(lo_s), int(hi_s) + 1)]
            else:
                values = [Fraction(token)]
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse t sample {token!r}: {exc}") from exc
        out.extend(s * v for v in values for s in signs if s == 1 or v)  # 0 once, not 0 and -0
    if not out:
        raise ValidationError("empty t sample list")
    return out


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _height_text(result) -> str:
    lines = [
        f"value {_fmt(result.value)}",
        f"tail_bound {_fmt(result.tail_bound)}",
        f"depth_used {result.depth_used}",
        "place,value",
    ]
    for place, value in result.per_place.items():
        lines.append(f"{place},{_fmt(value)}")
    return "\n".join(lines) + "\n"


def _height_json(result) -> str:
    doc = {
        "value": result.value,
        "tail_bound": result.tail_bound,
        "depth_used": result.depth_used,
        "target_met": result.target_met,
        "per_place": {str(place): value for place, value in result.per_place.items()},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@click.group()
def cli():
    """Canonical heights and Green functions for systems of morphisms."""


@cli.command()
@click.option("--system", "system_path", required=True, help="System or family JSON file")
def validate(system_path):
    """Validate a system file and print its invariants."""
    sf = load_system_file(system_path)
    s = sf.system or sf.family
    kind, dim = ("system", s.dim) if sf.family is None else ("family", 1)
    # Print once every line is known: a validate that fails prints nothing.
    lines = [f"{kind} on P^{dim}: k={s.k} alpha={s.alpha} degrees={[m.degree for m in s.maps]}"]
    if sf.family is not None:
        lines.append(f"good locus R(t) = {s.good_locus}")
        if sf.section is not None:
            lines.append(f"section: {sf.section}")
    elif dim == 1:
        lines.append(f"bad primes: {s.bad_primes()}")
    click.echo("\n".join(lines))


@cli.command()
@click.option("--system", "system_path", required=True)
@click.option("--point", "point_text", required=True, help='Point "a0:a1"')
@click.option("--depth", type=int, default=None)
@click.option("--eps", type=float, default=None, help="Adaptive target accuracy")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--out", default=None)
def height(system_path, point_text, depth, eps, fmt, out):
    """Canonical height with per-place breakdown and tail bound."""
    system = _require_system(load_system_file(system_path))
    point = parse_point(point_text)
    result = canonical_height(system, point, _green_cfg(depth, eps))
    _emit(_height_json(result) if fmt == "json" else _height_text(result), out)
    if result.target_met is False:
        tail = _fmt(result.tail_bound)
        click.echo(f"warning: target not met: tail_bound {tail} > --eps {eps:g}", err=True)


@cli.command()
@click.option("--system", "system_path", required=True)
@click.option("--point", "point_text", required=True)
@click.option("--depth", type=int, default=8, show_default=True)
def oracle(system_path, point_text, depth):
    """Word-iteration height oracle (exact big-integer route)."""
    system = _require_system(load_system_file(system_path))
    result = canonical_height_oracle_detailed(system, parse_point(point_text), depth)
    click.echo(f"value {_fmt(result.value)}")
    click.echo(f"tail_bound {_fmt(result.tail_bound)}")
    click.echo(f"depth {result.depth}")


@cli.command()
@click.option("--system", "system_path", required=True)
@click.option("--point", "point_text", required=True)
@click.option("--index", "j", type=int, default=None, help="Hyperplane index (default N)")
@click.option("--place", "place_text", default="inf", show_default=True)
@click.option("--depth", type=int, default=None)
@click.option("--eps", type=float, default=None)
def local(system_path, point_text, j, place_text, depth, eps):
    """Canonical local height against a coordinate hyperplane."""
    system = _require_system(load_system_file(system_path))
    point = parse_point(point_text)
    if j is None:
        j = point.dim
    value = canonical_local_height(system, point, j, Place.parse(place_text), _green_cfg(depth, eps))
    click.echo(f"value {_fmt(value)}")


@cli.command()
@click.option("--system", "system_path", required=True)
@click.option("--point", "point_text", required=True, help="Lift coordinates; scaling is kept")
@click.option("--place", "place_text", default="inf", show_default=True)
@click.option("--depth", type=int, default=None)
@click.option("--eps", type=float, default=None)
def green(system_path, point_text, place_text, depth, eps):
    """Place-local Green value on lift coordinates."""
    system = _require_system(load_system_file(system_path))
    value = green_local(
        system, _lift_coords(point_text), Place.parse(place_text), _green_cfg(depth, eps)
    )
    click.echo(f"value {_fmt(value)}")


@cli.command()
@click.option("--system", "system_path", required=True)
@click.option("--system2", "other_path", required=True)
@click.option("--place", "place_text", default="inf", show_default=True)
@click.option("--samples", type=int, default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--depth", type=int, default=None)
@click.option("--eps", type=float, default=None)
@click.option("--out", default=None)
def commute(system_path, other_path, place_text, samples, seed, depth, eps, out):
    """Metric and height equality reports for two commuting systems."""
    if samples < 1:
        raise ValidationError("--samples must be at least 1")
    left = _require_system(load_system_file(system_path))
    right = _require_system(load_system_file(other_path))
    cfg = _green_cfg(depth, eps)
    rng = Lcg64(seed)
    lifts: list[tuple[int, ...]] = []
    while len(lifts) < samples:
        coords = tuple(rng.randint(-50, 50) for _ in range(left.dim + 1))
        if any(coords):
            lifts.append(coords)
    points = [normalize(coords) for coords in lifts]
    metric = metric_equality_report(left, right, lifts, Place.parse(place_text), cfg)
    heights = height_equality_report(left, right, points, cfg)
    text = (
        f"# seed={seed} samples={samples}\n"
        f"max_green_difference {_fmt(metric)}\n"
        f"max_height_difference {_fmt(heights)}\n"
    )
    _emit(text, out)


@cli.command()
@click.option("--system", "system_path", required=True, help="Family JSON file")
@click.option("--t", "t_samples_text", required=True, help='Samples: "1,2,3", "a..b", "+-1..50"')
@click.option("--point", "point_text", default=None, help="Constant point overriding the section")
@click.option("--depth", type=int, default=None)
@click.option("--eps", type=float, default=1e-9, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", default=None)
def sweep(system_path, t_samples_text, point_text, depth, eps, fmt, out):
    """Height-difference sweep over parameters with envelope fit."""
    family, section = _family_section(load_system_file(system_path), point_text)
    result = variation_sweep(family, [section], _parse_t_samples(t_samples_text), _green_cfg(depth, eps))
    if fmt == "csv":
        _emit(rows_to_csv(result.rows), out)
        click.echo(
            f"fit c1={_fmt(result.c1)} c2={_fmt(result.c2)}"
            f" violations={len(result.violations)} skipped={len(result.skipped)}",
            err=True,
        )
    else:
        doc = {
            "c1": result.c1,
            "c2": result.c2,
            "violations": len(result.violations),
            "skipped": [[str(t), why] for t, why in result.skipped],
            "rows": [
                {"t": str(r.t), "h_T": r.h_t, "point": r.point, "value": r.value, "aux": r.aux}
                for r in result.rows
            ],
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


@cli.command()
@click.option("--system", "system_path", required=True)
@click.option("--t", "t_samples_text", required=True)
@click.option("--point", "point_text", default=None)
@click.option("--ff-depth", type=int, default=10, show_default=True)
@click.option("--depth", type=int, default=None)
@click.option("--eps", type=float, default=1e-9, show_default=True)
@click.option("--out", default=None)
def ratio(system_path, t_samples_text, point_text, ff_depth, depth, eps, out):
    """Fiber-height to base-height ratios along a parameter sequence."""
    family, section = _family_section(load_system_file(system_path), point_text)
    result = limit_ratio(family, section, _parse_t_samples(t_samples_text), _green_cfg(depth, eps), ff_depth)
    _emit(rows_to_csv(result.rows), out)
    click.echo(f"ff_height {result.ff_value} skipped={len(result.skipped)}", err=True)


@cli.command("local-sweep")
@click.option("--system", "system_path", required=True)
@click.option("--t", "t_samples_text", required=True)
@click.option("--point", "point_text", default=None)
@click.option("--index", "j", type=int, default=None, help="Hyperplane index (default N)")
@click.option("--place", "place_text", required=True)
@click.option("--depth", type=int, default=None)
@click.option("--eps", type=float, default=1e-9, show_default=True)
@click.option("--out", default=None)
def local_sweep(system_path, t_samples_text, point_text, j, place_text, depth, eps, out):
    """Local height differences against the boundary local height."""
    family, section = _family_section(load_system_file(system_path), point_text)
    if j is None:
        j = 1
    result = local_variation_sweep(
        family, section, j, Place.parse(place_text), _parse_t_samples(t_samples_text), _green_cfg(depth, eps)
    )
    _emit(rows_to_csv(result.rows), out)
    click.echo(f"empirical_c {_fmt(result.empirical_c)} skipped={len(result.skipped)}", err=True)


@cli.group()
def fibral():
    """Component actions, weight solves and synthetic models."""


@fibral.command()
@click.option("--alpha", required=True, help="Rational, e.g. 5 or 11/2")
@click.option("--actions", "actions_text", required=True, help='Matrices "[[0,1],[1,0]]+[[1,0],[0,1]]"')
@click.option("--c", "c_text", required=True, help='Correction vector "1,0"')
def solve(alpha, actions_text, c_text):
    """Solve the component-weight equations exactly."""
    try:
        mats = [json.loads(part) for part in actions_text.split("+")]
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad action matrices: {exc}") from exc
    actions = [PermTypeMatrix.from_matrix(m) for m in mats]
    c = [_rational(part, "--c entry") for part in c_text.split(",")]
    weights = solve_weights(_rational(alpha, "--alpha"), actions, c)
    click.echo(",".join(str(v) for v in weights.x))
    if not weights.within_classical_hypothesis:
        click.echo("note: alpha <= n*k; solved in the wider alpha > k regime", err=True)


@fibral.command()
@click.option("--seed", type=int, required=True)
@click.option("--components", "max_components", type=int, default=6, show_default=True)
@click.option("--maps", "max_maps", type=int, default=3, show_default=True)
@click.option("--points", "max_points", type=int, default=40, show_default=True)
@click.option("--out", default=None)
def synth(seed, max_components, max_maps, max_points, out):
    """Generate a seeded synthetic model (JSON, seed echoed in the file)."""
    model = random_synthetic(seed, max_components, max_maps, max_points)
    _emit(model_to_json(model), out)


@fibral.command()
@click.option("--model", "model_path", required=True)
def verify(model_path):
    """Re-check a model's exact identities; exit 2 on failure."""
    try:
        text = Path(model_path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {model_path}: {exc}") from exc
    report = verify_intersection_formula(model_from_json(text))
    click.echo(report.summary())
    if not report.ok:
        raise ValidationError("model verification failed")


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except DynHeightError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(1)
    return 0


if __name__ == "__main__":
    main()
