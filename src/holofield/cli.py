"""Command-line front end.

Subcommands:
  group-info   classes, character data and the structural measures of a group
  faces        face structure and topology of a ribbon map
  partition    partition function of a surface, by formula or by graph sum
  verify       built-in cross-check suites (surgery, semigroup, ...)
  cover        ramified-covering commands (enumerate, mass, sample,
               verify-holo-mono)

Installed as the `holofield` command; in a source checkout run
`PYTHONPATH=src python -m holofield.cli ...`. All reports are emitted as
deterministic JSON (sorted keys) or as CSV with one case per row. Exit
codes: 0 success, 1 verification failure, 2 input error, 3 resource cap
exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace

from .groups import (
    build_group,
    character_table,
    conjugacy_classes,
    convolve,
    convolution_power,
    density_convolve,
    eta_measure,
    fourier_coefficient,
    kappa_measure,
)
from .levy import (
    DEFAULT_TAIL_TOL,
    HeatKernel,
    SeriesKernel,
    check_admissible,
    heat_kernel_series,
    jump_measure_from_class_rates,
)
from .surface import (
    SurfaceSpec,
    _object,
    euler_and_genus,
    faces,
    map_from_json,
    split_face,
    standard_map,
    subdivide_edge,
)
from .holonomy import (
    DEFAULT_CAP,
    CapExceeded,
    GConstraints,
    beta1,
    beta2,
    partition_formula,
    partition_graph,
    upsilon,
    z_function,
)
from .covering import (
    _enumerate_aut,
    bb_mass,
    counting_check,
    sample_covering,
    verify_holo_mono,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAP = 3

DEFAULT_TOL = 1e-9


class InputError(ValueError):
    pass


# The run options every command takes, in the order of the usage text:
# each flag with its add_argument keywords. The dest argparse makes of a
# flag ("--tail-tol" -> tail_tol) names it in the "inputs" echo.
_RUN_OPTIONS = {
    "--group": {},
    "--surface": {},
    "--map": {},
    "--levy": {},
    "--time": {"type": float},
    "--seed": {"type": int, "default": 0},
    "--tol": {"type": float, "default": DEFAULT_TOL},
    "--tail-tol": {"type": float, "default": DEFAULT_TAIL_TOL},
    "--cap": {"type": int, "default": DEFAULT_CAP},
    "--format": {"choices": ("json", "csv"), "default": "json"},
    "--via": {"choices": ("formula", "graph"), "default": "formula"},
}


def _inputs(args) -> dict:
    """The run options by dest but the format, reported under "inputs"
    once their numbers pass the run's checks."""
    echo = {}
    for flag, kwargs in _RUN_OPTIONS.items():
        dest = flag[2:].replace("-", "_")
        value = echo[dest] = getattr(args, dest)
        if kwargs.get("type") is float and value is not None \
                and not math.isfinite(value):
            raise InputError(f"{flag} must be finite")
    if args.tol <= 0 or args.tail_tol <= 0:
        raise InputError("tolerances must be positive")
    if args.cap < 1:
        raise InputError("cap must be at least 1")
    if not (0 <= args.seed < 2 ** 64):
        raise InputError("seed must fit in 64 bits")
    del echo["format"]
    return echo


def _load(args, flag: str, kind: str, parse, required: str = ""):
    """parse(text) of the file named by --flag. A missing flag is an
    InputError, and so is an unreadable file, invalid JSON or content that
    parse rejects, each prefixed "bad <kind> file: "."""
    path = getattr(args, flag)
    if path is None:
        raise InputError(f"a {required or kind} file is required (--{flag})")
    bad = f"bad {kind} file: "
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise InputError(f"{bad}cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{bad}{path} is not valid JSON: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{bad}{exc}") from exc


def _json(text: str):
    """The JSON text's value; no object in it may repeat a key."""
    return json.loads(text, object_pairs_hook=_object)


def load_group(args):
    return _load(args, "group", "group", lambda text: build_group(_json(text)))


def load_levy(args, G):
    return _load(args, "levy", "Levy", lambda text:
                 jump_measure_from_class_rates(G, _json(text)["rates"]),
                 "Levy measure")


def _surface(data, time) -> SurfaceSpec:
    """The surface file's spec, its area replaced by --time when given."""
    orientable, genus = data["orientable"], data["genus"]
    boundaries = data.get("boundaries", 0)
    constraints = tuple(data.get("constraints", ()))
    # JSON booleans and integers as they are: no truthiness, no truncated
    # floats, no bools standing in for 0 and 1
    if not isinstance(orientable, bool):
        raise ValueError(f"orientable {orientable!r} is not true or false")
    named = [("genus", genus), ("boundaries", boundaries)]
    for name, value in named + [("constraint", c) for c in constraints]:
        if type(value) is not int:
            raise ValueError(f"{name} {value!r} is not an integer")
    # --time replaces the file's area, which is checked when present
    area = data["area"] if time is None or "area" in data else time
    if isinstance(area, bool) or not isinstance(area, (int, float)):
        raise ValueError(f"area {area!r} is not a number")
    spec = SurfaceSpec(orientable, genus, boundaries, float(area),
                       constraints)
    return spec if time is None else replace(spec, area=time)


def load_surface(args) -> SurfaceSpec:
    return _load(args, "surface", "surface",
                 lambda text: _surface(_json(text), args.time))


def load_map(args):
    return _load(args, "map", "map", map_from_json)


def load_surface_map(args, spec: SurfaceSpec):
    """The --map file, which must have the surface's type and total area
    (its areas are never rescaled), or else the surface's standard map."""
    if args.map is None:
        return standard_map(spec)
    m = load_map(args)
    got = euler_and_genus(m)[1:]
    want = (spec.orientable, spec.genus, spec.boundaries)
    if got != want:
        raise InputError(f"the map's (orientable, genus, boundaries) "
                         f"{got} are not the surface's {want}")
    # a map without areas is refused by the route that reads them
    total = math.fsum(m.areas) if m.areas is not None else spec.area
    if abs(total - spec.area) > 1e-9 * spec.area:
        raise InputError(f"the map's face areas sum to {total!r}, not the "
                         f"surface area {spec.area!r}")
    return m


def emit(report: dict, args) -> str:
    if args.format == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    rows = report.get("cases")
    if rows is None:
        rows = [{k: v for k, v in report.items() if not isinstance(v, (dict, list))}]
    buf = io.StringIO()
    fieldnames = sorted({k for row in rows for k in row})
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in fieldnames})
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commands: each takes the parsed args and returns its report; run() adds
# the inputs and turns "pass" into the exit code


def _within(diff, tol) -> dict:
    """The max_abs_diff/pass body of a check that compares two densities
    or measures entry by entry, which have no single lhs and rhs."""
    return {"max_abs_diff": float(diff), "pass": bool(diff <= tol)}


def _compare(lhs, rhs, tol, diff=None) -> dict:
    """The lhs/rhs/max_abs_diff/pass body of a comparison. The difference
    is taken before the floats, so exact values compare exactly; `diff`
    overrides it when the check is not |lhs - rhs|."""
    if diff is None:
        diff = abs(lhs - rhs)
    return {"lhs": float(lhs), "rhs": float(rhs), **_within(diff, tol)}


def cmd_group_info(args) -> dict:
    G = load_group(args)
    classes = conjugacy_classes(G)
    ct = character_table(G)
    eta = eta_measure(G)
    kappa = kappa_measure(G)
    return {
        "command": "group-info",
        "order": G.n,
        "name": G.name,
        "classes": [
            {
                "index": c,
                "size": classes.sizes[c],
                "representative": classes.rep_label(c),
            }
            for c in range(classes.r)
        ],
        "irreps": [
            {
                "index": a,
                "dimension": ct.dims[a],
                "fs_indicator": ct.fs_indicator[a],
                "character": [round(float(ct.table[a, c].real), 12)
                              for c in range(classes.r)],
            }
            for a in range(ct.r)
        ],
        "eta": [str(w) for w in eta.weights],
        "kappa": [str(w) for w in kappa.weights],
        "pass": True,
    }


def cmd_faces(args) -> dict:
    m = load_map(args)
    fs = faces(m)
    chi, orientable, g, p = euler_and_genus(m)
    return {
        "command": "faces",
        "n_darts": m.n_darts,
        "n_edges": m.n_edges,
        "n_vertices": len(m.vertex_cycles()),
        "faces": [[list(step) for step in cyc] for cyc in fs.cycles],
        "n_faces": len(fs.cycles),
        "euler_characteristic": chi,
        "orientable": orientable,
        "genus": g,
        "boundaries": p,
        "pass": True,
    }


def cmd_partition(args) -> dict:
    G = load_group(args)
    pi = load_levy(args, G)
    spec = load_surface(args)
    hk = HeatKernel(pi, character_table(G))
    z_formula = partition_formula(G, spec, hk)
    m = load_surface_map(args, spec)
    C = GConstraints(spec.constraints)
    z_graph = partition_graph(G, m, C, hk, cap=args.cap)
    lhs, rhs = (z_graph, z_formula) if args.via == "graph" \
        else (z_formula, z_graph)
    return {"command": "partition", **_compare(lhs, rhs, args.tol),
            "value": lhs, "route": args.via}


# Each suite takes (args, hk, t) and returns its cases; the group, the jump
# measure and the character table are read off hk.


def _suite_semigroup(args, hk, t):
    cases = []
    for s in (0.3 * t, 0.7 * t):
        qs, qt, qst = hk.density(s), hk.density(t), hk.density(s + t)
        conv = density_convolve(qs, qt)
        diff = max(abs(a - b) for a, b in zip(conv.values, qst.values))
        cases.append({"case": f"Q_{s:g} * Q_{t:g} = Q_{s+t:g}",
                      **_within(diff, args.tol)})
    ser = heat_kernel_series(hk.pi, t, args.tail_tol)
    diff = max(abs(a - b) for a, b in zip(ser.values, hk.density(t).values))
    cases.append({"case": "series = characters",
                  **_within(diff, args.tol)})
    return cases


def _suite_kappa_eta(args, hk, t):
    G, ct = hk.group, hk.table
    eta = eta_measure(G)
    kappa = kappa_measure(G)
    lhs = convolve(kappa, eta)
    rhs = convolution_power(kappa, 3)
    # exact weights, so the identity must hold exactly
    diff = max(abs(a - b) for a, b in zip(lhs.weights, rhs.weights))
    cases = [{"case": "kappa * eta = kappa^3", **_within(diff, 0)}]
    for a in range(ct.r):
        ec = fourier_coefficient(eta, a, ct)
        kc = fourier_coefficient(kappa, a, ct)
        cases.append({"case": f"eta-hat({a}) = 1/d",
                      **_compare(ec.real, 1.0 / ct.dims[a], args.tol)})
        cases.append({"case": f"kappa-hat({a}) = FS({a})",
                      **_compare(kc.real, ct.fs_indicator[a], args.tol)})
    return cases


def _suite_surgery(args, hk, t):
    G = hk.group

    def z(orientable, p, g, area):
        return z_function(G, orientable, p, g, area, hk)

    zhalf = z(True, 1, 0, 0.5 * t)
    return [
        {"case": "upsilon(Z+_{1,0}) = Z-_{0,1}",
         **_compare(upsilon(z(True, 1, 0, t))(), z(False, 0, 1, t)(),
                    args.tol)},
        {"case": "beta1(Z+_{2,0}) = Z+_{0,2}",
         **_compare(beta1(z(True, 2, 0, t))(), z(True, 0, 2, t)(), args.tol)},
        {"case": "beta2(Z+_{1,0} (x) Z+_{1,0}) = Z+_{0,0}",
         **_compare(beta2(zhalf, zhalf)(), z(True, 0, 0, t)(), args.tol)},
    ]


def _suite_subdivision(args, hk, t):
    G = hk.group
    # the graph side reads the series, so no characters are shared
    series = SeriesKernel(hk.pi, args.tail_tol)
    cases = []
    for name, spec in (("torus", SurfaceSpec(True, 2, 0, t)),
                       ("disk", SurfaceSpec(True, 0, 1, t, (0,)))):
        zf = partition_formula(G, spec, hk)
        C = GConstraints(spec.constraints)
        m = standard_map(spec)
        for vname, mv in (("standard", m),
                          ("subdivided", subdivide_edge(m, 0)[0]),
                          ("split", split_face(m, 0, 0, 1)[0])):
            zg = partition_graph(G, mv, C, series, cap=args.cap)
            cases.append({"case": f"{name}/{vname} graph = formula",
                          **_compare(zg, zf, args.tol)})
    return cases


def _suite_tame(args, hk, t):
    m = standard_map(SurfaceSpec(True, 2, 0, t))
    m2, _ = split_face(m, 0, 0, 2, (0.4 * t, 0.6 * t))
    # tame_law on the characters is the closed form of the holonomy law
    rep = verify_holo_mono(hk.group, m2, hk, tol=args.tol, cap=args.cap,
                           kernel=hk)
    return [{"case": "joint generator law = closed form",
             **_within(rep.max_abs_diff, args.tol)}]


def _holo_mono(rep) -> dict:
    """The comparison body of a holonomy = monodromy report."""
    return _compare(rep.total_holonomy, rep.total_monodromy, rep.tol,
                    rep.max_abs_diff)


def _suite_holo_mono(args, hk, t):
    series = SeriesKernel(hk.pi, args.tail_tol)
    cases = []
    specs = [("torus", SurfaceSpec(True, 2, 0, t))]
    if hk.pi.inversion_invariant:
        specs.append(("klein", SurfaceSpec(False, 2, 0, t)))
    for name, spec in specs:
        rep = verify_holo_mono(hk.group, standard_map(spec), hk,
                               tol=args.tol, cap=args.cap, kernel=series)
        cases.append({"case": f"{name} holonomy = monodromy",
                      **_holo_mono(rep)})
    return cases


def _suite_counting(args, hk, t):
    G = hk.group
    cases = []
    for name, spec in (("sphere", SurfaceSpec(True, 0, 0, t)),
                       ("torus", SurfaceSpec(True, 2, 0, t))):
        for k in range(3):
            # exact Fractions, so the two counts must agree exactly
            lhs, rhs = counting_check(G, spec, k, lambda _: 1,
                                      cap=args.cap)
            cases.append({"case": f"{name} k={k} counting",
                          **_compare(lhs, rhs, 0)})
        mass = bb_mass(G, spec, hk.pi, tail_tol=args.tail_tol)
        cases.append({"case": f"{name} bb_mass = partition",
                      **_compare(mass, partition_formula(G, spec, hk),
                                 args.tol)})
    return cases


_SUITES = {
    "surgery": _suite_surgery,
    "semigroup": _suite_semigroup,
    "kappa-eta": _suite_kappa_eta,
    "subdivision": _suite_subdivision,
    "tame": _suite_tame,
    "holo-mono": _suite_holo_mono,
    "counting": _suite_counting,
}


def cmd_verify(args) -> dict:
    G = load_group(args)
    pi = load_levy(args, G)
    if not check_admissible(pi).admissible:
        raise InputError(
            "jump measure is not admissible: its support must generate "
            "the whole group")
    hk = HeatKernel(pi, character_table(G))
    t = args.time if args.time is not None else 1.0
    cases = _SUITES[args.suite](args, hk, t)
    return {
        "command": f"verify {args.suite}",
        "cases": cases,
        "max_abs_diff": max(c["max_abs_diff"] for c in cases),
        "pass": all(c["pass"] for c in cases),
    }


def _labels(G, entries) -> list[str]:
    return [G.labels[x] for x in entries]


def cmd_cover_enumerate(args) -> dict:
    G = load_group(args)
    spec = load_surface(args)
    pi = load_levy(args, G) if args.levy else None
    pi1 = pi.normalized() if pi is not None else None
    rows = []
    for tp, aut in _enumerate_aut(G, spec, args.k, args.cap):
        row = {"a": _labels(G, tp.a), "c": _labels(G, tp.c),
               "d": _labels(G, tp.d), "aut_order": aut}
        if pi1 is not None:
            row["weight"] = float(math.prod(float(pi1.weights[x])
                                            for x in tp.d))
        rows.append(row)
    return {"command": "cover enumerate", "k": args.k, "count": len(rows),
            "cases": rows, "pass": True}


def cmd_cover_mass(args) -> dict:
    G = load_group(args)
    spec = load_surface(args)
    pi = load_levy(args, G)
    mass = bb_mass(G, spec, pi, tail_tol=args.tail_tol)
    z = partition_formula(G, spec, HeatKernel(pi, character_table(G)))
    return {"command": "cover mass", **_compare(mass, z, args.tol)}


def cmd_cover_sample(args) -> dict:
    if args.count < 1:
        raise InputError("--count must be at least 1")
    G = load_group(args)
    spec = load_surface(args)
    pi = load_levy(args, G)
    rows = []
    for i in range(args.count):
        rc, tp = sample_covering(G, spec, pi, args.seed + i,
                                 tail_tol=args.tail_tol)
        rows.append({"k": rc.total, "a": _labels(G, tp.a),
                     "c": _labels(G, tp.c), "d": _labels(G, tp.d)})
    return {"command": "cover sample", "count": args.count, "cases": rows,
            "pass": True}


def cmd_cover_verify(args) -> dict:
    G = load_group(args)
    spec = load_surface(args)
    pi = load_levy(args, G)
    m = load_surface_map(args, spec)
    hk = HeatKernel(pi, character_table(G))
    rep = verify_holo_mono(G, m, hk, GConstraints(spec.constraints),
                           tol=args.tol, cap=args.cap,
                           kernel=SeriesKernel(pi, args.tail_tol))
    return {"command": "cover verify-holo-mono", **_holo_mono(rep)}


# ---------------------------------------------------------------------------
# argument parsing


def _command(subparsers, name, handler, own=None):
    """A subcommand: its own arguments ({flag: add_argument keywords}),
    then the run options, dispatching to handler(args)."""
    p = subparsers.add_parser(name)
    for flag, kwargs in {**(own or {}), **_RUN_OPTIONS}.items():
        p.add_argument(flag, **kwargs)
    p.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holofield",
        description="Exact holonomy fields over finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "group-info", cmd_group_info)
    _command(sub, "faces", cmd_faces)
    _command(sub, "partition", cmd_partition)
    _command(sub, "verify", cmd_verify,
             {"suite": {"choices": sorted(_SUITES)}})
    cover = sub.add_parser("cover").add_subparsers(dest="subcommand",
                                                   required=True)
    _command(cover, "enumerate", cmd_cover_enumerate,
             {"--k": {"type": int, "required": True}})
    _command(cover, "mass", cmd_cover_mass)
    _command(cover, "sample", cmd_cover_sample,
             {"--count": {"type": int, "default": 1}})
    _command(cover, "verify-holo-mono", cmd_cover_verify)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        echo = _inputs(args)
        report = args.handler(args)
    except CapExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP
    except ValueError as exc:   # InputError, GroupError, MapError among them
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    report["inputs"] = echo
    sys.stdout.write(emit(report, args))
    return EXIT_OK if report["pass"] else EXIT_FAIL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
