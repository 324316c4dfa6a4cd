"""Command-line front end.

Subcommands:
  group-info   classes, character data and the structural measures of a group
  faces        face structure and topology of a ribbon map
  partition    partition function of a surface, by formula or by graph sum
  verify       built-in cross-check suites (surgery, semigroup, ...)
  cover        ramified-covering commands (enumerate, mass, sample,
               verify-holo-mono)

All reports are emitted as deterministic JSON (sorted keys) or as CSV with
one case per row. Exit codes: 0 success, 1 verification failure, 2 input
error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass

from .groups import (
    GroupError,
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
    check_admissible,
    heat_kernel_characters,
    heat_kernel_series,
    jump_measure_from_class_rates,
)
from .surface import (
    MapError,
    SurfaceSpec,
    euler_and_genus,
    faces,
    map_from_json,
    split_face,
    standard_map,
    subdivide_edge,
)
from .loops import tame_generators
from .holonomy import (
    DEFAULT_CAP,
    CapExceeded,
    GConstraints,
    beta1,
    beta2,
    marginal_generators,
    partition_formula,
    partition_graph,
    upsilon,
    z_function,
)
from .covering import (
    aut_order,
    bb_mass,
    counting_check,
    enumerate_H,
    evaluate_word,
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


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run; identical configs give
    byte-identical output."""

    group_path: str | None = None
    surface_path: str | None = None
    map_path: str | None = None
    levy_path: str | None = None
    time: float | None = None
    seed: int = 0
    tol: float = DEFAULT_TOL
    tail_tol: float = DEFAULT_TAIL_TOL
    cap: int = DEFAULT_CAP
    fmt: str = "json"
    via: str = "formula"

    def __post_init__(self):
        if self.tol <= 0 or self.tail_tol <= 0:
            raise InputError("tolerances must be positive")
        if self.cap < 1:
            raise InputError("cap must be at least 1")
        if self.fmt not in ("json", "csv"):
            raise InputError(f"unknown output format {self.fmt!r}")
        if self.via not in ("formula", "graph"):
            raise InputError(f"unknown route {self.via!r}")
        if not (0 <= self.seed < 2 ** 64):
            raise InputError("seed must fit in 64 bits")

    def inputs(self) -> dict:
        return {
            "group": self.group_path,
            "surface": self.surface_path,
            "map": self.map_path,
            "levy": self.levy_path,
            "time": self.time,
            "seed": self.seed,
            "tol": self.tol,
            "tail_tol": self.tail_tol,
            "cap": self.cap,
            "via": self.via,
        }


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def load_group(cfg: RunConfig):
    if cfg.group_path is None:
        raise InputError("a group file is required (--group)")
    try:
        return build_group(_read_json(cfg.group_path))
    except (GroupError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad group file: {exc}") from exc


def load_levy(cfg: RunConfig, G, classes):
    if cfg.levy_path is None:
        raise InputError("a Levy measure file is required (--levy)")
    data = _read_json(cfg.levy_path)
    try:
        rates = data["rates"]
        return jump_measure_from_class_rates(G, rates, classes)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad Levy file: {exc}") from exc


def load_surface(cfg: RunConfig) -> SurfaceSpec:
    if cfg.surface_path is None:
        raise InputError("a surface file is required (--surface)")
    data = _read_json(cfg.surface_path)
    try:
        return SurfaceSpec(
            bool(data["orientable"]),
            int(data["genus"]),
            int(data.get("boundaries", 0)),
            float(data["area"] if cfg.time is None else cfg.time),
            tuple(int(c) for c in data.get("constraints", ())),
        )
    except (KeyError, TypeError, ValueError, MapError) as exc:
        raise InputError(f"bad surface file: {exc}") from exc


def load_map(cfg: RunConfig):
    if cfg.map_path is None:
        raise InputError("a map file is required (--map)")
    try:
        with open(cfg.map_path) as fh:
            return map_from_json(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {cfg.map_path}: {exc}") from exc
    except (MapError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad map file: {exc}") from exc


def _round(x, digits=12):
    if isinstance(x, float):
        return round(x, digits)
    return x


def emit(report: dict, cfg: RunConfig) -> str:
    if cfg.fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2,
                          default=str) + "\n"
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
# commands


def cmd_group_info(cfg: RunConfig) -> tuple[dict, int]:
    G = load_group(cfg)
    classes = conjugacy_classes(G)
    ct = character_table(G)
    eta = eta_measure(G)
    kappa = kappa_measure(G)
    report = {
        "command": "group-info",
        "inputs": cfg.inputs(),
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
                "character": [_round(float(ct.table[a, c].real))
                              for c in range(classes.r)],
            }
            for a in range(ct.r)
        ],
        "eta": [str(w) for w in eta.weights],
        "kappa": [str(w) for w in kappa.weights],
        "pass": True,
    }
    return report, EXIT_OK


def cmd_faces(cfg: RunConfig) -> tuple[dict, int]:
    m = load_map(cfg)
    fs = faces(m)
    chi, orientable, g, p = euler_and_genus(m)
    report = {
        "command": "faces",
        "inputs": cfg.inputs(),
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
    return report, EXIT_OK


def cmd_partition(cfg: RunConfig) -> tuple[dict, int]:
    G = load_group(cfg)
    classes = conjugacy_classes(G)
    pi = load_levy(cfg, G, classes)
    spec = load_surface(cfg)
    hk = HeatKernel(pi, character_table(G))
    z_formula = partition_formula(G, spec, hk, classes)
    m = load_map(cfg) if cfg.map_path is not None else standard_map(spec)
    C = GConstraints(spec.constraints)
    z_graph = partition_graph(G, m, C, hk, classes, cap=cfg.cap)
    lhs, rhs = (z_graph, z_formula) if cfg.via == "graph" \
        else (z_formula, z_graph)
    diff = abs(lhs - rhs)
    report = {
        "command": "partition",
        "inputs": cfg.inputs(),
        "lhs": lhs,
        "rhs": rhs,
        "max_abs_diff": diff,
        "value": lhs,
        "route": cfg.via,
        "pass": bool(diff <= cfg.tol),
    }
    return report, EXIT_OK if report["pass"] else EXIT_FAIL


def _case(name, lhs, rhs, tol):
    lhs = float(lhs)
    rhs = float(rhs)
    diff = abs(lhs - rhs)
    return {"case": name, "lhs": lhs, "rhs": rhs, "max_abs_diff": diff,
            "pass": bool(diff <= tol)}


def _suite_semigroup(cfg, G, classes, pi, t):
    ct = character_table(G)
    hk = HeatKernel(pi, ct)
    cases = []
    for s in (0.3 * t, 0.7 * t):
        qs, qt, qst = hk.density(s), hk.density(t), hk.density(s + t)
        conv = density_convolve(qs, qt)
        diff = max(abs(a - b) for a, b in zip(conv.values, qst.values))
        cases.append({"case": f"Q_{s:g} * Q_{t:g} = Q_{s+t:g}",
                      "lhs": 0.0, "rhs": 0.0, "max_abs_diff": float(diff),
                      "pass": bool(diff <= cfg.tol)})
    ser = heat_kernel_series(pi, t, cfg.tail_tol)
    cha = heat_kernel_characters(pi, t, ct)
    diff = max(abs(a - b) for a, b in zip(ser.values, cha.values))
    cases.append({"case": "series = characters", "lhs": 0.0, "rhs": 0.0,
                  "max_abs_diff": float(diff), "pass": bool(diff <= cfg.tol)})
    return cases


def _suite_kappa_eta(cfg, G, classes, pi, t):
    ct = character_table(G)
    eta = eta_measure(G)
    kappa = kappa_measure(G)
    cases = []
    lhs = convolve(kappa, eta)
    rhs = convolution_power(kappa, 3)
    cases.append({"case": "kappa * eta = kappa^3",
                  "lhs": 0.0, "rhs": 0.0,
                  "max_abs_diff": float(max(abs(a - b) for a, b in
                                            zip(lhs.weights, rhs.weights))),
                  "pass": lhs.weights == rhs.weights})
    for a in range(ct.r):
        ec = fourier_coefficient(eta, a, ct)
        kc = fourier_coefficient(kappa, a, ct)
        cases.append(_case(f"eta-hat({a}) = 1/d", ec.real, 1.0 / ct.dims[a],
                           cfg.tol))
        cases.append(_case(f"kappa-hat({a}) = FS({a})", kc.real,
                           ct.fs_indicator[a], cfg.tol))
    return cases


def _suite_surgery(cfg, G, classes, pi, t):
    hk = HeatKernel(pi, character_table(G))
    cases = []
    zp10 = z_function(G, True, 1, 0, t, hk, classes)
    zm01 = z_function(G, False, 0, 1, t, hk, classes)
    u = upsilon(zp10)
    cases.append(_case("upsilon(Z+_{1,0}) = Z-_{0,1}", u(), zm01(), cfg.tol))
    zp20 = z_function(G, True, 2, 0, t, hk, classes)
    zp02 = z_function(G, True, 0, 2, t, hk, classes)
    cases.append(_case("beta1(Z+_{2,0}) = Z+_{0,2}", beta1(zp20)(), zp02(),
                       cfg.tol))
    zhalf = z_function(G, True, 1, 0, 0.5 * t, hk, classes)
    zc = z_function(G, True, 0, 0, t, hk, classes)
    cases.append(_case("beta2(Z+_{1,0} (x) Z+_{1,0}) = Z+_{0,0}",
                       beta2(zhalf, zhalf)(), zc(), cfg.tol))
    return cases


def _suite_subdivision(cfg, G, classes, pi, t):
    hk = HeatKernel(pi, character_table(G))
    cases = []
    for name, spec in (("torus", SurfaceSpec(True, 2, 0, t)),
                       ("disk", SurfaceSpec(True, 0, 1, t, (0,)))):
        zf = partition_formula(G, spec, hk, classes)
        C = GConstraints(spec.constraints)
        m = standard_map(spec)
        variants = [("standard", m),
                    ("subdivided", subdivide_edge(m, 0)[0])]
        cyc0 = faces(m).cycles[0]
        if len(cyc0) >= 2:
            variants.append(("split", split_face(m, 0, 0, 1)[0]))
        for vname, mv in variants:
            zg = partition_graph(G, mv, C, hk, classes, cap=cfg.cap)
            cases.append(_case(f"{name}/{vname} graph = formula", zg, zf,
                               cfg.tol))
    return cases


def _suite_tame(cfg, G, classes, pi, t):
    hk = HeatKernel(pi, character_table(G))
    m = standard_map(SurfaceSpec(True, 2, 0, t))
    m2, _ = split_face(m, 0, 0, 2, (0.4 * t, 0.6 * t))
    tame = tame_generators(m2)
    gens = list(tame.a) + list(tame.c) + list(tame.l)
    pmf, _ = marginal_generators(G, m2, GConstraints(), gens, hk, classes,
                                 cap=cfg.cap)
    g, f = len(tame.a), len(tame.l)
    areas = [m2.areas[i] for i in tame.face_of_l]
    # the relation w(a) = z_1 ... z_f, as w(a) z_f^-1 ... z_1^-1 = 1
    relation = tame.w + [(i, -1) for i in range(g + f - 1, g - 1, -1)]
    diff = 0.0
    for key, val in pmf.items():
        zs = key[g:]
        closed = G.n ** (1 - g - f)
        for zi, ti in zip(zs, areas):
            closed *= hk.density(ti).values[zi]
        if evaluate_word(G, relation, key) != 0:
            closed = 0.0
        diff = max(diff, abs(val - closed))
    return [{"case": "joint generator law = closed form", "lhs": 0.0,
             "rhs": 0.0, "max_abs_diff": float(diff), "pass": bool(diff <= cfg.tol)}]


def _suite_holo_mono(cfg, G, classes, pi, t):
    cases = []
    specs = [("torus", SurfaceSpec(True, 2, 0, t), GConstraints())]
    if pi.inversion_invariant:
        specs.append(("klein", SurfaceSpec(False, 2, 0, t), GConstraints()))
    for name, spec, C in specs:
        m = standard_map(spec)
        rep = verify_holo_mono(G, m, pi, C, tol=cfg.tol, classes=classes,
                               cap=cfg.cap, tail_tol=cfg.tail_tol)
        cases.append({"case": f"{name} holonomy = monodromy",
                      "lhs": rep.total_holonomy, "rhs": rep.total_monodromy,
                      "max_abs_diff": rep.max_abs_diff, "pass": rep.passed})
    return cases


def _suite_counting(cfg, G, classes, pi, t):
    hk = HeatKernel(pi, character_table(G))
    cases = []
    for name, spec in (("sphere", SurfaceSpec(True, 0, 0, t)),
                       ("torus", SurfaceSpec(True, 2, 0, t))):
        for k in range(3):
            lhs, rhs = counting_check(G, spec, k, lambda _: 1, classes,
                                      cfg.cap)
            cases.append({"case": f"{name} k={k} counting",
                          "lhs": float(lhs), "rhs": float(rhs),
                          "max_abs_diff": float(abs(lhs - rhs)),
                          "pass": lhs == rhs})
        cases.append(_case(f"{name} bb_mass = partition",
                           bb_mass(G, spec, pi, classes=classes,
                                   tail_tol=cfg.tail_tol),
                           partition_formula(G, spec, hk, classes),
                           cfg.tol))
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


def cmd_verify(cfg: RunConfig, suite: str) -> tuple[dict, int]:
    if suite not in _SUITES:
        raise InputError(f"unknown verification suite {suite!r}")
    G = load_group(cfg)
    classes = conjugacy_classes(G)
    pi = load_levy(cfg, G, classes)
    rep = check_admissible(pi)
    if not rep.admissible:
        raise InputError(
            "jump measure is not admissible: its support must generate "
            "the whole group")
    t = cfg.time if cfg.time is not None else 1.0
    cases = _SUITES[suite](cfg, G, classes, pi, t)
    ok = all(c["pass"] for c in cases)
    report = {
        "command": f"verify {suite}",
        "inputs": cfg.inputs(),
        "cases": cases,
        "max_abs_diff": max(c["max_abs_diff"] for c in cases),
        "pass": ok,
    }
    return report, EXIT_OK if ok else EXIT_FAIL


def cmd_cover_enumerate(cfg: RunConfig, k: int) -> tuple[dict, int]:
    G = load_group(cfg)
    classes = conjugacy_classes(G)
    spec = load_surface(cfg)
    pi = load_levy(cfg, G, classes) if cfg.levy_path else None
    tuples = enumerate_H(G, spec, k, classes, cfg.cap)
    pi1 = pi.normalized() if pi is not None else None
    rows = []
    for tp in tuples:
        row = {
            "a": [G.labels[x] for x in tp.a],
            "c": [G.labels[x] for x in tp.c],
            "d": [G.labels[x] for x in tp.d],
            "aut_order": aut_order(tp),
        }
        if pi1 is not None:
            row["weight"] = float(math.prod(float(pi1.weights[x])
                                            for x in tp.d))
        rows.append(row)
    report = {
        "command": "cover enumerate",
        "inputs": cfg.inputs(),
        "k": k,
        "count": len(rows),
        "cases": rows,
        "pass": True,
    }
    return report, EXIT_OK


def cmd_cover_mass(cfg: RunConfig) -> tuple[dict, int]:
    G = load_group(cfg)
    classes = conjugacy_classes(G)
    spec = load_surface(cfg)
    pi = load_levy(cfg, G, classes)
    mass = bb_mass(G, spec, pi, classes=classes, tail_tol=cfg.tail_tol)
    hk = HeatKernel(pi, character_table(G))
    z = partition_formula(G, spec, hk, classes)
    diff = abs(mass - z)
    report = {
        "command": "cover mass",
        "inputs": cfg.inputs(),
        "lhs": mass,
        "rhs": z,
        "max_abs_diff": diff,
        "pass": bool(diff <= cfg.tol),
    }
    return report, EXIT_OK if report["pass"] else EXIT_FAIL


def cmd_cover_sample(cfg: RunConfig, count: int) -> tuple[dict, int]:
    G = load_group(cfg)
    classes = conjugacy_classes(G)
    spec = load_surface(cfg)
    pi = load_levy(cfg, G, classes)
    rows = []
    for i in range(count):
        rc, tp = sample_covering(G, spec, pi, cfg.seed + i, classes)
        rows.append({
            "k": rc.total,
            "a": [G.labels[x] for x in tp.a],
            "c": [G.labels[x] for x in tp.c],
            "d": [G.labels[x] for x in tp.d],
        })
    report = {
        "command": "cover sample",
        "inputs": cfg.inputs(),
        "count": count,
        "cases": rows,
        "pass": True,
    }
    return report, EXIT_OK


def cmd_cover_verify(cfg: RunConfig) -> tuple[dict, int]:
    G = load_group(cfg)
    classes = conjugacy_classes(G)
    spec = load_surface(cfg)
    pi = load_levy(cfg, G, classes)
    m = load_map(cfg) if cfg.map_path is not None else standard_map(spec)
    C = GConstraints(spec.constraints)
    rep = verify_holo_mono(G, m, pi, C, tol=cfg.tol, classes=classes,
                           cap=cfg.cap, tail_tol=cfg.tail_tol)
    report = {
        "command": "cover verify-holo-mono",
        "inputs": cfg.inputs(),
        "lhs": rep.total_holonomy,
        "rhs": rep.total_monodromy,
        "max_abs_diff": rep.max_abs_diff,
        "pass": rep.passed,
    }
    return report, EXIT_OK if rep.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--group")
    p.add_argument("--surface")
    p.add_argument("--map")
    p.add_argument("--levy")
    p.add_argument("--time", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--via", choices=("formula", "graph"), default="formula")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holofield",
        description="Exact holonomy fields over finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("group-info", "faces", "partition"):
        _add_common(sub.add_parser(name))
    pv = sub.add_parser("verify")
    pv.add_argument("suite", choices=sorted(_SUITES))
    _add_common(pv)
    pc = sub.add_parser("cover")
    csub = pc.add_subparsers(dest="subcommand", required=True)
    pe = csub.add_parser("enumerate")
    pe.add_argument("--k", type=int, required=True)
    _add_common(pe)
    _add_common(csub.add_parser("mass"))
    ps = csub.add_parser("sample")
    ps.add_argument("--count", type=int, default=1)
    _add_common(ps)
    _add_common(csub.add_parser("verify-holo-mono"))
    return parser


def config_from_args(args) -> RunConfig:
    return RunConfig(
        group_path=args.group,
        surface_path=args.surface,
        map_path=args.map,
        levy_path=args.levy,
        time=args.time,
        seed=args.seed,
        tol=args.tol,
        tail_tol=args.tail_tol,
        cap=args.cap,
        fmt=args.format,
        via=args.via,
    )


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.command == "group-info":
            report, code = cmd_group_info(cfg)
        elif args.command == "faces":
            report, code = cmd_faces(cfg)
        elif args.command == "partition":
            report, code = cmd_partition(cfg)
        elif args.command == "verify":
            report, code = cmd_verify(cfg, args.suite)
        elif args.command == "cover":
            if args.subcommand == "enumerate":
                report, code = cmd_cover_enumerate(cfg, args.k)
            elif args.subcommand == "mass":
                report, code = cmd_cover_mass(cfg)
            elif args.subcommand == "sample":
                report, code = cmd_cover_sample(cfg, args.count)
            else:
                report, code = cmd_cover_verify(cfg)
        else:  # pragma: no cover - argparse enforces choices
            raise InputError(f"unknown command {args.command!r}")
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except CapExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP
    except (GroupError, MapError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    sys.stdout.write(emit(report, cfg))
    return code


def main() -> None:
    sys.exit(run())
