"""Command line interface: commands, formats, determinism, exit codes."""

import csv
import io
import json

import pytest

from holofield.cli import run


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return {
        "s3": write("s3.json", {"kind": "builtin", "name": "S3"}),
        "z2": write("z2.json", {"kind": "builtin", "name": "Z2"}),
        "levy_s3": write("levy_s3.json",
                         {"rates": {"021": 0.5, "120": 0.5}}),
        "levy_z2": write("levy_z2.json", {"rates": {"1": 1.0}}),
        "torus": write("torus.json", {"orientable": True, "genus": 2,
                                      "boundaries": 0, "area": 1.0}),
        "klein": write("klein.json", {"orientable": False, "genus": 2,
                                      "boundaries": 0, "area": 1.0}),
        "disk": write("disk.json", {"orientable": True, "genus": 0,
                                    "boundaries": 1, "area": 1.0,
                                    "constraints": [1]}),
        "table": write("table.json", {
            "kind": "table",
            "order": 2,
            "table": [[0, 1], [1, 0]],
            "labels": ["e", "f"],
        }),
        "broken": write("broken.json", {"kind": "builtin", "name": "nope"}),
        "tmp": tmp_path,
    }


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_group_info(files, capsys):
    code, doc = run_json(capsys, ["group-info", "--group", files["s3"]])
    assert code == 0
    assert doc["order"] == 6
    assert sorted(d["dimension"] for d in doc["irreps"]) == [1, 1, 2]


def test_group_info_table_kind(files, capsys):
    code, doc = run_json(capsys, ["group-info", "--group", files["table"]])
    assert code == 0
    assert doc["order"] == 2


def test_faces_torus(files, capsys, tmp_path):
    from holofield.surface import RibbonMap, map_to_json

    m = RibbonMap((1, 0, 3, 2), (2, 3, 1, 0), (1, 1, 1, 1), areas=(1.0,))
    path = tmp_path / "torus_map.json"
    path.write_text(map_to_json(m))
    code, doc = run_json(capsys, ["faces", "--map", str(path)])
    assert code == 0
    assert len(doc["faces"]) == 1
    assert doc["euler_characteristic"] == 0
    assert doc["genus"] == 2 and doc["boundaries"] == 0


def test_partition_routes_agree(files, capsys):
    args = ["partition", "--group", files["s3"], "--surface", files["torus"],
            "--levy", files["levy_s3"]]
    code, by_formula = run_json(capsys, args + ["--via", "formula"])
    assert code == 0
    code, by_graph = run_json(capsys, args + ["--via", "graph"])
    assert code == 0
    assert by_graph["value"] == pytest.approx(by_formula["value"], abs=1e-10)
    assert by_graph["pass"] is True


@pytest.mark.parametrize("suite", [
    "semigroup", "kappa-eta", "surgery", "subdivision", "tame",
    "holo-mono", "counting",
])
def test_verify_suites_pass(files, capsys, suite):
    code, doc = run_json(capsys, [
        "verify", suite, "--group", files["s3"],
        "--surface", files["torus"], "--levy", files["levy_s3"]])
    assert code == 0
    assert doc["cases"]
    # a real JSON true, not a truthy string such as "True"
    assert all(case["pass"] is True for case in doc["cases"])


def test_verify_tame_fails_on_a_missing_law_key(files, capsys, monkeypatch):
    """The tame check runs over every generator tuple the relation allows,
    so a tuple the holonomy law leaves out is a failure, not unseen."""
    import holofield.covering as covering

    full = covering.marginal_generators

    def dropped(*args, **kwargs):
        pmf, total = full(*args, **kwargs)
        del pmf[min(pmf)]
        return pmf, total

    monkeypatch.setattr(covering, "marginal_generators", dropped)
    code, doc = run_json(capsys, [
        "verify", "tame", "--group", files["s3"],
        "--surface", files["torus"], "--levy", files["levy_s3"]])
    assert code == 1
    assert doc["cases"][0]["pass"] is False
    assert doc["max_abs_diff"] > 1e-3


def test_verify_subdivision_graph_side_reads_the_series(files, capsys,
                                                       monkeypatch):
    """The graph side of verify subdivision reads a SeriesKernel at
    --tail-tol, so graph = formula does not share the characters it
    checks."""
    import holofield.cli as cli
    from holofield.levy import SeriesKernel

    full = cli.partition_graph
    kernels = []

    def recording(G, m, C, hk, *args, **kwargs):
        kernels.append(hk)
        return full(G, m, C, hk, *args, **kwargs)

    monkeypatch.setattr(cli, "partition_graph", recording)
    code, doc = run_json(capsys, [
        "verify", "subdivision", "--group", files["s3"],
        "--levy", files["levy_s3"], "--tail-tol", "1e-11"])
    assert code == 0
    assert len(kernels) == len(doc["cases"]) == 6
    assert all(type(k) is SeriesKernel and k.tail_tol == 1e-11
               for k in kernels)


def test_verify_on_nonorientable_surface(files, capsys):
    code, doc = run_json(capsys, [
        "verify", "holo-mono", "--group", files["z2"],
        "--surface", files["klein"], "--levy", files["levy_z2"]])
    assert code == 0


def test_verify_with_boundary(files, capsys):
    """The verify suites run fixed surfaces; the holo-mono check on a
    surface file, boundary constraint included, is cover verify-holo-mono."""
    code, doc = run_json(capsys, [
        "cover", "verify-holo-mono", "--group", files["s3"],
        "--surface", files["disk"], "--levy", files["levy_s3"]])
    assert code == 0
    assert doc["pass"] is True


def test_cover_verify_holo_mono(files, capsys):
    code, doc = run_json(capsys, [
        "cover", "verify-holo-mono", "--group", files["s3"],
        "--surface", files["torus"], "--levy", files["levy_s3"]])
    assert code == 0
    assert doc["pass"] is True
    assert doc["max_abs_diff"] <= 1e-9


def test_cover_enumerate(files, capsys):
    code, doc = run_json(capsys, [
        "cover", "enumerate", "--k", "2", "--group", files["s3"],
        "--surface", files["torus"], "--levy", files["levy_s3"]])
    assert code == 0
    assert doc["cases"]
    for rec in doc["cases"]:
        assert rec["aut_order"] >= 1


def test_cover_mass_matches_partition(files, capsys):
    code, doc = run_json(capsys, [
        "cover", "mass", "--group", files["s3"],
        "--surface", files["torus"], "--levy", files["levy_s3"]])
    assert code == 0
    assert doc["pass"] is True


def test_cover_mass_with_one_sided_rates(files, capsys, tmp_path):
    """A boundary class C != C^-1 under rates that are not
    inversion-invariant: the bundle mass still equals the partition
    function."""
    group = tmp_path / "z3.json"
    group.write_text(json.dumps({"kind": "builtin", "name": "Z3"}))
    levy = tmp_path / "levy_z3.json"
    levy.write_text(json.dumps({"rates": {"1": 1.0}}))
    code, doc = run_json(capsys, [
        "cover", "mass", "--group", str(group), "--surface", files["disk"],
        "--levy", str(levy)])
    assert code == 0
    assert doc["pass"] is True


def test_levy_keys_may_be_class_indices(files, capsys, tmp_path):
    """JSON keys are strings; one that is no representative label is read
    as a class index."""
    from holofield.groups import build_group
    from holofield.levy import jump_measure_from_class_rates

    rates = {"1": 0.5, "2": 0.5}
    G = build_group("S3")
    assert jump_measure_from_class_rates(G, rates).measure.weights == \
        jump_measure_from_class_rates(G, {1: 0.5, 2: 0.5}).measure.weights
    levy = tmp_path / "levy_index.json"
    levy.write_text(json.dumps({"rates": rates}))
    code, doc = run_json(capsys, [
        "partition", "--group", files["s3"], "--surface", files["torus"],
        "--levy", str(levy)])
    assert code == 0
    assert doc["pass"] is True


def test_cover_sample_deterministic(files, capsys):
    argv = ["cover", "sample", "--count", "3", "--seed", "11",
            "--group", files["z2"], "--surface", files["torus"],
            "--levy", files["levy_z2"]]
    code1, doc1 = run_json(capsys, argv)
    code2, doc2 = run_json(capsys, argv)
    assert code1 == code2 == 0
    assert doc1 == doc2



def test_cover_sample_honours_tail_tol(files, capsys, tmp_path):
    """A coarse --tail-tol truncates the ramification-count law: at
    Pi(G) t = 20 it moves the drawn counts, and none passes the
    truncation index."""
    from holofield.levy import poisson_truncation_index

    surface = tmp_path / "torus20.json"
    surface.write_text(json.dumps({"orientable": True, "genus": 2,
                                   "boundaries": 0, "area": 20.0}))
    argv = ["cover", "sample", "--count", "8", "--seed", "3",
            "--group", files["s3"], "--surface", str(surface),
            "--levy", files["levy_s3"]]
    _, fine = run_json(capsys, argv)
    _, coarse = run_json(capsys, argv + ["--tail-tol", "0.3"])
    fine_k = [case["k"] for case in fine["cases"]]
    coarse_k = [case["k"] for case in coarse["cases"]]
    assert fine_k != coarse_k
    assert max(coarse_k) <= poisson_truncation_index(20.0, 0.3) < max(fine_k)

def test_output_is_byte_stable(files, capsys):
    argv = ["group-info", "--group", files["s3"]]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second


def test_csv_format(files, capsys):
    code = run(["verify", "semigroup", "--group", files["z2"],
                "--levy", files["levy_z2"], "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) >= 2
    assert "pass" in lines[0]


@pytest.mark.parametrize("suite,names", [
    ("semigroup", ["Q_0.3 * Q_1 = Q_1.3", "Q_0.7 * Q_1 = Q_1.7",
                   "series = characters"]),
    ("kappa-eta", ["kappa * eta = kappa^3"]),
    ("tame", ["joint generator law = closed form"]),
])
def test_density_checks_report_no_placeholder_sides(files, capsys, suite,
                                                     names):
    """A case comparing two densities entry by entry has no single lhs and
    rhs: it reports max_abs_diff and pass only, and its CSV cells for lhs
    and rhs stay empty."""
    argv = ["verify", suite, "--group", files["s3"],
            "--levy", files["levy_s3"]]
    code, doc = run_json(capsys, argv)
    assert code == 0
    cases = {c["case"]: c for c in doc["cases"]}
    for name in names:
        assert set(cases[name]) == {"case", "max_abs_diff", "pass"}
    assert all("lhs" in c and "rhs" in c
               for name, c in cases.items() if name not in names)
    assert run(argv + ["--format", "csv"]) == 0
    rows = csv.DictReader(io.StringIO(capsys.readouterr().out))
    for row in rows:
        if row["case"] in names:
            assert row.get("lhs", "") == row.get("rhs", "") == ""


@pytest.mark.parametrize("argv", [
    ["verify", "semigroup", "--time", "inf"],
    ["partition", "--time", "inf"],
    ["verify", "semigroup", "--tol", "nan"],
    ["partition", "--time", "nan"],
    ["cover", "mass", "--tail-tol", "inf"],
], ids=" ".join)
def test_non_finite_inputs_are_input_errors(files, capsys, argv):
    """A non-finite --time, --tol or --tail-tol is rejected before any
    work, with exit code 2 and nothing on stdout."""
    code = run(argv + ["--group", files["s3"], "--surface", files["torus"],
                       "--levy", files["levy_s3"]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "must be finite" in captured.err


def _quiet_input_error(capsys, argv) -> str:
    """Run argv, check that it is an input error with nothing on stdout,
    and return its stderr."""
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    return captured.err


def test_negative_twist_count_is_input_error(files, capsys):
    err = _quiet_input_error(capsys, [
        "cover", "enumerate", "--k", "-1", "--group", files["s3"],
        "--surface", files["torus"]])
    assert "non-negative" in err


@pytest.mark.parametrize("count", ["0", "-2"])
def test_cover_sample_count_below_one_is_input_error(files, capsys, count):
    err = _quiet_input_error(capsys, [
        "cover", "sample", "--count", count, "--group", files["s3"],
        "--surface", files["torus"], "--levy", files["levy_s3"]])
    assert "--count must be at least 1" in err


@pytest.mark.parametrize("command, bad", [
    (command, bad)
    for command in ("partition", "cover mass", "verify semigroup")
    for bad in ("area", "rate", "nan-rate")
    # verify suites read no surface file
    if not (bad == "area" and command.startswith("verify"))])
def test_non_finite_numbers_in_files_are_input_errors(files, capsys, command,
                                                      bad):
    """Infinity or NaN inside a surface or Levy file exits 2, as the same
    value given by flag does."""
    surface, levy = files["torus"], files["levy_s3"]
    path = str(files["tmp"] / "bad.json")
    with open(path, "w") as fh:
        if bad == "area":
            surface = path
            json.dump({"orientable": True, "genus": 2,
                       "area": float("inf")}, fh)
        else:
            levy = path
            rate = float("inf") if bad == "rate" else float("nan")
            json.dump({"rates": {"021": rate, "120": 0.5}}, fh)
    command = command.split()
    err = _quiet_input_error(capsys, command + [
        "--group", files["s3"], "--surface", surface, "--levy", levy])
    assert "must be finite" in err


@pytest.mark.parametrize("area", [float("nan"), float("inf")])
def test_non_finite_area_in_map_file_is_input_error(files, capsys, tmp_path,
                                                   area):
    from holofield.surface import SurfaceSpec, map_to_json, standard_map

    doc = json.loads(map_to_json(standard_map(SurfaceSpec(True, 2, 0, 1.0))))
    doc["areas"] = {"0": area}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    for command in (["faces"], ["partition", "--via", "graph"]):
        err = _quiet_input_error(capsys, command + [
            "--map", str(path), "--group", files["s3"],
            "--surface", files["torus"], "--levy", files["levy_s3"]])
        assert "positive and finite" in err


@pytest.mark.parametrize("command", [["partition", "--via", "graph"],
                                     ["partition", "--via", "formula"],
                                     ["cover", "verify-holo-mono"]],
                         ids=" ".join)
def test_map_that_disagrees_with_the_surface_is_input_error(
        files, capsys, tmp_path, command):
    """A --map must have the surface's type and, at --time or the file's
    area, its total area; its areas are never rescaled."""
    from holofield.surface import SurfaceSpec, map_to_json, standard_map

    paths = {}
    for name, spec in (("torus", SurfaceSpec(True, 2, 0, 1.0)),
                       ("klein", SurfaceSpec(False, 2, 0, 1.0))):
        paths[name] = tmp_path / f"{name}_map.json"
        paths[name].write_text(map_to_json(standard_map(spec)))
    common = command + ["--group", files["s3"], "--levy", files["levy_s3"],
                        "--surface", files["torus"]]
    err = _quiet_input_error(capsys, common + [
        "--map", str(paths["torus"]), "--time", "2.0"])
    assert "sum to 1.0, not the surface area 2.0" in err
    err = _quiet_input_error(capsys, common + ["--map", str(paths["klein"])])
    assert "(False, 2, 0) are not the surface's (True, 2, 0)" in err
    # the same map at its own area is accepted
    code, doc = run_json(capsys, common + ["--map", str(paths["torus"])])
    assert code == 0 and doc["pass"] is True


def test_bad_group_file_is_input_error(files, capsys):
    assert run(["group-info", "--group", files["broken"]]) == 2


def test_missing_file_is_input_error(files, capsys):
    assert run(["group-info", "--group", str(files["tmp"] / "nope.json")]) == 2


def test_malformed_json_is_input_error(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["group-info", "--group", str(bad)]) == 2


@pytest.mark.parametrize("flag, kind", [("--group", "group"),
                                        ("--levy", "Levy"),
                                        ("--surface", "surface"),
                                        ("--map", "map")])
def test_malformed_json_names_its_file_kind(files, capsys, tmp_path, flag,
                                            kind):
    """A file that is not JSON, or cannot be read, exits 2 with the same
    "bad <kind> file: " prefix under each of the four flags."""
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    # the map file is read last, so its default is never read
    paths = {"--group": files["s3"], "--levy": files["levy_s3"],
             "--surface": files["torus"], "--map": str(bad)}
    invalid = "invalid map JSON" if flag == "--map" else "is not valid JSON"
    for path, reason in ((str(bad), invalid),
                         (str(tmp_path / "nope.json"), "cannot read")):
        argv = ["cover", "verify-holo-mono"]
        for f, default in paths.items():
            argv += [f, path if f == flag else default]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad {kind} file: ") and reason in err


def test_cap_exit_code(files, capsys):
    code = run(["cover", "enumerate", "--k", "5", "--cap", "10",
                "--group", files["s3"], "--surface", files["torus"],
                "--levy", files["levy_s3"]])
    assert code == 3


def _disk(tmp_path, index) -> str:
    """A disk surface file whose boundary lies in class `index`."""
    path = tmp_path / f"disk_{index}.json"
    path.write_text(json.dumps({"orientable": True, "genus": 0,
                                "boundaries": 1, "area": 1.0,
                                "constraints": [index]}))
    return str(path)


@pytest.mark.parametrize("index", [7, -1])
def test_cover_enumerate_refuses_a_bad_boundary_class(files, capsys,
                                                      tmp_path, index):
    """S3 has 3 classes: index 7 lists no tuple and -1 must not wrap."""
    err = _quiet_input_error(capsys, [
        "cover", "enumerate", "--k", "1", "--group", files["s3"],
        "--surface", _disk(tmp_path, index)])
    assert f"class index {index} out of range" in err


@pytest.mark.parametrize("index", [7, -1])
def test_cover_sample_refuses_a_bad_boundary_class(files, capsys, tmp_path,
                                                   index):
    err = _quiet_input_error(capsys, [
        "cover", "sample", "--group", files["s3"], "--levy", files["levy_s3"],
        "--surface", _disk(tmp_path, index)])
    assert f"class index {index} out of range" in err


@pytest.mark.parametrize("index", [7, -1])
def test_cover_verify_holo_mono_refuses_a_bad_boundary_class(
        files, capsys, tmp_path, index):
    err = _quiet_input_error(capsys, [
        "cover", "verify-holo-mono", "--group", files["s3"],
        "--levy", files["levy_s3"], "--surface", _disk(tmp_path, index)])
    assert f"class index {index} out of range" in err


def test_cover_sample_that_gives_up_is_a_cap_exit(files, capsys, tmp_path,
                                                  monkeypatch):
    """Rates on the 3-cycles alone never close a disk whose boundary is a
    transposition: the sampler runs out of attempts and exits 3."""
    import holofield.covering as covering

    monkeypatch.setattr(covering, "_MAX_ATTEMPTS", 1000)
    levy = tmp_path / "levy_3cycles.json"
    levy.write_text(json.dumps({"rates": {"120": 1.0}}))
    code = run(["cover", "sample", "--group", files["s3"],
                "--levy", str(levy), "--surface", files["disk"]])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "after 1000 attempts" in captured.err


@pytest.mark.parametrize("surface", [
    {"orientable": "false", "genus": 2},
    {"orientable": 1, "genus": 2},
    {"orientable": True, "genus": 2.9},
    {"orientable": False, "genus": True},
    {"orientable": True, "genus": 0, "boundaries": 1.0,
     "constraints": [1]},
    {"orientable": True, "genus": 0, "boundaries": 1,
     "constraints": [True]},
    {"orientable": True, "genus": 0, "boundaries": 1,
     "constraints": [1.5]},
    {"orientable": True, "genus": 2, "area": True},
    {"orientable": True, "genus": 2, "area": "1"},
], ids=json.dumps)
def test_surface_file_types_are_strict(files, capsys, tmp_path, surface):
    """orientable must be a JSON boolean, genus, boundaries and each
    constraint JSON integers and area a JSON number: none is coerced into
    another surface."""
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"area": 1.0, **surface}))
    err = _quiet_input_error(capsys, [
        "partition", "--group", files["s3"], "--levy", files["levy_s3"],
        "--surface", str(path)])
    assert err.startswith("error: bad surface file: ")


@pytest.mark.parametrize("area", ["x", True, "1", None, -1.0, 0,
                                  float("inf"), float("nan")],
                         ids=json.dumps)
def test_surface_file_area_is_checked_under_time(files, capsys, tmp_path,
                                                 area):
    """--time replaces the file's area, yet a present area is still a
    JSON number, finite and positive; a missing one is allowed."""
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"orientable": True, "genus": 2,
                                "area": area}))
    command = ["partition", "--group", files["s3"], "--levy",
               files["levy_s3"], "--surface", str(path)]
    err = _quiet_input_error(capsys, command)
    assert err.startswith("error: bad surface file: ")
    assert _quiet_input_error(capsys, command + ["--time", "1.0"]) == err
    path.write_text(json.dumps({"orientable": True, "genus": 2}))
    code, doc = run_json(capsys, command + ["--time", "1.0"])
    assert code == 0 and doc["pass"] is True


@pytest.mark.parametrize("command", [["faces"], [
    "partition", "--group", "s3", "--levy", "levy_s3", "--surface", "disk"]],
    ids=lambda argv: argv[0])
@pytest.mark.parametrize("entry", [
    {"darts": 4.9}, {"darts": "4"}, {"lambda": {"0": 1.7, "2": 1}},
    {"boundary": [[True]]}, {"areas": {"0": "1.0"}}, {"areas": {"0": True}},
    {"lambda": {"-4": -1, "2": 1}}, {"boundary": [[4]]}, {"areas": [1.0]},
    {"areas": {"1": 1.0}}, {"lambda": {"0": -1, "1": 1}},
    {"sigma": {"0": [0, 0], "1": [1, 3, 2]}},
    {"sigma": {"0": [0], "1": [1, 3, 2], "2": []}},
    {"alpha": [[0, 1], [2, 3], [0, 1]]}, {"boundary": [[]], "areas": {}},
    {"alpha": [1, 0, 3, 2]},
], ids=json.dumps)
def test_map_file_numbers_are_strict(files, capsys, tmp_path, command,
                                     entry):
    """Map files read through --map take JSON integers for darts, signs
    and the dart count and JSON numbers for areas, darts in range and one
    area per face, each dart once in alpha and once in sigma, one sign per
    edge and no empty cycle or circuit: anything else is a bad map file."""
    from holofield.surface import SurfaceSpec, map_to_json, standard_map

    data = json.loads(map_to_json(standard_map(SurfaceSpec(True, 0, 1, 1.0,
                                                           (1,)))))
    path = tmp_path / "disk_map.json"
    argv = [files.get(a, a) for a in command] + ["--map", str(path)]
    path.write_text(json.dumps(data))
    assert run_json(capsys, argv)[0] == 0
    path.write_text(json.dumps({**data, **entry}))
    err = _quiet_input_error(capsys, argv)
    assert err.startswith("error: bad map file: ")


@pytest.mark.parametrize("rate", [True, "1/2", "1", None])
def test_levy_rates_must_be_numbers(files, capsys, tmp_path, rate):
    """A rate must be a JSON number: a bool or a string is no rate."""
    path = tmp_path / "levy.json"
    path.write_text(json.dumps({"rates": {"021": rate}}))
    err = _quiet_input_error(capsys, [
        "partition", "--group", files["s3"], "--surface", files["torus"],
        "--levy", str(path)])
    assert err.startswith("error: bad Levy file: ")


@pytest.mark.parametrize("flag, kind, text", [
    ("--group", "group", '{"kind": "builtin", "name": "S3", "name": "Z2"}'),
    ("--levy", "Levy", '{"rates": {"021": 1.0, "021": 5.0}}'),
    ("--surface", "surface",
     '{"orientable": true, "genus": 2, "genus": 4, "area": 1.0}'),
], ids=["group", "levy", "surface"])
def test_no_input_file_repeats_a_key(files, capsys, tmp_path, flag, kind,
                                     text):
    """Every input file is decoded through one rule: an object that
    repeats a key is a bad file, not its last value alone. The text is
    written raw, as json.dumps cannot repeat a key."""
    path = tmp_path / "repeated.json"
    path.write_text(text)
    paths = {"--group": files["s3"], "--levy": files["levy_s3"],
             "--surface": files["torus"], flag: str(path)}
    err = _quiet_input_error(capsys, ["partition"] + [
        x for f, p in paths.items() for x in (f, p)])
    assert err.startswith(f"error: bad {kind} file: object repeats a key")


def test_verify_failure_exit_code(files, capsys, tmp_path):
    """A jump measure missing inversion symmetry is rejected as bad input
    on a non-orientable surface."""
    levy = tmp_path / "levy_z3.json"
    levy.write_text(json.dumps({"rates": {"1": 1.0}}))
    group = tmp_path / "z3.json"
    group.write_text(json.dumps({"kind": "builtin", "name": "Z3"}))
    surface = tmp_path / "proj.json"
    surface.write_text(json.dumps({"orientable": False, "genus": 1,
                                   "boundaries": 0, "area": 1.0}))
    code = run(["partition", "--group", str(group),
                "--surface", str(surface), "--levy", str(levy)])
    assert code == 2


SUBCOMMANDS = [
    ["group-info"], ["faces"], ["partition"],
    *(["verify", suite] for suite in (
        "semigroup", "kappa-eta", "surgery", "subdivision", "tame",
        "holo-mono", "counting")),
    ["cover", "enumerate", "--k", "1"], ["cover", "mass"],
    ["cover", "sample", "--count", "1"], ["cover", "verify-holo-mono"],
]


@pytest.mark.parametrize("command", SUBCOMMANDS, ids=" ".join)
def test_inputs_report_every_option(files, capsys, tmp_path, command):
    from holofield.surface import SurfaceSpec, map_to_json, standard_map

    path = tmp_path / "torus_map.json"
    path.write_text(map_to_json(standard_map(SurfaceSpec(True, 2, 0, 0.8))))
    code, doc = run_json(capsys, command + [
        "--group", files["s3"], "--surface", files["torus"],
        "--map", str(path), "--levy", files["levy_s3"], "--time", "0.8",
        "--seed", "7", "--tol", "1e-8", "--tail-tol", "1e-13",
        "--cap", "100000", "--via", "graph"])
    assert code == 0
    assert doc["inputs"] == {
        "cap": 100000, "group": files["s3"], "levy": files["levy_s3"],
        "map": str(path), "seed": 7, "surface": files["torus"],
        "tail_tol": 1e-13, "time": 0.8, "tol": 1e-8, "via": "graph"}


def test_module_entry_point(files):
    """python -m holofield.cli runs the command line."""
    import os
    import subprocess
    import sys

    import holofield.cli

    src = os.path.dirname(os.path.dirname(
        os.path.abspath(holofield.cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "holofield.cli", "group-info",
         "--group", files["s3"]],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["order"] == 6


def test_cold_process_leaves_numpy_random_unloaded(files):
    """A fresh process that builds every builtin's character table and
    runs group-info, partition and verify holo-mono never loads
    numpy.random, unless import numpy alone did (numpy 1.x).  A
    subprocess, as the test run's own imports may load it."""
    import os
    import subprocess
    import sys

    import holofield.cli

    script = """
import json
import sys

import numpy

with_numpy = "numpy.random" in sys.modules
from holofield.cli import run
from holofield.groups import _BUILTINS, build_group, character_table

for name in sorted(_BUILTINS):
    character_table(build_group(name))
codes = [run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([with_numpy, codes, "numpy.random" in sys.modules]))
"""
    inputs = ["--group", files["s3"], "--surface", files["torus"],
              "--levy", files["levy_s3"]]
    argvs = [["group-info", "--group", files["s3"]], ["partition", *inputs],
             ["verify", "holo-mono", *inputs]]
    src = os.path.dirname(os.path.dirname(
        os.path.abspath(holofield.cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    with_numpy, codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert with_numpy or not loaded


def test_cli_snapshot_records_runs(tmp_path, monkeypatch):
    """tools/cli_snapshot.py records argv, exit code, stdout and stderr of
    each run against a checkout's src."""
    import importlib.util
    import os
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "cli_snapshot", os.path.join(repo, "tools", "cli_snapshot.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.write_inputs(str(tmp_path), 201, tool.GroupData())
    argvs = tool.commands(201)[:2]
    assert [a[0] for a in argvs] == ["group-info", "faces"]
    records = tool.snapshot(repo, str(tmp_path), argvs)
    assert [(r["argv"], r["exit"], r["stderr"]) for r in records] == \
        [(a, 0, "") for a in argvs]
    assert json.loads(records[0]["stdout"])["order"] == 6
    assert json.loads(records[1]["stdout"])["command"] == "faces"
    # an error run reads a bad file the tool writes, and its exit code and
    # stderr are recorded
    tool.write_extra_inputs(str(tmp_path))
    argv = ["group-info", "--group", "group_unknown.json"]
    assert argv in tool.ERROR_RUNS
    [record] = tool.snapshot(repo, str(tmp_path), [argv])
    assert (record["exit"], record["stdout"], record["stderr"]) == \
        (2, "", "error: bad group file: unknown builtin group 'S7'\n")


def test_bench_ab_summary_on_canned_runs(monkeypatch):
    """tools/bench_ab.py summarizes (base, head) pairs per end-to-end
    metric: both medians, the base's interquartile range, the median
    per-pair ratio, the pairs that favour the head in the metric's
    better direction, whether that shows a gain and whether the head is
    within the metric's bound."""
    import importlib.util
    import os
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "bench_ab", os.path.join(repo, "tools", "bench_ab.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    better = tool.end_to_end(repo)
    assert better == {"jobs_per_s": "higher", "job_s.p50": "lower",
                      "job_s.tail": "lower", "setup_s": "lower",
                      "peak_rss_mb": "lower"}
    bounds = tool.end_to_end(repo, "bound")
    assert bounds == {"jobs_per_s": 0.25, "job_s.p50": 0.25,
                      "job_s.tail": 0.25, "setup_s": 0.25,
                      "peak_rss_mb": 0.1}

    def run(rate, setup, rss=40.0):
        return {"correct": True, "attempted": 5, "failed": 0, "metrics": {
            "jobs_per_s": {"value": rate, "unit": "1/s"},
            "job_s.p50": {"value": 1 / rate, "unit": "s"},
            "job_s.tail": {"value": 2 / rate, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"}}}

    pairs = [(run(100, 0.2), run(120, 0.3)), (run(110, 0.2), run(100, 0.1)),
             (run(90, 0.2), run(135, 0.2)), (run(100, 0.4), run(125, 0.2))]
    lines = tool.summary(pairs, better, bounds)
    assert [line.split()[0] for line in lines] == list(better)
    rate, p50, _, setup, rss = lines
    # ratios 1.2, 0.909, 1.5, 1.25; base quartiles 92.5 and 107.5
    assert "base 100 (IQR 15)" in rate and "head 122.5" in rate
    assert "median ratio 1.225" in rate
    assert "head better in 3/4 pairs (higher is better)" in rate
    assert "head better in 3/4 pairs (lower is better)" in p50
    assert "median ratio 0.750" in setup and "in 2/4 pairs" in setup
    assert "median ratio 1.000" in rss and "in 0/4 pairs" in rss
    # 3/4 pairs show no gain; no median is worse than its bound
    assert all(line.endswith(f"claim shown: no  within bound {bound:g}: yes")
               for line, bound in zip(lines, bounds.values()))
    # ten pairs: the head lower in every one and by more than the base's
    # IQR shows a gain; a setup 50% slower is outside the 0.25 bound; ties
    # show none
    ten = [(run(100, 0.2, 40.0 + 0.1 * i), run(100, 0.3, 36.5))
           for i in range(10)]
    rate, _, _, setup, rss = tool.summary(ten, better, bounds)
    assert rate.endswith("in 0/10 pairs (higher is better)  "
                         "claim shown: no  within bound 0.25: yes")
    assert setup.endswith("claim shown: no  within bound 0.25: no")
    assert "base 40.45 (IQR 0.55)  head 36.5" in rss
    assert rss.endswith("in 10/10 pairs (lower is better)  "
                        "claim shown: yes  within bound 0.1: yes")
    line = tool.run_line(2, "head", pairs[2][1], better)
    assert line.startswith("pair 2 head jobs_per_s=135 job_s.p50=")
    assert line.endswith("peak_rss_mb=40 correct=True failed=0/5")


def test_bench_ab_runs_both_sides_from_copies(tmp_path):
    """tools/bench_ab.py runs the base from a git archive export and the
    head from a copy of the working tree beside it: uncommitted edits and
    untracked files are copied, ignored files are not."""
    import importlib.util
    import os
    import subprocess

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "bench_ab", os.path.join(repo, "tools", "bench_ab.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    root = tmp_path / "repo"
    (root / "pkg").mkdir(parents=True)
    (root / "pkg" / "tracked.py").write_text("committed\n")
    (root / ".gitignore").write_text("*.log\n")

    def git(*argv):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *argv], cwd=root, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (root / "pkg" / "tracked.py").write_text("edited\n")
    (root / "pkg" / "untracked.py").write_text("new\n")
    (root / "pkg" / "run.log").write_text("ignored\n")

    tool.export_commit(str(root), "HEAD", str(tmp_path / "base"))
    tool.copy_worktree(str(root), str(tmp_path / "head"))

    def files(tree):
        return {str(p.relative_to(tree)): p.read_text()
                for p in tree.rglob("*") if p.is_file()}

    assert files(tmp_path / "base") == {".gitignore": "*.log\n",
                                        "pkg/tracked.py": "committed\n"}
    assert files(tmp_path / "head") == {".gitignore": "*.log\n",
                                        "pkg/tracked.py": "edited\n",
                                        "pkg/untracked.py": "new\n"}


def _bench_record_tool(monkeypatch):
    import importlib.util
    import os
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # the tool imports bench_ab from its own directory
    monkeypatch.setattr(sys, "path", [os.path.join(repo, "tools"), *sys.path])
    spec = importlib.util.spec_from_file_location(
        "bench_record", os.path.join(repo, "tools", "bench_record.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    with open(os.path.join(repo, "BENCHMARK.json")) as fh:
        return tool, json.load(fh)


def test_bench_record_names_every_metric_on_canned_runs(monkeypatch,
                                                        tmp_path, capsys):
    """tools/bench_record.py runs every workload untraced and traced and
    writes each run's metrics and verdicts beside the machine and the
    commit; a metric BENCHMARK.json names that a run does not report, a
    run that is not correct and a failed job are each listed and exit 1."""
    import sys

    tool, spec = _bench_record_tool(monkeypatch)
    calls = []

    def canned(tree, workload, seconds, trace, drop=(), correct=True,
               failed=0):
        calls.append((workload, seconds, trace))
        group = spec["per_layer" if trace else "end_to_end"]
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in group if m["name"] not in drop}
        return {"correct": correct, "attempted": 7, "failed": failed,
                "metrics": metrics}

    monkeypatch.setattr(tool, "run_bench", canned)
    monkeypatch.setattr(tool, "commit",
                        lambda root: {"commit": "abc", "dirty": False})
    out = tmp_path / "BENCH_1.json"
    monkeypatch.setattr(sys, "argv", ["bench_record.py", str(out),
                                      "--seconds", "1"])
    assert tool.main() == 0
    names = [w["name"] for w in spec["workloads"]]
    assert calls == [(w, 1.0, trace) for w in names for trace in (0, 1)]
    doc = json.loads(out.read_text())
    assert (doc["commit"], doc["dirty"], doc["seconds"]) == ("abc", False,
                                                             1.0)
    assert set(doc["machine"]) == {"nproc", "python", "numpy"}
    assert set(doc["workloads"]) == set(names)
    for w in names:
        for run, group in (("untraced", "end_to_end"),
                           ("traced", "per_layer")):
            result = doc["workloads"][w][run]
            assert (result["correct"], result["attempted"],
                    result["failed"]) == (True, 7, 0)
            assert {m["name"] for m in spec[group]} <= set(result["metrics"])
    assert tool.problems(doc, spec) == []

    def short(tree, workload, seconds, trace):
        drop = ("cli.run_s",) if workload == "cli" and trace else ()
        return canned(tree, workload, seconds, trace, drop,
                      correct=workload != "kernel",
                      failed=int(workload == "bundle" and not trace))

    monkeypatch.setattr(tool, "run_bench", short)
    capsys.readouterr()
    assert tool.main() == 1
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "missing: cli traced cli.run_s",
        "failed: bundle untraced correct=True failed=1/7",
        "failed: kernel untraced correct=False failed=0/7",
        "failed: kernel traced correct=False failed=0/7"]


def test_bench_record_commit_and_dirty_flag(monkeypatch, tmp_path):
    """The commit measured, dirty when a tracked file is edited or an
    untracked one added, not when only an ignored file is."""
    import subprocess

    tool, _ = _bench_record_tool(monkeypatch)
    (tmp_path / ".gitignore").write_text("*.log\n")

    def git(*argv):
        return subprocess.run(["git", "-c", "user.name=t", "-c",
                               "user.email=t@t", *argv], cwd=tmp_path,
                              check=True, capture_output=True,
                              text=True).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    head = git("rev-parse", "HEAD")
    (tmp_path / "run.log").write_text("ignored\n")
    assert tool.commit(str(tmp_path)) == {"commit": head, "dirty": False}
    (tmp_path / "new.py").write_text("new\n")
    assert tool.commit(str(tmp_path)) == {"commit": head, "dirty": True}
