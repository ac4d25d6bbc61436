import hashlib
import importlib
import json
from pathlib import Path

import pytest

from modcat import (QZ, Cochain, cli, coboundary, cochain_from_json, cochain_to_json,
                    cohomology, dihedral_group, group_to_json, groups, image_obstruction,
                    kp_category, report_from_json, solve_coboundary)
from modcat.cli import main
from modcat.groups import cyclic_group, direct_product


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def klein_file(tmp_path):
    G = direct_product(cyclic_group(2), cyclic_group(2))
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(group_to_json(G)))
    return path


def test_group_info_text(capsys):
    code, out, _ = run(capsys, "group-info", "--group", "builtin:kp")
    assert code == 0
    assert "order 8, nonabelian" in out
    assert "10 subgroups" in out
    assert "8 conjugacy classes" in out


def test_group_info_json(capsys):
    code, out, _ = run(capsys, "group-info", "--group", "kp", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["group"]["order"] == 8
    assert len(data["subgroups"]) == 10
    assert len(data["conjugacy_classes"]) == 8


def test_group_info_from_file(capsys, tmp_path):
    path = klein_file(tmp_path)
    code, out, _ = run(capsys, "group-info", "--group", f"@{path}",
                       "--format", "json")
    assert code == 0
    assert len(json.loads(out)["subgroups"]) == 5


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "group-info", "--group", "@/nonexistent.json")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("table", [[[0, 1], [1, 0.5]], [[0, True], [1, "0"]]],
                         ids=["float-entry", "bool-and-string-entries"])
def test_group_file_with_a_non_integer_entry_is_input_error(capsys, tmp_path, table):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"order": 2, "table": table}))
    code, out, err = run(capsys, "classify", "--group", f"@{path}", "--omega", "trivial")
    assert code == 2 and "table" in err and not out


@pytest.mark.parametrize("names", ["ab", {"x": 1, "y": 2}, [1, 2], [None, [0]], [True, False]],
                         ids=["string", "object", "ints", "null-and-list", "bools"])
def test_group_file_with_names_not_json_strings_is_input_error(capsys, tmp_path, names):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"order": 2, "table": [[0, 1], [1, 0]], "names": names}))
    code, out, err = run(capsys, "group-info", "--group", f"@{path}")
    assert code == 2 and "names" in err and not out


def test_unknown_builtin_is_input_error(capsys):
    code, _, err = run(capsys, "group-info", "--group", "sporadic:monster")
    assert code == 2 and "error:" in err


def test_cocycle_check_kp(capsys):
    code, out, _ = run(capsys, "cocycle-check", "--group", "kp",
                       "--cocycle", "kp", "--format", "json")
    assert code == 0
    assert json.loads(out)["is_cocycle"] is True


def test_cocycle_check_rejects_non_cocycle(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "degree": 3,
        "values": [{"args": [1, 1, 1], "val": "1/3"}],
    }))
    code, out, _ = run(capsys, "cocycle-check", "--group", "cyclic:2",
                       "--cocycle", f"@{bad}")
    assert code == 1
    assert "NO" in out


def test_cocycle_check_rejects_float_values(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "degree": 3,
        "values": [{"args": [1, 1, 1], "val": 0.5}],
    }))
    code, _, err = run(capsys, "cocycle-check", "--group", "cyclic:2",
                       "--cocycle", f"@{bad}")
    assert code == 2 and "error:" in err


def test_omega_g_text_table(capsys):
    code, out, _ = run(capsys, "omega-g", "--group", "kp", "--omega", "kp",
                       "--g", "x", "--restrict", "0,1,2,3")
    assert code == 0
    assert "-1" in out  # the twist table contains genuine signs
    code, out2, _ = run(capsys, "omega-g", "--group", "kp", "--omega", "kp",
                        "--g", "4", "--restrict", "0,1,2,3")
    assert code == 0 and out2 == out  # element index works like its name


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_omega_g_empty_restrict_is_input_error(capsys, fmt):
    # an empty member list is malformed, not a request for the whole group
    code, out, err = run(capsys, "omega-g", "--group", "kp", "--omega", "kp", "--g", "x",
                         "--restrict", "", "--format", fmt)
    assert code == 2 and out == "" and "error: --restrict needs integers" in err


def test_omega_g_json_feeds_solve(capsys, tmp_path):
    code, out, _ = run(capsys, "omega-g", "--group", "kp", "--omega", "kp",
                       "--g", "x", "--restrict", "0,1,2,3", "--format", "json")
    assert code == 0
    target = tmp_path / "twist.json"
    target.write_text(out)
    # the twist restricted to the Klein subgroup is a nontrivial class
    code, out, _ = run(capsys, "solve", "--target", f"@{target}")
    assert code == 1
    assert "nontrivial class" in out
    code, out, _ = run(capsys, "solve", "--target", f"@{target}",
                       "--format", "json")
    assert code == 1
    assert json.loads(out)["solvable"] is False


def test_solve_finds_witness(capsys, tmp_path):
    target = tmp_path / "target.json"
    target.write_text(json.dumps({
        "group": "cyclic:2",
        "degree": 2,
        "values": [{"args": [1, 1], "val": "1/2"}],
    }))
    code, out, _ = run(capsys, "solve", "--target", f"@{target}",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["solvable"] is True
    assert data["witness"] == [{"args": [1], "val": "1/4"}]


def test_solve_target_with_a_zero_denominator_is_input_error(capsys, tmp_path):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"group": "cyclic:2", "degree": 2,
                                "values": [{"args": [1, 1], "val": "1/0"}]}))
    code, out, err = run(capsys, "solve", "--target", f"@{path}")
    assert code == 2 and out == "" and "'1/0'" in err


@pytest.mark.parametrize("target", [
    {"group": "cyclic:2", "degree": 2.7, "values": []},
    {"group": "cyclic:2", "degree": "2", "values": []},
    {"group": {"order": 2.9, "table": [[0, 1], [1, 0]]}, "degree": 2, "values": []},
], ids=["degree-float", "degree-string", "order-float"])
def test_solve_target_with_a_non_integer_field_is_input_error(capsys, tmp_path, target):
    path = tmp_path / "target.json"
    path.write_text(json.dumps(target))
    code, out, err = run(capsys, "solve", "--target", f"@{path}", "--format", "json")
    assert code == 2 and out == "" and "must be an integer" in err


# a cochain of degree k on cyclic:16 holds 15^k values: degree 20 is refused
# before the list is made, which Python could not index
@pytest.mark.parametrize("degree", [-1, 0, 1, 4, 20])
def test_solve_refuses_a_target_degree_other_than_2_or_3(capsys, tmp_path, degree):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"group": "cyclic:16", "degree": degree, "values": []}))
    code, out, err = run(capsys, "solve", "--target", f"@{path}")
    assert code == 2 and out == "" and f"not {degree}" in err


@pytest.mark.parametrize("order, degree, code", [(4, 4, 0), (4, 5, 2), (16, 20, 2)])
def test_cocycle_check_refuses_a_degree_above_4(capsys, tmp_path, order, degree, code):
    path = tmp_path / "cochain.json"
    path.write_text(json.dumps({"group": f"cyclic:{order}", "degree": degree, "values": []}))
    got, out, err = run(capsys, "cocycle-check", "--group", f"cyclic:{order}",
                        "--cocycle", f"@{path}", "--degree", str(degree))
    assert got == code
    assert (out == "" and "up to 4" in err) if code else "cocycle: yes" in out


@pytest.mark.parametrize("content", ["null", "[]", '"cyclic:2"'],
                         ids=["null", "list", "string"])
@pytest.mark.parametrize("group", [[], ["--group", "cyclic:2"]], ids=["own", "given"])
def test_solve_target_file_without_an_object_is_input_error(capsys, tmp_path,
                                                            content, group):
    target = tmp_path / "target.json"
    target.write_text(content)
    code, out, err = run(capsys, "solve", "--target", f"@{target}", *group)
    assert code == 2 and out == ""
    assert f"{target} does not hold a target object" in err
    code, _, err = run(capsys, "solve", "--target", str(target))
    assert code == 2 and "--target must be @file.json" in err


def test_h2_klein(capsys, tmp_path):
    path = klein_file(tmp_path)
    code, out, _ = run(capsys, "h2", "--group", f"@{path}", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert data["representatives"][0] == []


def test_equiv_witness_on_z2(capsys):
    code, out, _ = run(
        capsys, "equiv", "--group", "cyclic:2", "--omega", "trivial",
        "--pair1", "full:zero",
        "--pair2", 'full:{"values": [{"args": [1, 1], "val": "1/2"}]}',
        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["equivalent"] is True
    assert data["g"] == 0
    assert data["f"] == [{"args": [1], "val": "1/4"}]


def test_equiv_inequivalent_on_klein(capsys, tmp_path):
    path = klein_file(tmp_path)
    # (-1)^(j i') over the direct-product packing 2i + j
    beta = {"values": [{"args": [a, b], "val": "1/2"}
                       for a in (1, 3) for b in (2, 3)]}
    code, out, _ = run(
        capsys, "equiv", "--group", f"@{path}", "--omega", "trivial",
        "--pair1", "full:zero", "--pair2", "full:" + json.dumps(beta))
    assert code == 1
    assert "inequivalent" in out


def test_equiv_kp_merging(capsys, tmp_path):
    kp = kp_category()
    xi = tmp_path / "xi.json"
    xi.write_text(json.dumps({
        "degree": 2,
        "values": [{"args": list(a), "val": str(v)}
                   for a, v in kp.xi_nontrivial.items()],
    }))
    code, out, _ = run(
        capsys, "equiv", "--group", "kp", "--omega", "kp",
        "--pair1", "H=[0,1,2,3];psi=zero",
        "--pair2", f"H=[0,1,2,3];psi=@{xi}",
        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["equivalent"] is True and data["g"] == 4


@pytest.mark.parametrize("psi", [
    '{"values": [{"args": 5, "val": "1/2"}]}',
    '{"values": [{"args": [1, "x"], "val": "1/2"}]}',
    '{"values": [{"args": [1.0, 1], "val": "1/2"}]}',
    '{"values": {"args": [1, 1], "val": "1/2"}}',
    '{"group": {"order": "eight"}, "values": []}',
    '{"values": [{"args": [1, 1], "val": "1/0"}]}',
], ids=["args-int", "args-str", "args-float", "values-object", "order-str",
        "zero-denominator"])
def test_malformed_psi_json_is_input_error(capsys, psi):
    code, _, err = run(capsys, "equiv", "--group", "kp", "--omega", "trivial",
                       "--pair1", "full:zero", "--pair2", "full:" + psi)
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("argv", [
    ["classify", "--group", "cyclic:4", "--omega", "cyclic:x:1"],
    ["cocycle-check", "--group", "cyclic:4", "--cocycle", "cyclic:4:z"],
    ["omega-g", "--group", "kp", "--omega", "kp", "--g", "x", "--restrict", "0,1,y"],
    ["equiv", "--group", "kp", "--omega", "trivial",
     "--pair1", "H=5;psi=zero", "--pair2", "full:zero"],
    ["equiv", "--group", "kp", "--omega", "trivial",
     "--pair1", "H=[0, true];psi=zero", "--pair2", "full:zero"],
    ["group-info", "--group", "cyclic:\u00b2"],  # a digit that int() does not read
    ["omega-g", "--group", "kp", "--omega", "kp", "--g", "\u00b2"],
], ids=["omega-cyclic-n", "cocycle-cyclic-q", "restrict-token", "members-int",
        "members-bool", "group-superscript-digit", "g-superscript-digit"])
def test_malformed_spec_is_input_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "error:" in err


def test_bad_pair_spec(capsys):
    code, _, err = run(capsys, "equiv", "--group", "cyclic:2",
                       "--omega", "trivial",
                       "--pair1", "whatever", "--pair2", "full:zero")
    assert code == 2 and "error:" in err


def test_repeated_calls_in_one_process_answer_as_the_first(capsys):
    """main builds its parser once per process, and every later call of each
    command prints what the first printed and returns the same status."""
    commands = [("group-info", "--group", "kp"),
                ("h2", "--group", "cyclic:4", "--format", "json"),
                ("classify", "--group", "kp", "--omega", "kp", "--format", "json"),
                ("equiv", "--group", "cyclic:2", "--omega", "trivial",
                 "--pair1", "full:zero", "--pair2", "full:zero"),
                ("group-info", "--group", "sporadic:monster")]
    first = [run(capsys, *argv) for argv in commands]
    assert [code for code, *_ in first] == [0, 0, 0, 0, 2]
    for _ in range(2):
        assert [run(capsys, *argv) for argv in commands] == first
    assert cli.build_parser() is cli.build_parser()


def test_classify_kp_json_and_determinism(capsys):
    code, out1, _ = run(capsys, "classify", "--group", "kp", "--omega", "kp",
                        "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "classify", "--group", "kp", "--omega", "kp",
                        "--format", "json")
    assert out1 == out2
    data = json.loads(out1)
    assert data["class_count"] == 6
    assert data["omega"]["source"] == "kp"


def test_classify_report_reverifies(capsys):
    code, out, _ = run(capsys, "classify", "--group", "kp", "--omega", "kp",
                       "--format", "json")
    assert code == 0
    kp = kp_category()
    report = report_from_json(json.loads(out), kp.category)
    assert report.class_count == 6


def test_classify_text_mode(capsys):
    code, out, _ = run(capsys, "classify", "--group", "kp", "--omega", "kp")
    assert code == 0
    assert "10 pairs in 6 classes" in out


def test_classify_size_limit(capsys):
    code, _, err = run(capsys, "classify", "--group", "cyclic:17",
                       "--omega", "trivial")
    assert code == 2 and "exceeds --size-limit 16" in err
    code, out, _ = run(capsys, "classify", "--group", "cyclic:17",
                       "--omega", "trivial", "--size-limit", "17",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["class_count"] == 2


def test_classify_checks_the_limit_before_building_omega(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("omega was built for a group over the limit")

    monkeypatch.setattr(cli, "cyclic_3cocycle", refuse)
    code, out, err = run(capsys, "classify", "--group", "cyclic:96",
                         "--omega", "cyclic:96:1")
    assert code == 2 and out == ""
    assert "exceeds --size-limit 16" in err


def test_classify_verbose_progress_to_stderr_only(capsys):
    code, out, err = run(capsys, "classify", "--group", "kp", "--omega", "kp",
                         "--format", "json", "--verbose")
    assert code == 0
    assert "pairs" in err  # progress landed on the diagnostic stream
    json.loads(out)  # report stream stayed clean JSON


def test_h2_size_limit(capsys):
    code, _, err = run(capsys, "h2", "--group", "cyclic:20")
    assert code == 2 and "exceeds" in err
    code, out, _ = run(capsys, "h2", "--group", "cyclic:20",
                       "--size-limit", "20", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_cyclic_omega_spec(capsys):
    code, out, _ = run(capsys, "classify", "--group", "cyclic:4",
                       "--omega", "cyclic:4:1", "--format", "json")
    assert code == 0
    assert json.loads(out)["class_count"] == 1


def test_group_info_size_limit(capsys):
    code, _, err = run(capsys, "group-info", "--group", "cyclic:20",
                       "--size-limit", "4")
    assert code == 2 and "exceeds --size-limit 4" in err
    code, out, _ = run(capsys, "group-info", "--group", "cyclic:20",
                       "--size-limit", "20", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["subgroups"]) == 6


def test_cocycle_check_size_limit(capsys):
    code, _, err = run(capsys, "cocycle-check", "--group", "cyclic:8",
                       "--cocycle", "cyclic:8:1", "--size-limit", "4")
    assert code == 2 and "exceeds --size-limit 4" in err
    code, _, _ = run(capsys, "cocycle-check", "--group", "cyclic:8",
                     "--cocycle", "cyclic:8:1", "--size-limit", "8")
    assert code == 0


def test_omega_g_size_limit(capsys):
    code, _, err = run(capsys, "omega-g", "--group", "kp", "--omega", "kp",
                       "--g", "x", "--size-limit", "4")
    assert code == 2 and "exceeds --size-limit 4" in err
    code, _, _ = run(capsys, "omega-g", "--group", "kp", "--omega", "kp",
                     "--g", "x", "--size-limit", "8")
    assert code == 0


def order_400_file(tmp_path):
    """A group file that declares order 400; its table is not a group's."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"order": 400, "table": [[0]]}))
    return f"@{path}"


def embedded_cyclic_400(tmp_path):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"group": "cyclic:400", "degree": 2, "values": []}))
    return f"@{path}"


@pytest.mark.parametrize("argv", [
    lambda tmp: ["group-info", "--group", "cyclic:400"],
    lambda tmp: ["group-info", "--group", "dihedral:400"],
    lambda tmp: ["group-info", "--group", order_400_file(tmp)],
    lambda tmp: ["solve", "--target", embedded_cyclic_400(tmp)],
], ids=["cyclic", "dihedral", "file", "solve-embedded"])
def test_size_limit_is_checked_before_the_group_is_built(capsys, monkeypatch,
                                                         tmp_path, argv):
    """The order a spec declares is checked before any table is allocated or
    checked for associativity, which takes seconds at order 400."""
    def refuse(*args, **kwargs):
        raise AssertionError("a group over the limit was built")

    monkeypatch.setattr(groups, "from_table", refuse)
    code, out, err = run(capsys, *argv(tmp_path))
    assert code == 2 and out == ""
    assert "exceeds --size-limit 16" in err


def test_snf_cache_variable_is_inert(capsys, monkeypatch, tmp_path):
    target = tmp_path / "target.json"
    target.write_text(json.dumps({
        "group": "dihedral:6",
        "degree": 2,
        "values": [{"args": [1, 1], "val": "1/3"}],
    }))
    commands = [("classify", "--group", "kp", "--omega", "kp"),
                ("h2", "--group", "dihedral:16"),
                ("solve", "--target", f"@{target}")]
    plain = [run(capsys, *argv) for argv in commands]
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("MODCAT_SNF_CACHE", str(cache))
    assert [run(capsys, *argv) for argv in commands] == plain
    assert not list(cache.iterdir())


def benchmark_solve_commands(monkeypatch, tmp_path):
    """The ``solve`` commands of the benchmark's cli_cached workload, seed 1:
    the nontrivial class q = 2 of H^3(Z_12), then a coboundary on D16."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    import modcat
    commands = workloads.CliWorkload(modcat, 1, str(tmp_path))._commands()
    return [argv for argv, _, _ in commands if argv[0] == "solve"]


def test_solve_runs_the_solver_once(capsys, monkeypatch, tmp_path):
    omega12, cob2 = benchmark_solve_commands(monkeypatch, tmp_path)
    targets = [cochain_from_json(json.loads(Path(argv[2][1:]).read_text()))
               for argv in (omega12, cob2)]
    row = image_obstruction(targets[0])
    witness = solve_coboundary(targets[1])
    assert row is not None and witness is not None
    expected = [
        (1, {"solvable": False, "obstruction_row": row}),
        (0, {"solvable": True, "witness": cochain_to_json(witness)["values"]}),
    ]
    calls = []
    solve = cohomology._solve

    def counted(*args):
        calls.append(args[1])
        return solve(*args)

    monkeypatch.setattr(cohomology, "_solve", counted)
    for argv, (want_code, want) in zip((omega12, cob2), expected):
        del calls[:]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (want_code, json.dumps(
            want, sort_keys=True, separators=(",", ":")) + "\n")
        assert len(calls) == 1
    text = [a for a in omega12 if a not in ("--format", "json")]
    del calls[:]
    code, out, err = run(capsys, *text, "--verbose")
    assert (code, out, err) == (1, "nontrivial class\n", f"obstruction at row {row}\n")
    assert len(calls) == 1


# sha256 of the stdout of ``classify --format json`` for each spec that CI
# also runs under two hash seeds: the report bytes are the contract
CLASSIFY_REPORT_SHA256 = [
    ("kp --omega kp",
     "f97af4cb93f9212d4975a78681b25d921832d55bb57cf330cd84565627260d06"),
    ("cyclic:12 --omega cyclic:12:2",
     "f108b05c35b9bd7d86042592a36dcf726b82c6499b57dc8ccd3502b3e96c622a"),
    ("dihedral:16 --omega trivial",
     "6f3517bc29b82abce44a2e0438b482f4883cc09ed7adce4737a281df49bc39b1"),
    ("dihedral:32 --omega trivial --size-limit 32",
     "b04c223575a41b140485a9e09cb6dfd5541c913bb07ccb45b1f7cedb7e33db93"),
    ("dihedral:64 --omega trivial --size-limit 64",
     "6b7cec6be3e2b64235367f32933b08bee625ae685cf0219f4f6e246972f5329d"),
    ("cyclic:16 --omega cyclic:16:1",
     "b73379daba998310714130465d54911d8a4dc3d8680b0f8944edcf961f84bd3c"),
    ("cyclic:32 --omega cyclic:32:3 --size-limit 32",
     "1f42dad22768dde44efa5988e22ec5da72ab85d1a3d17bae404eb2c0a3bb6c53"),
    ("cyclic:64 --omega cyclic:64:1 --size-limit 64",
     "7cfa2b6d367032c7aaafe802cf1ee3066cfffc47ae882c0c8b250ce0a3e1699f"),
]


@pytest.mark.pinned
@pytest.mark.parametrize("spec, digest", CLASSIFY_REPORT_SHA256,
                         ids=[spec.split()[0] for spec, _ in CLASSIFY_REPORT_SHA256])
def test_classify_report_bytes_are_pinned(capsys, spec, digest):
    code, out, _ = run(capsys, "classify", "--group", *spec.split(), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def pinned_commands(tmp_path):
    """Commands whose JSON output is built from cochain numerators: H^2
    representatives, a twist, a solve witness and an equivalence witness."""
    f = Cochain(dihedral_group(8), 1, {(1,): QZ(1, 3), (2,): QZ(1, 4), (5,): QZ(5, 6)})
    target = tmp_path / "target.json"
    target.write_text(json.dumps(cochain_to_json(coboundary(f), "dihedral:8")))
    xi = json.dumps({"values": cochain_to_json(kp_category().xi_nontrivial)["values"]})
    return {
        "h2-dihedral16": ["h2", "--group", "dihedral:16"],
        "h2-kp": ["h2", "--group", "kp"],
        "omega-g-kp": ["omega-g", "--group", "kp", "--omega", "kp", "--g", "x"],
        "solve-degree-2": ["solve", "--target", f"@{target}"],
        "equiv-kp": ["equiv", "--group", "kp", "--omega", "kp",
                     "--pair1", "H=[0,1,2,3];psi=zero", "--pair2", "H=[0,1,2,3];psi=" + xi],
    }


# sha256 of the stdout of each command above with ``--format json``
COMMAND_JSON_SHA256 = {
    "h2-dihedral16": "d35a2eaa16d84092140a1b649203762cce8577574d76d3ddc959489e1ff7b39d",
    "h2-kp": "588f72b648f1e7b5d1a10c15c739a7971ebce3399f1bf2bbc9bbfa4323bd2c75",
    "omega-g-kp": "b12656a20589255e3fb72d966ffc1b62a60dc88ca183ff87054bdf7d5f4b4148",
    "solve-degree-2": "e8d828ef557a6242d34743636d6fd95cd2d81c2c735f0347264f61c463212f1f",
    "equiv-kp": "b3d8e345fb65a7779328224c0c157bf1b8cea326a23e0a49a0c217b5fee64f37",
}


@pytest.mark.pinned
@pytest.mark.parametrize("name", sorted(COMMAND_JSON_SHA256))
def test_command_json_bytes_are_pinned(capsys, tmp_path, name):
    code, out, _ = run(capsys, *pinned_commands(tmp_path)[name], "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMMAND_JSON_SHA256[name]
