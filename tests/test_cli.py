import json

import pytest

from modcat import group_to_json, kp_category, report_from_json
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
], ids=["args-int", "args-str", "args-float", "values-object", "order-str"])
def test_malformed_psi_json_is_input_error(capsys, psi):
    code, _, err = run(capsys, "equiv", "--group", "kp", "--omega", "trivial",
                       "--pair1", "full:zero", "--pair2", "full:" + psi)
    assert code == 2 and "error:" in err


def test_bad_pair_spec(capsys):
    code, _, err = run(capsys, "equiv", "--group", "cyclic:2",
                       "--omega", "trivial",
                       "--pair1", "whatever", "--pair2", "full:zero")
    assert code == 2 and "error:" in err


def test_classify_kp_json_and_determinism(capsys):
    code, out1, _ = run(capsys, "classify", "--group", "kp", "--omega", "kp",
                        "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "classify", "--group", "kp", "--omega", "kp",
                        "--format", "json")
    assert out1 == out2
    code, out3, _ = run(capsys, "classify", "--group", "kp", "--omega", "kp",
                        "--format", "json", "--jobs", "4")
    assert out1 == out3
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
    assert code == 2 and "exceeds the limit" in err
    code, out, _ = run(capsys, "classify", "--group", "cyclic:17",
                       "--omega", "trivial", "--size-limit", "17",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["class_count"] == 2


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
