import contextlib
import hashlib
import io
import random
from itertools import product

import pytest

from nsboxes import boxes, builtin, dump, loads
from nsboxes.cli import load_table_rows, main
from random_boxes import mixture3, pool_weights

CLASS3_WIRING = "bp=B|AC order=C,A alpha=2 beta=4 gamma=170"
PARITY_WIRING = "bp=A|BC order=B,C alpha=2 beta=15 gamma=102"
BITS = (0, 1)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_builtin(capsys):
    code, out, _ = run(capsys, "validate", "builtin:class3")
    assert code == 0
    assert out == "valid box3\n"


def test_validate_reports_failures(tmp_path, capsys):
    bad = tmp_path / "bad.box"
    bad.write_text("box2\n0 0 | 0 0 = 1\n0 0 | 0 1 = 1\n0 0 | 1 0 = 1\n1 1 | 1 1 = 1\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "signalling" in out


def test_values_past_4300_digits_are_parse_errors(tmp_path, capsys):
    # str() cannot print the 5001-digit denominator of 1e-5000, so the value
    # is refused with its line, not left to raise ValueError out of eval or
    # validate
    huge = tmp_path / "huge.box"
    huge.write_text("box2\n0 0 | 0 0 = 1e-5000\n")
    for argv in (("eval", str(huge), "--functional", "chsh"), ("validate", str(huge))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: line 2: value '1e-5000' has more than 4300 digits in its numerator or denominator\n"
    # a box with an entry 1e-10 is still read, and valid
    small = tmp_path / "small.box"
    small.write_text("box2\n" + "".join(f"0 0 | {x} {y} = 1e-10\n1 1 | {x} {y} = 0.9999999999\n"
                                        for x in BITS for y in BITS))
    assert run(capsys, "validate", str(small)) == (0, "valid box2\n", "")
    assert run(capsys, "eval", str(small), "--functional", "chsh") == (0, "2\n", "")


def test_validate_parse_error(tmp_path, capsys):
    bad = tmp_path / "junk.box"
    bad.write_text("box2\nnot an entry\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "error" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/path.box")
    assert code == 2
    assert "no such box file" in err


def test_unknown_builtin(capsys):
    code, _, err = run(capsys, "validate", "builtin:classx")
    assert code == 2
    # an Arabic-Indic three or a padded digit is not the truth table 3
    for name in ("deterministic(\u0663,0,0)", "deterministic(0003,0,0)"):
        code, out, err = run(capsys, "validate", f"builtin:{name}")
        assert (code, out) == (2, ""), name
        assert "unknown builtin box" in err


def test_eval_k(capsys):
    code, out, _ = run(capsys, "eval", "builtin:class4", "--functional", "k")
    assert code == 0
    assert out == "-1\n"


def test_eval_uffink_pr(capsys):
    code, out, _ = run(capsys, "eval", "builtin:pr", "--functional", "uffink")
    assert code == 0
    assert out == "8\n"


def test_eval_chsh_max_uniform(capsys):
    code, out, _ = run(capsys, "eval", "builtin:uniform2", "--functional", "chsh-max")
    assert code == 0
    assert out == "0\n"


def test_eval_arity_mismatch(capsys):
    code, _, err = run(capsys, "eval", "builtin:class4", "--functional", "chsh")
    assert code == 1
    code, _, err = run(capsys, "eval", "builtin:pr", "--functional", "k")
    assert code == 1


def test_eval_gyni_default_weights(capsys):
    code, out, _ = run(capsys, "eval", "builtin:class4", "--functional", "gyni")
    assert code == 0
    assert out == "value = 1/4\nbound = 1/4\nno violation\n"


def test_eval_gyni_custom_weights(tmp_path, capsys):
    q = tmp_path / "w.txt"
    q.write_text("0 0 0 = 1/2\n1 1 1 = 1/2\n")
    code, out, _ = run(
        capsys, "eval", "builtin:class4", "--functional", "gyni", "--q", str(q)
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "bound = 1"
    assert lines[2] == "no violation"


def test_wire_to_file_and_summary(tmp_path, capsys):
    out_path = tmp_path / "eff.box"
    code, out, _ = run(
        capsys,
        "wire",
        "builtin:class3",
        "--wiring",
        CLASS3_WIRING,
        "--out",
        str(out_path),
    )
    assert code == 0
    assert out == "chsh_max = 3, uffink_max = 5, IC violated (CHSH)\n"
    eff = loads(out_path.read_text())
    assert eff.n_parties == 2


def test_wire_stdout_round_trips(capsys):
    code, out, _ = run(capsys, "wire", "builtin:class44", "--wiring", PARITY_WIRING)
    assert code == 0
    # stdout is a parseable box file; the summary rides in a comment
    box = loads(out)
    assert box.table == builtin("pr").table
    assert "# chsh_max = 4, uffink_max = 8, IC violated (CHSH)" in out


def test_wire_rejects_bad_encoding(capsys):
    code, _, err = run(
        capsys, "wire", "builtin:class3", "--wiring", "bp=A|BC alpha=9"
    )
    assert code == 2


def test_wire_rejects_non_ascii_digits(capsys):
    wiring = "bp=B|AC order=C,A alpha=\u0662 beta=4 gamma=170"
    code, out, err = run(capsys, "wire", "builtin:class3", "--wiring", wiring)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_wire_unwritable_out_path(tmp_path, capsys):
    for path in (tmp_path / "missing" / "x.box", tmp_path):
        code, out, err = run(
            capsys, "wire", "builtin:class3", "--wiring", CLASS3_WIRING, "--out", str(path)
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")


def test_membership_unwritable_certificate_path(tmp_path, capsys):
    path = tmp_path / "missing" / "x.cert"
    for model in (("local",), ("ns",), ("tobl", "--bipartition", "A|BC")):
        code, out, err = run(
            capsys, "membership", "builtin:class4", "--certificate", str(path), "--model", *model
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")


# The values and first maximising wirings of perfbench/reference.json; the
# tie-heavy uniform3, whose every wiring scores 0, keeps the very first.
SEARCH_STDOUT = {
    "class3": "chsh_max = 4, uffink_max = 8, IC violated (CHSH)\n"
    "chsh_max wiring: bp=A|BC order=C,B alpha=3 beta=6 gamma=85\n"
    "uffink_max wiring: bp=A|BC order=C,B alpha=3 beta=6 gamma=85\n",
    "class4": "chsh_max = 2, uffink_max = 4, no witness\n"
    "chsh_max wiring: bp=A|BC order=B,C alpha=0 beta=0 gamma=20\n"
    "uffink_max wiring: bp=A|BC order=B,C alpha=0 beta=0 gamma=85\n",
    "class44": "chsh_max = 4, uffink_max = 8, IC violated (CHSH)\n"
    "chsh_max wiring: bp=A|BC order=B,C alpha=1 beta=3 gamma=102\n"
    "uffink_max wiring: bp=A|BC order=B,C alpha=1 beta=3 gamma=102\n",
    "uniform3": "chsh_max = 0, uffink_max = 0, no witness\n"
    "chsh_max wiring: bp=A|BC order=B,C alpha=0 beta=0 gamma=0\n"
    "uffink_max wiring: bp=A|BC order=B,C alpha=0 beta=0 gamma=0\n",
}


@pytest.mark.parametrize("name", sorted(SEARCH_STDOUT))
def test_search_stdout_pinned(capsys, name):
    code, out, _ = run(capsys, "search", f"builtin:{name}")
    assert (code, out) == (0, SEARCH_STDOUT[name])


def test_search_single_functional(capsys):
    code, out, _ = run(
        capsys, "search", "builtin:deterministic(0,1,2)", "--functional", "chsh-max"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "chsh_max = 2"
    assert len(lines) == 2


def test_search_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "search", "builtin:deterministic(3,0,2)")
    code2, out2, _ = run(capsys, "search", "builtin:deterministic(3,0,2)")
    assert (code1, out1) == (code2, out2)
    assert out1.splitlines()[0] == "chsh_max = 2, uffink_max = 4, no witness"


def test_membership_local_feasible(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "membership", "builtin:uniform2", "--model", "local")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "feasible"
    cert_path = tmp_path / "uniform2.local.cert"
    assert cert_path.exists()
    assert cert_path.read_text().splitlines()[0] == "feasible"


def test_membership_names_a_box_file_certificate_by_its_stem(tmp_path, capsys, monkeypatch):
    # With no --certificate, a box file's certificate is named after the
    # file's stem and written in the working directory, not beside the box.
    box_dir, work = tmp_path / "boxes", tmp_path / "work"
    box_dir.mkdir()
    work.mkdir()
    dump(builtin("pr"), box_dir / "x.box")
    monkeypatch.chdir(work)
    code, out, _ = run(capsys, "membership", str(box_dir / "x.box"), "--model", "local")
    assert (code, out) == (0, "infeasible\ncertificate: x.local.cert\n")
    assert sorted(p.name for p in tmp_path.rglob("*.cert")) == ["x.local.cert"]
    run(capsys, "membership", "builtin:pr", "--model", "local")
    assert (work / "x.local.cert").read_text() == (work / "pr.local.cert").read_text()


def test_membership_names_a_builtin_certificate_by_its_stripped_name(tmp_path, capsys, monkeypatch):
    # builtin() strips the name, so the default certificate does too.
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "membership", "builtin: class4 ", "--model", "local")
    assert (code, out) == (0, "infeasible\ncertificate: class4.local.cert\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["class4.local.cert"]


def test_table_rows_are_read_once():
    assert load_table_rows() is load_table_rows()


def test_membership_local_infeasible(tmp_path, capsys):
    cert = tmp_path / "pr.cert"
    code, out, _ = run(
        capsys,
        "membership",
        "builtin:pr",
        "--model",
        "local",
        "--certificate",
        str(cert),
    )
    assert code == 0
    assert out.splitlines()[0] == "infeasible"
    body = cert.read_text().splitlines()
    assert body[0] == "infeasible"
    assert all("=" in line for line in body[1:])


def test_membership_ns_model(tmp_path, capsys):
    box = tmp_path / "signal.box"
    box.write_text("box2\n0 0 | 0 0 = 1\n0 0 | 0 1 = 1\n0 0 | 1 0 = 1\n1 1 | 1 1 = 1\n")
    cert = tmp_path / "signal.cert"
    code, out, _ = run(
        capsys,
        "membership",
        str(box),
        "--model",
        "ns",
        "--certificate",
        str(cert),
    )
    assert code == 0
    assert out.splitlines()[0] == "infeasible"
    assert "signalling" in cert.read_text()


def test_membership_tobl_requires_bipartition(capsys):
    code, _, err = run(capsys, "membership", "builtin:class4", "--model", "tobl")
    assert code == 2
    assert "bipartition" in err


def test_membership_invalid_box_outranks_usage_errors(tmp_path, capsys):
    # one validation per call, still reported before a bipartition problem
    bad = tmp_path / "bad.box"
    bad.write_text("box2\n0 0 | 0 0 = 1\n0 0 | 0 1 = 1\n0 0 | 1 0 = 1\n1 1 | 1 1 = 1\n")
    for extra in ((), ("--bipartition", "X|YZ")):
        code, out, err = run(capsys, "membership", str(bad), "--model", "tobl", *extra)
        assert (code, out) == (1, "")
        assert "signalling" in err


def test_membership_validates_once(tmp_path, capsys, monkeypatch):
    calls = []
    validate = boxes.validate
    monkeypatch.setattr(boxes, "validate", lambda box: calls.append(box) or validate(box))
    for model in (("local",), ("tobl", "--bipartition", "A|BC")):
        calls.clear()
        cert = str(tmp_path / "c.cert")
        code, _, _ = run(capsys, "membership", "builtin:class4", "--certificate", cert, "--model", *model)
        assert (code, len(calls)) == (0, 1)


def test_membership_tobl_class4(tmp_path, capsys):
    cert = tmp_path / "c4.cert"
    code, out, _ = run(
        capsys,
        "membership",
        "builtin:class4",
        "--model",
        "tobl",
        "--bipartition",
        "B|AC",
        "--certificate",
        str(cert),
    )
    assert code == 0
    assert out.splitlines()[0] == "feasible"
    body = cert.read_text().splitlines()
    assert body[0] == "feasible"
    assert len(body) == 5  # four quarter weights


def test_table1_validates_each_row_once(capsys, monkeypatch):
    calls = []
    validate = boxes.validate
    monkeypatch.setattr(boxes, "validate", lambda box: calls.append(box) or validate(box))
    code, out, _ = run(capsys, "table1")
    assert (code, len(out.splitlines()), len(calls)) == (0, 4, 3)


def test_table_rows_load():
    rows = load_table_rows()
    assert len(rows) == 46
    assert rows[0].cls == 1 and rows[0].encoding is None
    assert rows[2].encoding == CLASS3_WIRING
    assert rows[43].encoding == PARITY_WIRING
    assert rows[43].chsh == "4" and rows[43].uffink == "8"
    encodings = {row.encoding for row in rows if row.encoding}
    assert len(encodings) == 12


def test_table1_builtins_only(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "class\twiring\tchsh\tuffink\tpaper_chsh\tpaper_uffink\tflag"
    assert len(lines) == 4
    row3 = lines[1].split("\t")
    assert row3[0] == "3" and row3[2] == "3" and row3[3] == "5" and row3[6] == "ok"
    row4 = lines[2].split("\t")
    assert row4[0] == "4" and row4[1] == "search"
    assert row4[2] == "2" and row4[3] == "4" and row4[6] == "ok"
    row44 = lines[3].split("\t")
    assert row44[0] == "44" and row44[2] == "4" and row44[3] == "8" and row44[6] == "ok"


def test_table1_directory_mode(tmp_path, capsys):
    dump(builtin("class44"), tmp_path / "class44.box")
    # a wrong table for class 3 must be flagged, not corrected
    dump(builtin("uniform3"), tmp_path / "class3.box")
    (tmp_path / "README.txt").write_text("ignored\n")
    # neither names a class file: an Arabic-Indic three, a trailing newline
    dump(builtin("class44"), tmp_path / "class\u0663.box")
    dump(builtin("class44"), tmp_path / "class3.box\n")
    code, out, _ = run(capsys, "table1", "--boxes", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    row3 = lines[1].split("\t")
    assert row3[0] == "3" and row3[2] == "0" and row3[6] == "<"
    row44 = lines[2].split("\t")
    assert row44[0] == "44" and row44[6] == "ok"


def test_table1_prints_nothing_before_a_failing_row(tmp_path, capsys):
    # class 2 comes first and is fine; class 3 then fails, and no row of
    # the report may have been printed by then
    dump(builtin("class44"), tmp_path / "class2.box")
    dump(builtin("pr"), tmp_path / "class3.box")
    code, out, err = run(capsys, "table1", "--boxes", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == "error: class 3 needs a tripartite box\n"


def test_table1_rejects_files_that_name_no_row_or_one_class_twice(tmp_path, capsys):
    dump(builtin("class44"), tmp_path / "class44.box")
    dump(builtin("uniform3"), tmp_path / "class07.box")
    dump(builtin("class44"), tmp_path / "class7.box")
    code, out, err = run(capsys, "table1", "--boxes", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "class07.box" in err and "class7.box" in err
    (tmp_path / "class07.box").unlink()
    dump(builtin("class44"), tmp_path / "class99.box")
    code, out, err = run(capsys, "table1", "--boxes", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "class99.box" in err and "no class 99" in err


def test_table1_empty_directory(tmp_path, capsys):
    code, out, _ = run(capsys, "table1", "--boxes", str(tmp_path))
    assert code == 0
    assert len(out.splitlines()) == 1


def test_table1_missing_directory(tmp_path, capsys):
    code, _, err = run(capsys, "table1", "--boxes", str(tmp_path / "nope"))
    assert code == 2


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "builtin:pr", "--functional", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
    # an option the chosen functional or model would ignore
    cert = tmp_path / "c.cert"
    for argv in (
        ("eval", "builtin:pr", "--functional", "chsh", "--q", "/nonexistent"),
        ("membership", "builtin:pr", "--model", "local", "--bipartition", "X|YZ", "--certificate", str(cert)),
        ("membership", "builtin:pr", "--model", "ns", "--bipartition", "A|BC", "--certificate", str(cert)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and "only" in err, argv
    assert not cert.exists()


def test_box_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin.box"
    bad.write_bytes(b"box2\n\xff\xfe\n")
    weights = tmp_path / "latin.q"
    weights.write_bytes(b"0 0 0 = 1\n\xff\xfe\n")
    boxes_dir = tmp_path / "classes"
    boxes_dir.mkdir()
    (boxes_dir / "class3.box").write_bytes(b"box3\n\xff\xfe\n")
    for argv in (
        ("validate", str(bad)),
        ("search", str(bad)),
        ("eval", "builtin:class4", "--functional", "gyni", "--q", str(weights)),
        ("table1", "--boxes", str(boxes_dir)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: ") and "not UTF-8" in err, argv


def test_unreadable_box_file_is_a_parse_error(tmp_path, capsys):
    # table1 picks up class3.box by name, so a directory under that name
    # must be a ParseError, not an IsADirectoryError traceback.  A file
    # without read permission takes the same path; it is not shown here,
    # as root may read it anyway.
    dump(builtin("class44"), tmp_path / "class44.box")
    (tmp_path / "class3.box").mkdir()
    code, out, err = run(capsys, "table1", "--boxes", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read ") and "class3.box" in err
    # the existence checks keep their own messages
    code, _, err = run(capsys, "validate", str(tmp_path / "class3.box"))
    assert code == 2 and err.startswith("error: no such box file: ")
    code, _, err = run(capsys, "eval", "builtin:class4", "--functional", "gyni", "--q", str(tmp_path / "class3.box"))
    assert code == 2 and err.startswith("error: no such weights file: ")


# Invalid box files, one per failure kind and one with all three.
INVALID_BOXES = {
    # correlator 3 at x = y = 0 with uniform marginals
    "negative": "box2\n"
    + "".join(f"{a} {b} | 0 0 = {'1' if a == b else '-1/2'}\n" for a, b in product(BITS, repeat=2))
    + "".join(f"{a} {b} | {x} {y} = 1/4\n" for x, y, a, b in product(BITS, repeat=4) if x or y),
    # every entry 1/2: each input sums to 2
    "normalization": "box2\n" + "".join(f"{a} {b} | {x} {y} = 1/2\n" for x, y, a, b in product(BITS, repeat=4)),
    # b copies x
    "signalling": "box2\n" + "".join(f"{a} {x} | {x} {y} = 1/2\n" for x, y, a in product(BITS, repeat=3)),
    # uniform3 with P(000|000) = -1/7 and P(111|111) = 2/9
    "all": "box3\n"
    + "".join(
        f"{a} {b} {c} | {x} {y} {z} = {({0: '-1/7', 6: '2/9'}).get(x + y + z + a + b + c, '1/8')}\n"
        for x, y, z, a, b, c in product(BITS, repeat=6)
    ),
}

# First 16 hex digits of the sha256 of each command's exit code and stdout.
# Validation, the wiring kernel and the orbit maxima must print exactly
# these whatever arithmetic they run on.
PINNED_OUTPUTS = {
    "validate negative": "c75bc02834c19dd3",
    "validate normalization": "288203b004d135bd",
    "validate signalling": "551cd8523df2bdfb",
    "validate all": "ee0a5628d842bff0",
    "wire class3 0": "7558f4f1b6390497",
    "wire class3 1": "e364466b6036172d",
    "wire class3 2": "87722681da941f47",
    "wire class3 3": "7e283fd69802038c",
    "wire class3 4": "7b4fbdbd1d017011",
    "wire class3 5": "5744fd48f366bddf",
    "wire class3 6": "1c0903cd1219449e",
    "wire class3 7": "4ec8831d43314028",
    "wire class3 8": "67f2a12c552315b3",
    "wire class3 9": "7558f4f1b6390497",
    "wire class3 10": "87722681da941f47",
    "wire class3 11": "8cff6bda2e55f2e7",
    "wire class4 0": "e9b8ff2efd7b5256",
    "wire class4 1": "926c13fde3f6e21a",
    "wire class4 2": "73a7a117cb911db0",
    "wire class4 3": "69c64a7f16554c2f",
    "wire class4 4": "1553c3ecd142a44b",
    "wire class4 5": "bad2ed8f664089de",
    "wire class4 6": "fe3bca409883383a",
    "wire class4 7": "089dfd10d5975c46",
    "wire class4 8": "67f2a12c552315b3",
    "wire class4 9": "35a03a318c6b1290",
    "wire class4 10": "67f2a12c552315b3",
    "wire class4 11": "36e19cc21b501051",
    "wire class44 0": "7558f4f1b6390497",
    "wire class44 1": "73a7a117cb911db0",
    "wire class44 2": "fc76191aceaa3e6c",
    "wire class44 3": "a2bbf19e68ca7fd7",
    "wire class44 4": "4ec8831d43314028",
    "wire class44 5": "a2bbf19e68ca7fd7",
    "wire class44 6": "e364466b6036172d",
    "wire class44 7": "a2bbf19e68ca7fd7",
    "wire class44 8": "fc76191aceaa3e6c",
    "wire class44 9": "a2bbf19e68ca7fd7",
    "wire class44 10": "fc76191aceaa3e6c",
    "wire class44 11": "fc76191aceaa3e6c",
    "eval pr chsh-max": "452e39c241ac7c3d",
    "eval pr uffink-max": "42751d2ee956ba67",
    "wire mixture 0": "da23fe66c7a40c2d",
    "wire mixture 1": "7684c101b3fd6121",
    "wire mixture 2": "d8e9f4666e71b690",
    "wire mixture 3": "16a69548f46fae88",
    "wire mixture 4": "e34967eff13945e5",
    "wire mixture 5": "d8e9f4666e71b690",
    "wire mixture 6": "7fc9567a81643828",
    "wire mixture 7": "4d1a8fd2d09dd149",
    "wire mixture 8": "ff0435db3bd832f1",
    "wire mixture 9": "241fbb7e822ff7e0",
    "wire mixture 10": "bf92d4fa12e702a1",
    "wire mixture 11": "199791bd534e4bde",
    "eval mixture k": "1a764f5d828f1788",
    "eval class3 k": "b9490968067ba44d",
    "eval class4 k": "c7b4ea6821495a8e",
    "eval class44 k": "d2a8c09af5070265",
    "table1": "1f976219a05581da",
}


# the seed of the mixture file with large coprime denominators that
# PINNED_OUTPUTS wires and evaluates
MIXTURE_SEED = 34


def pinned_outputs(tmp_path):
    argvs = {}
    for kind, text in INVALID_BOXES.items():
        path = tmp_path / f"{kind}.box"
        path.write_text(text)
        argvs[f"validate {kind}"] = ("validate", str(path))
    wirings = dict.fromkeys(row.encoding for row in load_table_rows() if row.encoding)
    for name in ("class3", "class4", "class44"):
        for k, encoding in enumerate(wirings):
            argvs[f"wire {name} {k}"] = ("wire", f"builtin:{name}", "--wiring", encoding)
    for functional in ("chsh-max", "uffink-max"):
        argvs[f"eval pr {functional}"] = ("eval", "builtin:pr", "--functional", functional)
    # a mixture with large coprime denominators, as in the sweep-mixed pool
    rng = random.Random(MIXTURE_SEED)
    mixture = tmp_path / "mixture.box"
    dump(mixture3(rng, pool_weights(rng)), mixture)
    for k, encoding in enumerate(wirings):
        argvs[f"wire mixture {k}"] = ("wire", str(mixture), "--wiring", encoding)
    for name, ref in (("mixture", str(mixture)), *((n, f"builtin:{n}") for n in ("class3", "class4", "class44"))):
        argvs[f"eval {name} k"] = ("eval", ref, "--functional", "k")
    argvs["table1"] = ("table1",)
    digests = {}
    for key, argv in argvs.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        digests[key] = hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()[:16]
    return digests


def test_outputs_pinned(tmp_path):
    assert pinned_outputs(tmp_path) == PINNED_OUTPUTS
