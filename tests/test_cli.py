import hashlib
import json
import os
import shlex
import subprocess
import sys

import pytest

import profmack
from profmack import cbrank as cb
from profmack import cli
from profmack import homdim as hd
from profmack import groups as gr
from profmack import gsets as gs
from profmack.groups import CyclicGroup, group_to_json, trivial_subgroup
from profmack.gsets import transitive_gset
from profmack import burnside as bs
from profmack import mackey as mk
from span_helpers import identity_span, relabelled


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_cb_rank_json(capsys):
    code, out = run(capsys, ["cb", "rank", "--tower", "pro_p:2", "--depth", "6",
                             "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "Exact" and data["rank"] == 2
    assert data["schema"] == 1
    assert data["convention"].startswith("rank(empty)=0")


def test_cb_rank_depth_zero_interval(capsys):
    code, out = run(capsys, ["cb", "rank", "--tower", "pro_p:2", "--depth", "0",
                             "--json"])
    assert code == 0
    assert json.loads(out)["verdict"] == "Interval"


def test_usage_error_exit_code(capsys):
    code, _ = run(capsys, ["cb", "rank", "--tower", "bogus"])
    assert code == cli.EXIT_USAGE


def test_marks_tsv_golden(capsys):
    code, out = run(capsys, ["burnside", "marks", "--group", "sym:3", "--tsv"])
    assert code == 0
    assert out == "6\t0\t0\t0\n3\t1\t0\t0\n2\t0\t2\t0\n1\t1\t1\t1\n"


@pytest.mark.parametrize("argv, expected", (
    ("mackey ext --group cyclic:2 --M rep:0 --N burnside --tsv",
     "Ext^1(rep:0,burnside) = 0\n"),
    ("mackey hom --group cyclic:2 --M rep:0 --N burnside --tsv",
     "dim Hom(rep:0,burnside) = 1\n"),
    ("cb rank --tower pro_p:2 --depth 3 --tsv", "cb rank [pro_p:2@depth3]: Exact(2)\n"),
    ("group info --group cyclic:2 --tsv",
     "group cyclic:2: order 2, 2 subgroups, 2 classes\n"
     "  #0 order 1 class 0 core 1 N 2 W 2\n"
     "  #1 order 2 class 1 core 2 N 2 W 1\n"),
))
def test_tsv_prints_text_lines_verbatim(argv, expected, capsys):
    code, out = run(capsys, argv.split())
    assert code == 0
    assert out == expected


def test_tower_show_text_needs_no_dense_table(capsys):
    argv = ["tower", "show", "--tower", "prod:pro_p:2,pro_p:3", "--depth", "4"]
    code, out = run(capsys, argv)
    assert code == 0
    assert out.splitlines() == ["tower prod:pro_p:2,pro_p:3 depth 4"] + [
        f"  level {k}: order {6**k}" for k in range(5)]
    # the JSON holds every level's table: order 1296 exceeds TABLE_LIMIT
    code = cli.main(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CAPACITY and captured.out == ""
    assert captured.err == "error: dense table of order 1296 exceeds limit 1024\n"


def test_marks_trivial_group(capsys):
    code, out = run(capsys, ["burnside", "marks", "--group", "cyclic:1", "--tsv"])
    assert code == 0
    assert out.strip() == "1"


def test_group_info(capsys):
    code, out = run(capsys, ["group", "info", "--group", "sym:3", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["num_subgroups"] == 6 and data["num_classes"] == 4


def test_group_info_bad_selector(capsys):
    code, _ = run(capsys, ["group", "info", "--group", "weird:9"])
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("argv", [
    "homdim certify --setup foo",
    "homdim certify --setup spzp:abc",
    "sheaf godement --base spzp:x",
    "sheaf godement --base spzp:0",
    "sheaf godement --sheaf const:x",
    "sheaf godement --sheaf const:-1",
    "mackey hom --group sym:3 --M rep:x --N burnside",
    "group info --group cyclic:0",
    "group info --group dihedral:3",
    "cb rank --tower pro_p:2 --depth -1",
    "mackey ext --group cyclic:2 --M burnside --N burnside --degree -1",
    "sheaf godement --stages -1",
    "cb rank --tower pro_p:x",
    "sheaf godement --sheaf sky:omega:x",
    # a number in a selector is ASCII digits with no sign, space, underscore
    # or leading zero
    "cb rank --tower pro_p:1_1",
    "cb rank --tower pro_p:+3",
    "cb rank --tower 'pro_p: 3'",
    "group info --group cyclic:+4",
    "group info --group sym:\u0663",
    "mackey hom --group sym:3 --M rep:\u0663 --N burnside",
    "mackey hom --group sym:3 --M fixedpoint:01 --N burnside",
    "sheaf godement --sheaf const:\u0662",
    "sheaf godement --sheaf sky:omega:01",
    "homdim certify --setup spzp:\u0663",
])
def test_malformed_input_is_a_usage_error(argv, capsys):
    code = cli.main(shlex.split(argv))
    out, err = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv, err", [
    ("cb rank --tower pro_p:-3", "expected a prime, got '-3'"),
    ("cb rank --tower 'prod:pro_p:2, pro_p:3'", "expected pro_p:<prime>, got ' pro_p:3'"),
    ("sheaf godement --sheaf const:02", "bad dimension '02' in sheaf selector 'const:02'"),
])
def test_a_malformed_number_names_the_selector(argv, err, capsys):
    code = cli.main(shlex.split(argv))
    assert (code, capsys.readouterr()) == (cli.EXIT_USAGE, ("", f"error: {err}\n"))


def test_malformed_profmack_depth_is_a_usage_error():
    """PROFMACK_DEPTH is the --depth default, converted by argparse when the
    command runs; a malformed value is an argparse error, not a traceback
    at import."""
    src = os.path.dirname(os.path.dirname(profmack.__file__))
    env = dict(os.environ, PYTHONPATH=src, PROFMACK_DEPTH="x")
    argv = [sys.executable, "-m", "profmack.cli", "cb", "rank", "--tower", "pro_p:2"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_USAGE and proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert errors == ["profmack cb rank: error: argument --depth: invalid int value: 'x'"]
    assert "Traceback" not in proc.stderr
    # --depth on the command line wins over the variable
    proc = subprocess.run(argv + ["--depth", "3"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and "depth3" in proc.stdout


def test_mackey_ext_cli(capsys):
    code, out = run(capsys, ["mackey", "ext", "--group", "cyclic:2",
                             "--M", "burnside", "--N", "fixedpoint:Q(zeta_2)",
                             "--degree", "1", "--json"])
    assert code == 0
    assert json.loads(out)["dimension"] == 0


def test_mackey_ext_cli_at_degrees_two_and_three(capsys):
    """Resolutions of length 3 and 4: Ext^{>0} vanishes rationally."""
    for degree in ("2", "3"):
        code, out = run(capsys, ["mackey", "ext", "--group", "sym:3", "--M", "rep:2",
                                 "--N", "burnside", "--degree", degree])
        assert code == 0
        assert out == f"Ext^{degree}(rep:2,burnside) = 0\n"


def test_mackey_ext_cli_over_a_group_whose_identity_is_not_element_0(tmp_path, capsys):
    moved = tmp_path / "s3_moved.json"
    G = relabelled(gr.symmetric(3), 3)
    assert G.identity == 3
    moved.write_text(json.dumps(group_to_json(G)))
    for degree in ("0", "1"):
        args = ["--M", "rep:0", "--N", "rep:0", "--degree", degree]
        code, out = run(capsys, ["mackey", "ext", "--group", f"json:{moved}"] + args)
        assert code == 0
        assert out == run(capsys, ["mackey", "ext", "--group", "sym:3"] + args)[1]


def test_mackey_hom_cli_fixed_points_over_a_relabelled_s3(tmp_path, capsys):
    """The irreducibles of S3 are found whatever its element labels."""
    moved = tmp_path / "s3_moved.json"
    moved.write_text(json.dumps(group_to_json(relabelled(gr.symmetric(3), 3))))
    for M in ("fixedpoint:std", "fixedpoint:sign", "fixedpoint:triv"):
        args = ["--M", M, "--N", "burnside"]
        code, out = run(capsys, ["mackey", "hom", "--group", f"json:{moved}"] + args)
        assert code == 0
        assert out == run(capsys, ["mackey", "hom", "--group", "sym:3"] + args)[1]


def test_mackey_hom_cli_exits_2_without_an_irreducible_list(monkeypatch, capsys):
    """A list that fails its checks (here: the new part of Q[S3/C3] dropped)
    is a usage error with one message line."""
    new_part = mk._new_part
    monkeypatch.setattr(mk, "_new_part",
                        lambda G, K, overs: None if K.order == 3 else new_part(G, K, overs))
    code = cli.main(["mackey", "hom", "--group", "sym:3",
                     "--M", "fixedpoint:0", "--N", "burnside"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error: no irreducible list for S3")
    assert err.count("\n") == 1


def test_sheaf_godement_cli(capsys):
    code, out = run(capsys, ["sheaf", "godement", "--base", "spzp:2",
                             "--sheaf", "const:Q", "--stages", "3", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["length"] == 1
    assert data["stalk_vanishing_violations"] == []


def test_sheaf_godement_cli_rejects_a_truncated_resolution(capsys):
    """const:Q needs stages I0 and I1: --stages 0 is a capacity error, and
    --stages 1 gives the length of the default run."""
    code = cli.main(["sheaf", "godement", "--stages", "0"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CAPACITY and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    for stages in (["--stages", "1"], []):
        code, out = run(capsys, ["sheaf", "godement", "--json"] + stages)
        assert code == 0 and json.loads(out)["length"] == 1


def test_homdim_certify_cli(capsys):
    code, out = run(capsys, ["homdim", "certify", "--setup", "spzp-weyl",
                             "--depth", "5", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "Exact" and data["value"] == 1


def test_homdim_certify_finite_default_group(capsys):
    code, out = run(capsys, ["homdim", "certify", "--setup", "finite", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "Exact" and data["value"] == 0


def test_verify_round_trip(tmp_path, capsys):
    code, out = run(capsys, ["cb", "rank", "--tower", "pro_p:3", "--depth", "6",
                             "--json"])
    f = tmp_path / "cert.json"
    f.write_text(out)
    code, out = run(capsys, ["cb", "rank", "--verify", str(f), "--json"])
    assert code == 0
    assert json.loads(out)["verified"]

    code, out = run(capsys, ["homdim", "certify", "--setup", "spzp-weyl",
                             "--depth", "5", "--json"])
    g = tmp_path / "hd.json"
    g.write_text(out)
    code, out = run(capsys, ["homdim", "certify", "--verify", str(g), "--json"])
    assert code == 0
    assert json.loads(out)["verified"]


def test_cb_rank_three_prime_product_verifies(tmp_path, capsys):
    code, out = run(capsys, ["cb", "rank", "--tower", "prod:pro_p:2,pro_p:3,pro_p:5",
                             "--depth", "3", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "Exact" and data["rank"] == 4
    f = tmp_path / "cert.json"
    f.write_text(out)
    code, out = run(capsys, ["cb", "rank", "--verify", str(f), "--json"])
    assert code == 0
    assert json.loads(out)["verified"]


def test_verify_rejects_tampered_certificate(tmp_path, capsys):
    _, out = run(capsys, ["homdim", "certify", "--setup", "spzp-weyl",
                          "--depth", "5", "--json"])
    data = json.loads(out)
    data["value"] = 7  # tamper
    data["upper"] = 7
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    code, _ = run(capsys, ["homdim", "certify", "--verify", str(f)])
    assert code == cli.EXIT_USAGE


def _rank_stage(stage, labels):
    return {"stage": stage, "removed": labels, "certs": ["scattered(m=0)"] * len(labels)}


@pytest.mark.parametrize("rank,trace", [
    (3, [_rank_stage(s, ["ord1"]) for s in range(3)]),  # one thread at three stages
    (1, [_rank_stage(0, ["ord1", "ord1"])]),  # listed twice in one stage
])
def test_verify_rank_rejects_a_thread_removed_at_two_stages_or_twice_in_one(
        rank, trace, tmp_path, capsys):
    forged = {"schema": 1, "verdict": "Exact", "rank": rank, "lo": None, "hi": None,
              "trace": trace, "chain": "pro_p:2@depth6", "convention": cb.CONVENTION}
    assert cli.verify_rank_json(forged) == ["a thread is removed more than once"]
    f = tmp_path / "forged.json"
    f.write_text(json.dumps(forged))
    code, out = run(capsys, ["cb", "rank", "--verify", str(f), "--json"])
    assert code == cli.EXIT_USAGE and json.loads(out)["verified"] is False


def _homdim_with_rank(rank_certificate):
    """An Exact(7) homdim certificate whose nonzero witness has one entry."""
    return {"schema": 1, "setup": "spzp", "verdict": "Exact", "value": 7, "lower": 7,
            "upper": 7, "rank_certificate": rank_certificate, "godement_length": None,
            "witness": {"period": 1, "values": [["1"]]}, "trace": []}


def test_verify_homdim_rejects_an_exact_value_without_an_exact_rank(tmp_path, capsys):
    # the honest Exact certificates embed Exact ranks with upper = rank - 1
    for setup, rank in (("finite:sym:3", 1), ("spzp:3", 2), ("spzp-weyl", 2)):
        honest = hd.homdim_certificate(setup, depth=4).as_dict()
        rc = honest["rank_certificate"]
        assert (honest["verdict"], rc["verdict"], rc["rank"], honest["upper"]) == \
            ("Exact", "Exact", rank, rank - 1)
        assert cli.verify_homdim_json(honest) == []
    interval = {"schema": 1, "verdict": "Interval", "rank": None, "lo": 1, "hi": None,
                "trace": [{"stage": 0, "removed": [], "undecided": ["ord1"]}],
                "chain": "user@depth2", "convention": cb.CONVENTION}
    assert cli.verify_rank_json(interval) == []
    for rc in (None, interval):
        assert cli.verify_homdim_json(_homdim_with_rank(rc)) == [
            "Exact verdict without an Exact rank certificate"]
    f = tmp_path / "forged.json"
    f.write_text(json.dumps(_homdim_with_rank(None)))
    code, out = run(capsys, ["homdim", "certify", "--verify", str(f), "--json"])
    assert code == cli.EXIT_USAGE and json.loads(out)["verified"] is False


def _write_case(path, content):
    """A directory at path for None, else a file of the text or JSON."""
    if content is None:
        path.mkdir()
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    return path


def _assert_one_usage_line(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == cli.EXIT_USAGE and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


MALFORMED_CERTIFICATES = {
    "not json": "{not json",
    "a JSON list": "[1, 2]",
    "a directory": None,
    "an entry of the wrong type": {
        "cb rank": {"schema": 1, "verdict": "Exact", "rank": 2, "trace": [5, 6],
                    "convention": "c"},
        "homdim certify": {"schema": 1, "verdict": "Exact", "lower": 1, "upper": 1,
                           "value": 1, "rank_certificate": 3}},
}


@pytest.mark.parametrize("command", ["cb rank", "homdim certify"])
@pytest.mark.parametrize("case", list(MALFORMED_CERTIFICATES))
def test_verify_rejects_a_malformed_file_as_usage(command, case, tmp_path, capsys):
    content = MALFORMED_CERTIFICATES[case]
    if isinstance(content, dict):
        content = content[command]
    path = _write_case(tmp_path / "cert.json", content)
    _assert_one_usage_line(command.split() + ["--verify", str(path)], capsys)


def _d512_with_a_repeated_row_entry():
    """D512's table with row 5 repeating an entry; the identity and the
    inverses still hold, so only the associativity check rejects it."""
    mult = [list(row) for row in gr.dihedral(512).table()]
    mult[5][2] = mult[5][3]
    return mult


MALFORMED_GROUP_FILES = {
    "a directory": None,
    "not json": "{not json",
    "a JSON list": "[[0]]",
    "an object without mult": {"schema": 1, "label": "G"},
    "a table of the wrong type": {"mult": 5},
    "a non-square table": {"mult": [[0, 1], [1]]},
    "a table with no identity": {"mult": [[0, 0], [0, 0]]},
    "a table with float, string and bool entries": {"mult": [[0, 1.9], ["1", False]]},
    "a non-associative table of order 512": {"mult": _d512_with_a_repeated_row_entry()},
}


@pytest.mark.parametrize("command", ["group info", "mackey hom --M rep:0 --N burnside"])
@pytest.mark.parametrize("case", list(MALFORMED_GROUP_FILES))
def test_group_selector_rejects_a_malformed_file_as_usage(command, case, tmp_path, capsys):
    path = _write_case(tmp_path / "group.json", MALFORMED_GROUP_FILES[case])
    _assert_one_usage_line(command.split() + ["--group", f"json:{path}"], capsys)


MALFORMED_SPAN_FILES = {
    "a directory": None,
    "not json": "{not json",
    "a JSON list": "[1, 2]",
    "a gsets list": {"schema": 1, "group": {"mult": [[0, 1], [1, 0]]},
                     "gsets": [], "spans": [{}, {}]},
}


@pytest.mark.parametrize("case", list(MALFORMED_SPAN_FILES))
def test_span_compose_rejects_a_malformed_file_as_usage(case, tmp_path, capsys):
    path = _write_case(tmp_path / "spans.json", MALFORMED_SPAN_FILES[case])
    _assert_one_usage_line(["span", "compose", "--file", str(path)], capsys)


def test_span_compose_cli(tmp_path, capsys):
    G = CyclicGroup(2)
    O = transitive_gset(G, trivial_subgroup(G))
    sp = identity_span(O)
    data = {
        "schema": 1,
        "group": group_to_json(G),
        "gsets": {"O": {"act": [list(r) for r in O.act]}},
        "spans": [
            {"left_foot": "O", "right_foot": "O",
             "apex": {"act": [list(r) for r in sp.apex.act]},
             "left": list(sp.left), "right": list(sp.right)},
        ] * 2,
    }
    f = tmp_path / "spans.json"
    f.write_text(json.dumps(data))
    code, out = run(capsys, ["span", "compose", "--file", str(f), "--json"])
    assert code == 0
    assert json.loads(out)["apex_size"] == 2


def _span_file(tmp_path, act, right):
    """A span file over C2 whose G-set O has the given action rows and whose
    second span has the given right leg."""
    G = CyclicGroup(2)
    ident = [0, 1]
    span = {"left_foot": "O", "right_foot": "O", "apex": {"act": act},
            "left": ident, "right": ident}
    data = {"schema": 1, "group": group_to_json(G), "gsets": {"O": {"act": act}},
            "spans": [span, dict(span, right=right)]}
    f = tmp_path / "spans.json"
    f.write_text(json.dumps(data))
    return f


def _assert_usage_error(path, capsys):
    code = cli.main(["span", "compose", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def _edited(path, edit):
    """The span file at path, rewritten after edit(data) on its JSON."""
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return path


REGULAR = [[0, 1], [1, 0]]


def test_span_compose_rejects_an_invalid_file_as_usage(tmp_path, capsys):
    f = _span_file(tmp_path, REGULAR, [0, 1])
    assert run(capsys, ["span", "compose", "--file", str(f)])[0] == 0
    for act, right in ((REGULAR, [0, 0]),  # a leg that is not equivariant
                       ([[0, 1], [1, 0, 5]], [0, 1])):  # a ragged action row
        _assert_usage_error(_span_file(tmp_path, act, right), capsys)


def test_span_compose_rejects_a_string_in_an_action_row(tmp_path, capsys):
    _assert_usage_error(_span_file(tmp_path, [[0, 1], [1, "0"]], [0, 1]), capsys)


def test_span_compose_rejects_a_span_without_left(tmp_path, capsys):
    f = _span_file(tmp_path, REGULAR, [0, 1])
    _assert_usage_error(_edited(f, lambda d: d["spans"][1].pop("left")), capsys)


def test_span_compose_rejects_an_unknown_foot(tmp_path, capsys):
    f = _span_file(tmp_path, REGULAR, [0, 1])
    _assert_usage_error(
        _edited(f, lambda d: d["spans"][0].update(right_foot="P")), capsys)


def test_span_compose_rejects_a_file_that_is_not_json_or_lacks_its_group(
        tmp_path, capsys):
    f = tmp_path / "spans.json"
    f.write_text("{not json")
    _assert_usage_error(f, capsys)
    f = _span_file(tmp_path, REGULAR, [0, 1])
    _assert_usage_error(_edited(f, lambda d: d.pop("group")), capsys)


def _write_d8_span_file(path):
    """Two composable spans G/1 -> G/H -> G/K over D8, as a span file."""
    G = gr.dihedral(8)
    subs = gr.all_subgroups(G)
    A, B, C = (gs.transitive_gset(G, H) for H in (subs[0], subs[2], subs[-2]))
    s1 = bs.component_span(G, A, B, bs.hom_basis(A, B)[0])
    s2 = bs.component_span(G, B, C, bs.hom_basis(B, C)[-1])

    def gset(X):
        return {"act": [list(r) for r in X.act]}

    def span(s, left, right):
        return {"left_foot": left, "right_foot": right, "apex": gset(s.apex),
                "left": list(s.left), "right": list(s.right)}

    path.write_text(json.dumps({
        "schema": 1, "group": group_to_json(G),
        "gsets": {"A": gset(A), "B": gset(B), "C": gset(C)},
        "spans": [span(s1, "A", "B"), span(s2, "B", "C")]}))


# md5 of the stdout of each command, fixed when they were first recorded;
# {spans} is the file _write_d8_span_file writes
GOLDEN_STDOUT_MD5 = {
    "mackey ext --group sym:3 --M rep:2 --N burnside --degree 2":
        "a9312b5fcdd0fece6df1a9164170b8c8",
    "mackey hom --group sym:3 --M rep:0 --N burnside --json":
        "9c2a1026cfdec09b08ede0952281c582",
    "burnside ring --group dihedral:8 --json":
        "74b83e9459bb2755e4c5f1ee4c028347",
    "mackey ext --group prod:cyclic:2,cyclic:2 --M rep:1 --N fixedpoint:0 --json":
        "543e7385d3be6b39f08a084871ab5f6e",
    "span compose --file {spans}": "def11d9293a836cb7145b04197849b39",
    "span compose --file {spans} --json": "9a17334c945d30100299c22f1db7574f",
}


@pytest.mark.parametrize("command", list(GOLDEN_STDOUT_MD5))
def test_stdout_matches_its_golden_md5(command, tmp_path, capsys):
    spans = tmp_path / "d8_spans.json"
    _write_d8_span_file(spans)
    code = cli.main(command.format(spans=spans).split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.md5(captured.out.encode()).hexdigest() == GOLDEN_STDOUT_MD5[command]


# sha256 of the stdout of deep-tower commands, fixed before bond images were
# looked up in the enumerated lattice
GOLDEN_TOWER_SHA256 = {
    "cb rank --tower prod:pro_p:2,pro_p:3 --depth 6 --json":
        "521a4352811fd2f9e01503a602c96428bcbf171cefa903240919c0a4a63983ea",
    "cb heights --tower pro_p:3 --depth 8 --json":
        "764a56e96faa19fec74c8723073c63831b3af02e042a647621f7b9c5c1d0e210",
    # deep and product towers, fixed while S(G) was built from element tuples
    "cb rank --tower prod:pro_p:2,pro_p:3,pro_p:5 --depth 4 --json":
        "1fa77c44a2f5c63a0eace83730a466ef3c665332c1640f5f1330c900756c0552",
    "cb rank --tower pro_p:2 --depth 16 --json":
        "aff848d6b873a415325eccab2977353844295029f956f365c505f453e02531ad",
    "cb heights --tower prod:pro_p:2,pro_p:5 --depth 5 --json":
        "6a206fd35d9bb50517839be0fbbb65b519337f61fe0b28f88a921b99a22c1992",
}


@pytest.mark.parametrize("command", list(GOLDEN_TOWER_SHA256))
def test_tower_stdout_matches_its_golden_sha256(command, capsys):
    code = cli.main(command.split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == \
        GOLDEN_TOWER_SHA256[command]


# sha256 of the stdout of `group info`, fixed while its core, normalizer and
# Weyl orders were still computed by scanning G for each subgroup
GOLDEN_GROUP_INFO_SHA256 = {
    "group info --group sym:4":
        "9067da087385fee4749d062abc2d2ff95c88746365205e06695a3f90481b8fcd",
    "group info --group sym:4 --json":
        "25a245dc3c4124173a6ee200ebcf69c355afcbb34838c3e73161949a661b0672",
    "group info --group sym:5":
        "de3a10af251039138cc0026778aba811b44cdccfffd81eff86e40ff3a5a59572",
    "group info --group sym:5 --json":
        "bf8b07c7d8b33558c47aef7d8bdac235db8abc936ac5657dc4e61ef0eb14cee1",
    "group info --group dihedral:8":
        "c7ef861bb7e377de37437d9d821b4084c5476b43f177a7ebc0ae7cd5f5ac8ccd",
    "group info --group dihedral:8 --json":
        "410ca4092221d0e9f05f079a02f90c90575841d66b814a1aa8108357a99cce13",
    "group info --group prod:sym:3,cyclic:2":
        "665066a7e404e6fe279068f99c0ce9c4b6e4ea5cfd8ec945729867231831a5b0",
    "group info --group prod:sym:3,cyclic:2 --json":
        "d3556a9de637473edc5fa52b5fd6c6193f74735724fd767314b1e0f7b4970317",
}


@pytest.mark.parametrize("command", list(GOLDEN_GROUP_INFO_SHA256))
def test_group_info_stdout_matches_its_golden_sha256(command, capsys):
    code = cli.main(command.split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == \
        GOLDEN_GROUP_INFO_SHA256[command]


# (command, exit code, sha256 of stdout, stderr) for cheap commands over
# every subcommand in text, --json and --tsv, fixed before Sub(G)'s inclusion
# lattice and G's generator words became per-group tables.  {spans} is the
# file _write_d8_span_file writes, {s3} S3 relabelled so that its identity is
# 3, and {rank}/{homdim} the certificates the earlier commands print
NO_OUTPUT = hashlib.sha256(b"").hexdigest()
GOLDEN_COMMANDS = [
    ("group info --group sym:3", 0,
     "17504e5899c44c59b30ca5cc89900dd0057a8856ae212b78cb4d2d06c8a153a8", ""),
    ("group info --group prod:cyclic:2,cyclic:4 --json", 0,
     "7449b5d0fe093d5493bb1812a3037a1b4279207f3d164d21ec564c946a1c0c89", ""),
    ("burnside marks --group json:{s3} --tsv", 0,
     "f0f97696c2602bce9f037f1cc08087beec1b65a1f79081e08c9a0cea7ea8d190", ""),
    ("tower show --tower pro_p:2 --depth 3", 0,
     "c70b0a94cec50178914d083a464bcaf07eb24621b9dd9aa38b5b377dc240959f", ""),
    ("tower show --tower prod:pro_p:2,pro_p:3 --depth 2 --json", 0,
     "a4f8d44423c300dca75f95f352696b84ca4163a1de9af2d3174d3bcee1148fca", ""),
    ("tower show --tower pro_p:3 --depth 2 --tsv", 0,
     "19b579ef52b68bb8165353bae42d58c731c911646614432887d9405b1c201663", ""),
    ("cb rank --tower pro_p:3 --depth 4", 0,
     "3e9651af6ca46d9eb8747dabfd3d0733c91bed7186769eda33caf74b57ab05c0", ""),
    ("cb rank --tower pro_p:2 --depth 5 --json", 0,
     "ef631b6e9be5750a021965c461842c931884dfcf4ebd7aa10bcafe4b28fa035d", ""),
    ("cb rank --tower prod:pro_p:2,pro_p:3 --depth 1 --tsv", 0,
     "7397a5ff5d4247be5c96bf6ab571cc5e2236d01a6f1ed61792f465ca460fd96a", ""),
    ("cb rank --verify {rank}", 0,
     "d1ba2f6a325e022adb3ec05ebb9c41f79a9ccdef57205249ce7fced6347d82b0", ""),
    ("cb heights --tower pro_p:2 --depth 4 --json", 0,
     "6f5a8349557f67f5afa7d8b27e76091a88d099f50bf43c6d106995ff4c44b5e4", ""),
    ("cb heights --tower prod:pro_p:2,pro_p:3 --depth 2 --tsv", 0,
     "8e82d73150c0f67b104c75f11f9488c67f1d3614cfa9d2cbdfeb94d962633ea7", ""),
    ("burnside marks --group dihedral:8", 0,
     "3f350fc70c3f427637b17017946693dae635f5f6a6171c0ad25ffd20a5d43808", ""),
    ("burnside marks --group cyclic:12 --json", 0,
     "0d09fc9e3206bc34c337d2fbabcade315e6c5af572fdeac7c33604248a7a1fa4", ""),
    ("burnside ring --group prod:cyclic:2,cyclic:4 --tsv", 0,
     "3e6feb0c6fc2b94676e32d4c8c82daf32efacdf45a878f62fb24afab154cf2a4", ""),
    ("burnside ring --group sym:3", 0,
     "4ae5b080b5b49ac285dbaf66a1bcb11c79facb8a3a988c8138896de97c454be6", ""),
    ("span compose --file {spans} --tsv", 0,
     "27ac7a8e0a369de75b63814dcbf5d5d88a89ed9888728d0d51fef3e4a602ede6", ""),
    ("mackey ext --group cyclic:4 --M rep:1 --N burnside --json", 0,
     "b74ee1d7efac3754a956c5e9afffccdba5b2f4b16b709c9d41e92ba342d7f06e", ""),
    ("mackey ext --group sym:3 --M fixedpoint:std --N rep:1 --tsv", 0,
     "658d9f76a5493d498788ea82eb7aabe7e575203f8ea570667ea3a9eef3a8b45c", ""),
    ("mackey ext --group json:{s3} --M rep:1 --N fixedpoint:sign", 0,
     "aa60a6b81e60ba6efb9ed5b82ba9c900215156afe06618fc10bb7f033eff9ae3", ""),
    ("mackey hom --group dihedral:8 --M rep:2 --N fixedpoint:0 --json", 0,
     "57542c7f98df68a8efa2c5ac0d9de7cb0851cb005a0507d2ab4e809dbe3667b9", ""),
    ("mackey hom --group prod:cyclic:2,cyclic:4 --M rep:3 --N burnside", 0,
     "deaa64ce1066890a4c9089c03ea36fbe6f83185e9a0ae285e6637ecc68fd8b63", ""),
    ("mackey hom --group cyclic:12 --M fixedpoint:0 --N rep:4 --tsv", 0,
     "0e24fdf59c120eb634d5ee5a3a89f22e7a20264bb763cbc095d51f03fcde577e", ""),
    ("mackey hom --group cyclic:2 --M rep:7 --N burnside", 2, NO_OUTPUT,
     "error: rep index out of range 0..1\n"),
    ("sheaf godement --base spzp:3 --sheaf const:2 --json", 0,
     "5225fc414d37918e63febab41a3ef6b2b30dfd5ec489327bf389163bce642aed", ""),
    ("sheaf godement --sheaf sky:omega:1 --tsv", 0,
     "ad85de6681e699d7213b8580f44e875cb475580b7f6b934590a4fd9b45fc8082", ""),
    ("sheaf godement", 0,
     "57c3a9965710d0879ee7732e2f32486bf9183ab6e9b997b028971ed9d538e2e0", ""),
    ("homdim certify --setup finite:sym:3 --depth 3 --json", 0,
     "175a3c1831547aa4cfab22a83b232143e86c15e2421f5efefbeaa5b59896411e", ""),
    ("homdim certify --setup spzp:3 --depth 4", 0,
     "a391882ff60c62885cad466777916fbeb95be644b434a4d6dadd633d64f7b220", ""),
    ("homdim certify --verify {homdim} --tsv", 0,
     "d1ba2f6a325e022adb3ec05ebb9c41f79a9ccdef57205249ce7fced6347d82b0", ""),
    ("group info --group sym:6 --json", 3, NO_OUTPUT,
     "error: symmetric groups supported up to S5\n"),
    # tower commands, fixed before built-in towers carried their thread lemma
    ("cb rank --tower trivial --depth 0", 0,
     "41d0f5ca06c35d4517a5e9a727295b3fa86c013dfa39680f6ab3d2a5596bbe09", ""),
    ("cb rank --tower trivial --depth 2", 0,
     "6600cb33cf20f2e1200eeaac33d8cc09b3f208a91027274fc335631837ac4d69", ""),
    ("cb rank --tower finite:sym:3 --depth 2 --json", 0,
     "cc2ab54d6297d51f76724fe0586d5ae7f38669b9d4b5405ee0215cf770344466", ""),
    ("cb heights --tower finite:dihedral:8 --depth 2 --json", 0,
     "2249b250f0f2c2bf94d688a20ee8bfc285501b974c2f4916d0949cd648e51988", ""),
    ("cb rank --tower pro_p:2 --depth 0 --json", 0,
     "5713269b56424c391726a18fd558c359713a5d3b8ff5ffc97f6f173ebbeefdf8", ""),
    ("homdim certify --setup finite --json", 0,
     "e8179d531a14542024095369f74759892b4e4b237978175fb47f1950fa7ad3e3", ""),
    ("cb rank --tower pro_p:6 --depth 2", 2, NO_OUTPUT,
     "error: 6 is not prime\n"),
    ("tower show --tower pro_p:1 --depth 2", 2, NO_OUTPUT,
     "error: 1 is not prime\n"),
    ("cb heights --tower pro_p:x --depth 2", 2, NO_OUTPUT,
     "error: expected a prime, got 'x'\n"),
    ("cb rank --tower prod:cyclic:2 --depth 2", 2, NO_OUTPUT,
     "error: expected pro_p:<prime>, got 'cyclic:2'\n"),
    ("tower show --tower prod:pro_p:2,pro_p:2 --depth 1 --json", 2, NO_OUTPUT,
     "error: product families need pairwise distinct primes\n"),
    ("cb rank --tower adic --depth 2", 2, NO_OUTPUT,
     "error: unknown tower family 'adic'\n"),
    ("cb heights --tower finite:nope --depth 1", 2, NO_OUTPUT,
     "error: bad group selector 'nope'\n"),
]


def dicts_in(obj):
    """Every dict in a JSON-like object, nested ones included."""
    if isinstance(obj, dict):
        yield obj
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for x in obj:
            yield from dicts_in(x)


def test_golden_commands_print_their_recorded_stdout(tmp_path, capsys, monkeypatch):
    emitted = []
    emit = cli.emit

    def recording_emit(obj, *rest):
        emitted.append(obj)
        emit(obj, *rest)

    monkeypatch.setattr(cli, "emit", recording_emit)
    files = {"spans": tmp_path / "spans.json", "s3": tmp_path / "s3.json",
             "rank": tmp_path / "rank.json", "homdim": tmp_path / "homdim.json"}
    _write_d8_span_file(files["spans"])
    files["s3"].write_text(json.dumps(group_to_json(relabelled(gr.symmetric(3), 3))))
    certs = {"cb rank --tower pro_p:2 --depth 5 --json": files["rank"],
             "homdim certify --setup finite:sym:3 --depth 3 --json": files["homdim"]}
    for command, code, digest, err in GOLDEN_COMMANDS:
        found = cli.main(command.format(**files).split())
        out, printed = capsys.readouterr()
        if command in certs:
            certs[command].write_text(out)
        assert (found, hashlib.sha256(out.encode()).hexdigest(), printed) == \
            (code, digest, err), command
    # json.dumps sorts keys that are not strings before it writes them as strings
    assert all(isinstance(k, str) for obj in emitted for d in dicts_in(obj) for k in d)


def test_one_process_answers_like_fresh_processes(capsys):
    """main reuses its parser across calls: each command, run after the
    others in this process, gives the exit code, stdout and stderr of a
    fresh interpreter."""
    commands = ["cb rank --tower pro_p:2 --depth 5 --json",
                "cb rank --tower pro_p:2 --depth -1",
                "cb rank --tower nope --depth 2",
                "homdim certify --setup spzp:3 --depth 4"]
    src = os.path.dirname(os.path.dirname(profmack.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PROFMACK_DEPTH"}
    env["PYTHONPATH"] = src
    for command in commands:
        code = cli.main(command.split())
        captured = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "profmack.cli", *command.split()],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (code, captured.out, captured.err) == \
            (proc.returncode, proc.stdout, proc.stderr), command


@pytest.mark.parametrize("argv", [
    "group --json info --group cyclic:2",
    "mackey --json hom --group cyclic:2 --M rep:0 --N burnside",
    "cb --depth 3 rank --tower pro_p:2",
])
def test_an_option_before_its_subcommand_is_a_usage_error(argv, capsys):
    """The common options belong to the subcommands only: one given to the
    command is argparse's usage error, not a value the subcommand's default
    overwrites."""
    code = cli.main(argv.split())
    out, err = capsys.readouterr()
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("usage: profmack") and "error: " in err

def test_profmack_depth_is_read_on_every_call(monkeypatch, capsys):
    for depth in ("3", "4"):
        monkeypatch.setenv("PROFMACK_DEPTH", depth)
        code, out = run(capsys, ["cb", "rank", "--tower", "pro_p:2", "--json"])
        assert code == 0
        assert json.loads(out)["chain"] == f"pro_p:2@depth{depth}"


def test_determinism_across_threads(capsys):
    outs = []
    for n in ("1", "4"):
        code, out = run(capsys, ["cb", "rank", "--tower", "pro_p:2",
                                 "--depth", "6", "--json", "--threads", n,
                                 "--seed", "7"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_package_imports_only_the_standard_library():
    # run in a fresh interpreter, so that modules other tests loaded do not count
    script = (
        "import importlib, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import profmack\n"
        "for m in pkgutil.iter_modules(profmack.__path__):\n"
        "    importlib.import_module('profmack.' + m.name)\n"
        "from profmack import cli\n"
        "assert cli.main(['group', 'info', '--group', 'sym:3']) == 0\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'profmack'}))\n"
    )
    src = os.path.dirname(os.path.dirname(profmack.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def readme_cli_block() -> str:
    """The shell block under the README's "## CLI" heading."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    section = text.split("\n## CLI\n", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0]


def test_readme_cli_block_is_valid_shell_and_parses():
    block = readme_cli_block()
    r = subprocess.run(["bash", "-n"], input=block.encode(), capture_output=True)
    assert r.returncode == 0, r.stderr.decode()
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in lines if argv and argv[0] == "profmack"]
    assert len(commands) >= 10
    for argv in commands:
        cli.build_parser().parse_args(argv[1:])  # a usage error exits 2
