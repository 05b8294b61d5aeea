import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import freegeo
from freegeo import cli, free_space, lp, metric, ssd
from freegeo.cli import main
from freegeo.metric import gallery, line_space, space_to_json_str


@pytest.fixture
def line_file(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(space_to_json_str(line_space([0.0, 1.0, 2.0, 3.0])))
    return str(path)


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(space_to_json_str(gallery("branching_tree", n=3)))
    return str(path)


def _element_file(tmp_path, obj, name="el.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(capsys, line_file):
    code, out = _run(capsys, ["validate", "--space", line_file])
    rep = json.loads(out)
    assert code == 0
    assert rep["outputs"]["ok"] is True
    assert rep["version"]
    assert rep["tolerances"]["tau_lp"] == 1e-9


def test_validate_rejects_broken_metric(capsys, tmp_path):
    bad = {"n": 3, "labels": ["a", "b", "c"],
           "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = _run(capsys, ["validate", "--space", str(path)])
    assert code == 2
    assert json.loads(out)["outputs"]["bad_triples"]


def test_gallery_command(capsys):
    code, out = _run(capsys, ["gallery", "--gallery", "equilateral",
                              "--params", "n=4"])
    rep = json.loads(out)
    assert code == 0
    assert rep["outputs"]["space"]["n"] == 4


def test_norm_tree_leaf_difference(capsys, tmp_path, tree_file):
    el = _element_file(tmp_path, {"masses": [0.0, 1.0, -1.0, 0.0]})
    code, out = _run(capsys, ["norm", "--space", tree_file, "--element", el])
    rep = json.loads(out)
    assert code == 0
    assert rep["outputs"]["value"] == pytest.approx(2.0, abs=1e-9)


def test_represent_solves_the_norm_once(capsys, tmp_path, line_file,
                                       monkeypatch):
    calls = []
    lp_solve = free_space.solve

    def counted(*args, **kwargs):
        calls.append(args)
        return lp_solve(*args, **kwargs)

    el = _element_file(tmp_path, {"masses": [0.0, 0.5, -1.0, 0.5]})
    argv = ["represent", "--space", line_file, "--element", el]
    code, out = _run(capsys, argv)
    monkeypatch.setattr(free_space, "solve", counted)
    assert _run(capsys, argv) == (code, out)
    assert len(calls) == 1
    assert code == 0


def test_represent_resums(capsys, tmp_path, line_file):
    el = _element_file(tmp_path, {"masses": [0.0, 0.0, 1.0, -1.0]})
    code, out = _run(capsys, ["represent", "--space", line_file,
                              "--element", el])
    rep = json.loads(out)
    assert code == 0
    assert rep["outputs"]["weight_sum"] == pytest.approx(
        rep["outputs"]["norm"], abs=1e-9)


def test_classify_pair_aligned(capsys):
    code, out = _run(capsys, ["classify-pair", "--gallery",
                              "three_point_aligned", "--pair", "1,2"])
    rep = json.loads(out)
    assert code == 0
    assert rep["outputs"]["has_gromov_gap"] is False
    assert rep["outputs"]["eta"] == 0.0


def test_classify_space(capsys):
    code, out = _run(capsys, ["classify-space", "--gallery", "equilateral",
                              "--params", "n=4"])
    rep = json.loads(out)
    assert code == 0
    assert rep["outputs"]["luna"] is True


def test_family_trend_csv(capsys):
    code, out = _run(capsys, ["family-trend", "--gallery", "rotund_no_gap",
                              "--indices", "1-3", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,eta,delta_rotund"
    assert len(lines) == 4
    assert lines[1].endswith("0.5")


def test_modulus_requires_seed(capsys, tmp_path, line_file):
    el = _element_file(tmp_path, {"molecules": [[1.0, 1, 0]]})
    code, _ = _run(capsys, ["modulus", "--space", line_file,
                            "--element", el, "--eta-grid", "0.1"])
    assert code == 1


def test_modulus_deterministic(tmp_path, line_file):
    el = _element_file(tmp_path, {"molecules": [[1.0, 1, 0]]})
    outs = []
    for name in ("a.json", "b.json"):
        target = tmp_path / name
        code = main(["modulus", "--space", line_file, "--element", el,
                     "--eta-grid", "0.1,0.01", "--samples", "8",
                     "--seed", "42", "--out", str(target)])
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


def test_perturb_line_certified(capsys, tmp_path, line_file):
    el = _element_file(tmp_path, {"molecules": [[1.0, 1, 0]]})
    code, out = _run(capsys, ["perturb", "--space", line_file,
                              "--element", el, "--gamma", "1",
                              "--epsilon", "0.04"])
    rep = json.loads(out)
    assert code == 0
    assert rep["outputs"]["status"] == "certified"
    assert rep["outputs"]["bound"] == pytest.approx(0.44)


@pytest.mark.parametrize("space,x", [
    (line_space([0.0, 1.0, 2.0, 3.0]), 1), (gallery("branching_tree", n=3), 2),
    (gallery("branching_tree", n=4), 4)])
def test_perturb_projection_margin_is_epsilon(capsys, tmp_path, space, x):
    # h / ||h|| restricted to the support lies on the face: its projection
    # distance is 0, and the margin is eps exactly (it read 0.04 + 5.55e-17
    # when the face LP's t ended below its bound 0)
    path = tmp_path / "space.json"
    path.write_text(space_to_json_str(space))
    el = _element_file(tmp_path, {"molecules": [[1.0, x, 0]]})
    code, out = _run(capsys, ["perturb", "--space", str(path), "--element",
                              el, "--gamma", "2", "--epsilon", "0.04"])
    assert code == 0
    checks = {c["name"]: c["margin"]
              for c in json.loads(out)["outputs"]["verified"]}
    assert checks["face_projection_within_eps"] == 0.04


def test_perturb_eps_too_large_exits_2(capsys, tmp_path, line_file):
    el = _element_file(tmp_path, {"molecules": [[1.0, 1, 0]]})
    code, out = _run(capsys, ["perturb", "--space", line_file,
                              "--element", el, "--gamma", "1",
                              "--epsilon", "0.9"])
    assert code == 2
    assert json.loads(out)["outputs"]["status"] == "precondition_failed"


def test_perturb_single(capsys):
    code, out = _run(capsys, ["perturb-single", "--gallery", "equilateral",
                              "--params", "n=3", "--pair", "1,2",
                              "--epsilon", "0.1"])
    rep = json.loads(out)
    assert code == 0
    assert rep["outputs"]["distance"] <= rep["outputs"]["bound"] + 1e-9


def test_certify_almost_aligned(capsys):
    code, out = _run(capsys, ["certify-almost-aligned", "--epsilon", "0.1",
                              "--index", "12"])
    rep = json.loads(out)
    assert code == 0
    assert rep["outputs"]["n0"] == 4
    assert rep["outputs"]["distance"] <= 0.4 + 1e-8


@pytest.mark.parametrize("eps", ["nan", "inf", "0"])
def test_certify_almost_aligned_rejects_bad_epsilon(capsys, eps):
    # nan named the wrong cause and inf exited 0 with a vacuous certificate
    code, out, err = _run_err(capsys, ["certify-almost-aligned", "--index",
                                       "12", "--epsilon", eps])
    _assert_error_line((code, out, err), code=2)
    assert "eps must be positive and finite" in err


def test_distort(capsys, tree_file):
    code, out = _run(capsys, ["distort", "--space", tree_file,
                              "--gamma", "0.5"])
    rep = json.loads(out)
    assert code == 0
    assert rep["outputs"]["distortion"] == 1.5


def test_missing_space_is_usage_error(capsys):
    code, _ = _run(capsys, ["validate"])
    assert code == 1


def test_unknown_gallery_is_exit_2(capsys):
    code, _ = _run(capsys, ["validate", "--gallery", "nonexistent"])
    assert code == 2


def test_family_needs_index_for_space_commands(capsys):
    code, out = _run(capsys, ["classify-space", "--gallery",
                              "almost_aligned", "--index", "3"])
    rep = json.loads(out)
    assert code == 0
    # interior points of the truncation are aligned through the base
    assert rep["outputs"]["luna"] is False
    assert rep["outputs"]["min_eta"] == 0.0


# ---------------------------------------------------------------------------
# malformed input ends in an error line, never a traceback
# ---------------------------------------------------------------------------

def _run_err(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_error_line(result, code=1):
    got, out, err = result
    assert got == code
    assert out == ""
    assert err.startswith("error: ")


def test_modulus_negative_seed_is_usage_error(capsys, tmp_path, line_file):
    # numpy's generator rejected it with a traceback
    el = _element_file(tmp_path, {"molecules": [[1.0, 1, 0]]})
    _assert_error_line(_run_err(capsys, [
        "modulus", "--space", line_file, "--element", el,
        "--eta-grid", "0.1", "--seed", "-1"]))


@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_distort_rejects_non_finite_gamma(capsys, tree_file, gamma):
    # nan printed a NaN distortion and exited 0
    _assert_error_line(_run_err(capsys, [
        "distort", "--space", tree_file, "--gamma", gamma]), code=2)


def test_perturb_rejects_infinite_gamma(capsys, tmp_path, line_file):
    # inf fattened every distance to inf, and the run ended in "the zero
    # element has no representation"
    el = _element_file(tmp_path, {"molecules": [[1.0, 1, 0]]})
    result = _run_err(capsys, ["perturb", "--space", line_file,
                               "--element", el, "--gamma", "inf",
                               "--epsilon", "0.04"])
    _assert_error_line(result, code=2)
    assert result[2] == "error: gamma must be positive and finite\n"


def test_norm_molecule_index_out_of_range(capsys, tmp_path):
    path = tmp_path / "three.json"
    path.write_text(space_to_json_str(gallery("equilateral", n=3)))
    el = _element_file(tmp_path, {"molecules": [[1.0, 7, 0]]})
    _assert_error_line(_run_err(capsys, ["norm", "--space", str(path),
                                         "--element", el]))


@pytest.mark.parametrize("index", [1.5, True], ids=["fraction", "bool"])
def test_norm_molecule_index_must_be_an_integer(capsys, tmp_path, index):
    # int() read 1.5 as 1 and true as 1, and norm exited 0
    path = tmp_path / "two.json"
    path.write_text('{"dist": [[0, 1], [1, 0]]}')
    el = _element_file(tmp_path, {"molecules": [[1.0, index, 0]]})
    result = _run_err(capsys, ["norm", "--space", str(path),
                               "--element", el])
    _assert_error_line(result)
    assert result[2].startswith("error: malformed element file: ")


@pytest.mark.parametrize("space", [
    '{"dist": [[0, 1, 2], [1, 0, 1]]}',
    '{"labels": ["a"], "dist": [[0, 1], [1, 0]]}',
    '{"n": 3, "dist": [[0, 1], [1, 0]]}',
], ids=["rectangular", "label-count", "n-disagrees"])
@pytest.mark.parametrize("command", ["validate", "norm"])
def test_malformed_space_shape_is_a_usage_error(capsys, tmp_path, space,
                                                command):
    # these exited 2, the code of a space that is not a metric
    (tmp_path / "space.json").write_text(space)
    argv = [command, "--space", str(tmp_path / "space.json")]
    if command == "norm":
        argv += ["--element", _element_file(tmp_path, {"masses": [0, 1]})]
    result = _run_err(capsys, argv)
    _assert_error_line(result)
    assert result[2].startswith("error: malformed space file: ")


def test_violated_triangle_inequality_still_exits_2(capsys, tmp_path):
    (tmp_path / "space.json").write_text(
        '{"dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}')
    el = _element_file(tmp_path, {"masses": [0, 1, -1]})
    result = _run_err(capsys, ["norm", "--space", str(tmp_path / "space.json"),
                               "--element", el])
    _assert_error_line(result, code=2)
    assert result[2].startswith("error: not a metric space: ")


_LINE3 = '{"dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}'
_EQUILATERAL3 = '{"dist": [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]]}'
# the start of an ELF executable's header: not UTF-8 from byte 24 on
_ELF = (b"\x7fELF\x02\x01\x01\x00" + bytes(8)
        + b"\x03\x00>\x00\x01\x00\x00\x00\xd0\x6b\x00\x00" + bytes(4))


@pytest.mark.parametrize("space,element,code", [
    ('{"dist": [[0, 1e400], [1e400, 0]]}', '{"masses": [0, 1]}', 2),
    ('{"dist": [[0, "a"], ["a", 0]]}', '{"masses": [0, 1]}', 1),
    ('{"dist": [[0, 1], [1]]}', '{"masses": [0, 1]}', 1),
    ('[[0, 1], [1, 0]]', '{"masses": [0, 1]}', 1),
    ('{"n": 2}', '{"masses": [0, 1]}', 1),
    (_LINE3, '{"masses": [0, NaN, 0]}', 1),
    (_LINE3, '{"masses": [0, Infinity, 0]}', 1),
    (_LINE3, '{"masses": [0, -Infinity, 1]}', 1),
    (_LINE3, '{"masses": [0, 1e308, 1e308]}', 1),
    (_LINE3, '{"molecules": [[NaN, 1, 0]]}', 1),
    (_LINE3, '{"masses": [0, Infinity, -Infinity]}', 1),
    (_EQUILATERAL3, '{"molecules": [[1e308, 1, 2], [1e308, 2, 1]]}', 1),
    (_EQUILATERAL3, '{"molecules": [[1e308, 1, 2]]}', 1),
    (_ELF, '{"masses": [0, 1]}', 1),
    (_LINE3, _ELF, 1),
    (_LINE3, b'{"masses": [0, 1, "\xff"]}', 1),
    (b"[" * 100000, '{"masses": [0, 1]}', 1),
], ids=["inf", "non-numeric", "ragged", "top-level-list",
        "no-dist", "nan-mass", "inf-mass", "minus-inf-mass",
        "overflowing-base-mass", "nan-weight", "opposite-inf-masses",
        "opposite-overflowing-molecules", "overflowing-molecule",
        "binary-space", "binary-element", "non-utf8-element",
        "deeply-nested-space"])
@pytest.mark.filterwarnings("error")
def test_malformed_files_end_in_one_error_line(capsys, tmp_path, space,
                                               element, code):
    # infinite distances passed validation, then the norm LP failed on
    # NaN data; the other space files ended in a traceback; non-finite
    # masses ended in a solver error, or a warning and an LP failure;
    # opposite infinite masses, and molecules whose masses overflow, warned
    # before the error line.  Bytes that are not UTF-8 ended in a
    # UnicodeDecodeError traceback, and nesting deeper than the decoder's
    # recursion limit in a RecursionError one
    for name, text in (("space.json", space), ("el.json", element)):
        path = tmp_path / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
    got, out, err = _run_err(capsys, [
        "norm", "--space", str(tmp_path / "space.json"),
        "--element", str(tmp_path / "el.json")])
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("data", [_ELF, b'{"dist": ', b"[" * 100000],
                         ids=["binary", "truncated", "deeply-nested"])
@pytest.mark.parametrize("option", ["space", "element"])
def test_undecodable_file_is_malformed(capsys, tmp_path, option, data):
    # a JSON syntax error printed the decoder's message alone, and the
    # other two ended in a traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    if option == "space":
        argv = ["--space", str(bad),
                "--element", _element_file(tmp_path, {"masses": [0, 1]})]
    else:
        argv = ["--gallery", "line", "--params", "n=4", "--element", str(bad)]
    result = _run_err(capsys, ["norm", *argv])
    _assert_error_line(result)
    assert result[2].startswith(f"error: malformed {option} file: ")
    assert result[2].count("\n") == 1


def test_classify_pair_non_numeric(capsys):
    _assert_error_line(_run_err(capsys, [
        "classify-pair", "--gallery", "line", "--params", "n=4",
        "--pair", "a,b"]))


def test_classify_pair_out_of_range(capsys):
    _assert_error_line(_run_err(capsys, [
        "classify-pair", "--gallery", "line", "--params", "n=4",
        "--pair", "1,9"]))


def test_params_non_numeric(capsys):
    _assert_error_line(_run_err(capsys, [
        "classify-space", "--gallery", "equilateral", "--params", "n=x"]))


@pytest.mark.parametrize("params", [
    "n=nan", "n=inf", "n=1e400", "level=inf", "n=4,scale=inf",
    "n=4,scale=-inf"])
def test_params_non_finite_is_usage_error(capsys, params):
    # int() raised ValueError or OverflowError with a traceback, and
    # equilateral took scale=inf
    name = "cantor" if params.startswith("level") else "equilateral"
    code, out, err = _run_err(capsys, ["classify-space", "--gallery", name,
                                       "--params", params])
    _assert_error_line((code, out, err))
    assert "must be finite" in err


@pytest.mark.parametrize("name,params", [
    ("equilateral", "n=2.7"), ("line", "n=4.5"), ("cantor", "level=1.5")])
def test_params_non_integral_size_is_rejected(capsys, name, params):
    # n=2.7 was silently truncated to n=2
    code, out, err = _run_err(capsys, ["classify-space", "--gallery", name,
                                       "--params", params])
    _assert_error_line((code, out, err), code=2)
    assert "must be an integer" in err


@pytest.mark.parametrize("argv,key", [
    (["gallery", "--gallery", "line", "--params", "m=3"], "m"),
    (["classify-space", "--gallery", "equilateral", "--params",
      "n=4,size=2"], "size"),
    (["family-trend", "--gallery", "almost_aligned", "--params", "n=3",
      "--indices", "1-3"], "n")])
def test_params_unknown_key_is_exit_2(capsys, argv, key):
    # unknown keys were ignored: line with m=3 printed the default 4-point
    # line, echoed the params and exited 0
    code, out, err = _run_err(capsys, argv)
    _assert_error_line((code, out, err), code=2)
    assert f"takes no parameter {key!r}" in err


@pytest.mark.parametrize("indices", ["5-1", "2-1"])
def test_family_trend_reversed_range_is_usage_error(capsys, indices):
    # a reversed range gave an empty list of rows and exit 0
    code, out, err = _run_err(capsys, ["family-trend", "--gallery",
                                       "almost_aligned", "--indices",
                                       indices])
    _assert_error_line((code, out, err))
    assert f"--indices range {indices} is empty" in err


CAP = metric.MAX_GALLERY_POINTS
TOP = metric.MAX_FAMILY_INDEX


@pytest.mark.parametrize("argv,code,says", [
    (["gallery", "--gallery", "line", "--params", f"n={CAP + 1}"], 2,
     "need 2 <= n <= 1024"),
    (["gallery", "--gallery", "equilateral", "--params", f"n={CAP + 1}"], 2,
     "need 2 <= n <= 1024 and a positive finite scale"),
    (["gallery", "--gallery", "branching_tree", "--params", f"n={CAP}"], 2,
     "need 1 to 1023 leaves"),
    (["gallery", "--gallery", "cantor", "--params", "level=10"], 2,
     "need 0 <= level <= 9"),
    (["classify-space", "--gallery", "almost_aligned", "--index",
      str(TOP + 1)], 2, f"family index {TOP + 1} is above the cap"),
    (["certify-almost-aligned", "--index", str(TOP + 1), "--epsilon", "0.1"],
     2, f"family index {TOP + 1} is above the cap"),
    (["family-trend", "--gallery", "rotund_no_gap", "--indices",
      f"1-{TOP + 1}"], 1, f"--indices value {TOP + 1} is above the cap"),
    (["family-trend", "--gallery", "almost_aligned", "--indices",
      f"3,{TOP + 1},2"], 1, f"--indices value {TOP + 1} is above the cap"),
])
def test_oversized_gallery_request_fails_before_allocating(
        capsys, argv, code, says):
    # each of these grew until numpy or the machine gave up; just above the
    # cap each would still allocate at least one 8 MB matrix
    tracemalloc.start()
    try:
        result = _run_err(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_error_line(result, code=code)
    assert says in result[2] and result[2].count("\n") == 1
    assert peak < 2 ** 20


@pytest.mark.parametrize("argv", [
    ["norm", "--gallery", "line", "--params", f"n={CAP}"],
    ["certify-almost-aligned", "--index", str(TOP), "--epsilon", "0.1"]])
def test_ball_lp_above_its_cap_fails_before_allocating(capsys, tmp_path,
                                                        argv):
    # inside the gallery caps, the rows of a 1024-point ball LP asked numpy
    # for 4 GiB and ended in its memory error; only the space and the
    # element are allocated now
    if argv[0] == "norm":
        masses = [1.0] + [0.0] * (CAP - 2) + [-1.0]
        argv = argv + ["--element", _element_file(tmp_path,
                                                  {"masses": masses})]
    tracemalloc.start()
    try:
        result = _run_err(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_error_line(result, code=2)
    assert result[2] == (f"error: a Lipschitz-ball LP takes at most "
                         f"{free_space.MAX_BALL_POINTS} points, not {CAP}\n")
    assert peak < 2 ** 26


def test_modulus_samples_above_cap_is_usage_error(capsys, monkeypatch,
                                                  tmp_path, line_file):
    monkeypatch.setattr(cli, "exposedness_probe", None)
    el = _element_file(tmp_path, {"molecules": [[1.0, 1, 0]]})
    code, out, err = _run_err(capsys, [
        "modulus", "--space", line_file, "--element", el, "--eta-grid",
        "0.1", "--seed", "3", "--samples", str(cli._MAX_SAMPLES + 1)])
    _assert_error_line((code, out, err))
    assert f"at most {cli._MAX_SAMPLES}" in err


def test_invalid_command_lists_the_commands_in_order(capsys):
    # the parser's choices come from _COMMANDS, in its order
    code, out, err = _run_err(capsys, ["no-such-command"])
    assert code == 1
    assert err == ("error: argument command: invalid choice: "
                   "'no-such-command' (choose from 'validate', 'gallery', "
                   "'norm', 'represent', 'classify-pair', 'classify-space', "
                   "'family-trend', 'modulus', 'perturb', 'perturb-single', "
                   "'certify-almost-aligned', 'distort')\n")


def test_modulus_zero_samples_is_usage_error(capsys, tmp_path, line_file):
    # exited 2 through the library's check, unlike --seed -1
    el = _element_file(tmp_path, {"molecules": [[1.0, 1, 0]]})
    code, out, err = _run_err(capsys, [
        "modulus", "--space", line_file, "--element", el, "--eta-grid",
        "0.1", "--seed", "3", "--samples", "0"])
    _assert_error_line((code, out, err))
    assert "--samples must be at least 1" in err


@pytest.mark.parametrize("argv,says", [
    (["classify-space", "--index", "x"], "invalid int value"),
    (["no-such-command"], "invalid choice"),
    (["family-trend", "--gallery", "almost_aligned", "--indices", "-3-1"],
     "expected one argument"),
    (["validate", "--bogus"], "unrecognized arguments"),
    ([], "required"),
])
def test_argparse_errors_are_usage_errors(capsys, argv, says):
    # argparse printed its usage and exited 2, through SystemExit
    code, out, err = _run_err(capsys, argv)
    _assert_error_line((code, out, err))
    assert says in err and err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: freegeo")


def test_tolerance_env_non_numeric(capsys, monkeypatch):
    monkeypatch.setenv("FREEGEO_TOL", "abc")
    _assert_error_line(_run_err(capsys, [
        "classify-space", "--gallery", "equilateral", "--params", "n=4"]))


def test_family_trend_almost_aligned_to_30(capsys):
    code, out = _run(capsys, ["family-trend", "--gallery", "almost_aligned",
                              "--indices", "1-30"])
    assert code == 0
    rows = json.loads(out)["outputs"]["rows"]
    assert rows[-1]["index"] == 30
    assert rows[-1]["eta"] == 2.0 ** -30


def test_parser_reused_across_calls(capsys, tmp_path, line_file):
    # the parser is built once per process; no call may leak into the next
    el = _element_file(tmp_path, {"molecules": [[1.0, 1, 0]]})
    probe = ["modulus", "--space", line_file, "--element", el,
             "--eta-grid", "0.1", "--seed", "3"]
    code, out = _run(capsys, probe + ["--samples", "4", "--format", "csv"])
    assert code == 0
    assert out.startswith("eta,worst_dist,samples\n")
    assert out.strip().endswith(",4")
    code, out = _run(capsys, probe)
    assert code == 0
    rep = json.loads(out)
    assert rep["inputs"]["samples"] == 32
    assert rep["outputs"]["entries"][0][2] == 32
    result = _run_err(capsys, ["modulus", "--samples", "many"])
    _assert_error_line(result)
    assert "invalid int value" in result[2]
    argv = ["classify-space", "--gallery", "branching_tree", "--params",
            "n=5"]
    code, out = _run(capsys, argv)
    assert code == 0
    src = os.path.dirname(os.path.dirname(freegeo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    fresh = subprocess.run([sys.executable, "-m", "freegeo.cli", *argv],
                           capture_output=True, env=env, check=True)
    assert fresh.stdout.decode() == out
    assert fresh.stderr == b""


@pytest.mark.parametrize("argv", [
    ["modulus", "--gallery", "branching_tree", "--params", "n=6",
     "--eta-grid", "0.01,0.1", "--samples", "6", "--seed", "4"],
    ["perturb", "--gallery", "branching_tree", "--params", "n=4",
     "--gamma", "1", "--epsilon", "0.04"],
    ["perturb", "--gallery", "branching_tree", "--params", "n=4",
     "--gamma", "1", "--epsilon", "0.9"],
])
def test_output_does_not_depend_on_asserts(tmp_path, argv):
    # python -O strips assert statements; no check may rely on them
    el = _element_file(tmp_path, {"molecules": [[0.5, 1, 0], [0.5, 3, 0]]})
    src = os.path.dirname(os.path.dirname(freegeo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    runs = [subprocess.run([sys.executable, *flags, "-m", "freegeo.cli",
                            *argv, "--element", el],
                           capture_output=True, env=env, timeout=120)
            for flags in ([], ["-O"])]
    assert runs[0].returncode == runs[1].returncode
    assert runs[0].returncode in (0, 2)
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout
    assert runs[0].stderr == runs[1].stderr == b""


# ---------------------------------------------------------------------------
# report emission: cli._dumps against json.dumps
# ---------------------------------------------------------------------------

def _json_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True)


def _outcome(fn, obj):
    """The text fn returns, or the type and text of the error it raises."""
    try:
        return fn(obj)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                     5e-324, -2.5e-310, 1e16, -1e16, 1e300]))
_INTS = st.one_of(st.integers(), st.booleans(),
                  st.integers(min_value=2 ** 63, max_value=2 ** 200),
                  st.integers(min_value=-2 ** 200, max_value=-2 ** 63))
_TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from([", ", "a, b", '"quoted"', "back\\slash", "[1, 2]",
                     "{}", "\u00e9t\u00e9 \u2713 \U0001d53d", "\x00\n\t"]))
_LEAVES = st.one_of(_FLOATS, _INTS, st.none(), _TEXT)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        # lists of numbers alone, the C encoder's share, bools included
        st.lists(st.one_of(_FLOATS, _INTS), max_size=8),
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_VALUES)
def test_dumps_is_json_dumps(obj):
    assert cli._dumps(obj) == _json_dumps(obj)


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[], [{}], ()],
    [np.float64(0.1), 2.0], {"x": np.float64(-0.0)},
    {"x": [1, np.float64(np.nan)], "y": [np.float64(np.inf)]},
    [np.int64(3)], {"x": np.int64(3)}, [1.0, np.int64(3)], [[np.int64(1)]],
    {1: "a"}, {None: 1}, {1.5: [1, 2]}, {True: 0}, {"b": 1, 2: 0},
    {2: 0, 1: [0.5]}, {"a": {3: 1}}, {"a": {1: "x", "y": 2}},
    {"a": object()},
])
def test_dumps_fixed_cases(obj):
    assert _outcome(cli._dumps, obj) == _outcome(_json_dumps, obj)


# ---------------------------------------------------------------------------
# perturb: the norm LP of the requested element is solved once
# ---------------------------------------------------------------------------

def _cold_solves(monkeypatch):
    calls = []
    solve_cold = lp._solve_cold

    def counting(*args):
        calls.append(None)
        return solve_cold(*args)

    monkeypatch.setattr(lp, "_solve_cold", counting)
    return calls


def _perturb_with_own_norm_lp(space, mu, gamma, eps):
    """The perturb command's steps with g from a norm LP of its own on the
    normalized representation, whatever its masses."""
    comb = free_space.optimal_representation(mu)
    total = comb.weight_sum()
    comb = free_space.MoleculeCombination(
        mu.space, tuple((lam / total, x, y) for lam, x, y in comb.terms))
    f = ssd.find_common_norming(
        space, free_space.MoleculeCombination(space, comb.terms))
    g = free_space.norming_functional(comb.element())
    return ssd.perturbation_pipeline(space, gamma, comb, f, g, eps)


@pytest.mark.parametrize("molecules, reused", [
    ([[1.0, 3, 0]], True), ([[1.0, 1, 0]], True), ([[1.0, 2, 4]], True),
    ([[2.0, 1, 0]], False), ([[0.75, 1, 0], [0.5, 3, 0]], False)])
def test_perturb_reuses_the_norm_lp_of_mu(capsys, tmp_path, monkeypatch,
                                          molecules, reused):
    space = gallery("branching_tree", n=4)
    gamma, eps = 2.0, 0.04
    mu = free_space.element_from_json(metric.gamma_fatten(space, gamma),
                                      {"molecules": molecules})
    cold = _cold_solves(monkeypatch)
    res = _perturb_with_own_norm_lp(space, mu, gamma, eps)
    own = len(cold)
    cold.clear()
    norming = []
    monkeypatch.setattr(cli, "norming_functional",
                        lambda nu: norming.append(nu)
                        or free_space.norming_functional(nu))
    el = _element_file(tmp_path, {"molecules": molecules})
    code, out = _run(capsys, ["perturb", "--gallery", "branching_tree",
                              "--params", "n=4", "--element", el,
                              "--gamma", "2", "--epsilon", "0.04"])
    assert res.status == ssd.CERTIFIED and code == 0
    # one norm LP fewer exactly when the normalized masses are mu's bits
    assert len(cold) == own - reused
    assert len(norming) == (not reused)
    for nu in norming:
        assert nu.masses.tobytes() != mu.masses.tobytes()
    # the report is the one built with g from its own norm LP
    rep = json.loads(out)
    want = dict(rep, outputs=res.to_json())
    assert out == _json_dumps(want) + "\n"
