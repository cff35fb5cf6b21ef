import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import nildist
from nildist import cli
from nildist.cli import _indented_json, build_parser, main
from nildist.magnus import embed, multiply
from nildist.presentation import Presentation
from nildist.subgroups import decide_undistorted
from nildist.words import parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf(capsys):
    code, out, err = run(capsys, "nf", "-m", "2", "-c", "2", "[a,b]^2 [b,a]")
    assert code == 0
    assert out == "normal form: [a,b]\ncoordinates: (0, 0, -1)\n"
    assert err == ""


def test_nf_identity(capsys):
    code, out, _ = run(capsys, "nf", "-m", "2", "-c", "2", "a a^-1")
    assert code == 0
    assert out == "normal form: 1\ncoordinates: (0, 0, 0)\n"


def test_nf_json(capsys):
    code, out, _ = run(
        capsys, "nf", "-m", "2", "-c", "2", "--format", "json", "a b a^-1"
    )
    assert code == 0
    assert json.loads(out) == {
        "normal_form": "b [a,b]",
        "coordinates": [0, 1, -1],
    }


def test_mul_and_comm(capsys):
    code, out, _ = run(capsys, "mul", "-m", "2", "-c", "2", "a", "a^-1")
    assert code == 0
    assert "normal form: 1" in out

    code, out, _ = run(capsys, "comm", "-m", "2", "-c", "2", "a^3", "b^3")
    assert code == 0
    assert "coordinates: (0, 0, -9)" in out


def test_weight(capsys):
    code, out, _ = run(capsys, "weight", "-m", "2", "-c", "3", "[a,[a,b]]")
    assert code == 0
    assert out == "3\n"

    code, out, _ = run(capsys, "weight", "-m", "2", "-c", "3", "a a^-1")
    assert code == 0
    assert out == "infinity\n"

    code, out, _ = run(
        capsys, "weight", "-m", "2", "-c", "3", "--format", "json", "a a^-1"
    )
    assert code == 0
    assert json.loads(out) == {"weight": None}


def test_nested_powers_are_not_expanded(capsys):
    # the word has 2 * 10^10 letters; in the Heisenberg group
    # (ab)^N = a^N b^N [b,a]^C(N,2)
    n = 10**10
    word = "((a b)^100000)^100000"
    code, out, _ = run(capsys, "nf", "-m", "2", "-c", "2", word)
    assert code == 0
    assert out.endswith(f"coordinates: ({n}, {n}, {n * (n - 1) // 2})\n")

    # the weight <= 2 coordinates are those of the class-2 quotient
    code, out, _ = run(capsys, "coords", "-m", "2", "-c", "7", "--format", "json", word)
    assert code == 0
    coords = json.loads(out)["coordinates"]
    assert len(coords) == 41
    assert coords[:3] == [n, n, n * (n - 1) // 2]


def test_coords(capsys):
    code, out, _ = run(capsys, "coords", "-m", "2", "-c", "2", "a^2 b^-1")
    assert code == 0
    assert out == "(2, -1, 0)\n"


def test_hall(capsys):
    code, out, _ = run(capsys, "hall", "-m", "2", "-c", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines == [
        "0\t1\ta",
        "1\t1\tb",
        "2\t2\t[b,a]",
        "3\t3\t[[b,a],a]",
        "4\t3\t[[b,a],b]",
    ]

    code, out, _ = run(capsys, "hall", "-m", "2", "-c", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [row["commutator"] for row in data] == ["a", "b", "[b,a]"]


def test_analyze_json_default(capsys):
    code, out, _ = run(capsys, "analyze", "-m", "2", "-c", "2", "a^2[a,b]^3")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "undistorted"
    assert data["k"] == 1
    assert data["hirsch"] == {"H": 1, "rH": 1, "F": 3}
    assert data["finite_index"] is False
    assert data["cyclic_exponent"] == 1
    assert data["retract"] == {"kept": ["a"], "killed": ["b"]}
    assert data["kernel_witness"] is None


def test_analyze_distorted(capsys):
    code, out, _ = run(capsys, "analyze", "-m", "2", "-c", "2", "[a,b]")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "distorted"
    assert data["cyclic_exponent"] == 2
    assert data["kernel_witness"]["weight"] == 2

    code, out, _ = run(
        capsys, "analyze", "-m", "2", "-c", "2", "--format", "text", "[a,b]"
    )
    assert code == 0
    assert "verdict: distorted" in out
    assert "cyclic exponent: 2" in out


def test_analyze_multiple_generators(capsys):
    code, out, _ = run(capsys, "analyze", "-m", "2", "-c", "2", "a^2", "b", "[a,b]")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "undistorted"
    assert data["finite_index"] is True


def test_exponent(capsys):
    code, out, _ = run(capsys, "exponent", "-m", "2", "-c", "2", "[a,b]")
    assert code == 0
    assert out == "2\n"


def test_measure_csv_default(capsys):
    code, out, _ = run(
        capsys, "measure", "-m", "2", "-c", "2", "--radius", "5", "[a,b]"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,delta,exact"
    assert lines[1:] == [
        "1,0,true",
        "2,0,true",
        "3,0,true",
        "4,1,true",
        "5,1,true",
    ]


def test_measure_json(capsys):
    code, out, _ = run(
        capsys,
        "measure", "-m", "2", "-c", "2", "--radius", "3", "--format", "json", "a", "b",
    )
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == [
        {"n": 1, "delta": 1, "exact": True},
        {"n": 2, "delta": 2, "exact": True},
        {"n": 3, "delta": 3, "exact": True},
    ]


def test_seed_flag_is_rejected(capsys):
    code, out, _ = run(capsys, "nf", "-m", "2", "-c", "2", "--seed", "7", "a")
    assert code == 1
    assert out == ""


def test_output_is_deterministic(capsys):
    first = run(capsys, "analyze", "-m", "2", "-c", "3", "a", "[a,b]")
    second = run(capsys, "analyze", "-m", "2", "-c", "3", "a", "[a,b]")
    assert first == second


def test_usage_errors_exit_1(capsys):
    code, _, err = run(capsys, "nf", "-m", "2", "-c", "2", "[a")
    assert code == 1
    assert "error" in err

    code, _, err = run(capsys, "nf", "-m", "2", "-c", "2", "z")
    assert code == 1
    assert "unknown generator" in err

    code, _, err = run(capsys, "nf", "-m", "2", "-c", "2", "a^")
    assert code == 1
    assert "position" in err

    # non-ASCII digits are syntax errors, not int() messages or a^3
    for command, word in (("analyze", "a^²"), ("nf", "a^٣")):
        code, out, err = run(capsys, command, "-m", "2", "-c", "2", word)
        assert (code, out) == (1, "")
        assert "unexpected character" in err and "(at position 2)" in err

    code, _, err = run(capsys)
    assert code == 1

    code, _, err = run(capsys, "nf", "-m", "2", "-c", "2", "--format", "csv", "a")
    assert code == 1
    assert "not supported" in err

    code, _, err = run(capsys, "analyze", "-m", "2", "-c", "2")
    assert code == 1

    code, _, err = run(capsys, "exponent", "-m", "2", "-c", "2", "a a^-1")
    assert code == 1

    # the input checks' ValueErrors are refusals too
    for argv, message in (
        (("nf", "-m", "0", "-c", "2", "a"), "rank must be a positive integer, got 0"),
        (("measure", "-m", "2", "-c", "2", "--radius", "-1", "a"),
         "radius must be nonnegative"),
        (("measure", "-m", "2", "-c", "2", "--max-elements", "0", "a"),
         "max_elements must be at least 1"),
        (("measure", "-m", "2", "-c", "2", "--max-elements", "-5", "a"),
         "max_elements must be at least 1"),
        (("exponent", "-m", "2", "-c", "2", "1"),
         "the trivial element generates no cyclic subgroup"),
        (("nf", "-m", "2", "-c", "2", "a^" + "1" * 5000),
         "integer of 5000 digits exceeds the limit 1000000 (at position 2)"),
    ):
        assert run(capsys, *argv) == (1, "", f"nildist: error: {message}\n")


def test_a_value_error_inside_the_kernel_exits_3(capsys, monkeypatch):
    # a product across presentations raises the kernel's own ValueError,
    # which no input can reach: a fault, not a usage error
    elsewhere = embed(((0, 1),), Presentation(3, 2))
    monkeypatch.setattr(cli, "multiply", lambda g, h: multiply(g, elsewhere))
    assert run(capsys, "mul", "-m", "2", "-c", "2", "a", "b") == (
        3,
        "",
        "nildist: internal inconsistency: "
        "elements live in different presentations\n",
    )


def test_cap_exceeded_exits_2(capsys):
    code, _, err = run(capsys, "hall", "-m", "3", "-c", "9")
    assert code == 2
    assert "cap exceeded" in err

    code, _, err = run(capsys, "nf", "-m", "2", "-c", "2", "--max-hirsch", "2", "a")
    assert code == 2

    # the Witt sum stops at the cap, so a huge class is refused at once
    start = time.perf_counter()
    result = run(capsys, "nf", "-m", "2", "-c", "100000", "a")
    assert time.perf_counter() - start < 1
    assert result == (
        2,
        "",
        "nildist: cap exceeded: Hirsch length for rank 2, class 100000 "
        "exceeds the cap 60\n",
    )


def test_bad_presentation_exits_1(capsys):
    code, _, err = run(capsys, "nf", "-m", "0", "-c", "2", "a")
    assert code == 1


def test_parser_is_built_once_and_reused(capsys):
    calls = [
        ("analyze", "-m", "2", "-c", "2", "a", "[a,b]"),
        ("nf", "-m", "2", "-c", "3", "--format", "json", "a b a^-1"),
        ("nf", "-m", "2", "-c", "2", "--format", "csv", "a"),  # usage error
        ("analyze", "-m", "2", "-c", "2", "--format", "text", "a", "[a,b]"),
        ("measure", "-m", "2", "-c", "2", "--radius", "4", "[a,b]"),
        ("exponent", "-m", "2", "-c", "3", "[a,[a,b]]"),
        ("coords", "-m", "2", "-c", "2", "a^2 b^-1"),
        ("hall", "-m", "2", "-c", "3", "--format", "json"),
    ]
    build_parser.cache_clear()
    reused = [run(capsys, *argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    for argv, result in zip(calls, reused):
        build_parser.cache_clear()
        assert run(capsys, *argv) == result


COMMANDS = ("nf", "mul", "comm", "weight", "coords", "hall", "analyze", "exponent", "measure")


def run_or_exit(capsys, argv):
    """(exit code, stdout, stderr) of main(argv); -h exits through SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dispatch_matches_the_full_parser(capsys, monkeypatch):
    # a first argument that names a command skips the top-level parser; every
    # other call, and every message, is the full parser's
    argvs = [
        (),
        ("-h",),
        ("bogus", "-m", "2", "-c", "2", "a"),
        *((command, "-h") for command in COMMANDS),
        ("analyze", "-c", "2", "a"),
        ("analyze", "-m", "2", "-c", "2", "--bogus", "a"),
        ("analyze", "-m", "2", "-c", "2", "--format", "csv", "a"),
        ("analyze", "-m", "2", "-c", "2", "[a"),
        ("analyze", "-m", "3", "-c", "9", "a"),
        ("analyze", "-m", "2", "-c", "3", "--format", "text", "a", "[a,b]"),
        ("measure", "-m", "2", "-c", "2", "[a,b]", "--radius", "3"),
    ]
    dispatched = [run_or_exit(capsys, argv) for argv in argvs]
    monkeypatch.setattr(build_parser(), "commands", {})
    full = [run_or_exit(capsys, argv) for argv in argvs]
    assert dispatched == full
    codes = [code for code, _, _ in full]
    assert codes[:3] == [1, ("exit", 0), 1]
    assert codes[3 : 3 + len(COMMANDS)] == [("exit", 0)] * len(COMMANDS)
    assert codes[3 + len(COMMANDS) :] == [1, 1, 1, 1, 2, 0, 0]


def test_indented_json_is_json_dumps_byte_for_byte():
    p = Presentation(2, 2)
    # trivial, k = 0, distorted with a witness, undistorted with a retract
    reports = [
        decide_undistorted([parse(t, p) for t in texts], p).json_dict()
        for texts in (["a a^-1"], ["[a,b]"], ["a", "[a,b]"], ["a^2[a,b]^3"])
    ]
    assert [r["verdict"] for r in reports] == [
        "trivial", "distorted", "distorted", "undistorted"
    ]
    assert reports[1]["k"] == 0 and reports[2]["kernel_witness"] is not None
    assert reports[3]["retract"] is not None
    nested = {
        "z": [True, False, None, -7, 0, 10**30, "", 'q"\u00e9\n'],
        "a": {"y": [[], {}, [[None]], {"k": {"n": -1}}], "x": {"b": True}},
        "m": [],
        "e": {},
    }
    for value in (*reports, nested, [], {}, "s", -3, None, False):
        assert _indented_json(value) == json.dumps(value, indent=2, sort_keys=True)


def run_limited(*argv, megabytes=256):
    """The CLI in a fresh process whose address space is capped, at 256 MB
    unless told otherwise."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))

    env = dict(os.environ, PYTHONPATH=str(Path(nildist.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "nildist.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        preexec_fn=limit,
        timeout=120,
    )


def test_nested_powers_in_word_commands():
    # every command evaluates the parsed program, so none spells the
    # 2 * 10^10 letters
    word = "((a b)^100000)^100000"
    result = run_limited("exponent", "-m", "2", "-c", "2", word)
    assert (result.returncode, result.stdout, result.stderr) == (0, "1\n", "")
    result = run_limited("analyze", "-m", "2", "-c", "2", "--format", "text", word)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.startswith("verdict: undistorted\nk: 1\nhirsch: H=1 rH=1 F=3\n")
    # no nontrivial element of <(ab)^(10^10)> lies in the radius-3 ball
    result = run_limited("measure", "-m", "2", "-c", "2", "--radius", "3", word)
    rows = "n,delta,exact\n1,0,true\n2,0,true\n3,0,true\n"
    assert (result.returncode, result.stdout, result.stderr) == (0, rows, "")


def test_powers_of_long_words_are_not_spelled_out():
    # spelled and embedded one letter run at a time, these took 7-10 s
    cases = [
        (("analyze", "-m", "2", "-c", "2", "--format", "text", "(a b)^1000000"),
         "verdict: undistorted\n"),
        (("measure", "-m", "5", "-c", "2", "--radius", "2",
          "((a c)^362880)", "a", "d^-65537"),
         "n,delta,exact\n1,1,true\n2,2,true\n"),
    ]
    for argv, expected in cases:
        start = time.monotonic()
        result = run_limited(*argv)
        elapsed = time.monotonic() - start
        assert (result.returncode, result.stderr) == (0, ""), result.stderr
        assert result.stdout.startswith(expected)
        assert elapsed < 2


def test_rank_one_runs_at_class_one(capsys):
    # F(1, c) is Z for every c, so the class changes no output
    commands = [
        ("nf", "a^3 a^-5"),
        ("coords", "[a,a^2] a^7"),
        ("hall",),
        ("analyze", "a^2", "a^-3"),
        ("measure", "--radius", "4", "a^2"),
    ]
    for command, *rest in commands:
        outputs = [
            run(capsys, command, "-m", "1", "-c", c, *rest) for c in ("1", "20000")
        ]
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]


def test_preimage_words_stay_compressed():
    # elimination builds preimage words of 10^9 letters and more here; the
    # verdict reads none of them
    for c, hirsch in ((3, 14), (4, 32)):
        result = run_limited(
            "analyze", "-m", "3", "-c", str(c), "a^2b[a,c]", "b^3c^-1", "[a,b,c]a"
        )
        assert result.returncode == 0, result.stderr
        data = json.loads(result.stdout)
        assert data["verdict"] == "undistorted"
        assert data["k"] == 3
        assert data["hirsch"] == {"H": hirsch, "rH": hirsch, "F": hirsch}


def test_long_abelianized_combinations_are_not_spelled_out():
    # the Hermite transform combines these generators with coefficients near
    # 10^4; spelling the combinations out as letters ran out of memory
    result = run_limited("analyze", "-m", "2", "-c", "2", "a^10000 b^9999", "a^9999 b^9998")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["verdict"] == "undistorted"


def test_long_letter_runs_embed_as_one_power_each():
    # embedded letter by letter, these runs cost over 10^6 multiplications
    # and about ten seconds; one power per run takes under one
    start = time.monotonic()
    result = run_limited(
        "analyze", "-m", "2", "-c", "2", "a^100000 b^99999", "a^99999 b^99998"
    )
    elapsed = time.monotonic() - start
    assert result.returncode == 0, result.stderr
    data = json.loads(result.stdout)
    assert data["verdict"] == "undistorted"
    assert data["hirsch"] == {"H": 3, "rH": 3, "F": 3}
    assert elapsed < 5


def test_retracting_long_letter_runs_fits_in_256_mb():
    # two words of about 2 * 10^6 letters each; a fresh tuple per retracted
    # letter ran out of the address space
    start = time.monotonic()
    result = run_limited(
        "analyze", "-m", "2", "-c", "2", "a^1000000 b^999999", "a^999999 b^999998"
    )
    elapsed = time.monotonic() - start
    assert result.returncode == 0, result.stderr
    data = json.loads(result.stdout)
    assert data["verdict"] == "undistorted"
    assert data["hirsch"] == {"H": 3, "rH": 3, "F": 3}
    assert elapsed < 30


def test_analyze_json_matches_the_indenting_encoder(capsys):
    p = Presentation(2, 2)
    # trivial, undistorted, distorted with k = 0, distorted with a witness
    for texts in (["a a^-1"], ["a^2[a,b]^3"], ["[a,b]"], ["a", "[a,b]"]):
        code, out, _ = run(capsys, "analyze", "-m", "2", "-c", "2", *texts)
        report = decide_undistorted([parse(t, p) for t in texts], p)
        assert code == 0
        assert out == json.dumps(report.json_dict(), indent=2, sort_keys=True) + "\n"
    value = {"b": [], "a": {"y": [1, None, True, 'q"\u00e9'], "x": {}}, "c": [[2]]}
    assert _indented_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_analyze_json_leaves_no_reference_cycles(capsys):
    argv = ["analyze", "-m", "2", "-c", "2", "a", "[a,b]"]
    main(argv)  # fill the caches first
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        unreachable = gc.collect()
    finally:
        gc.set_debug(0)
        gc.enable()
        gc.garbage.clear()
    capsys.readouterr()
    assert unreachable == 0


def test_large_ambient_ball_fits_in_256_mb():
    # 350,591 elements, all walked, since with H = G nothing is pruned;
    # stored as polynomials they ran out of memory here
    result = run_limited(
        "measure", "-m", "3", "-c", "2", "--radius", "9", "a", "b", "c"
    )
    assert result.returncode == 0, result.stderr
    rows = "".join(f"{n},{n},true\n" for n in range(1, 10))
    assert (result.stdout, result.stderr) == ("n,delta,exact\n" + rows, "")


def test_a_ball_past_the_default_cap_exits_2_in_256_mb():
    # the radius-10 ball of F(3,2) has more than 400,000 elements, and with
    # H = G the search walks all of them
    result = run_limited(
        "measure", "-m", "3", "-c", "2", "--radius", "10", "a", "b", "c"
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        2,
        "",
        "nildist: cap exceeded: ball exceeded 400000 elements at radius 10\n",
    )


def test_a_pruned_search_measures_past_the_default_cap_in_256_mb():
    # the same ball toward <a>: only the 62,925 elements whose exponent sums
    # in b and c stay within the layers left are walked
    result = run_limited("measure", "-m", "3", "-c", "2", "--radius", "10", "a")
    rows = "".join(f"{n},{n},true\n" for n in range(1, 11))
    assert (result.returncode, result.stdout, result.stderr) == (
        0,
        "n,delta,exact\n" + rows,
        "",
    )


def test_a_long_tuple_ball_toward_a_measures_in_256_mb():
    # 354,293 elements in the radius-11 ball of F(2,7), about 0.8 KB each:
    # walked whole it ran out of memory here; toward <a> the search walks
    # 82,533 of them
    result = run_limited("measure", "-m", "2", "-c", "7", "--radius", "11", "a")
    rows = "".join(f"{n},{n},true\n" for n in range(1, 12))
    assert (result.returncode, result.stdout, result.stderr) == (
        0,
        "n,delta,exact\n" + rows,
        "",
    )


def test_running_out_of_memory_exits_2_without_a_traceback():
    # the radius-9 ball of F(3,2) peaks at about 98 MB RSS
    result = run_limited(
        "measure", "-m", "3", "-c", "2", "--radius", "9", "a", "b", "c", megabytes=96
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        2,
        "",
        "nildist: cap exceeded: out of memory\n",
    )
