import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import nildist
from nildist.cli import _indented_json, build_parser, main
from nildist.presentation import Presentation
from nildist.subgroups import decide_undistorted
from nildist.words import parse_word


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

    code, _, err = run(capsys)
    assert code == 1

    code, _, err = run(capsys, "nf", "-m", "2", "-c", "2", "--format", "csv", "a")
    assert code == 1
    assert "not supported" in err

    code, _, err = run(capsys, "analyze", "-m", "2", "-c", "2")
    assert code == 1

    code, _, err = run(capsys, "exponent", "-m", "2", "-c", "2", "a a^-1")
    assert code == 1


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


def run_limited(*argv):
    """The CLI in a fresh process whose address space is capped at 256 MB."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

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
    word = "((a b)^100000)^100000"  # 2 * 10^10 letters
    result = run_limited("exponent", "-m", "2", "-c", "2", word)
    assert (result.returncode, result.stdout, result.stderr) == (0, "1\n", "")
    for command in ("analyze", "measure"):
        result = run_limited(command, "-m", "2", "-c", "2", word)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "cap exceeded" in result.stderr
        assert "Traceback" not in result.stderr


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
        report = decide_undistorted([parse_word(t, p) for t in texts], p)
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
    # 350,591 elements; stored as polynomials they ran out of memory here
    result = run_limited("measure", "-m", "3", "-c", "2", "--radius", "9", "a")
    assert result.returncode == 0, result.stderr
    rows = "".join(f"{n},{n},true\n" for n in range(1, 10))
    assert (result.stdout, result.stderr) == ("n,delta,exact\n" + rows, "")


def test_a_ball_past_the_default_cap_exits_2_in_256_mb():
    # the radius-10 ball of F(3,2) has more than 400,000 elements
    result = run_limited("measure", "-m", "3", "-c", "2", "--radius", "10", "a")
    assert (result.returncode, result.stdout, result.stderr) == (
        2,
        "",
        "nildist: cap exceeded: ball exceeded 400000 elements at radius 10\n",
    )
