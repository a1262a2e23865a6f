import json
import random
from fractions import Fraction as F

import pytest

from padic_sos.cli import main
from padic_sos.ratpoly import RatPoly
from padic_sos.reduction import palindromic_counterexample
from padic_sos.serialize import (MAX_EXPONENT, PolyParseError, parse_poly,
                                 poly_from_json, poly_to_json)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_poly_forms():
    assert parse_poly('["1","0","1"]') == RatPoly([1, 0, 1])
    assert parse_poly("x^2 + 3") == RatPoly([3, 0, 1])
    expected, _ = palindromic_counterexample(0, 65)
    assert parse_poly("4/4225*x^2 + 1/4225*x + 4/4225") == expected
    assert parse_poly("-x + 1/2") == RatPoly([F(1, 2), -1])
    assert parse_poly("x") == RatPoly([0, 1])
    assert parse_poly("7") == RatPoly([7])
    assert parse_poly("2*x^3 - x - 5") == RatPoly([-5, -1, 0, 2])
    assert parse_poly("x^2 - 2*x + x") == RatPoly([0, -1, 1])


def test_parse_poly_errors():
    with pytest.raises(PolyParseError, match="position"):
        parse_poly("x^^2")
    with pytest.raises(PolyParseError):
        parse_poly("1/0")
    with pytest.raises(PolyParseError):
        parse_poly("")
    with pytest.raises(PolyParseError):
        parse_poly("y + 1")
    with pytest.raises(PolyParseError):
        parse_poly('["1", "1/0"]')


def test_parse_poly_exponent_cap(capsys):
    assert parse_poly(f"x^{MAX_EXPONENT} + 1").degree == MAX_EXPONENT
    assert parse_poly("x^00002") == RatPoly([0, 0, 1])
    with pytest.raises(PolyParseError, match="exceeds"):
        parse_poly(f"x^{MAX_EXPONENT + 1}")
    # too many digits for int() is still a parse error, not a ValueError
    with pytest.raises(PolyParseError, match="exceeds"):
        parse_poly("x^" + "9" * 5000)
    code, out, err = run_cli(capsys, "positivity", "--poly",
                             f"x^{MAX_EXPONENT + 1} + 1")
    assert code == 1 and out == "" and "exceeds" in err


def test_json_array_length_cap(tmp_path, capsys):
    at_cap = ["1"] + ["0"] * (MAX_EXPONENT - 1) + ["1"]
    assert poly_from_json(at_cap).degree == MAX_EXPONENT
    assert parse_poly(json.dumps(at_cap)).degree == MAX_EXPONENT
    with pytest.raises(PolyParseError, match="more than"):
        poly_from_json(at_cap + ["1"])
    src = tmp_path / "long.json"
    src.write_text(json.dumps(at_cap + ["1"]))
    code, out, err = run_cli(capsys, "positivity", "--poly-file", str(src))
    assert code == 1 and out == "" and f"more than {MAX_EXPONENT + 1}" in err


def test_parse_poly_fuzz_only_parse_errors():
    rng = random.Random(99)
    alphabet = "0123456789x^*/+- []\"',."
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 18)))
        try:
            parse_poly(text)
        except PolyParseError:
            pass


def test_serialization_round_trip():
    rng = random.Random(111)
    for _ in range(40):
        f = RatPoly([F(rng.randint(-99, 99), rng.randint(1, 99))
                     for _ in range(rng.randint(0, 7))])
        assert poly_from_json(poly_to_json(f)) == f
        assert parse_poly(json.dumps(poly_to_json(f))) == f
        if not f.is_zero:
            assert parse_poly(str(f)) == f


def test_reduce_auto_cli(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--method", "auto",
                           "--poly", "x^2+3")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "padic-sos/1"
    assert doc["status"] == "ok"
    assert doc["method"] == "NOS"
    assert doc["h_pretty"] == "1/2*x + 1/3"


def test_certify_cli(capsys):
    code, out, _ = run_cli(capsys, "sos4-certify", "--poly", "x^2+1")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["certificate"]["verdict"] == "SOS4"

    code, out, _ = run_cli(capsys, "sos4-certify", "--poly", "x^2+3")
    assert code == 2
    assert json.loads(out)["status"] == "inconclusive"

    code, out, _ = run_cli(capsys, "sos4-certify", "--poly", "x^3+x+1:!")
    assert code == 1


def test_certify_cli_with_witness(capsys):
    code, out, _ = run_cli(capsys, "sos4-certify", "--poly", "x^2+7",
                           "--witness", "x:7")
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["verdict"] == "NOT_SOS4"
    assert doc["certificate"]["rule"] == "odd_split_witness"


def test_alg9_demo_cli(capsys):
    code, out, _ = run_cli(capsys, "alg9-demo", "--k", "0", "--N", "65",
                           "--cap", "4")
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "non-termination"
    assert len(doc["iterates"]) == 4
    assert doc["l_init"] == 6


def test_inconclusive_reduce_cli(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--method", "auto",
                           "--poly", "4*x^6+4*x^3+9")
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "inconclusive"
    assert "2-adic square" in doc["note"]


def test_small_commands(capsys):
    code, out, _ = run_cli(capsys, "hankel", "--poly", '["2","-3","1"]')
    assert code == 0
    doc = json.loads(out)
    assert doc["matrix"] == [["2", "3"], ["3", "5"]]
    assert (doc["rank"], doc["signature"]) == (2, 2)

    code, out, _ = run_cli(capsys, "sturm", "--poly", "x^3 - x")
    assert json.loads(out)["real_roots"] == 3

    code, out, _ = run_cli(capsys, "discriminant", "--poly", "x^2+1")
    assert json.loads(out)["discriminant"] == "4"

    code, out, _ = run_cli(capsys, "positivity", "--poly", "x^2+1")
    assert json.loads(out)["positivity"]["verdict"] is True

    code, out, _ = run_cli(capsys, "newton-polygon", "--poly", "x^2+2")
    assert json.loads(out)["diagram"]["segments"][0]["slope"] == "-1/2"

    code, out, _ = run_cli(capsys, "padic-square", "--value", "17")
    assert json.loads(out)["is_square_in_q2"] is True

    code, out, _ = run_cli(capsys, "padic-sqrt", "--value", "17",
                           "--precision", "6")
    r = int(json.loads(out)["unit_residue"])
    assert (r * r - 17) % 64 == 0

    code, out, _ = run_cli(capsys, "family", "--k", "0", "--N", "65")
    doc = json.loads(out)
    assert doc["poly"] == ["4/4225", "1/4225", "4/4225"]

    code, out, _ = run_cli(capsys, "root-status", "--poly", "x^2-17")
    assert json.loads(out)["root_status"]["tag"] == "RootExists"


def test_error_exit_codes(capsys):
    code, _, err = run_cli(capsys, "reduce", "--poly", "x^&2")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "reduce", "--method", "nos",
                           "--poly", "x^2+1")
    assert code == 1 and "constant term" in err
    code, _, _ = run_cli(capsys, "reduce", "--method", "bogus", "--poly", "1")
    assert code == 1


def test_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "reduce", "--method", "auto",
                               "--poly", "x^2+3")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_poly_file_and_out_file(tmp_path, capsys):
    src = tmp_path / "poly.json"
    src.write_text('["3","0","1"]')
    dst = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "reduce", "--poly-file", str(src),
                           "--out", str(dst))
    assert code == 0 and out == ""
    doc = json.loads(dst.read_text())
    assert doc["method"] == "NOS"
