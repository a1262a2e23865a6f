import json
import math
import random
import sys
import typing
from fractions import Fraction as F
from pathlib import Path

import pytest

import oracles
from padic_sos import certifier, ratpoly, serialize
from padic_sos.cli import MAX_CAP, MAX_HANKEL_BITS, MAX_HANKEL_DEGREE, MAX_K, MAX_N, main
from padic_sos.padic import padic_sqrt
from padic_sos.ratpoly import RatPoly, hankel_matrix
from padic_sos.reduction import palindromic_counterexample, reduce_iterative
from padic_sos.serialize import (MAX_EXPONENT, MAX_MODEL_BITS, PolyParseError,
                                 dumps, frac_str, parse_poly, poly_from_json,
                                 poly_to_json, positivity_to_json)


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


@pytest.mark.parametrize("text, position", [
    ("x+", 2), ("x^2 -", 5), ("2*", 0), ("*x", 0), ("+", 1), ("2*x*", 0),
    ("x + y", 4), ("x^2 + 2 *", 6), ("  \tx + y", 7), ("3/4\n+x", 0),
    ("x^2\n\n+1", 0), ("x +\t1", 3)])
def test_parse_poly_refuses_a_dangling_operator(capsys, text, position):
    """A trailing sign, a ``*`` without a coefficient before it and x
    after it, a term in another variable, or a term with a newline or a
    tab in it, is a parse error at its position in the text passed, and
    the CLI exits 1."""
    with pytest.raises(PolyParseError, match=f"at position {position}$"):
        parse_poly(text)
    code, out, err = run_cli(capsys, "positivity", "--poly", text)
    assert code == 1 and not out and f"at position {position}" in err


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
    with pytest.raises(PolyParseError, match="must be an array of strings"):
        poly_from_json({})
    src = tmp_path / "long.json"
    src.write_text(json.dumps(at_cap + ["1"]))
    code, out, err = run_cli(capsys, "positivity", "--poly-file", str(src))
    assert code == 1 and out == "" and f"more than {MAX_EXPONENT + 1}" in err


def _primes(n):
    sieve = bytearray([1]) * 120_000
    sieve[:2] = b"\0\0"
    for i in range(2, 347):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i, is_prime in enumerate(sieve) if is_prime][:n]


def _model_bits(entries):
    """The size the parser bounds: sum of bits(n) + bits(lcm) - bits(d)
    over the nonzero coefficients n/d."""
    cs = [F(c) for c in entries if F(c)]
    lcm = math.lcm(*(c.denominator for c in cs))
    return sum(c.numerator.bit_length() + lcm.bit_length() - c.denominator.bit_length()
               for c in cs)


# the bound follows int()'s digit limit, and there is none without one
bounded_model = pytest.mark.skipif(MAX_MODEL_BITS is None,
                                   reason="int() has no digit limit")


@bounded_model
def test_model_bound_is_the_largest_all_integer_input():
    assert MAX_MODEL_BITS == (MAX_EXPONENT + 1) * (10 ** sys.get_int_max_str_digits()
                                                   - 1).bit_length()


@bounded_model
def test_model_bound_just_past_the_cap(capsys, tmp_path):
    # two coprime denominators of about 7000 bits each make every cleared
    # numerator about 14286 bits; one integer entry tunes the sum exactly
    entries = [f"1/{3 ** 4000}", f"1/{5 ** 3422}"] + ["1"] * (MAX_EXPONENT - 1)
    gap = MAX_MODEL_BITS - _model_bits(entries)
    assert 0 < gap < 14_000
    entries[-1] = str(2 ** gap)
    assert _model_bits(entries) == MAX_MODEL_BITS
    f = poly_from_json(entries)
    assert f.degree == MAX_EXPONENT and f.leading == 2 ** gap
    entries[-1] = str(2 ** (gap + 1))
    with pytest.raises(PolyParseError, match="denominators are cleared"):
        poly_from_json(entries)
    src = tmp_path / "past.json"
    src.write_text(json.dumps(entries))
    code, out, err = run_cli(capsys, "newton-polygon", "--poly-file", str(src))
    assert code == 1 and out == "" and f"more than {MAX_MODEL_BITS} bits" in err


@bounded_model
def test_model_bound_on_prime_denominators():
    primes = _primes(MAX_EXPONENT + 1)
    entries = [f"1/{p}" for p in primes[:3000]]
    assert poly_from_json(entries) == RatPoly([F(1, p) for p in primes[:3000]])
    human = " + ".join(f"1/{p}*x^{i}" for i, p in enumerate(primes[:3000]))
    assert parse_poly(human) == poly_from_json(entries)
    # all 10001 primes: every cleared numerator would be 150,000 bits
    with pytest.raises(PolyParseError, match="denominators are cleared"):
        poly_from_json([f"1/{p}" for p in primes])
    with pytest.raises(PolyParseError, match="denominators are cleared"):
        parse_poly(" + ".join(f"1/{p}*x^{i}" for i, p in enumerate(primes)))


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


def reference_documents(f: RatPoly) -> dict[str, tuple[int, str, str]]:
    """(exit code, stdout, stderr) of the four Q-side reference commands
    on f, with every number from ``oracles``."""
    poly = poly_to_json(f)
    rank, sig = oracles.root_counts(f)
    docs = {
        "positivity": {"positivity": positivity_to_json(oracles.positivity_certificate(f)),
                       "poly": poly},
        "hankel": {"poly": poly, "rank": rank, "signature": sig,
                   "distinct_roots": rank, "distinct_real_roots": sig,
                   "matrix": [[frac_str(x) for x in row] for row in hankel_matrix(f)]},
        "discriminant": {"poly": poly, "discriminant": frac_str(oracles.discriminant(f))},
    }
    runs = {name: (0, dumps(doc) + "\n", "") for name, doc in docs.items()}
    try:
        runs["sturm"] = (0, dumps({"poly": poly, "real_roots": oracles.sturm_chain_count(f)})
                         + "\n", "")
    except ValueError as exc:
        runs["sturm"] = (1, "", f"error: {exc}\n")
    return runs


def test_reference_documents_match_the_oracles(capsys, monkeypatch):
    """The cli-cold corpus polynomials and degree-24 inputs, positive or
    not, square-free or not."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import corpus
    polys = [item.poly for item, _ in corpus.cli_documents(31, 1)]
    rng = random.Random(24)
    plain = corpus.plain(rng, 24)
    polys += [plain, corpus.square_part(rng, 24), plain - 10 ** 6]
    for f in polys:
        for command, expected in reference_documents(f).items():
            assert run_cli(capsys, command, "--poly", str(f)) == expected, (command, f)


def test_hankel_degree_cap(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "hankel", "--poly", f"x^{MAX_HANKEL_DEGREE} + 1")
    doc = json.loads(out)
    assert code == 0 and err == "" and len(doc["matrix"]) == MAX_HANKEL_DEGREE
    assert (doc["rank"], doc["signature"]) == (MAX_HANKEL_DEGREE, 0)
    # past the cap the command stops before any power sum is formed
    monkeypatch.setattr(ratpoly, "power_sums", None)
    code, out, err = run_cli(capsys, "hankel", "--poly", f"x^{MAX_HANKEL_DEGREE + 1} + 1")
    assert code == 1 and out == ""
    assert err == (f"error: hankel needs degree at most {MAX_HANKEL_DEGREE} (it prints the "
                   f"degree x degree matrix of power sums), got {MAX_HANKEL_DEGREE + 1}\n")
    monkeypatch.undo()
    code, out, err = run_cli(capsys, "hankel", "--poly", "7")
    assert (code, out, err) == (1, "", "error: power sums need degree >= 1\n")


def test_hankel_size_bound(capsys, monkeypatch):
    # x^200 + c: with B the bits of c the bound is 200^2 * bits(200)
    # + (B + 1 + 1) * 200^2 * 199 bits, which admits c = 2^13 (B = 14)
    code, out, err = run_cli(capsys, "hankel", "--poly", f"x^200 + {2 ** 13}")
    assert code == 0 and err == "" and len(json.loads(out)["matrix"]) == 200
    # x^2 + c: s_2 = -2c, whose numerator bound bits(2) + 2(B + 1) is the
    # 14284 bits int() prints within its 4300-digit limit at c = 2^7139
    code, out, err = run_cli(capsys, "hankel", "--poly", f"x^2 + {2 ** 7139}")
    assert code == 0 and err == "" and json.loads(out)["matrix"][1][1] == str(-2 ** 7140)
    # one more bit past either bound stops before any power sum is formed
    monkeypatch.setattr(ratpoly, "power_sums", None)
    code, out, err = run_cli(capsys, "hankel", "--poly", f"x^200 + {2 ** 14}")
    assert (code, out) == (1, "")
    assert err == ("error: hankel's matrix may hold up to 135640000 bits of numerators "
                   f"and denominators, more than {MAX_HANKEL_BITS}\n")
    code, out, err = run_cli(capsys, "hankel", "--poly", f"x^2 + {2 ** 7140}")
    assert (code, out) == (1, "")
    assert err == ("error: hankel's power sums may have numerators of up to 14286 bits, "
                   "more than the 14284 bits int() prints\n")
    # a dense degree-60 input with 50-digit coefficients, which used to run
    # for seconds and then fail to print
    rng = random.Random(5)
    coeffs = [str(rng.randint(1, 10 ** 50)) for _ in range(61)]
    code, out, err = run_cli(capsys, "hankel", "--poly", json.dumps(coeffs))
    assert (code, out) == (1, "") and "numerators of up to" in err


def test_error_exit_codes(capsys):
    code, _, err = run_cli(capsys, "reduce", "--poly", "x^&2")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "reduce", "--method", "nos",
                           "--poly", "x^2+1")
    assert code == 1 and "constant term" in err
    code, _, _ = run_cli(capsys, "reduce", "--method", "bogus", "--poly", "1")
    assert code == 1


@pytest.mark.parametrize("argv, message", [
    (["positivity"], "provide --poly or --poly-file"),
    (["sos4-certify", "--poly", "x^2+1", "--witness", "x"],
     "witness must look like 'A-poly:c'"),
    (["family", "--k", "1"], "family needs either --g/--a or --k/--N"),
])
def test_missing_or_malformed_inputs_exit_1(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and message in err


@pytest.mark.parametrize("argv", [
    ["padic-square", "--value", "-12/7"],
    ["padic-sqrt", "--value", "-7", "--precision", "8"],
    ["sos4-certify", "--poly", "-x^2+7"],
    ["root-status", "--poly", "-x^3+2"],
    ["sos4-certify", "--poly", "x^2+7", "--witness", "-x:7"],
    ["family", "--g", "-x^3+2*x-1"],
    ["family", "--g", "-x^2+1"],
    ["positivity", "--poly", "-x^2 +"],
])
def test_a_value_starting_with_a_minus_sign_reads_as_with_equals(capsys, argv):
    """``--flag -value`` gives the stdout and exit code of ``--flag=-value``
    for --poly, --value, --witness and --g."""
    i = next(i for i, a in enumerate(argv) if a[:1] == "-" and a[:2] != "--")
    joined = argv[:i - 1] + [f"{argv[i - 1]}={argv[i]}"] + argv[i + 1:]
    spaced = run_cli(capsys, *argv)
    assert "expected one argument" not in spaced[2]
    assert spaced[:2] == run_cli(capsys, *joined)[:2]


def test_a_flag_after_a_value_flag_is_not_its_value(capsys):
    code, _, err = run_cli(capsys, "padic-square", "--value", "--out", "x")
    assert code == 1 and "argument --value: expected one argument" in err


# each subcommand's options besides -h, as its --help lists them
COMMAND_OPTIONS = {
    "positivity": ["--poly", "--poly-file", "--out"],
    "hankel": ["--poly", "--poly-file", "--out"],
    "sturm": ["--poly", "--poly-file", "--out"],
    "discriminant": ["--poly", "--poly-file", "--out"],
    "newton-polygon": ["--poly", "--poly-file", "--out"],
    "padic-square": ["--value", "--out"],
    "padic-sqrt": ["--value", "--precision", "--out"],
    "root-status": ["--poly", "--poly-file", "--out"],
    "sos4-certify": ["--poly", "--poly-file", "--out", "--witness"],
    "reduce": ["--poly", "--poly-file", "--out", "--method", "--cap"],
    "alg9-demo": ["--k", "--N", "--cap", "--out"],
    "family": ["--k", "--N", "--g", "--a", "--out"],
}


def test_help_and_usage_errors(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and "{" + ",".join(COMMAND_OPTIONS) + "}" in out
    for command, options in COMMAND_OPTIONS.items():
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0 and out.startswith(f"usage: padic-sos {command} [-h]")
        listed = [line.split()[0] for line in out.split("options:")[1].splitlines()
                  if line.strip().startswith("-")]
        assert listed == ["-h,", *options], command
    for argv in ([], ["frobnicate"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and not out and err.startswith("usage: padic-sos [-h]")
    code, _, err = run_cli(capsys, "padic-sqrt", "--value", "17", "--precision", "x")
    assert code == 1 and err.startswith("usage: padic-sos padic-sqrt [-h]")
    assert "argument --precision: invalid int value: 'x'" in err


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


def test_json_coefficients_are_exact(tmp_path, capsys):
    assert parse_poly('[1, "-3/4", "+2", "0", -5]') == RatPoly([1, F(-3, 4), 2, 0, -5])
    assert parse_poly('[1, 0, 1]') == RatPoly([1, 0, 1])
    for text in ('[1.00000000000000000001, 0, 1]', '[1.5]', '["1e4000000", "0", "1"]',
                 '["1.5"]', '["0x10"]', '["1 "]', '["1_000"]', '["\\u0661"]',
                 '[true]', '[null]', '[[1]]', '[{}]', '[NaN]', '["-"]', '["1/"]'):
        with pytest.raises(PolyParseError, match="index 0"):
            parse_poly(text)
    with pytest.raises(PolyParseError, match="index 2"):
        parse_poly('["1", "0", 1e400]')
    if sys.get_int_max_str_digits():  # int() refuses more digits than this
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        for text in (f'[{digits}]', f'["{digits}"]', f"{digits}*x + 1"):
            with pytest.raises(PolyParseError):
                parse_poly(text)
    code, out, err = run_cli(capsys, "positivity", "--poly",
                             "[1.00000000000000000001, 0, 1]")
    assert code == 1 and out == "" and "index 0" in err


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    with pytest.raises(PolyParseError, match="nested too deeply"):
        parse_poly("[" * 5000)
    src = tmp_path / "deep.json"
    src.write_text("[" * 5000 + "]" * 5000)
    code, out, err = run_cli(capsys, "positivity", "--poly-file", str(src))
    assert code == 1 and out == "" and "nested too deeply" in err


def test_integer_arguments_are_bounded(capsys):
    # family(k) has degree 4k + 2: MAX_K is the largest k within MAX_EXPONENT
    assert 4 * MAX_K + 2 <= MAX_EXPONENT < 4 * (MAX_K + 1) + 2
    code, out, _ = run_cli(capsys, "family", "--k", str(MAX_K), "--N", "65")
    assert code == 0 and len(json.loads(out)["poly"]) == 4 * MAX_K + 3
    code, out, _ = run_cli(capsys, "padic-sqrt", "--value", "17",
                           "--precision", str(MAX_EXPONENT))
    assert code == 0 and json.loads(out)["precision"] == MAX_EXPONENT
    for argv, message in (
            (["family", "--k", str(MAX_K + 1), "--N", "65"], f"at most {MAX_K}"),
            (["alg9-demo", "--k", str(MAX_K + 1), "--N", "65"], f"at most {MAX_K}"),
            (["padic-sqrt", "--value", "17", "--precision", str(MAX_EXPONENT + 1)],
             f"at most {MAX_EXPONENT}"),
            (["padic-sqrt", "--value", "17", "--precision", "0"],
             "precision must be positive"),
            (["reduce", "--method", "alg9", "--cap", "-1", "--poly", "x^4+x^2+3"],
             "cap must be nonnegative"),
            (["alg9-demo", "--k", "0", "--N", "65", "--cap", "-1"],
             "cap must be nonnegative")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and message in err, argv


def test_cap_is_bounded_before_any_work(capsys, monkeypatch):
    # argparse refuses the value, so the ALG9 loop is never reached
    from padic_sos import reduction
    monkeypatch.setattr(reduction, "reduce_iterative", None)
    for argv in (["reduce", "--method", "alg9", "--poly", "x^4+x^2+3"],
                 ["alg9-demo", "--k", "0", "--N", "65"]):
        code, out, err = run_cli(capsys, *argv, "--cap", str(MAX_CAP + 1))
        assert code == 1 and out == "" and f"at most {MAX_CAP}" in err, argv


def test_n_is_bounded_before_any_work(capsys, monkeypatch):
    # argparse refuses the value, so no family member is built
    from padic_sos import reduction
    monkeypatch.setattr(reduction, "palindromic_counterexample", None)
    for argv in (["alg9-demo", "--k", "0"], ["family", "--k", "0"]):
        code, out, err = run_cli(capsys, *argv, "--N", str(MAX_N + 1))
        assert code == 1 and out == "" and f"at most {MAX_N}" in err, argv


def test_a_is_bounded_before_any_work(capsys, monkeypatch):
    # argparse refuses the value, so no family member is built
    from padic_sos import reduction
    monkeypatch.setattr(reduction, "square_plus_8a_minus_1", None)
    code, out, err = run_cli(capsys, "family", "--g", "x^3+x+1", "--a", str(MAX_N + 1))
    assert code == 1 and out == "" and f"at most {MAX_N}" in err


def test_largest_n_is_accepted(capsys):
    n = MAX_N - 1  # odd
    code, out, _ = run_cli(capsys, "family", "--k", "0", "--N", str(n))
    assert code == 0 and json.loads(out)["witness_c"] == frac_str(F(63, 16 * n * n))


def test_rational_arguments_use_the_exact_grammar(capsys, monkeypatch):
    # the forms just past [+-]digits[/digits] are refused before any work
    from padic_sos import padic
    monkeypatch.setattr(padic, "is_square_in_q2", None)
    monkeypatch.setattr(padic, "padic_sqrt", None)
    monkeypatch.setattr(certifier, "certify_sos4", None)
    for text in ("1e10000000", "1.5", "1_0", "0x11", "1/2/3", "+-1", "1/-2", "inf", ""):
        for argv in (["padic-square", "--value", text], ["padic-sqrt", "--value", text],
                     ["sos4-certify", "--poly", "x^2+7", "--witness", f"x:{text}"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == "" and "[+-]digits[/digits]" in err, argv
    for argv in (["padic-square", "--value", "1/0"],
                 ["padic-square", "--value", "1" * (serialize._INT_DIGITS + 1)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and "bad rational" in err, argv


def test_rational_arguments_accept_the_exact_grammar(capsys):
    for text, square in (("17", True), (" -7/4 ", True), ("+3", False), ("6/8", False)):
        code, out, _ = run_cli(capsys, "padic-square", "--value", text)
        doc = json.loads(out)
        assert code == 0 and doc["value"] == frac_str(F(text.strip()))
        assert doc["is_square_in_q2"] is square, text
    code, out, _ = run_cli(capsys, "sos4-certify", "--poly", "x^2+7", "--witness", "x: +7/1")
    assert code == 0 and json.loads(out)["certificate"]["verdict"] == "NOT_SOS4"


def test_search_budget_inputs_conclude(capsys):
    # 2((x^2 - 2)^2 + 3 * 2^-140) needs epsilon 2^-139, and NOS on this
    # quadratic the row N = 1449: both ran past the old search budgets
    for method, poly, expected in (
            ("alg6", "2*x^4 - 8*x^2 + 8 + 3/696898287454081973172991196020261297061888",
             "ALG6"),
            ("nos", "333667*x^2 + 2001*x + 3", "NOS")):
        code, out, err = run_cli(capsys, "reduce", "--method", method, "--poly", poly)
        assert code == 0 and err == "", method
        assert json.loads(out)["method"] == expected


def test_no_module_names_search_depth_exceeded():
    import padic_sos
    src = Path(padic_sos.__file__).parent
    assert not [p.name for p in src.glob("*.py") if "SearchDepthExceeded" in p.read_text()]
    assert "SearchDepthExceeded" not in padic_sos.__all__


def test_library_rejects_bad_precision_and_cap():
    with pytest.raises(ValueError, match="precision must be positive"):
        padic_sqrt(17, 0)
    with pytest.raises(ValueError, match="cap must be nonnegative"):
        reduce_iterative(RatPoly([3, 0, 1, 0, 1]), cap=-1)


def test_evidence_kinds_name_one_class_each():
    # a document tells evidence apart by ``kind``, and the encoder
    # knows every evidence field
    classes = typing.get_args(certifier.Evidence)
    kinds = [cls.kind for cls in classes]
    assert len(kinds) == len(set(kinds)) == 9
    assert {f for cls in classes for f in cls._fields} <= serialize._EVIDENCE_FIELDS.keys()
