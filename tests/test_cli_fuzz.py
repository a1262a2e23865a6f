"""A seeded fuzz of ``cli.main`` in process: every subcommand, with small
random polynomials (human form and JSON arrays, sometimes malformed) and
random in-range flags.  Every call must exit 0, 1 or 2; an exception that
escapes ``main`` fails the test.  Sizes stay small, so no call can ask
for much work."""

import contextlib
import io
import json
import random
from fractions import Fraction as F

from padic_sos.cli import _COMMANDS, _REDUCE_METHODS, main
from padic_sos.ratpoly import RatPoly

SEED, CALLS = 2026, 300


def rational(rng) -> str:
    q = F(rng.randint(-40, 40), rng.choice((1, 1, 2, 3, 4, 7, 8)))
    square = q * q * rng.choice((1, 17, F(1, 4)))
    return rng.choice((str(q), str(square), str(square), str(q.numerator), "1/0", "x", ""))


def small_poly(rng, degree: int) -> RatPoly:
    return RatPoly([F(rng.randint(-9, 9), rng.choice((1, 1, 1, 2, 3, 4)))
                    for _ in range(degree + 1)])


def poly_text(rng) -> str:
    if rng.random() < 0.4:
        # A^2 + B^2 + c, sometimes times a square: positive, often not square-free
        a, b = small_poly(rng, rng.randint(0, 3)), small_poly(rng, rng.randint(0, 2))
        f = a * a + b * b + RatPoly([rng.randint(1, 9)])
        square = rng.choice((RatPoly([1]), RatPoly([1, 0, 1]), RatPoly([1, 1, 1])))
        coeffs = list((f * square * square).coeffs)
    else:
        coeffs = list(small_poly(rng, rng.randint(-1, 6)).coeffs)
    form = rng.random()
    if form < 0.45:
        return str(RatPoly(coeffs)) if coeffs else "0"
    if form < 0.9:
        return json.dumps([str(c) for c in coeffs] if rng.random() < 0.8
                          else [c.numerator for c in coeffs])
    return rng.choice(("x^", "[1, ", "2*y + 1", "[\"1/0\"]", "x^3 +", "[[1]]", "(x+1)^2"))


def poly_args(rng, tmp_path) -> list[str]:
    text = poly_text(rng)
    if rng.random() < 0.1:
        path = tmp_path / "poly.txt"
        path.write_text(text)
        return ["--poly-file", str(path)]
    return [f"--poly={text}"]


def argv(rng, command: str, tmp_path) -> list[str]:
    if command in ("padic-square", "padic-sqrt"):
        args = [f"--value={rational(rng)}"]
        if command == "padic-sqrt" and rng.random() < 0.7:
            args += ["--precision", str(rng.randint(-1, 80))]
    elif command == "alg9-demo":
        args = ["--k", str(rng.randint(0, 1)), "--N", str(rng.choice((63, 64, 65, 67, 99))),
                "--cap", str(rng.randint(0, 3))]
    elif command == "family":
        args = (["--g", poly_text(rng), "--a", str(rng.randint(0, 5))] if rng.random() < 0.5
                else ["--k", str(rng.randint(0, 2)), "--N", str(rng.choice((63, 65, 67)))])
    else:
        args = poly_args(rng, tmp_path)
        if command == "reduce":
            args += ["--method", rng.choice(list(_REDUCE_METHODS)),
                     "--cap", str(rng.randint(-1, 3))]
        elif command == "sos4-certify" and rng.random() < 0.3:
            args += [f"--witness={poly_text(rng)}:{rational(rng)}"]
    if rng.random() < 0.05:
        args += ["--out", str(tmp_path / "out.json")]
    return [command] + args


def test_cli_main_exits_0_1_or_2_on_random_argvs(tmp_path):
    rng = random.Random(SEED)
    seen = set()
    for _ in range(CALLS):
        command = rng.choice(list(_COMMANDS))
        args = argv(rng, command, tmp_path)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
        assert code in (0, 1, 2), args
        seen.add((command, code))
    assert {command for command, _ in seen} == set(_COMMANDS)
