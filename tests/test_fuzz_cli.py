"""Fuzzing of the input contract: polynomial strings and cover files fed
through `cli.main` end in exit 0, 1, 2 or 3 and never in a traceback.

Inputs stay small (one-digit numbers, fields of at most 25 elements) so that
every example runs in milliseconds; the examples are derandomized, so a run
is reproducible.
"""

import contextlib
import io
import os
import re
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ffcheb.cli import main  # noqa: E402

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

_POLY_TOKENS = list("T^*+-()[], 0123x") + ["T^2", "(1,2)", "(1,-1)", "[0,1]"]

_MONOMIALS = ["1", "2", "T", "2*T", "T^2", "3*T^3", "(1,2)*T", "(2)", "T^9", "T^0"]

# token soup with at most one digit in a row (degrees and coefficients stay
# below 10), or a signed sum of monomials, which is mostly well formed
poly_text = st.one_of(
    st.lists(st.sampled_from(_POLY_TOKENS), max_size=10)
    .map("".join)
    .filter(lambda s: not re.search(r"\d\d", s)),
    st.lists(
        st.tuples(st.sampled_from(["", "+", "-", "+-"]), st.sampled_from(_MONOMIALS)),
        min_size=1,
        max_size=4,
    ).map(lambda terms: "".join(sign + mono for sign, mono in terms)),
)


def _run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as e:  # argparse usage errors
            return e.code


@FUZZ
@given(q=st.sampled_from(["2", "5", "9", "6", "1"]), text=poly_text)
def test_fuzz_factor_polynomial_strings(q, text):
    assert _run(["factor", "--q", q, text]) in (0, 1, 2, 3)


# valid cover files; the fuzzer drops their lines and overrides their keys
TEMPLATES = [
    "kind = trivial\np = 2\n",
    "kind = kummer\np = 5\nk = 1\nd = 2\nD = [0,1]\n",
    "kind = artin_schreier\np = 3\nk = 1\nD_num = [1]\nD_den = [0,1]\n",
    "kind = product\np = 5\ncomponents = 2\n"
    "component.1.kind = kummer\ncomponent.1.d = 2\ncomponent.1.D = [0,1]\n"
    "component.2.kind = artin_schreier\ncomponent.2.D_num = [1]\ncomponent.2.D_den = [4,1]\n",
    "kind = splitting\np = 5\ny_degree = 3\nF.0 = [0,4]\nF.1 = [0,4]\nF.2 = [0]\nF.3 = [1]\n"
    "generator.1 = (1 2)\ngenerator.2 = (1 2 3)\n"
    "cycle_type.1+1+1 = 0\ncycle_type.2+1 = 1\ncycle_type.3 = 2\ngenus = 0\n",
]

_WORDS = {
    "kind": ["kummer", "artin_schreier", "product", "splitting", "trivial", "other"],
    "component.1.kind": ["kummer", "artin_schreier", "splitting"],
    "generator.1": ["()", "(1 2)", "(1 2 3)", "(1 x)", "(1 4)", "(1 1)", "(2 1", "1 2"],
    "tame_at_infinity": ["true", "false", "maybe"],
}
_INT_KEYS = ["p", "k", "d", "components", "component.1.d", "y_degree", "genus",
             "cycle_type.2+1", "cycle_type.1+x", "cycle_type.0"]
_INTS = ["0", "1", "2", "3", "5", "-1", "x", ""]
_POLY_KEYS = ["D", "D_num", "D_den", "component.1.D", "component.2.D_den", "F.0", "F.1", "F.3"]

override = st.one_of(
    *[st.tuples(st.just(key), st.sampled_from(vals)) for key, vals in _WORDS.items()],
    st.tuples(st.sampled_from(_INT_KEYS), st.sampled_from(_INTS)),
    st.tuples(st.sampled_from(_POLY_KEYS), poly_text),
).map(lambda kv: f"{kv[0]} = {kv[1]}")
junk = st.sampled_from(["junk", "# comment", "= 1", "p == 5", "p = 5 = 5"])


@st.composite
def cover_text(draw):
    template = draw(st.sampled_from(TEMPLATES)).splitlines()
    lines = [ln for ln in template if draw(st.integers(0, 5))]  # drops one line in six
    lines += draw(st.lists(st.one_of(override, junk), max_size=4))
    return "\n".join(lines) + "\n"


@FUZZ
@given(text=cover_text(), prime=st.one_of(st.just("T+1"), poly_text), wild=st.booleans())
def test_fuzz_cover_files(text, prime, wild):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cov")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["frobenius", "--cover", path, prime] + (["--force-wild"] if wild else [])
        assert _run(argv) in (0, 1, 2, 3)
