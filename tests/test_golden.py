"""The byte contract: every command, run from each golden case's config,
writes exactly the files recorded under tests/golden/.

tests/golden/regen.py rewrites the corpus. On a machine whose numpy build
and numpy CPU features match the recorded ones the bytes must be
identical. Elsewhere numpy's SIMD summation order may differ, so each
number is compared to 4 ulp and all other text exactly.
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent / "golden"))
import regen  # noqa: E402

RECORDED = json.loads((regen.GOLDEN / "environment.json").read_text())
EXACT = RECORDED == regen.environment()
if not EXACT:
    print("golden corpus: recorded on another numpy build or CPU; "
          "numbers are compared to 4 ulp, not byte for byte")

_NUMBER = re.compile(r"([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)")


def same(got, want, exact=EXACT, ulps=4):
    """Whether two output files agree: byte for byte, or with every number
    within `ulps` ulp and the text between numbers identical."""
    if exact or got == want:
        return got == want
    got, want = (_NUMBER.split(b.decode("utf-8")) for b in (got, want))
    if len(got) != len(want) or got[::2] != want[::2]:
        return False
    return all(abs(float(a) - float(b)) <= ulps * math.ulp(max(abs(float(a)), abs(float(b))))
               for a, b in zip(got[1::2], want[1::2]))


@pytest.mark.parametrize("case", regen.cases(), ids=lambda case: case.name)
def test_case_reproduces_its_bytes(case, tmp_path):
    assert regen.run_case(case, tmp_path) == 0
    got, want = regen.outputs(tmp_path), regen.outputs(case)
    assert sorted(got) == sorted(want)
    assert [name for name in want if not same(got[name], want[name])] == []


def test_corpus_covers_every_command():
    from qpot.cli import _COMMANDS

    argvs = [(case / "argv.txt").read_text().split() for case in regen.cases()]
    assert {argv[0] for argv in argvs} == set(_COMMANDS)
    assert ["sweep", "--workers", "1"] in argvs
    assert ["sweep", "--workers", "2"] in argvs


class TestSame:
    """A one-digit change to a recorded norm is caught."""

    WANT = (regen.GOLDEN / "evolve" / "record.csv").read_bytes()

    def mutant(self, ulps):
        lines = self.WANT.decode().splitlines(keepends=True)
        t, norm, absorbed = lines[5].split(",")
        lines[5] = ",".join((t, repr(float(norm) + ulps * math.ulp(float(norm))), absorbed))
        return "".join(lines).encode()

    def test_last_digit_of_a_norm_fails_the_exact_check(self):
        lines = self.WANT.decode().splitlines(keepends=True)
        t, norm, absorbed = lines[5].split(",")
        lines[5] = ",".join((t, norm[:-1] + str((int(norm[-1]) + 1) % 10), absorbed))
        assert not same("".join(lines).encode(), self.WANT, exact=True)
        assert same(self.WANT, self.WANT, exact=True)

    def test_numbers_within_4_ulp_pass_elsewhere(self):
        assert same(self.mutant(4), self.WANT, exact=False)
        assert not same(self.mutant(5), self.WANT, exact=False)
        assert not same(self.WANT.replace(b"norm", b"Norm"), self.WANT, exact=False)
