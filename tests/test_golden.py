"""Golden outputs of the CLI, pinned by SHA-256, and checks that stdout does
not depend on PYTHONHASHSEED.

The `basis` digests were recorded from the tuple-arithmetic implementation
that preceded the integer-indexed group kernel, so they also pin that the
kernel picks the same canonical [K, phi] representatives, labels and order.
The digests of commands that compose or restrict were recorded from the
implementation that composed by realizing both bisets and taking their
coequalizer, so they pin that the double-coset formulas give the same
output. The `verify sum` digests were recorded from the implementation that
multiplied in the Burnside ring by decomposing G/K x G/L into orbits, so
they pin that ring products by Mackey composition give the same output.
The `basis A6 C1` digest was recorded from the implementation that found
subgroup classes by filtering the whole subgroup lattice, so it pins that
cyclic extension finds the same class representatives.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from burnfuse.burnside import BurnsideElement, basis
from burnfuse.cli import run
from burnfuse.groups import parse_group
from burnfuse.serialize import dump_json, element_to_json

GOLDEN_BASIS = {
    ("S4", "S4", "text"):
        "c901bfb0fddd51913758c7008e5d2dae7b82ea71de61bf8a97e36130417fc7b9",
    ("S4", "S4", "json"):
        "ecb3b5d8a6738dd66580bfd7a3eda187e06aec5728667f15b91612793f873ff0",
    ("A4", "A5", "text"):
        "22ee7e35a160595060572c38e841aca98c91e7e080aa5a77451738880d1b22b8",
    ("A4", "A5", "json"):
        "6e81d26c5753f71e99781a6ccbd036e2772098668295f93c93554c3904926342",
    ("A5", "C2", "text"):
        "47395666167186049efc958760767f40fc947be520b889d14a170ac2bfe4da73",
    ("A5", "C2", "json"):
        "e0fef620ce13431785d9a0739ce591d393a7ee6a21bf7ffba3bf68d1e65acb4d",
    ("D12", "S4", "text"):
        "70d7c76d5ff70f9cf05ff6652b59cb7b75f774865963593e12a6a6628611086d",
    ("D12", "S4", "json"):
        "d393d3fd630f1a4bc7ee4c708d68c40332c9e66b28627c0f37bbbbfebc6010f9",
    ("S3", "S3", "text"):
        "58b50c1633cb0c986f45fba1d7fe09d06b9804809ddc06d80d26c738ae263e48",
    ("S3", "S3", "json"):
        "de413841d8ef70b9aceb84af6e7da0b9537873c1a17df90684fad882fe34e05b",
    ("S5", "A5", "text"):
        "bbfd170db95b2b886b03ec1f83443b30a3d9007f6ebae6f20850413cf0915c13",
    ("S5", "A5", "json"):
        "1ad710c46f1332f9b5525f9fb379cbb19543957826949a4479b6df8a0cf90f62",
}


@pytest.mark.parametrize("G,H,fmt", sorted(GOLDEN_BASIS))
def test_basis_output_matches_golden_digest(capsys, G, H, fmt):
    code = run(["--format", fmt, "basis", G, H])
    out = capsys.readouterr().out
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_BASIS[(G, H, fmt)]


GOLDEN_COMMANDS = {
    ("invert-unit", "S4", "--p", "2", "--k", "8"):
        "8306ef73f9c8c9a58b8d737ef0f0135d6e1b83e4cd16b4335e74f05a1c7fc9f1",
    ("stable-basis", "S4", "S4", "--p", "2", "--k", "6"):
        "abe6d70beae87d254fe3a57ade57cb2a6d9182dbdd9e896a6b2532370694db9b",
    ("idempotent", "S4", "--p", "2", "--k", "6"):
        "74acdc0a45dc9c892ad4b4e56f50f04e8c7039aa4be1292682291105de72e371",
    ("verify", "functor", "S3", "S4", "S3", "--p", "2"):
        "a74c4e0219d7cddd0d4023a489043d6bd397458b1c642311eb96c647760c0423",
    ("stable-basis", "D8", "S4", "--p", "2", "--k", "4"):
        "ab8b9fd920bc794198fcefb41d046fa4dae66dbae93a831fff3003d2a46e0015",
    ("stable-basis", "S4", "A4", "--p", "2", "--k", "4"):
        "1fd02fe53a735457c4f77d328f535ab5d53466b8ebeb0b61b477b3e8d2092059",
    ("invert-unit", "D8xC2", "--p", "2", "--k", "4"):
        "7ef88681cac126441ebd3fe78d6096519a8bc35538bf2f2104bd32598c2d3a4d",
    ("verify", "sum", "D8", "--kmax", "3"):
        "54ac26f84730b9ec9556ac4c13bf13695a1a1dcd0b38118a6e1f53d6d9cd1433",
    ("verify", "sum", "S4", "--kmax", "2"):
        "cd90da01a629d54345dd38e5cc354377f3ba05de936e1f1f7a5da977ff43dec6",
    ("--format", "json", "verify", "sum", "S3", "--kmax", "3"):
        "d1e19be2bc8a4d5fd73b064e5fe703a33e05fc86c3fdccfc3e73411b32a30f5b",
    ("--order-cap", "360", "basis", "A6", "C1"):
        "b2a22dd075fac144367e65fc4a7d6f19346010e7b94cddf10df4d083c1d568d7",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_COMMANDS))
def test_command_output_matches_golden_digest(capsys, argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        GOLDEN_COMMANDS[argv]


def _golden_elements() -> dict[str, BurnsideElement]:
    """Fixed elements with many terms: the basis classes in order, with
    coefficients cycling through small values (a zero drops its class)."""
    S3, S4 = parse_group("S3"), parse_group("S4")
    x = BurnsideElement(S4, S3, {b: i % 5 - 2
                                 for i, b in enumerate(basis(S4, S3))})
    y = BurnsideElement(S3, S4, {b: i % 3 + 1
                                 for i, b in enumerate(basis(S3, S4))})
    return {"x": x, "y": y, "xp": x.lift(2, 5)}


GOLDEN_ELEMENT_COMMANDS = {
    ("compose", "x", "y"):
        "1ec11557a78e2df0bd7e79db9c76c3bc56540f6e6cd7a14e93a3bf66680e3fc4",
    ("compose", "y", "x"):
        "11c1d326bae1082b302276f2c11584e51996868d6f0baa4c4dda74fb4554a6dc",
    ("compose", "xp", "y"):
        "7c8d3f3a6b0df468508829ba13be50ce0f00bcfaa3225ea545d83f37140ada44",
    ("--format", "json", "compose", "x", "y"):
        "c597470433d8ae60239e5575d4b0a3a64af16b8bb195c29a4b932af757cb3660",
    ("restrict", "x", "--p", "2"):
        "b2037b5e24550c930913ccb2750774bc91cc972ecd4c31309a26c47726fded10",
    ("restrict", "y", "--p", "3"):
        "e6fc9e07ece9367da1a7930fd9032725a1f71ae1020651c7e1fff83151fae94d",
    ("--format", "json", "restrict", "x", "--p", "2"):
        "7e09b7fdcbe1e81418eca113252ab8d528798456cb7d82cffdf16f863113dd12",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_ELEMENT_COMMANDS))
def test_element_command_output_matches_golden_digest(tmp_path, capsys, argv):
    paths = {}
    for name, x in _golden_elements().items():
        path = tmp_path / f"{name}.json"
        path.write_text(dump_json(element_to_json(x)), encoding="utf-8")
        paths[name] = str(path)
    code = run([paths.get(a, a) for a in argv])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        GOLDEN_ELEMENT_COMMANDS[argv]


def _cold_stdout(hashseed: str, *argv: str,
                 main: tuple = ("-m", "burnfuse.cli")) -> bytes:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join(
                   [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, *main, *argv],
        env=env, capture_output=True, check=True, timeout=120)
    return proc.stdout


def test_basis_stdout_independent_of_hash_seed():
    first = _cold_stdout("0", "basis", "S4", "S4")
    assert first == _cold_stdout("1", "basis", "S4", "S4")
    assert hashlib.sha256(first).hexdigest() == \
        GOLDEN_BASIS[("S4", "S4", "text")]


def _check_hash_seed_independent(argv):
    first = _cold_stdout("0", *argv)
    assert first == _cold_stdout("1", *argv)
    assert hashlib.sha256(first).hexdigest() == GOLDEN_COMMANDS[argv]


def test_invert_unit_stdout_independent_of_hash_seed():
    _check_hash_seed_independent(("invert-unit", "S4", "--p", "2", "--k", "8"))


def test_stable_basis_stdout_independent_of_hash_seed():
    # fusion classes are collected from sets
    _check_hash_seed_independent(
        ("stable-basis", "S4", "S4", "--p", "2", "--k", "6"))


# The CLI after objects of many sizes were allocated and a third of them
# freed, so that burnfuse's objects land at other addresses than in a plain
# run.
_SHIFTED_MAIN = ("-c", """
junk = [bytes(i % 300) for i in range(60000)]
del junk[::3]
from burnfuse.cli import main
main()
""")


@pytest.mark.parametrize("argv", [
    ("stable-basis", "S4", "S4", "--p", "2", "--k", "6"),
    ("--format", "json", "verify", "sum", "C2xC2", "--kmax", "2"),
], ids=["stable-basis", "verify-sum"])
def test_stdout_independent_of_object_addresses(argv):
    # classes hash by identity, so by address: no output may follow the
    # iteration order of a set of classes
    plain = _cold_stdout("0", *argv)
    assert plain and plain == _cold_stdout("0", *argv, main=_SHIFTED_MAIN)
