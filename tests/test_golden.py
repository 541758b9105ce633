"""Golden outputs of `burnfuse basis`, pinned by SHA-256, and a check that
stdout does not depend on PYTHONHASHSEED.

The digests were recorded from the tuple-arithmetic implementation that
preceded the integer-indexed group kernel, so they also pin that the kernel
picks the same canonical [K, phi] representatives, labels and order.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from burnfuse.cli import run

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
}


@pytest.mark.parametrize("G,H,fmt", sorted(GOLDEN_BASIS))
def test_basis_output_matches_golden_digest(capsys, G, H, fmt):
    code = run(["--format", fmt, "basis", G, H])
    out = capsys.readouterr().out
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_BASIS[(G, H, fmt)]


def _cold_basis_stdout(hashseed: str) -> bytes:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join(
                   [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "burnfuse.cli", "basis", "S4", "S4"],
        env=env, capture_output=True, check=True, timeout=120)
    return proc.stdout


def test_basis_stdout_independent_of_hash_seed():
    first = _cold_basis_stdout("0")
    assert first == _cold_basis_stdout("1")
    assert hashlib.sha256(first).hexdigest() == \
        GOLDEN_BASIS[("S4", "S4", "text")]
