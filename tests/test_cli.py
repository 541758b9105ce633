import json

import pytest

from burnfuse import verify
from burnfuse.burnside import basis, single
from burnfuse.cli import SPLITTING_EXPONENT_CAP, Config, read_config_file, run
from burnfuse.completion import (splitting_idempotent_approx,
                                 verify_splitting_sum)
from burnfuse.errors import InputError
from burnfuse.groups import DEFAULT_SEED, ENUM_CAP, parse_group
from burnfuse.padic import PRECISION_CAP, PRIME_CAP
from burnfuse.serialize import dump_json, element_to_json


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basis_rows(capsys):
    code, out, _ = invoke(capsys, "basis", "C2", "C2")
    assert code == 0
    assert "3 classes" in out


def test_idempotent_closed_form(capsys):
    code, out, _ = invoke(capsys, "idempotent", "S3", "--p", "3", "--k", "4")
    assert code == 0
    assert out.count("41 mod 3^4") == 2


def test_counterexample_reports_value(capsys):
    code, out, _ = invoke(capsys, "verify", "counterexample", "C3", "--p", "2")
    assert code == 0
    assert "PASS" in out
    assert "3 mod 2^" in out


def test_output_deterministic(capsys):
    _, first, _ = invoke(capsys, "basis", "S3", "S3")
    _, second, _ = invoke(capsys, "basis", "S3", "S3")
    assert first == second
    _, j1, _ = invoke(capsys, "--format", "json", "stable-basis", "S3", "S3",
                      "--p", "3", "--k", "3")
    _, j2, _ = invoke(capsys, "--format", "json", "stable-basis", "S3", "S3",
                      "--p", "3", "--k", "3")
    assert j1 == j2


def test_compose_and_json_round_trip(tmp_path, capsys):
    S3 = parse_group("S3")
    x = single(basis(S3, S3)[1])
    path = tmp_path / "x.json"
    path.write_text(dump_json(element_to_json(x)), encoding="utf-8")
    code, out, _ = invoke(capsys, "--format", "json", "compose",
                          str(path), str(path))
    assert code == 0
    data = json.loads(out)
    assert data["source"] == "S3" and data["target"] == "S3"
    # loader accepts what the CLI emits
    path2 = tmp_path / "y.json"
    path2.write_text(out, encoding="utf-8")
    code2, out2, _ = invoke(capsys, "--format", "json", "compose",
                            str(path2), str(path))
    assert code2 == 0


def test_restrict_and_complete(tmp_path, capsys):
    S3 = parse_group("S3")
    path = tmp_path / "id.json"
    path.write_text(dump_json(element_to_json(single(basis(S3, S3)[2]))),
                    encoding="utf-8")
    code, out, _ = invoke(capsys, "restrict", str(path), "--p", "2")
    assert code == 0
    code, out, _ = invoke(capsys, "complete", str(path), "--p", "2", "--k", "4")
    assert code == 0
    assert "stable element" in out


def test_verify_sum_and_functor(capsys):
    code, out, _ = invoke(capsys, "verify", "sum", "S3", "--kmax", "2")
    assert code == 0
    assert "=> PASS" in out
    code, out, _ = invoke(capsys, "verify", "functor", "S3", "S3", "S3",
                          "--p", "2", "--pairs", "3")
    assert code == 0


def test_verify_sum_failure_exit_code(tmp_path, monkeypatch, capsys):
    # an impossible schedule cap forces reported exhaustion and exit 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "burnfuse.toml").write_text(
        "schedule_cap = 0\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "verify", "sum", "S3", "--kmax", "3")
    assert code == 1
    assert "FAIL" in out


def test_negative_schedule_cap_exits_two(tmp_path, monkeypatch, capsys):
    # a schedule that tries no iterate would give a vacuous verdict
    with pytest.raises(InputError):
        verify_splitting_sum(parse_group("S3"), 2, schedule_cap=-1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "burnfuse.toml").write_text(
        "schedule_cap = -1\n", encoding="utf-8")
    code, out, err = invoke(capsys, "verify", "sum", "S3", "--kmax", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_input_errors_exit_two(tmp_path, capsys):
    code, _, err = invoke(capsys, "basis", "Z9", "C2")
    assert code == 2
    assert "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = invoke(capsys, "compose", str(bad), str(bad))
    assert code == 2
    bad.write_bytes(b"\xff\xfe{")
    code, _, err = invoke(capsys, "compose", str(bad), str(bad))
    assert code == 2
    code, _, err = invoke(capsys, "idempotent", "S3", "--p", "4")
    assert code == 2
    code, _, err = invoke(capsys, "verify", "counterexample", "C4", "--p", "2")
    assert code == 2


def test_splitting_command(capsys):
    code, out, _ = invoke(capsys, "splitting", "S3", "--p", "3", "--n", "1")
    assert code == 0
    assert "32" in out


def test_config_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "burnfuse.toml").write_text(
        "precision = 5\nseed = 1  # comment\n", encoding="utf-8")
    cfg = read_config_file()
    assert cfg == {"precision": 5, "seed": 1}
    code, out, _ = invoke(capsys, "idempotent", "S3", "--p", "3")
    assert code == 0
    assert "mod 3^5" in out
    (tmp_path / "burnfuse.toml").write_text("nonsense = 3\n", encoding="utf-8")
    code, _, err = invoke(capsys, "idempotent", "S3", "--p", "3")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["idempotent", "S3", "--p", "3"],
    ["invert-unit", "S3", "--p", "3"],
    ["complete", "ELEMENT", "--p", "2"],
    ["stable-basis", "S3", "S3", "--p", "3"],
    ["verify", "functor", "S3", "S3", "S3", "--p", "2"],
    ["verify", "counterexample", "C3", "--p", "2"],
])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_nonpositive_k_exits_two(tmp_path, capsys, argv, k):
    path = tmp_path / "x.json"
    S3 = parse_group("S3")
    path.write_text(dump_json(element_to_json(single(basis(S3, S3)[2]))),
                    encoding="utf-8")
    argv = [str(path) if a == "ELEMENT" else a for a in argv]
    code, out, err = invoke(capsys, *argv, "--k", k)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["idempotent", "S5", "--p", "2", "--k", "63"],
    ["invert-unit", "S4xC2", "--p", "2", "--k", "64"],
])
def test_precision_past_64_answers(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert f"mod 2^{argv[-1]}" in out


@pytest.mark.parametrize("argv,message", [
    (["idempotent", "S3", "--p", "3", "--k", str(PRECISION_CAP + 1)],
     f"precision {PRECISION_CAP + 1} exceeds the cap {PRECISION_CAP}"),
    (["--precision", str(PRECISION_CAP + 1), "invert-unit", "S3", "--p", "3"],
     f"precision {PRECISION_CAP + 1} exceeds the cap {PRECISION_CAP}"),
    (["idempotent", "S3", "--p", str(2 ** 61 - 1), "--k", "2"],
     f"{2 ** 61 - 1} exceeds the prime cap {PRIME_CAP}"),
    (["splitting", "S3", "--p", str(2 ** 61 - 1), "--n", "1"],
     f"{2 ** 61 - 1} exceeds the prime cap {PRIME_CAP}"),
    (["idempotent", "S3", "--p", "3", "--k", "0"],
     "precision must be at least 1"),
])
def test_scalars_past_their_caps_exit_two(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unreadable_config_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "burnfuse.toml").write_bytes(b"precision = 4 # \xff\n")
    with pytest.raises(InputError):
        read_config_file()
    code, out, err = invoke(capsys, "idempotent", "S3", "--p", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    code, out, err = invoke(capsys, "--config", str(tmp_path),
                            "idempotent", "S3", "--p", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["verify", "functor", "S3", "S3", "S3", "--p", "2", "--pairs", "0"],
    ["verify", "functor", "S3", "S3", "S3", "--p", "2", "--pairs", "-1"],
    ["verify", "sum", "S3", "--kmax", "0"],
    ["verify", "sum", "S3", "--p", "3"],
    ["verify", "sum", "S3", "--kmax", "2", "--k", "0", "--p", "4"],
    ["verify", "all", "--k", "4"],
    ["verify", "counterexample", "C3", "--pairs", "3"],
    ["verify", "sum", "S3", "S4"],
    ["verify", "functor", "S3", "S3"],
])
def test_verify_rejects_vacuous_runs_and_unused_options(capsys, argv):
    # a check that checks nothing, or an option the target never reads,
    # is bad input rather than a pass
    code, out, _ = invoke(capsys, *argv)
    assert (code, out) == (2, "")


def test_splitting_sum_needs_a_power():
    with pytest.raises(InputError):
        verify_splitting_sum(parse_group("S3"), 0)


def test_missing_config_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # only the implicit burnfuse.toml may be absent
    assert invoke(capsys, "basis", "C2", "C2")[0] == 0
    code, out, err = invoke(capsys, "--config", str(tmp_path / "missing.toml"),
                            "basis", "C2", "C2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_negative_splitting_index_exits_two(capsys):
    with pytest.raises(InputError):
        splitting_idempotent_approx(parse_group("S3"), 2, -1)
    code, out, err = invoke(capsys, "splitting", "S3", "--p", "2", "--n", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def splitting_coefficients(fmt, out):
    if fmt == "json":
        return [t["coeff"] for t in json.loads(out)["terms"]]
    return [line.split()[0] for line in out.splitlines()[1:]]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_splitting_exponent_cap(capsys, fmt):
    # (3-1)3^8 = 13,122 is under the cap, (3-1)3^9 = 39,366 is refused
    # before any power is taken
    assert 2 * 3 ** 8 <= SPLITTING_EXPONENT_CAP < 2 * 3 ** 9
    code, out, err = invoke(capsys, "--format", fmt, "splitting", "S3",
                            "--p", "3", "--n", "8")
    assert (code, err) == (0, "")
    assert max(len(c.lstrip("-"))
               for c in splitting_coefficients(fmt, out)) == 3950
    for p, n in ((3, 9), (2, 14), (3, 10 ** 12)):
        code, out, err = invoke(capsys, "--format", fmt, "splitting", "S3",
                                "--p", str(p), "--n", str(n))
        assert (code, out) == (2, "")
        assert err.endswith(f"exceeds the cap {SPLITTING_EXPONENT_CAP}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_splitting_prints_nothing_past_the_digit_limit(capsys, fmt):
    # C10 at p = 2 grows like 5^(2^n): n = 12 prints 2,863-digit
    # coefficients, n = 13 would print 5,726, past Python's 4,300
    code, out, err = invoke(capsys, "--format", fmt, "splitting", "C10",
                            "--p", "2", "--n", "12")
    assert (code, err) == (0, "")
    assert max(len(c.lstrip("-"))
               for c in splitting_coefficients(fmt, out)) == 2863
    code, out, err = invoke(capsys, "--format", fmt, "splitting", "C10",
                            "--p", "2", "--n", "13")
    assert (code, out) == (2, "")
    assert "take a smaller --n" in err


def test_config_validation():
    with pytest.raises(InputError, match="precision"):
        Config(precision=0)
    with pytest.raises(InputError, match="order_cap"):
        Config(order_cap=1)


def test_config_defaults_and_keywords():
    cfg = Config()
    assert (cfg.precision, cfg.order_cap, cfg.schedule_cap, cfg.seed,
            cfg.format) == (8, ENUM_CAP, 8, DEFAULT_SEED, "text")
    cfg = Config(format="json", seed=3, schedule_cap=0, order_cap=2,
                 precision=1)
    assert (cfg.precision, cfg.order_cap, cfg.schedule_cap, cfg.seed,
            cfg.format) == (1, 2, 0, 3, "json")
    assert verify.DEFAULT_SEED == DEFAULT_SEED


def test_invert_unit_command(capsys):
    code, out, _ = invoke(capsys, "invert-unit", "S3", "--p", "3", "--k", "4")
    assert code == 0
    assert out.count("61 mod 3^4") == 2


def test_verify_counterexample_json_envelope(capsys):
    code, out, _ = invoke(capsys, "--format", "json", "verify",
                          "counterexample", "C3", "--p", "2")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True


def test_verify_all_gate(capsys):
    code, out, _ = invoke(capsys, "--format", "json", "verify", "all")
    assert code == 0
    data = json.loads(out)
    assert len(data["criteria"]) == 10
    assert all(c["passed"] for c in data["criteria"])


@pytest.mark.parametrize("first,second", [
    (["basis", "S4", "C2"], ["--order-cap", "10", "basis", "S4", "C2"]),
    (["--order-cap", "250", "basis", "C3xC67", "C1"], ["basis", "C3xC67", "C1"]),
    (["verify", "all"], ["--order-cap", "10", "verify", "all"]),
])
def test_order_cap_applies_to_one_command(capsys, first, second):
    # the second command exits 2 run cold; what ran before must not change that
    assert invoke(capsys, *first)[0] == 0
    code, _, err = invoke(capsys, *second)
    assert code == 2
    assert "enumeration cap" in err
    # the library is back at the default cap
    assert len(basis(parse_group("C13"), parse_group("C1"))) == 2


GOOD_TERM = {"K": ["(1 2)"], "phi": [["(1 2)", "(1 2)"]], "coeff": "1"}


@pytest.mark.parametrize("change", [
    {"scalars": {"p": "x", "k": 2}},
    {"terms": [GOOD_TERM | {"phi": [["(1 2)"]]}]},
    {"terms": [GOOD_TERM | {"K": 7}]},
    {"terms": 5},
    {"terms": ["(1 2)"]},
    {"source": 5},
    {"terms": [GOOD_TERM | {"coeff": 1.5}]},
    # an order-3 generator sent to a transposition is no homomorphism
    {"terms": [{"K": ["(1 2 3)"], "phi": [["(1 2 3)", "(1 2)"]],
                "coeff": "1"}]},
    # a domain generator given two different images
    {"terms": [{"K": ["(1 2)", "(1 2)"],
                "phi": [["(1 2)", "(1 2)"], ["(1 2)", "()"]], "coeff": "1"}]},
])
def test_malformed_element_file_exits_two(tmp_path, capsys, change):
    data = {"source": "S3", "target": "S3", "scalars": "int",
            "terms": [GOOD_TERM]} | change
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = invoke(capsys, "compose", str(path), str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
