"""Batch command-line front end.

Subcommands parse groups and element JSON files, run the module operations,
and emit deterministic text or JSON. Exit status: 0 on success or a passing
verification, 1 on a verification failure, 2 on bad input.
"""

from __future__ import annotations

import argparse
import os
import sys

from .burnside import basis, compose, restrict, single
from .errors import BurnfuseError, InputError
from .groups import DEFAULT_SEED, ENUM_CAP, enumeration_cap, parse_group, sylow
from .padic import check_scalars

# Every command needs the modules imported above. Each handler imports the
# layers it runs (fusion, completion, serialize, verify) in its own body, so
# a cold command loads only those: `basis` in text form loads none of them.

CONFIG_FILE = "burnfuse.toml"
# The largest exponent (p-1)p^n that `splitting` takes. A coefficient of the
# approximant that grows at all grows at least like 2^((p-1)p^n), which past
# 4,300 / log10(2) = 14,284 has more digits than Python converts to text
# (its int-to-str limit); S3 at p = 3, n = 8 (13,122) prints 3,950 digits.
SPLITTING_EXPONENT_CAP = 14_000


class Config:
    """The settings of one command: defaults, then the config file, then
    the command-line options."""

    def __init__(self, precision: int = 8, order_cap: int = ENUM_CAP,
                 schedule_cap: int = 8, seed: int = DEFAULT_SEED,
                 format: str = "text"):
        if precision < 1:
            raise InputError("precision must be at least 1")
        if order_cap < 2:
            raise InputError("order_cap must cover the smallest examples")
        self.precision = precision
        self.order_cap = order_cap
        self.schedule_cap = schedule_cap
        self.seed = seed
        self.format = format


def read_config_file(path: str | None = None) -> dict:
    """The key = value settings in path. Only the implicit burnfuse.toml,
    read when path is None, may be absent."""
    if path is None:
        if not os.path.exists(CONFIG_FILE):
            return {}
        path = CONFIG_FILE
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:  # a directory, not UTF-8
        raise InputError(f"cannot read config from {path}: {exc}") from exc
    out = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"bad config line {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in ("precision", "order_cap", "schedule_cap", "seed"):
            try:
                out[key] = int(value)
            except ValueError as exc:
                raise InputError(f"config key {key} needs an integer") from exc
        else:
            raise InputError(f"unknown config key {key!r}")
    return out


def _element_lines(x, suffix: str = "") -> list[str]:
    if x.is_zero:
        return ["0"]
    out = []
    for b, c in x.terms():
        out.append(f"{str(c):>16}  {b.label()}{suffix}")
    return out


def _print_json(data: dict) -> None:
    from .serialize import dump_json
    print(dump_json(data))


def _emit_element(x, cfg: Config, fusion_context=None) -> None:
    """Print x; the whole output is built before its first line is printed,
    so a failure prints nothing."""
    if cfg.format == "json":
        from .serialize import element_to_json, stable_to_json
        if fusion_context is not None:
            _print_json(stable_to_json(fusion_context))
        else:
            _print_json(element_to_json(x))
        return
    if fusion_context is not None:
        left, right = fusion_context.left_fusion, fusion_context.right_fusion
        lines = [f"stable element for ({left.label}, {right.label})",
                 *_element_lines(x, suffix="_F")]
    else:
        lines = [f"element over ({x.source.label}, {x.target.label})",
                 *_element_lines(x)]
    print("\n".join(lines))


def _scalars(args, default: int = 1) -> tuple[int, int]:
    """The checked --p and --k of a command; k is default when absent."""
    k = default if getattr(args, "k", None) is None else args.k
    check_scalars(args.p, k)
    return args.p, k


def cmd_basis(args, cfg: Config) -> int:
    G, H = parse_group(args.G), parse_group(args.H)
    classes = basis(G, H)
    if cfg.format == "json":
        from .serialize import element_to_json
        payload = {
            "source": G.label, "target": H.label,
            "classes": [element_to_json(single(b))["terms"][0] | {"size": b.size}
                        for b in classes],
        }
        for entry in payload["classes"]:
            del entry["coeff"]
        _print_json(payload)
    else:
        print(f"basis of ({G.label}, {H.label})")
        for i, b in enumerate(classes, 1):
            print(f"{i:>3}  |K|={b.K.order:<4} size={b.size:<5} {b.label()}")
        print(f"{len(classes)} classes")
    return 0


def cmd_compose(args, cfg: Config) -> int:
    from .serialize import load_element
    x = load_element(args.left)
    y = load_element(args.right)
    _emit_element(compose(x, y), cfg)
    return 0


def cmd_restrict(args, cfg: Config) -> int:
    from .serialize import load_element
    p, _ = _scalars(args)
    x = load_element(args.element)
    S, T = sylow(x.source, p), sylow(x.target, p)
    _emit_element(restrict(x, S, T), cfg)
    return 0


def cmd_idempotent(args, cfg: Config) -> int:
    from .fusion import characteristic_idempotent, fusion_system
    p, k = _scalars(args, cfg.precision)
    G = parse_group(args.G)
    w = characteristic_idempotent(fusion_system(G, p), k)
    _emit_element(w.underlying, cfg, fusion_context=w)
    return 0


def cmd_invert_unit(args, cfg: Config) -> int:
    from .completion import completion_unit_inverse
    p, k = _scalars(args, cfg.precision)
    H = parse_group(args.H)
    inv = completion_unit_inverse(H, p, k)
    _emit_element(inv.underlying, cfg, fusion_context=inv)
    return 0


def cmd_complete(args, cfg: Config) -> int:
    from .completion import complete
    from .serialize import load_element
    p, k = _scalars(args, cfg.precision)
    x = load_element(args.element)
    c = complete(x, p, k)
    _emit_element(c.underlying, cfg, fusion_context=c)
    return 0


def cmd_stable_basis(args, cfg: Config) -> int:
    from .fusion import fusion_system, stable_basis
    p, k = _scalars(args, cfg.precision)
    G, H = parse_group(args.G), parse_group(args.H)
    F1, F2 = fusion_system(G, p), fusion_system(H, p)
    sb = stable_basis(F1, F2, k)
    if cfg.format == "json":
        from .serialize import stable_to_json
        _print_json({"leftFusion": {"group": G.label, "p": p},
                     "rightFusion": {"group": H.label, "p": p},
                     "elements": [stable_to_json(s) for s in sb]})
    else:
        print(f"stable basis for ({F1.label}, {F2.label}), {len(sb)} elements")
        for i, s in enumerate(sb, 1):
            print(f"-- element {i}")
            for line in _element_lines(s.underlying, suffix="_F"):
                print(line)
    return 0


def cmd_splitting(args, cfg: Config) -> int:
    from .completion import splitting_idempotent_approx
    p, _ = _scalars(args)
    n, cap = args.n, SPLITTING_EXPONENT_CAP
    # p^n >= 2^n passes the cap once n reaches its bit length, so the
    # power taken stays small however large n is
    if n >= 0 and (p - 1) * p ** min(n, cap.bit_length()) > cap:
        raise InputError(f"the exponent (p-1)p^n = ({p}-1)*{p}^{n} exceeds "
                         f"the cap {cap}")
    G = parse_group(args.G)
    x = splitting_idempotent_approx(G, p, n)
    try:
        _emit_element(x, cfg)
    except ValueError as exc:  # a coefficient past Python's int-to-str limit
        raise InputError("a coefficient has more digits than Python prints "
                         f"({sys.get_int_max_str_digits()}); take a smaller "
                         "--n") from exc
    return 0


def _finish_report(report, cfg: Config) -> int:
    if cfg.format == "json":
        _print_json(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.passed else 1


def cmd_verify_sum(args, cfg: Config) -> int:
    from .completion import verify_splitting_sum
    G = parse_group(args.G)
    report = verify_splitting_sum(G, args.kmax, schedule_cap=cfg.schedule_cap)
    return _finish_report(report, cfg)


def cmd_verify_functor(args, cfg: Config) -> int:
    import random

    from .completion import complete_functor_check
    p, k = _scalars(args, 4)
    G, H, K = map(parse_group, (args.G, args.H, args.K))
    if args.pairs < 1:
        raise InputError("--pairs must be at least 1")
    rng = random.Random(cfg.seed)
    ok = True
    lines = []
    for i in range(args.pairs):
        x = single(rng.choice(basis(G, H)))
        y = single(rng.choice(basis(H, K)))
        rep = complete_functor_check(x, y, p, k)
        ok = ok and rep.passed
        lines.append(f"  {'PASS' if rep.passed else 'FAIL'}  pair {i + 1}")
    if cfg.format == "json":
        _print_json({"title": "functoriality sample",
                     "groups": [G.label, H.label, K.label],
                     "p": p, "k": k, "passed": ok})
    else:
        print(f"functoriality over ({G.label},{H.label},{K.label}) p={p} k={k}")
        print("\n".join(lines))
        print(f"  => {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_verify_counterexample(args, cfg: Config) -> int:
    from .completion import transfer_counterexample_check
    p, k = _scalars(args, cfg.precision)
    H = parse_group(args.H)
    report = transfer_counterexample_check(H, p, k)
    return _finish_report(report, cfg)


def cmd_verify_all(args, cfg: Config) -> int:
    from .verify import run_all
    results = run_all(cfg.seed)
    if cfg.format == "json":
        _print_json({"criteria": [
            {"number": r.number, "name": r.name, "passed": r.passed,
             "elapsed": round(r.elapsed, 2), "details": r.details}
            for r in results]})
    else:
        for r in results:
            print(r.line())
            for d in r.details:
                print(f"        {d}")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burnfuse",
        description="Burnside modules, fusion systems, and p-completion "
                    "of biset algebra for finite groups.")
    parser.add_argument("--format", choices=("text", "json"), default=None)
    parser.add_argument("--precision", type=int, default=None,
                        help="default p-adic precision k")
    parser.add_argument("--order-cap", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--config", default=None,
                        help=f"key=value config file (default: {CONFIG_FILE} "
                             "if present)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, func, help, *positionals):
        sp = parent.add_parser(name, help=help)
        for arg in positionals:
            sp.add_argument(arg)
        sp.set_defaults(func=func)
        return sp

    def p_and_k(sp, p=None):
        """--p, required unless it has a default, and an optional --k."""
        sp.add_argument("--p", type=int, default=p, required=p is None)
        sp.add_argument("--k", type=int, default=None)
        return sp

    command(sub, "basis", cmd_basis,
            "list the canonical basis over (G, H)", "G", "H")
    command(sub, "compose", cmd_compose,
            "compose two element JSON files", "left", "right")
    sp = command(sub, "restrict", cmd_restrict,
                 "restrict an element to Sylow subgroups", "element")
    sp.add_argument("--p", type=int, required=True)
    p_and_k(command(sub, "idempotent", cmd_idempotent,
                    "characteristic idempotent of F_p(G)", "G"))
    p_and_k(command(sub, "invert-unit", cmd_invert_unit,
                    "invert the stabilized Sylow-restricted group biset", "H"))
    p_and_k(command(sub, "complete", cmd_complete,
                    "apply the p-completion map", "element"))
    p_and_k(command(sub, "stable-basis", cmd_stable_basis,
                    "stable basis for a fusion pair", "G", "H"))
    sp = command(sub, "splitting", cmd_splitting,
                 "integer splitting idempotent approximant", "G")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)

    # each verify target declares only the options it reads
    targets = sub.add_parser("verify", help="run verification suites"
                             ).add_subparsers(dest="target", required=True)
    sp = command(targets, "sum", cmd_verify_sum,
                 "splitting idempotents sum check", "G")
    sp.add_argument("--kmax", type=int, default=3)
    sp = p_and_k(command(targets, "functor", cmd_verify_functor,
                         "functoriality sample", "G", "H", "K"), p=2)
    sp.add_argument("--pairs", type=int, default=10)
    p_and_k(command(targets, "counterexample", cmd_verify_counterexample,
                    "transfer counterexample", "H"), p=2)
    command(targets, "all", cmd_verify_all, "the full acceptance suite")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        overrides = read_config_file(args.config)
        if args.precision is not None:
            overrides["precision"] = args.precision
        if args.order_cap is not None:
            overrides["order_cap"] = args.order_cap
        if args.seed is not None:
            overrides["seed"] = args.seed
        fmt = args.format or "text"
        cfg = Config(format=fmt, **overrides)
        with enumeration_cap(cfg.order_cap):
            return args.func(args, cfg)
    except BurnfuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
