"""The warm-session workload: one library process, a set-up, then a seeded
stream of operations.

Set-up parses the roster, builds ``basis`` for every ordered pair and the
completion-unit inverse for every (group, p in {2, 3} dividing its order)
at k = 6, then prints ``ready``. The stream mixes four kinds of operation in
equal shares:

* ``complete``: ``complete`` then ``stable_coordinates(., 6)``;
* ``compose``: ``compose`` of two random 1-3-term integer elements;
* ``restrict_opposite``: ``restrict`` to the Sylow pair, then ``opposite``
  (an element that is not bifree is an expected outcome, not a failure);
* ``json_round_trip``: ``element_to_json``, ``dump_json``, ``json.loads``,
  ``element_from_json``, compared with the input.

Operations come from a fixed catalogue (``CATALOGUE_SEED``) whose result
digests are recorded in ``golden.json``; ``--seed`` orders the whole
catalogue into the stream. The order decides which operation pays each
first-time cache miss. Running the whole catalogue, rather than a seeded
sample of it, keeps the latency tail from depending on which expensive
operations a seed happened to draw. Each digest is taken from the raw canonical
data of the result (subgroup elements, map images, coefficients), never
through burnfuse functions, so checking adds nothing to the traced counts.

Child process; the benchmark runs it as::

    PYTHONPATH=src python3 perfbench/child.py REPORT.json perfbench/session.py --seed N
    PYTHONPATH=src python3 perfbench/session.py --seed N --trace STATS.json

and reads ``ready`` and then one JSON line from its standard output. Under
``child.py`` the host-speed probe runs: each latency leaves out the probe's
own time and is scaled to reference-host speed by the probe's recent
samples, and the result line carries the probe time and mean speed ratio
of the set-up (``setup_probe_s``, ``setup_factor``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

import hostspeed

ROSTER = ("S3", "A4", "C6", "D8", "Q8")
PRIMES = (2, 3)
K = 6
KINDS = ("complete", "compose", "restrict_opposite", "json_round_trip")
CATALOGUE_SEED = 170400271
CATALOGUE_PER_KIND = 400
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def _elem_data(x) -> tuple:
    return (x.source.label, x.target.label, x.prime, x.precision,
            [(b.K.elements, b.phi.images,
              c if isinstance(c, int) else c.residue) for b, c in x.terms()])


def _digest(data) -> str:
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]


class Session:
    def __init__(self):
        from burnfuse.completion import completion_unit_inverse
        from burnfuse.burnside import basis
        from burnfuse.groups import parse_group
        self.groups = [parse_group(s) for s in ROSTER]
        self.bases = {(G, H): basis(G, H) for G in self.groups for H in self.groups}
        for H in self.groups:
            for p in PRIMES:
                if H.order % p == 0:
                    completion_unit_inverse(H, p, K)

    def _random_element(self, rng: random.Random, G, H) -> tuple:
        size = len(self.bases[(G, H)])
        picks = rng.sample(range(size), min(size, rng.randint(1, 3)))
        return tuple((i, rng.choice((-3, -2, -1, 1, 2, 3))) for i in picks)

    def catalogue(self) -> dict[str, list[tuple]]:
        """Operation specs per kind: group indices, a prime and element terms
        given as (basis index, coefficient)."""
        rng = random.Random(CATALOGUE_SEED)
        n = len(self.groups)
        out: dict[str, list[tuple]] = {kind: [] for kind in KINDS}
        for kind in KINDS:
            for _ in range(CATALOGUE_PER_KIND):
                g, h, m = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                G, H, M = self.groups[g], self.groups[h], self.groups[m]
                p = rng.choice([q for q in PRIMES if H.order % q == 0])
                x = self._random_element(rng, G, H)
                y = self._random_element(rng, H, M)
                out[kind].append((g, h, m, p, x, y))
        return out

    def element(self, G, H, terms):
        from burnfuse.burnside import BurnsideElement
        basis_gh = self.bases[(G, H)]
        return BurnsideElement(G, H, {basis_gh[i]: c for i, c in terms})

    def run_op(self, kind: str, spec: tuple) -> tuple[float, str]:
        """Run one operation; return its latency in seconds and its digest.
        Under the host-speed probe the latency leaves out the probe's own
        time and is scaled to reference-host speed."""
        from burnfuse import burnside, completion, fusion, groups, serialize
        from burnfuse.errors import BisetError
        g, h, m, p, xs, ys = spec
        G, H, M = self.groups[g], self.groups[h], self.groups[m]
        x = self.element(G, H, xs)
        if kind == "complete":
            start = hostspeed.clock()
            c = completion.complete(x, p, K)
            coords = fusion.stable_coordinates(c, K)
            elapsed = hostspeed.clock() - start
            data = (_elem_data(c.underlying),
                    [([(b.K.elements, b.phi.images) for b in cls], v.residue)
                     for cls, v in coords])
        elif kind == "compose":
            y = self.element(H, M, ys)
            start = hostspeed.clock()
            z = burnside.compose(x, y)
            elapsed = hostspeed.clock() - start
            data = _elem_data(z)
        elif kind == "restrict_opposite":
            start = hostspeed.clock()
            r = burnside.restrict(x, groups.sylow(G, p), groups.sylow(H, p))
            try:
                o = burnside.opposite(r)
            except BisetError:
                o = None
            elapsed = hostspeed.clock() - start
            data = (_elem_data(r), None if o is None else _elem_data(o))
        else:
            start = hostspeed.clock()
            text = serialize.dump_json(serialize.element_to_json(x))
            back = serialize.element_from_json(json.loads(text))
            elapsed = hostspeed.clock() - start
            data = (text, back == x)
        return elapsed * hostspeed.speed(), _digest(data)


def stream(seed: int) -> list[tuple[str, int]]:
    """The seeded operation stream: every catalogue entry, in seeded order."""
    ops = [(kind, i) for kind in KINDS for i in range(CATALOGUE_PER_KIND)]
    random.Random(seed).shuffle(ops)
    return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", default=None,
                    help="write per-layer counters to this file")
    ap.add_argument("--ops", type=int, default=None,
                    help="run only the first N operations of the stream")
    ap.add_argument("--record", action="store_true",
                    help="print the digest of every catalogue entry instead")
    args = ap.parse_args(argv)
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.install()
    session = Session()
    probe = hostspeed.PROBE
    setup = {} if probe is None else {"setup_probe_s": probe.probe_s,
                                      "setup_factor": probe.factor()}
    print("ready", flush=True)

    catalogue = session.catalogue()
    if args.record:
        print(json.dumps({kind: [session.run_op(kind, spec)[1] for spec in specs]
                          for kind, specs in catalogue.items()}))
        return 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["session"]
    ops = stream(args.seed)[:args.ops]
    latencies, errors = [], []
    run_digest = hashlib.sha256()
    for kind, i in ops:
        try:
            elapsed, digest = session.run_op(kind, catalogue[kind][i])
        except Exception as exc:  # every failure is counted, none stops the run
            errors.append(f"{kind}[{i}]: {type(exc).__name__}: {exc}")
            continue
        latencies.append(elapsed)
        run_digest.update(digest.encode())
        if digest != golden[kind][i]:
            errors.append(f"{kind}[{i}]: digest {digest} != golden {golden[kind][i]}")
    if tracer is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(tracer.stats(), fh)
    print(json.dumps({"attempted": len(ops), "failed": len(errors),
                      "errors": errors[:5], "latencies": latencies,
                      "digest": run_digest.hexdigest(), **setup}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
