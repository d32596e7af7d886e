"""Output checks, run outside every timed window.

* The digest of a phase's whole reply stream must equal the one pinned
  in ``pins.json`` for that workload, seed and length; for a seed
  without a pin it must equal the digest of the same rows evaluated by
  one direct engine call in the benchmark process.
* A seed-determined sample of reply rows is re-evaluated through the
  scalar search path (``UnstructuredNetwork.query_flood`` or
  ``expanding_ring_search``) and must match bitwise.

Regenerate the pins after a deliberate change of the program's outputs:

    python3 perfbench/checks.py --seconds 15 --seeds 40
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    PINS,
    WORKLOADS,
    Workload,
    load_pins,
    phase_seed,
    program_present,
    use_program,
)


def reply_digest(bodies: list[bytes]) -> str:
    """SHA-256 over length-prefixed reply bodies, in request order."""
    h = hashlib.sha256()
    for body in bodies:
        h.update(len(body).to_bytes(8, "little"))
        h.update(body)
    return h.hexdigest()


def pin_key(seed: int, n_requests: int) -> str:
    return f"{seed}/{n_requests}"


def reference_bodies(fixture, workload: Workload, stream) -> list[bytes]:
    """Reply bodies of one direct engine call over the stream's rows."""
    from repro.overlay.batch import BatchOutcome, BatchQueryEngine
    from repro.serve.http import json_bytes
    from repro.serve.protocol import encode_outcome

    engine = BatchQueryEngine(fixture.topology, fixture.content)
    pool = fixture.pool(workload.pool)
    keys = [fixture.content.query_key(pool[int(p)]) for p in stream.picks.ravel()]
    outcome = engine.evaluate_keys(
        stream.sources.ravel(), keys, ttl_schedule=workload.ttl_schedule,
        min_results=1,
    )
    bodies = []
    step = stream.picks.shape[1]
    for lo in range(0, len(keys), step):
        part = BatchOutcome(
            success=outcome.success[lo : lo + step],
            n_results=outcome.n_results[lo : lo + step],
            messages=outcome.messages[lo : lo + step],
            peers_probed=outcome.peers_probed[lo : lo + step],
        )
        bodies.append(json_bytes(encode_outcome(part)))
    return bodies


def expected_digest(fixture, workload: Workload, seed: int, stream) -> tuple[str, str]:
    """The digest a correct reply stream has, and where it came from."""
    pinned = load_pins().get(workload.name, {}).get(
        pin_key(seed, len(stream.requests))
    )
    if pinned:
        return pinned, "pinned"
    return reply_digest(reference_bodies(fixture, workload, stream)), "direct engine call"


def scalar_mismatches(
    fixture, workload: Workload, stream, bodies: list[bytes], indices: list[int]
) -> tuple[int, int]:
    """Re-evaluate the rows of ``indices`` on the scalar path.

    Returns ``(rows checked, rows that differ)``; a reply that is not a
    well-formed outcome of the right length counts every row as
    differing.
    """
    from repro.overlay.expanding_ring import expanding_ring_search
    from repro.overlay.network import UnstructuredNetwork

    network = UnstructuredNetwork(fixture.topology, fixture.content)
    pool = fixture.pool(workload.pool)
    schedule = workload.ttl_schedule
    checked = bad = 0
    for i in indices:
        rows = stream.picks.shape[1]
        checked += rows
        try:
            reply = json.loads(bodies[i])
            columns = [reply[k] for k in ("success", "n_results", "messages", "peers_probed")]
            if reply["n_queries"] != rows or any(len(c) != rows for c in columns):
                raise ValueError("wrong row count")
        except (ValueError, KeyError, TypeError):
            bad += rows
            continue
        for r in range(rows):
            source = int(stream.sources[i, r])
            terms = list(pool[int(stream.picks[i, r])])
            if len(schedule) == 1:
                out = network.query_flood(source, terms, schedule[0])
                want = (out.n_results > 0, out.n_results, out.messages, out.peers_probed)
            else:
                ring = expanding_ring_search(
                    network, source, terms, min_results=1, ttl_schedule=schedule
                )
                final = ring.final
                want = (final.n_results > 0, final.n_results, ring.messages,
                        final.peers_probed)
            got = tuple(c[r] for c in columns)
            bad += got != tuple(type(g)(w) for g, w in zip(got, want))
    return checked, bad


def sample_indices(seed: int, phase: str, n: int, k: int) -> list[int]:
    """``k`` seed-determined request indices out of ``n``."""
    rng = np.random.default_rng(phase_seed(seed, f"check/{phase}"))
    return sorted(rng.choice(n, size=min(k, n), replace=False).tolist())


def write_pins(seconds: int, seeds: range) -> None:
    """Pin the reply digests of ``seeds`` and the Fig. 8 curve digest."""
    from paper import curves_digest
    from streams import Fixture, build_stream

    from repro.core.flood_sim import FloodSimConfig, run_fig8

    fixture = Fixture()
    pins = load_pins()
    for workload in WORKLOADS.values():
        section = pins.setdefault(workload.name, {})
        n = round(workload.fixed_qps * seconds)
        for seed in seeds:
            stream = build_stream(
                fixture, workload, seed, "fixed", qps=workload.fixed_qps, n_requests=n
            )
            bodies = reference_bodies(fixture, workload, stream)
            section[pin_key(seed, n)] = reply_digest(bodies)
            print(f"{workload.name} seed {seed}: pinned", flush=True)
    pins["paper"] = {
        "curves": curves_digest(
            run_fig8(FloodSimConfig(n_eval_objects=80, seed=0, n_workers=1))
        )
    }
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Pin the reply-stream and Fig. 8 digests in pins.json."
    )
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seeds", type=int, default=40, help="pin seeds 0..N-1")
    args = parser.parse_args()
    if not program_present():
        print("no program sources under src/", file=sys.stderr)
        return 2
    use_program()
    write_pins(args.seconds, range(args.seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
