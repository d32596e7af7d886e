"""Static memory-footprint estimator: predicted bytes-per-node.

The million-node roadmap item needs an answer to "what does one more
node cost?" *before* anyone allocates 10M-node arrays.  This module
computes it statically: the dtype of every scale-critical array
(Topology CSR, depth-cache maps, content-index postings) is taken from
the v3 array inference (:mod:`repro.lint.arrays`) over the committed
source — so a PR that silently widens ``indices`` back to int64 moves
the predicted budget, and CI catches the regression without running a
simulation.

The per-node entry counts are a declared model, not a measurement:
coefficients come from the Fig. 8 seed configuration
(``Fig8TopologyConfig``: 40k nodes, ultrapeer fraction 0.3, ultrapeer
mesh degree 8, 3 leaf uplinks -> 12k*8/2 + 28k*3 = 132k undirected
edges = 3.3 per node, i.e. 6.6 CSR neighbor entries per node;
``GnutellaTraceConfig``: mean library size 120 -> ~120 instances,
~3.5 posting entries per instance = 420 postings and ~40 distinct
terms per node).  docs/performance.md compares these predictions with
measured RSS.  The committed budget lives in ``lint/mem-budget.json``
(``[tool.simlint] mem-budget``); ``--mem-report`` recomputes and fails
on a >2% bytes-per-node regression, ``--write-mem-budget`` re-pins it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.lint.arrays import ITEMSIZE, ArrayInference
from repro.lint.rules import ProjectContext

__all__ = [
    "MEM_BUDGET_SCHEMA",
    "SCALES",
    "SPECS",
    "ArraySpec",
    "build_report",
    "check_budget",
    "load_budget",
    "render_report",
    "write_budget",
]

MEM_BUDGET_SCHEMA = 1

#: Node counts the report prints totals for (seed, roadmap, stretch).
SCALES = (40_000, 1_000_000, 10_000_000)


@dataclass(frozen=True)
class ArraySpec:
    """One scale-critical array: where its dtype is inferred from and
    how many entries it holds per overlay node.

    ``target`` selects the inference query: ``return[i]`` (the i-th
    element of the function's return summary), ``local:name`` (a local
    in the function's environment), or ``attr:name`` (a ``self.name``
    store).  ``seed_itemsize`` is the element width the v0 seed shipped
    with — the fixed reference the shrink ratio is measured against.
    ``fallback`` is assumed (and reported as such) when the inference
    cannot prove a dtype.
    """

    group: str
    structure: str
    array: str
    qualname: str
    target: str
    per_node: float
    seed_itemsize: int
    fallback: str


SPECS: tuple[ArraySpec, ...] = (
    # CSR adjacency + flood depth maps: the structures every BFS touches.
    ArraySpec(
        group="csr_depth",
        structure="Topology",
        array="offsets",
        qualname="repro.overlay.topology._edges_to_csr",
        target="return[0]",
        per_node=1.0,
        seed_itemsize=8,
        fallback="int64",
    ),
    ArraySpec(
        group="csr_depth",
        structure="Topology",
        array="neighbors",
        qualname="repro.overlay.topology._edges_to_csr",
        target="return[1]",
        per_node=6.6,
        seed_itemsize=8,
        fallback="int64",
    ),
    ArraySpec(
        group="csr_depth",
        structure="Topology",
        array="forwards",
        qualname="repro.overlay.topology.two_tier_gnutella",
        target="local:forwards",
        per_node=1.0,
        seed_itemsize=1,
        fallback="bool",
    ),
    ArraySpec(
        group="csr_depth",
        structure="DepthEntry",
        array="depth",
        qualname="repro.overlay.flooding.FloodDepthCache._bfs_with",
        target="local:depth",
        per_node=1.0,
        seed_itemsize=8,
        fallback="int64",
    ),
    # Topology publish: the per-shard CSR copies exported to shared
    # memory (repro.runtime.shm).  Offsets are re-based per shard (one
    # entry per node plus one per shard); neighbors keep global node
    # ids, so both must stay at INDEX_DTYPE width for the sharded
    # footprint to track the flat CSR.
    ArraySpec(
        group="sharding",
        structure="TopologyShard",
        array="offsets",
        qualname="repro.overlay.sharding.partition_topology",
        target="local:offsets",
        per_node=1.0,
        seed_itemsize=4,
        fallback="int32",
    ),
    ArraySpec(
        group="sharding",
        structure="TopologyShard",
        array="neighbors",
        qualname="repro.overlay.sharding.partition_topology",
        target="local:neighbors",
        per_node=6.6,
        seed_itemsize=4,
        fallback="int32",
    ),
    # Content-index postings: per-instance, scaled to per-node by the
    # trace's mean library size.
    ArraySpec(
        group="postings",
        structure="GnutellaShareTrace",
        array="peer_of_instance",
        qualname="repro.tracegen.gnutella_trace.GnutellaShareTrace.__init__",
        target="attr:peer_of_instance",
        per_node=120.0,
        seed_itemsize=8,
        fallback="int64",
    ),
    ArraySpec(
        group="postings",
        structure="SharedContentIndex",
        array="_posting_instances",
        qualname="repro.overlay.content.SharedContentIndex.__init__",
        target="attr:_posting_instances",
        per_node=420.0,
        seed_itemsize=8,
        fallback="int64",
    ),
    ArraySpec(
        group="postings",
        structure="SharedContentIndex",
        array="_posting_offsets",
        qualname="repro.overlay.content.SharedContentIndex.__init__",
        target="attr:_posting_offsets",
        per_node=40.0,
        seed_itemsize=8,
        fallback="int64",
    ),
    # Postings publish: per-shard posting CSR segments exported to
    # shared memory (repro.runtime.shm).
    # Offsets are re-based per shard (one entry per term plus one per
    # shard); instances keep global ids, so both must stay at
    # INDEX_DTYPE width for the sharded footprint to track the dense
    # posting arrays.  These entries were born int32, so their shrink
    # ratio is measured against a 4-byte seed.
    ArraySpec(
        group="posting_shards",
        structure="PostingShard",
        array="offsets",
        qualname="repro.overlay.content.partition_postings",
        target="local:offsets",
        per_node=40.0,
        seed_itemsize=4,
        fallback="int32",
    ),
    ArraySpec(
        group="posting_shards",
        structure="PostingShard",
        array="instances",
        qualname="repro.overlay.content.partition_postings",
        target="local:instances",
        per_node=420.0,
        seed_itemsize=4,
        fallback="int32",
    ),
)


def _resolve_dtype(spec: ArraySpec, inference: ArrayInference) -> tuple[str, bool]:
    """``(dtype, inferred)`` for one spec; falls back with ``False``."""
    dtype: str | None = None
    if spec.target.startswith("return[") and spec.target.endswith("]"):
        position = int(spec.target[len("return[") : -1])
        summary = inference.returns(spec.qualname)
        if position < len(summary):
            dtype = summary[position].dtype
    elif spec.target.startswith("local:"):
        value = inference.env(spec.qualname).get(spec.target[len("local:") :])
        dtype = value.dtype if value is not None else None
    elif spec.target.startswith("attr:"):
        value = inference.attribute_values(spec.qualname).get(
            spec.target[len("attr:") :]
        )
        dtype = value.dtype if value is not None else None
    if dtype is not None and dtype in ITEMSIZE:
        return dtype, True
    return spec.fallback, False


def build_report(project: ProjectContext) -> dict[str, object]:
    """The full memory-budget report over one indexed project."""
    inference = ArrayInference(project.index)
    groups: dict[str, dict[str, object]] = {}
    for spec in SPECS:
        dtype, inferred = _resolve_dtype(spec, inference)
        bytes_per_node = ITEMSIZE[dtype] * spec.per_node
        seed_bytes_per_node = spec.seed_itemsize * spec.per_node
        group = groups.setdefault(
            spec.group,
            {
                "bytes_per_node": 0.0,
                "seed_bytes_per_node": 0.0,
                "arrays": [],
            },
        )
        group["bytes_per_node"] = round(
            float(group["bytes_per_node"]) + bytes_per_node, 3  # type: ignore[arg-type]
        )
        group["seed_bytes_per_node"] = round(
            float(group["seed_bytes_per_node"]) + seed_bytes_per_node, 3  # type: ignore[arg-type]
        )
        group["arrays"].append(  # type: ignore[union-attr]
            {
                "structure": spec.structure,
                "array": spec.array,
                "dtype": dtype,
                "inferred": inferred,
                "entries_per_node": spec.per_node,
                "bytes_per_node": round(bytes_per_node, 3),
            }
        )
    for group in groups.values():
        seed = float(group["seed_bytes_per_node"])  # type: ignore[arg-type]
        current = float(group["bytes_per_node"])  # type: ignore[arg-type]
        group["ratio_vs_seed"] = round(current / seed, 4) if seed else 1.0
    total_bytes_per_node = sum(
        float(group["bytes_per_node"]) for group in groups.values()  # type: ignore[arg-type]
    )
    totals = [
        {
            "nodes": nodes,
            "bytes": int(round(total_bytes_per_node * nodes)),
            "human": _human_bytes(total_bytes_per_node * nodes),
        }
        for nodes in SCALES
    ]
    return {
        "schema": MEM_BUDGET_SCHEMA,
        "groups": dict(sorted(groups.items())),
        "bytes_per_node": round(total_bytes_per_node, 3),
        "totals": totals,
    }


def _human_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}"
        value /= 1024.0
    return f"{value:.1f} GiB"  # pragma: no cover - loop always returns


def render_report(report: dict[str, object]) -> str:
    """Human rendering of :func:`build_report` output."""
    lines = ["simlint memory budget (predicted, static)"]
    groups = report["groups"]
    assert isinstance(groups, dict)
    for name, group in groups.items():
        lines.append(
            f"  {name}: {group['bytes_per_node']} B/node "
            f"(seed {group['seed_bytes_per_node']} B/node, "
            f"ratio {group['ratio_vs_seed']})"
        )
        for entry in group["arrays"]:
            origin = "inferred" if entry["inferred"] else "assumed"
            lines.append(
                f"    {entry['structure']}.{entry['array']}: "
                f"{entry['dtype']} ({origin}) x "
                f"{entry['entries_per_node']}/node = "
                f"{entry['bytes_per_node']} B/node"
            )
    lines.append(f"  total: {report['bytes_per_node']} B/node")
    totals = report["totals"]
    assert isinstance(totals, list)
    for total in totals:
        lines.append(f"    at {total['nodes']:>8} nodes: {total['human']}")
    return "\n".join(lines)


def load_budget(path: Path) -> dict[str, object] | None:
    """The committed budget, or ``None`` when absent/unreadable."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(data, dict) or data.get("schema") != MEM_BUDGET_SCHEMA:
        return None
    return data


def write_budget(path: Path, report: dict[str, object]) -> None:
    """Pin the report as the committed budget (stable formatting)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


def check_budget(
    report: dict[str, object],
    committed: dict[str, object],
    *,
    tolerance: float,
) -> list[str]:
    """Problems where the current prediction regresses past tolerance.

    Regression means *more* bytes per node than committed (beyond
    ``tolerance``, a fraction); improvements are silent — re-pin with
    ``--write-mem-budget`` to ratchet the budget down.
    """
    problems: list[str] = []
    committed_groups = committed.get("groups")
    if not isinstance(committed_groups, dict):
        return ["committed budget has no groups; rewrite with --write-mem-budget"]
    current_groups = report["groups"]
    assert isinstance(current_groups, dict)
    for name, group in current_groups.items():
        pinned = committed_groups.get(name)
        if not isinstance(pinned, dict) or "bytes_per_node" not in pinned:
            problems.append(
                f"group '{name}' is not in the committed budget; "
                f"re-pin with --write-mem-budget"
            )
            continue
        current = float(group["bytes_per_node"])
        limit = float(pinned["bytes_per_node"]) * (1.0 + tolerance)
        if current > limit:
            problems.append(
                f"group '{name}' predicts {current} B/node, exceeding the "
                f"committed {pinned['bytes_per_node']} B/node by more than "
                f"{tolerance:.0%}"
            )
    return problems
