"""JSON serialisation for kernel-backed graphs and lower-bound witnesses.

Hard instances produced by the adversary are valuable artefacts (regression
inputs, teaching material, cross-implementation checks); this module makes
them portable.  Node labels are arbitrary nested tuples/strings in the
construction, so they are encoded losslessly through a tagged scheme
(:func:`encode_label` / :func:`decode_label` — also reused by the canonical
-form cache in :mod:`repro.engine.cache`).

The current codec is ``repro-graph-v2``: one tagged format covering

* EC-graphs (``kind: "ec"``),
* PO-graphs (``kind: "po"``),
* bare :class:`~repro.graphs.kernel.GraphKernel` snapshots
  (``kind: "kernel"``, with a ``directed`` flag), and
* rooted :class:`~repro.graphs.neighborhoods.Ball` extractions
  (``kind: "ball"``, embedding the subgraph plus root/radius/distances).

Legacy ``repro-ecgraph-v1`` documents (EC-only, written before the kernel
refactor) are still read by :func:`graph_from_json` / :func:`from_json`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, Hashable

from .digraph import POGraph
from .kernel import GraphKernel
from .multigraph import ECGraph

Node = Hashable

__all__ = [
    "GRAPH_FORMAT_V1",
    "GRAPH_FORMAT_V2",
    "encode_label",
    "decode_label",
    "to_json",
    "from_json",
    "graph_to_json",
    "graph_from_json",
    "witness_step_to_json",
]

GRAPH_FORMAT_V1 = "repro-ecgraph-v1"
GRAPH_FORMAT_V2 = "repro-graph-v2"


def encode_label(label: Any) -> Any:
    """Encode a node label (nested tuples of str/int) as tagged JSON.

    Tuples become ``{"t": [...]}``; the int/str/bool/``None`` leaves pass
    through.
    """
    if isinstance(label, tuple):
        return {"t": [encode_label(x) for x in label]}
    if isinstance(label, (str, int, bool)) or label is None:
        return label
    raise TypeError(f"cannot serialise node label of type {type(label).__name__}")


def decode_label(data: Any) -> Any:
    """Inverse of :func:`encode_label`."""
    if isinstance(data, dict) and set(data.keys()) == {"t"}:
        return tuple(decode_label(x) for x in data["t"])
    return data


def _graph_payload(g, kind: str, directed: bool) -> Dict[str, Any]:
    return {
        "format": GRAPH_FORMAT_V2,
        "kind": kind,
        "directed": directed,
        "nodes": [encode_label(v) for v in g.nodes()],
        "edges": [
            {
                "eid": e.eid,
                "u": encode_label(e.tail if directed else e.u),
                "v": encode_label(e.head if directed else e.v),
                "color": e.color,
            }
            for e in g.edges()
        ],
    }


def _payload_of(obj) -> Dict[str, Any]:
    from .neighborhoods import Ball

    if isinstance(obj, ECGraph):
        return _graph_payload(obj, "ec", directed=False)
    if isinstance(obj, POGraph):
        return _graph_payload(obj, "po", directed=True)
    if isinstance(obj, GraphKernel):
        return _graph_payload(obj, "kernel", directed=obj.directed)
    if isinstance(obj, Ball):
        return {
            "format": GRAPH_FORMAT_V2,
            "kind": "ball",
            "graph": _graph_payload(obj.graph, "ec", directed=False),
            "root": encode_label(obj.root),
            "radius": obj.radius,
            "distances": [
                [encode_label(v), d] for v, d in obj.distances.items()
            ],
        }
    raise TypeError(f"cannot serialise object of type {type(obj).__name__}")


def to_json(obj) -> str:
    """Serialise a graph-like object to a ``repro-graph-v2`` document.

    Accepts :class:`ECGraph`, :class:`POGraph`, a frozen
    :class:`~repro.graphs.kernel.GraphKernel`, or a rooted
    :class:`~repro.graphs.neighborhoods.Ball`.  Colours must be
    JSON-representable (ints/strings — all families and the adversary use
    ints).  Edge ids are preserved, so a round trip reproduces the graph
    exactly (and, ids aside, the same kernel digest).
    """
    return json.dumps(_payload_of(obj), sort_keys=True)


def _graph_from_payload(payload: Dict[str, Any]):
    kind = payload.get("kind")
    directed = bool(payload.get("directed", kind == "po"))
    g = POGraph() if directed else ECGraph()
    for label in payload["nodes"]:
        g.add_node(decode_label(label))
    for edge in payload["edges"]:
        g.add_edge(
            decode_label(edge["u"]),
            decode_label(edge["v"]),
            edge["color"],
            eid=edge["eid"],
        )
    if kind == "kernel":
        return g.kernel
    return g


def from_json(text: str):
    """Inverse of :func:`to_json`; also reads legacy ``repro-ecgraph-v1``.

    Returns an :class:`ECGraph`, :class:`POGraph`,
    :class:`~repro.graphs.kernel.GraphKernel` or
    :class:`~repro.graphs.neighborhoods.Ball` according to the document's
    ``kind``; validates the format tag.
    """
    payload = json.loads(text)
    fmt = payload.get("format")
    if fmt == GRAPH_FORMAT_V1:
        legacy = dict(payload, kind="ec", directed=False)
        return _graph_from_payload(legacy)
    if fmt != GRAPH_FORMAT_V2:
        raise ValueError(f"unknown format {fmt!r}")
    kind = payload.get("kind")
    if kind in ("ec", "po", "kernel"):
        return _graph_from_payload(payload)
    if kind == "ball":
        from .neighborhoods import Ball

        graph = _graph_from_payload(payload["graph"])
        return Ball(
            graph=graph,
            root=decode_label(payload["root"]),
            radius=int(payload["radius"]),
            distances={
                decode_label(v): int(d) for v, d in payload["distances"]
            },
        )
    raise ValueError(f"unknown graph kind {kind!r}")


def graph_to_json(g: ECGraph) -> str:
    """Serialise an EC-graph (nodes, edges with ids and colours) to JSON.

    Emits the ``repro-graph-v2`` codec; see :func:`to_json`.
    """
    return to_json(g)


def graph_from_json(text: str) -> ECGraph:
    """Read an EC-graph from ``repro-graph-v2`` or legacy ``repro-ecgraph-v1``."""
    result = from_json(text)
    if not isinstance(result, ECGraph):
        raise ValueError(f"document holds {type(result).__name__}, not an EC-graph")
    return result


def witness_step_to_json(step) -> str:
    """Serialise a :class:`~repro.core.witness.StepWitness` with its graphs.

    Weights are stored as exact ``numerator/denominator`` strings.
    """
    payload = {
        "format": "repro-witness-step-v1",
        "index": step.index,
        "side": step.side,
        "color": step.color,
        "node_g": encode_label(step.node_g),
        "node_h": encode_label(step.node_h),
        "weight_g": str(Fraction(step.weight_g)),
        "weight_h": str(Fraction(step.weight_h)),
        "balls_isomorphic": step.balls_isomorphic,
        "loop_budget": step.loop_budget,
        "graph_g": json.loads(graph_to_json(step.graph_g)),
        "graph_h": json.loads(graph_to_json(step.graph_h)),
    }
    return json.dumps(payload, sort_keys=True)
