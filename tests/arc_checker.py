"""The labelled arc checker that ``routing.validate_routes`` replaced, kept as the
reference its reports are compared with (``tests/test_routing.py``).

``validate_crew_arcs`` takes one crew's raw arc set and ``reference_validate_routes``
runs it over every route of a plan. Both are the checker's code as it stood before
``validate_routes`` became one pass over each route's stops; only the second
function's name differs.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from gridrestore.network import NodeId, node_key
from gridrestore.routing import FAMILIES, RoutePlan, RoutingInstance, ValidationReport


def validate_crew_arcs(
    arcs: Sequence[tuple[NodeId, NodeId]],
    crew: int,
    inst: RoutingInstance,
    mtz_labels: Mapping[NodeId, int] | None = None,
) -> dict[str, list[str]]:
    """Check one crew's raw arc set against all four constraint families.

    Accepts arbitrary arc sets (not only paths) so that constructed
    violations such as detached subtours are detectable.
    """
    out: dict[str, list[str]] = {fam: [] for fam in FAMILIES}
    required = inst.required.get(crew, frozenset())
    damaged = inst.damaged
    tag = f"crew {crew}"

    out_deg: dict[NodeId, int] = {}
    in_deg: dict[NodeId, int] = {}
    for u, v in arcs:
        out_deg[u] = out_deg.get(u, 0) + 1
        in_deg[v] = in_deg.get(v, 0) + 1

    # visit once: every required node entered exactly once, nothing extra
    for i in sorted(required, key=node_key):
        if in_deg.get(i, 0) != 1 or out_deg.get(i, 0) != 1:
            out["visit_once"].append(
                f"{tag}: node {i!r} visited {in_deg.get(i, 0)} time(s), expected exactly 1"
            )
    for i in sorted(set(in_deg) | set(out_deg), key=node_key):
        if i in damaged and i not in required:
            out["visit_once"].append(f"{tag}: node {i!r} visited but not required")

    # depot endpoints: net flow leaves one depot and enters one depot
    depot_out = sum(out_deg.get(d, 0) for d in inst.depots)
    depot_in = sum(in_deg.get(d, 0) for d in inst.depots)
    if arcs and (depot_out != 1 or depot_in != 1):
        out["depot_endpoints"].append(
            f"{tag}: expected exactly one departure from and one arrival at a depot, "
            f"got {depot_out} departure(s), {depot_in} arrival(s)"
        )

    # flow conservation at damaged nodes
    for i in sorted(damaged, key=node_key):
        if in_deg.get(i, 0) != out_deg.get(i, 0):
            out["flow_conservation"].append(
                f"{tag}: node {i!r} has in-degree {in_deg.get(i, 0)} != out-degree {out_deg.get(i, 0)}"
            )

    # MTZ: labels must certify u_i - u_j + |N| <= |N| - 1 on damaged arcs
    n_damaged = len(damaged)
    damaged_arcs = [(u, v) for u, v in arcs if u in damaged and v in damaged]
    if mtz_labels is not None:
        for u, v in damaged_arcs:
            lu, lv = mtz_labels.get(u), mtz_labels.get(v)
            if lu is None or lv is None:
                out["mtz"].append(f"{tag}: arc {u!r} -> {v!r} lacks ordering labels")
            elif lu - lv + n_damaged > n_damaged - 1:
                out["mtz"].append(
                    f"{tag}: arc {u!r} -> {v!r} violates ordering: u[{u!r}]={lu}, u[{v!r}]={lv}"
                )
        for i, lab in mtz_labels.items():
            if lab < 0:
                out["mtz"].append(f"{tag}: label u[{i!r}]={lab} is negative")
    else:
        # no labels supplied: valid labels exist iff the damaged-arc graph is acyclic
        succ: dict[NodeId, list[NodeId]] = {}
        for u, v in damaged_arcs:
            succ.setdefault(u, []).append(v)
        state: dict[NodeId, int] = {}

        def has_cycle(start: NodeId) -> bool:
            stack = [(start, iter(succ.get(start, ())))]
            state[start] = 1
            while stack:
                node, it = stack[-1]
                found = False
                for nxt in it:
                    if state.get(nxt, 0) == 1:
                        return True
                    if state.get(nxt, 0) == 0:
                        state[nxt] = 1
                        stack.append((nxt, iter(succ.get(nxt, ()))))
                        found = True
                        break
                if not found:
                    state[node] = 2
                    stack.pop()
            return False

        for start in sorted(succ, key=node_key):
            if state.get(start, 0) == 0 and has_cycle(start):
                out["mtz"].append(f"{tag}: damaged-node arcs contain a cycle; no valid ordering labels exist")
                break
    return out


def reference_validate_routes(plan: RoutePlan, inst: RoutingInstance) -> ValidationReport:
    """Check a plan against the four routing constraint families.

    Never raises; every problem lands in the report.
    """
    merged: dict[str, list[str]] = {fam: [] for fam in FAMILIES}
    for k in sorted(inst.required):
        required = inst.required[k]
        route = plan.routes.get(k)
        if route is None:
            if required:
                merged["visit_once"].append(
                    f"crew {k}: no route although {len(required)} node(s) require it"
                )
            continue
        if not required:
            merged["visit_once"].append(f"crew {k}: route present but nothing requires it")
        if route.depot_start not in inst.depots:
            merged["depot_endpoints"].append(
                f"crew {k}: start {route.depot_start!r} is not a depot"
            )
        if route.depot_end not in inst.depots:
            merged["depot_endpoints"].append(
                f"crew {k}: end {route.depot_end!r} is not a depot"
            )
        crew_report = validate_crew_arcs(route.arcs(), k, inst, route.mtz_labels)
        # labels must also strictly increase along the visit order
        order = route.visit_order
        for a, b in zip(order, order[1:]):
            la, lb = route.mtz_labels.get(a), route.mtz_labels.get(b)
            if la is None or lb is None or not la < lb:
                crew_report["mtz"].append(
                    f"crew {k}: labels not strictly increasing at {a!r} -> {b!r}"
                )
        for fam in FAMILIES:
            merged[fam].extend(crew_report[fam])
    for k in sorted(plan.routes):
        if k not in inst.required:
            merged["visit_once"].append(f"crew {k}: route present for unknown crew")
    return ValidationReport({fam: tuple(v) for fam, v in merged.items()})
