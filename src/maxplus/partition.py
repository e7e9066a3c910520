"""Node partition driven by the maximal multi-circuit sequence.

Circuits are replayed in root order; each circuit either opens a new group
(when it is disjoint from everything seen so far) or pours its new nodes
into the most recent group.  The circuit that opens group s is its
quasi-critical circuit, and the root index at that moment fixes the group's
growth rate.  Nodes on no circuit at all join the last group at the end.

Note one quirk of the replay: a circuit that only touches an *earlier*
group still adds its new nodes to the *last* group.  That is intentional
and the golden example depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charpoly import Mmcs


@dataclass(frozen=True, slots=True)
class NodePartition:
    """Groups N_1..N_r with their quasi-critical circuits and growth rates.

    ``groups[s]`` is the sorted node tuple of group s+1 and
    ``growth_rates[s]`` the root whose circuit opened it.  Rates are weakly
    decreasing.  The s-th expansion term lives on group s and the groups
    after it.
    """

    n: int
    groups: tuple
    growth_rates: tuple
    quasi_critical: tuple

    def __post_init__(self):
        seen = set()
        for grp in self.groups:
            if seen & set(grp):
                raise ValueError("groups must be disjoint")
            seen |= set(grp)
        if self.groups and seen != set(range(self.n)):
            raise ValueError("groups must cover all nodes")
        rates = self.growth_rates
        if any(rates[i] < rates[i + 1] for i in range(len(rates) - 1)):
            raise ValueError("growth rates must be weakly decreasing")

    @property
    def r(self) -> int:
        return len(self.groups)


def partition_nodes(mmcs: Mmcs, n: int) -> NodePartition:
    """Replay the MMCS circuits into groups.

    Circuits inside one multi-circuit are processed in ascending order of
    their smallest node, which pins down the result; the multi-circuit sets
    themselves do not order their members.  An MMCS with no finite roots
    (acyclic graph) yields the empty partition: every power of the matrix
    from n on is the all-bottom matrix, so there is nothing to group.
    """
    if mmcs.p == 0:
        return NodePartition(n, (), (), ())
    groups = []
    creators = []
    rates = []
    covered = set()
    for k in range(1, mmcs.p + 1):
        for circuit in sorted(mmcs.multicircuits[k].circuits, key=lambda c: c.nodes[0]):
            nodes = set(circuit.nodes)
            if nodes & covered:
                groups[-1] |= nodes - covered
                covered |= nodes
            else:
                groups.append(set(nodes))
                creators.append(circuit)
                rates.append(mmcs.roots[k - 1])
                covered |= nodes
    groups[-1] |= set(range(n)) - covered
    return NodePartition(
        n=n,
        groups=tuple(tuple(sorted(g)) for g in groups),
        growth_rates=tuple(rates),
        quasi_critical=tuple(creators),
    )
