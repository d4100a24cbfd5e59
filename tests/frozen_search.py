"""The exact search before its partner lists were split by constraint kind.

A frozen reference: each element's partners are (partner, needs_separation)
pairs in one list, and the heap keys are (size, -unassigned partners,
element) tuples. The package's search must visit exactly the same nodes and
return the same answer on every instance, groups included.
"""

from __future__ import annotations

import heapq

from plabel.labelling import _color_masks


def tuple_keyed_search(domains, cons, p: int, groups):
    """Backtracking with forward checking; returns (assignment | None, nodes).
    cons[i] lists i's partners as (j, needs_separation) pairs."""
    values, near, domains = _color_masks(domains, p)
    count = len(domains)
    assigned: list[int | None] = [None] * count
    live = [len(partners) for partners in cons]
    heap = [(domains[i].bit_count(), -live[i], i) for i in range(count)]
    heapq.heapify(heap)
    heap_cap = 4 * count + 64
    # a one-member group can fail only at the root: once either end is
    # placed, forward checking has left the other end only compatible colors
    groups_of: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(count)]
    for group in groups:
        center, members = group
        if len(members) > 1:
            groups_of[center].append(group)
            for j in members:
                groups_of[j].append(group)

    ball = 2 * p - 1  # colors in the open p-ball around a center color

    def fails(center: int, members: tuple[int, ...]) -> bool:
        colors = 0
        for j in members:
            colors |= domains[j]
        spare = colors.bit_count() - len(members)
        if spare < 0:
            return True
        if spare >= ball:
            return False
        rest = domains[center]
        while rest:
            low = rest & -rest
            if (colors & near[low.bit_length() - 1]).bit_count() <= spare:
                return False
            rest ^= low
        return True

    def place(i: int, low: int):
        """Assign i the color of bit low and prune its unassigned partners;
        returns (ok, trail), the trail holding each changed domain's prior
        mask. Once a partner's domain is empty, the rest are only counted."""
        at = low.bit_length() - 1
        assigned[i] = values[at]
        trail = [(i, domains[i])]
        domains[i] = low
        apart, other = ~near[at], ~low
        ok = True
        for j, sep in cons[i]:
            live[j] -= 1
            if not ok or assigned[j] is not None:
                continue
            dom = domains[j]
            kept = dom & (apart if sep else other)
            if kept != dom:
                trail.append((j, dom))
                domains[j] = kept
                ok = kept != 0
        return ok, trail

    def unplace(i: int, trail) -> None:
        for j, dom in trail:
            domains[j] = dom
        for j, _ in cons[i]:
            live[j] += 1
        assigned[i] = None

    def push_keys(i: int) -> None:
        for j, _ in cons[i]:
            if assigned[j] is None:
                heapq.heappush(heap, (domains[j].bit_count(), -live[j], j))

    def select() -> int:
        nonlocal heap
        if len(heap) > heap_cap:
            heap = [(domains[i].bit_count(), -live[i], i)
                    for i in range(count) if assigned[i] is None]
            heapq.heapify(heap)
        while heap:
            size, neg_live, i = heap[0]
            if assigned[i] is None and size == domains[i].bit_count() and -neg_live == live[i]:
                return i
            heapq.heappop(heap)
        return -1

    for center, members in groups:
        if fails(center, members):
            return None, 0
    first = select()
    if first < 0:
        return [], 0
    nodes = 0
    # frame: [element, its untried colors as a mask, trail of the color whose
    # subtree is being searched, or None before the first color]
    stack = [[first, domains[first], None]]
    while stack:
        frame = stack[-1]
        var, rest, trail = frame
        if trail is not None:  # back from the subtree under the last color
            unplace(var, trail)
            push_keys(var)
            heapq.heappush(heap, (domains[var].bit_count(), -live[var], var))
        while rest:
            low = rest & -rest
            rest ^= low
            nodes += 1
            ok, trail = place(var, low)
            if ok:
                for center, members in groups_of[var]:
                    if fails(center, members):
                        break
                else:
                    break
            unplace(var, trail)
        else:
            stack.pop()
            continue
        frame[1:] = rest, trail
        push_keys(var)
        nxt = select()
        if nxt < 0:
            return list(assigned), nodes
        stack.append([nxt, domains[nxt], None])
    return None, nodes
