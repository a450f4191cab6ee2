"""Iterative left-right planarity test for simple graphs.

Boolean verdict only, tuned for the solver's hot loops: plain ints and flat
lists, no graph objects, no state kept between calls.  It follows Brandes'
left-right criterion (a DFS orientation with lowpoints and nesting order,
then the conflict-pair test), with both DFS phases on explicit stacks, so
depth is not bounded by the recursion limit.  Vertex labels may be any
hashable values.  The graph must be simple: callers drop parallel edges
and loops.
"""

from __future__ import annotations


def lr_planar(pairs) -> bool:
    """Planarity of the simple graph whose edges are the endpoint ``pairs``.

    The edge of the e-th pair has number e, and every per-edge value is a
    list indexed by it.  A conflict pair is ``[L.low, L.high, R.low,
    R.high]`` with -1 for an empty side.
    """
    m = len(pairs)
    if m <= 8:
        return True  # fewer than 9 edges can hold no Kuratowski subdivision
    index: dict = {}
    inc: list[list[int]] = []  # edge numbers at each vertex
    ends: list[int] = []  # the xor of an edge's two endpoints
    for e, (u, v) in enumerate(pairs):
        a = index.get(u)
        if a is None:
            a = index[u] = len(inc)
            inc.append([])
        b = index.get(v)
        if b is None:
            b = index[v] = len(inc)
            inc.append([])
        inc[a].append(e)
        inc[b].append(e)
        ends.append(a ^ b)
    n = len(inc)
    if m > 3 * n - 6:
        return False

    # phase 1: orient along a DFS; lowpt[e] == -1 marks an unoriented edge
    height = [-1] * n
    parent_edge = [-1] * n
    lowpt = [-1] * m
    lowpt2 = [0] * m  # read for tree edges only
    nesting = [0] * m
    source = [0] * m  # set for tree edges only
    target = [0] * m
    out: list[list[int]] = [[] for _ in range(n)]
    nxt = [0] * n
    roots = []
    for r in range(n):
        if height[r] != -1:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack[-1]
            incv = inc[v]
            hv = height[v]
            pe = parent_edge[v]
            i = nxt[v]
            while i < len(incv):
                e = incv[i]
                i += 1
                if lowpt[e] != -1:
                    continue
                w = ends[e] ^ v
                target[e] = w
                out[v].append(e)
                hw = height[w]
                if hw == -1:  # tree edge: finished when w is popped
                    source[e] = v
                    lowpt[e] = lowpt2[e] = hv
                    parent_edge[w] = e
                    height[w] = hv + 1
                    nxt[v] = i
                    stack.append(w)
                    break
                # back edge, finished here: lowpt hw and lowpt2 hv, which is above
                # both lowpoints of v's parent edge pe (a root has no back edges)
                lowpt[e] = hw
                nesting[e] = 2 * hw
                plow = lowpt[pe]
                if hw < plow:
                    lowpt2[pe] = plow
                    lowpt[pe] = hw
                elif plow < hw < lowpt2[pe]:
                    lowpt2[pe] = hw
            else:
                stack.pop()
                if pe == -1:
                    continue
                u = source[pe]
                low = lowpt[pe]
                nesting[pe] = 2 * low + 1 if lowpt2[pe] < height[u] else 2 * low
                ppe = parent_edge[u]
                if ppe != -1:
                    plow = lowpt[ppe]
                    if low < plow:
                        lowpt2[ppe] = min(plow, lowpt2[pe])
                        lowpt[ppe] = low
                    elif low > plow:
                        lowpt2[ppe] = min(lowpt2[ppe], low)
                    else:
                        lowpt2[ppe] = min(lowpt2[ppe], lowpt2[pe])

    # phase 2: the conflict-pair test over out-edges in nesting order
    key = nesting.__getitem__
    ordered = [sorted(o, key=key) if len(o) > 1 else o for o in out]
    lowpt.append(n)  # lowpt[-1], of an empty side, is above every height
    S: list[list[int]] = []
    stack_bottom = [0] * m
    lowpt_edge = [0] * m
    ref = [-1] * (m + 1)  # ref[-1] takes the links written for an empty side
    nxt = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            i = nxt[v]
            ordv = ordered[v]
            if i < len(ordv):
                nxt[v] = i + 1
                ei = ordv[i]
                stack_bottom[ei] = len(S)
                w = target[ei]
                if ei == parent_edge[w]:  # tree edge: finished when w is popped
                    stack.append(w)
                    continue
                lowpt_edge[ei] = ei  # back edge
                S.append([-1, -1, ei, ei])
            else:
                stack.pop()
                ei = parent_edge[v]
                if ei == -1:
                    continue
                # remove back edges returning to the parent u of v
                u = source[ei]
                hu = height[u]
                while S and min(lowpt[S[-1][0]], lowpt[S[-1][2]]) == hu:
                    S.pop()  # the pair's lowest return edge, hence all of them, ends at u
                if S:
                    P = S[-1]
                    while P[1] != -1 and target[P[1]] == u:
                        P[1] = ref[P[1]]
                    if P[1] == -1 and P[0] != -1:
                        ref[P[0]] = P[2]
                        P[0] = -1
                    while P[3] != -1 and target[P[3]] == u:
                        P[3] = ref[P[3]]
                    if P[3] == -1 and P[2] != -1:
                        ref[P[2]] = P[0]
                        P[2] = -1
                if lowpt[ei] < hu:  # ei has a return edge
                    _, hl, _, hr = S[-1]
                    ref[ei] = hl if hl != -1 and (hr == -1 or lowpt[hl] > lowpt[hr]) else hr
                v = u
                ordv = ordered[v]
            # finish ei at v
            if lowpt[ei] >= height[v]:
                continue  # no return edge
            e = parent_edge[v]
            if ei == ordv[0]:
                lowpt_edge[e] = lowpt_edge[ei]
                continue
            # add constraints of ei: merge its return edges into P's right
            P = [-1, -1, -1, -1]
            while True:
                Q = S.pop()
                if Q[0] != -1 or Q[1] != -1:
                    Q = [Q[2], Q[3], Q[0], Q[1]]
                    if Q[0] != -1 or Q[1] != -1:
                        return False
                if lowpt[Q[2]] > lowpt[e]:
                    if P[2] == -1 and P[3] == -1:
                        P[3] = Q[3]
                    else:
                        ref[P[2]] = Q[3]
                    P[2] = Q[2]
                else:  # align
                    ref[Q[2]] = lowpt_edge[e]
                if len(S) == stack_bottom[ei]:
                    break
            # then the conflicting return edges of earlier siblings into P's left
            lowi = lowpt[ei]
            while True:
                Q = S[-1]
                if not (Q[1] != -1 and lowpt[Q[1]] > lowi or Q[3] != -1 and lowpt[Q[3]] > lowi):
                    break
                S.pop()
                if Q[3] != -1 and lowpt[Q[3]] > lowi:
                    Q = [Q[2], Q[3], Q[0], Q[1]]
                    if Q[3] != -1 and lowpt[Q[3]] > lowi:
                        return False
                ref[P[2]] = Q[3]
                if Q[2] != -1:
                    P[2] = Q[2]
                if P[0] == -1 and P[1] == -1:
                    P[1] = Q[1]
                else:
                    ref[P[0]] = Q[1]
                P[0] = Q[0]
            if P[0] != -1 or P[1] != -1 or P[2] != -1 or P[3] != -1:
                S.append(P)
    return True
