"""The windowed stabilization search for membership in T(J), kept as a test reference.

`cpring.in_relation_ideal` decides membership exactly on the Fock
representation.  Before that, membership was found by growing a window of
relation generators `relation_generators(ctx, k, l)` with k, l <= bound, per
z-degree, and answering "no" once the dimension of the span on the two lowest
levels had stayed the same for three bounds in a row.  A "yes" from it is
exact (the span only grows); a "no" rests on the stabilization heuristic.
`tests/test_membership_crosscheck.py` compares the two procedures.
"""

from cprings.cpring import CpContext, relation_generators
from cprings.exactlin import Subspace, unit_vec, zero_vec
from cprings.tensorpow import CapExceeded, tensor_space
from cprings.toeplitz import ToeplitzElement, component_space, z_project

SLACK = 2  # bounds searched past the element's own degree before "no" may be answered


def _zdeg_layout(system, zdeg: int, max_m: int):
    """Grades (m, m-zdeg) for m up to max_m, with coordinate offsets."""
    offsets, total = {}, 0
    for m in range(max(zdeg, 0), max_m + 1):
        dim = component_space(system, m, m - zdeg).dim
        if dim:
            offsets[(m, m - zdeg)] = (total, dim)
            total += dim
    return offsets, total


def _coords_in_layout(x: ToeplitzElement, offsets, total):
    if any(g not in offsets for g in x.comps):
        return None  # supported outside the layout window
    vec = zero_vec(total)
    for g, (off, dim) in offsets.items():
        comp = x.component(g)
        for i in range(dim):
            vec[off + i] = comp[i]
    return vec


def _span_at(ctx: CpContext, zdeg: int, bound: int):
    """(offsets, total, span) of z-degree-zdeg generators with k, l <= bound."""
    system = ctx.system
    # generators with k,l <= bound occupy m <= bound+1 and n <= bound+1; for
    # negative z-degrees the n side is the binding one
    offsets, total = _zdeg_layout(system, zdeg, bound + 1 + min(zdeg, 0))
    rows = []
    for kq in range(0, bound + 1):
        lp = kq - zdeg
        if lp < 0 or lp > bound:
            continue
        if tensor_space(system, "Q", kq, cap=ctx.cap).dim == 0:
            continue
        if tensor_space(system, "P", lp, cap=ctx.cap).dim == 0:
            continue
        for g in relation_generators(ctx, kq, lp):
            v = _coords_in_layout(g, offsets, total)
            if v is not None:
                rows.append(v)
    return offsets, total, Subspace(total, rows)


def _windowed_dim(span: Subspace, offsets, total) -> int:
    """Dimension of the span's part on the two lowest m-levels of the layout."""
    ms = sorted({g[0] for g in offsets})
    low_cut = ms[min(1, len(ms) - 1)] if ms else 0
    idx = []
    for g, (off, dim) in offsets.items():
        if g[0] <= low_cut:
            idx.extend(range(off, off + dim))
    if not idx:
        return 0
    window = Subspace(total, [unit_vec(total, i) for i in idx])
    return span.intersect(window).dim


def _zdeg_member(ctx: CpContext, xk: ToeplitzElement, zdeg: int, maxdeg: int) -> bool:
    dims = []
    b = 0
    while True:
        bound = maxdeg + b
        if 2 * (bound + 1) > ctx.cap:
            raise CapExceeded(
                f"membership test needs grade total {2 * (bound + 1)} > cap {ctx.cap} "
                f"before the span stabilized")
        offsets, total, span = _span_at(ctx, zdeg, bound)
        if total == 0:
            if xk.is_zero():
                return True
            dims.append(0)
        else:
            xv = _coords_in_layout(xk, offsets, total)
            if xv is not None and span.contains(xv):
                return True
            dims.append(_windowed_dim(span, offsets, total))
        if b >= SLACK and dims[-1] == dims[-2] == dims[-3]:
            return False
        b += 1


def search_in_relation_ideal(ctx: CpContext, x: ToeplitzElement) -> bool:
    """Membership of x in T(J) by the stabilization search, per z-degree."""
    if x.is_zero():
        return True
    maxdeg = max(max(m, n) for m, n in x.support())
    for k in x.z_degrees():
        xk = z_project(x, k)
        if not _zdeg_member(ctx, xk, k, maxdeg):
            return False
    return True
