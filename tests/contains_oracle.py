"""`lattice.contains` and `lattice.mat_vec` as they were written on QuadNumber
operators: the preimage as four products and two sums, then one subtraction
and integrality test per translate.  The property tests hold the translate
index lookup and the fused integer `mat_vec` to their results and exceptions."""

from ingham.lattice import (
    LatticePoint,
    LatticeSpec,
    Mat2,
    Vec2,
    mat_inv,
    vec_sub,
)


def mat_vec(m: Mat2, v: Vec2) -> Vec2:
    return (
        m[0][0] * v[0] + m[0][1] * v[1],
        m[1][0] * v[0] + m[1][1] * v[1],
    )


def contains(spec: LatticeSpec, p: Vec2) -> LatticePoint | None:
    """Exact membership: the (j, m) with p = l_star @ (u_j + m), if any."""
    y = mat_vec(mat_inv(spec.l_star), p)
    for j, u in enumerate(spec.us):
        r = vec_sub(y, u)
        if r[0].is_integer() and r[1].is_integer():
            return LatticePoint(j, (r[0].p, r[1].p))
    return None
