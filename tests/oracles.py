"""Independent reference implementations used to validate the library.

Everything here is deliberately naive and self-contained: straightforward
loops and textbook formulas, sharing no code with the package under test.
"""

from __future__ import annotations

import numpy as np


def jacobi_eigh(m: np.ndarray, sweeps: int = 100, tol: float = 1e-13) -> np.ndarray:
    """Eigenvalues of a complex Hermitian matrix by cyclic Jacobi rotations.

    Returns the ascending eigenvalues. Convergence criterion: off-diagonal
    Frobenius norm below tol.
    """
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diag(a))) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                app = a[p, p].real
                aqq = a[q, q].real
                # phase rotation to make the pivot real, then a real Jacobi
                # rotation to annihilate it
                phase = apq / abs(apq)
                tau = (aqq - app) / (2 * abs(apq))
                t = np.sign(tau) / (abs(tau) + np.sqrt(1 + tau * tau)) if tau != 0 else 1.0
                c = 1 / np.sqrt(1 + t * t)
                s = t * c
                r = np.eye(n, dtype=complex)
                r[p, p] = c
                r[q, q] = c
                r[p, q] = s * phase
                r[q, p] = -s * np.conj(phase)
                a = r.conj().T @ a @ r
    return np.sort(np.diag(a).real)


def eig2x2(m: np.ndarray) -> np.ndarray:
    """Closed-form ascending eigenvalues of a 2x2 Hermitian matrix."""
    a = float(m[0, 0].real)
    d = float(m[1, 1].real)
    b = complex(m[0, 1])
    mean = (a + d) / 2
    rad = np.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
    return np.array([mean - rad, mean + rad])


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product by the index formula (a (x) b)[(i,k),(j,l)] = a[i,j] b[k,l]."""
    n, m = a.shape
    p, q = b.shape
    out = np.zeros((n * p, m * q), dtype=complex)
    for i in range(n):
        for j in range(m):
            for k in range(p):
                for l in range(q):
                    out[i * p + k, j * q + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(m: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace by explicit index summation over the traced subsystems."""
    import itertools

    n = len(dims)
    keep = tuple(sorted(keep))
    traced = tuple(i for i in range(n) if i not in keep)
    kdims = [dims[i] for i in keep]
    out_dim = int(np.prod(kdims)) if kdims else 1
    out = np.zeros((out_dim, out_dim), dtype=complex)

    def flat(idx: tuple[int, ...]) -> int:
        f = 0
        for i, d in zip(idx, dims):
            f = f * d + i
        return f

    def kflat(idx: tuple[int, ...]) -> int:
        f = 0
        for i, d in zip(idx, kdims):
            f = f * d + i
        return f

    kept_ranges = [range(dims[i]) for i in keep]
    traced_ranges = [range(dims[i]) for i in traced]
    for kr in itertools.product(*kept_ranges):
        for kc in itertools.product(*kept_ranges):
            total = 0.0 + 0.0j
            for t in itertools.product(*traced_ranges):
                row = [0] * n
                col = [0] * n
                for pos, i in zip(keep, kr):
                    row[pos] = i
                for pos, i in zip(keep, kc):
                    col[pos] = i
                for pos, i in zip(traced, t):
                    row[pos] = i
                    col[pos] = i
                total += m[flat(tuple(row)), flat(tuple(col))]
            out[kflat(kr), kflat(kc)] = total
    return out


def embed_oracle(
    m: np.ndarray,
    labels: tuple[str, ...],
    full_dims: tuple[int, ...],
    full_labels: tuple[str, ...],
) -> np.ndarray:
    """m (x) identity on the factors of the full layout that `labels` lacks,
    entry by entry: the entry at row and column multi-indices (in full's
    factor order) is m at those indices restricted to `labels` (in m's own
    order) when the two agree on every missing factor, and 0 otherwise."""
    import itertools

    pos = [full_labels.index(lab) for lab in labels]
    missing = [k for k, lab in enumerate(full_labels) if lab not in labels]

    def flat(idx: tuple[int, ...]) -> int:
        f = 0
        for p in pos:
            f = f * full_dims[p] + idx[p]
        return f

    index_sets = list(itertools.product(*[range(d) for d in full_dims]))
    side = len(index_sets)
    out = np.zeros((side, side), dtype=complex)
    for r, row in enumerate(index_sets):
        for c, col in enumerate(index_sets):
            if all(row[k] == col[k] for k in missing):
                out[r, c] = m[flat(row), flat(col)]
    return out


def ancestors_oracle(
    edges: set[tuple[str, str]], node: str, all_nodes: set[str]
) -> set[str]:
    """Ancestor set (inclusive) by repeated relaxation until a fixed point."""
    anc = {node}
    changed = True
    while changed:
        changed = False
        for p, c in edges:
            if c in anc and p not in anc:
                anc.add(p)
                changed = True
    return anc & all_nodes


def dag_oracle(
    gp_nodes: dict[str, tuple[str, str]],
    gp_edges: set[tuple[str, str]],
    g_nodes: dict[str, tuple[str, str]],
    g_edges: set[tuple[str, str]],
) -> dict:
    """Inflation, nonfanout, injectable sets and independent pairs of gp over g
    by building each ancestral subgraph explicitly.

    Nodes map a name to (kind, base name); gp's bases name nodes of g. A set
    S of gp injects iff the ancestral subgraph of S, relabeled by base, is
    one-to-one and equals the ancestral subgraph of the bases of S in g (same
    nodes, kinds and edges). gp is an inflation iff every single node
    injects; "injectable" lists (set, bases) for the injecting visible sets,
    by size then in node order; "independent" lists the visible pairs of gp
    with no common latent ancestor, or is None if a visible has a visible
    parent.
    """
    import itertools

    def subgraph(nodes, edges, names):
        anc = set()
        for n in names:
            anc |= ancestors_oracle(edges, n, set(nodes))
        return {n: nodes[n] for n in anc}, {(p, c) for p, c in edges if p in anc and c in anc}

    def injects(names):
        sub_nodes, sub_edges = subgraph(gp_nodes, gp_edges, names)
        img_nodes, img_edges = subgraph(g_nodes, g_edges, [gp_nodes[n][1] for n in names])
        relabel = {n: base for n, (kind, base) in sub_nodes.items()}
        if len(set(relabel.values())) != len(relabel):
            return False
        kinds = {relabel[n]: kind for n, (kind, base) in sub_nodes.items()}
        return kinds == {n: kind for n, (kind, base) in img_nodes.items()} and {
            (relabel[p], relabel[c]) for p, c in sub_edges
        } == img_edges

    visibles = [n for n, (kind, base) in gp_nodes.items() if kind == "visible"]
    out: dict = {"inflation": all(injects([n]) for n in gp_nodes)}
    out["nonfanout"] = all(
        len({gp_nodes[c][1] for p, c in gp_edges if p == lat})
        == len([c for p, c in gp_edges if p == lat])
        for lat, (kind, base) in gp_nodes.items() if kind == "latent"
    )
    out["injectable"] = [
        (combo, tuple(gp_nodes[n][1] for n in combo))
        for r in range(1, len(visibles) + 1)
        for combo in itertools.combinations(visibles, r)
        if injects(combo)
    ]
    latent_anc = {
        v: {a for a in ancestors_oracle(gp_edges, v, set(gp_nodes)) if gp_nodes[a][0] == "latent"}
        for v in visibles
    }
    network = all(gp_nodes[p][0] == "latent" for p, c in gp_edges if c in visibles)
    out["independent"] = {
        (a, b) for a, b in itertools.combinations(sorted(visibles), 2)
        if not latent_anc[a] & latent_anc[b]
    } if network else None
    return out


def classical_cut_tensor_oracle(p: np.ndarray, ax: int, ay: int) -> np.ndarray:
    """Pointwise cut inequality for a 3-variable distribution by explicit loops."""
    dims = p.shape
    az = [i for i in range(3) if i not in (ax, ay)][0]
    out = np.zeros(dims)
    for a in range(dims[0]):
        for b in range(dims[1]):
            for c in range(dims[2]):
                o = (a, b, c)

                def single(axis, val):
                    tot = 0.0
                    for idx in np.ndindex(*dims):
                        if idx[axis] == val:
                            tot += p[idx]
                    return tot

                def pair(ax1, v1, ax2, v2):
                    tot = 0.0
                    for idx in np.ndindex(*dims):
                        if idx[ax1] == v1 and idx[ax2] == v2:
                            tot += p[idx]
                    return tot

                out[o] = (
                    1
                    - single(ax, o[ax])
                    - single(ay, o[ay])
                    - single(az, o[az])
                    + single(ax, o[ax]) * single(ay, o[ay])
                    + pair(ax, o[ax], az, o[az])
                    + pair(ay, o[ay], az, o[az])
                )
    return out


def cut_witness_oracle(
    m: np.ndarray, dims: tuple[int, ...], labels: tuple[str, ...], cut: tuple[str, str]
) -> np.ndarray:
    """I_xy entry by entry on the alphabetically sorted label order.

    I_xy = 1 - rho_x - rho_y - rho_z + rho_x (x) rho_y + rho_xz + rho_yz, each
    term read off oracle marginals at the row and column multi-indices.
    """
    import itertools

    x, y = labels.index(cut[0]), labels.index(cut[1])
    (z,) = [i for i in range(3) if i not in (x, y)]
    marg = {
        keep: partial_trace_oracle(m, dims, keep)
        for keep in ((x,), (y,), (z,), tuple(sorted((x, z))), tuple(sorted((y, z))))
    }
    marg[(x, y)] = kron_oracle(marg[(x,)], marg[(y,)])
    signs = {(x,): -1, (y,): -1, (z,): -1, (x, y): 1,
             tuple(sorted((x, z))): 1, tuple(sorted((y, z))): 1}
    order = sorted(range(3), key=lambda i: labels[i])
    index_sets = list(itertools.product(*[range(dims[i]) for i in order]))
    side = len(index_sets)
    out = np.zeros((side, side), dtype=complex)
    for r, row in enumerate(index_sets):
        for c, col in enumerate(index_sets):
            ri = dict(zip(order, row))
            ci = dict(zip(order, col))
            total = 1.0 if ri == ci else 0.0
            for keep, sign in signs.items():
                if any(ri[i] != ci[i] for i in range(3) if i not in keep):
                    continue
                fr = fc = 0
                for i in keep:
                    fr = fr * dims[i] + ri[i]
                    fc = fc * dims[i] + ci[i]
                total += sign * marg[keep][fr, fc]
            out[r, c] = total
    return out


def supp_ker_oracle(
    m: np.ndarray, dims: tuple[int, ...], labels: tuple[str, ...], cuts: list[tuple[str, str]]
) -> list[bool]:
    """Support/kernel criterion on each cut from explicit projectors.

    Operators act on the alphabetically sorted label order. Delta is
    1 - rho_A - rho_B - rho_C + rho_AB + rho_AC + rho_BC, each marginal
    tensored with identities entry by entry; nu_minus is the negative part of
    rho_x (x) rho_y - rho_xy (x, y in layout order). P projects onto the
    eigenvectors of nu_minus (x) 1_z with eigenvalue above 1e-8, Q onto those of
    Delta with |eigenvalue| at most 1e-8; the subspaces meet iff the top
    eigenvalue of P Q P is at least 1 - 1e-6.
    """
    import itertools

    order = sorted(range(3), key=lambda k: labels[k])
    # row r of idx: the local index of every factor, in layout order, of
    # basis vector r of the sorted order
    idx = np.array(list(itertools.product(*[range(dims[k]) for k in order])))
    idx = idx[:, np.argsort(order)]
    subsets = [s for r in (1, 2) for s in itertools.combinations(range(3), r)]
    marg = {s: partial_trace_oracle(m, dims, s) for s in subsets}

    def tensor_identity(a: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
        flat = np.zeros(len(idx), dtype=int)
        for k in keep:
            flat = flat * dims[k] + idx[:, k]
        same = np.ones((len(idx), len(idx)), dtype=bool)
        for k in set(range(3)) - set(keep):
            same &= idx[:, k][:, None] == idx[:, k][None, :]
        return np.where(same, a[flat[:, None], flat[None, :]], 0)

    def projector(h: np.ndarray, keep) -> np.ndarray:
        vals, vecs = np.linalg.eigh(h)
        v = vecs[:, keep(vals)]
        return v @ v.conj().T

    delta = np.eye(len(idx)) + sum(
        (-1) ** len(s) * tensor_identity(marg[s], s) for s in subsets
    )
    q = projector(delta, lambda v: np.abs(v) <= 1e-8)
    out = []
    for cut in cuts:
        i, j = sorted(labels.index(s) for s in cut)
        vals, vecs = np.linalg.eigh(kron_oracle(marg[(i,)], marg[(j,)]) - marg[(i, j)])
        nu_minus = (vecs * np.maximum(-vals, 0.0)) @ vecs.conj().T
        p = projector(tensor_identity(nu_minus, (i, j)), lambda v: v > 1e-8)
        out.append(bool(np.linalg.eigvalsh(p @ q @ p)[-1] >= 1 - 1e-6))
    return out


def ppt_min_oracle(
    wm: np.ndarray, dims: tuple[int, ...], penalty: float, tol: float, max_iter: int
) -> tuple[float, np.ndarray, float, float, int]:
    """PPT-relaxation minimum by consensus ADMM, one cone at a time.

    The four cones (plain PSD, then PSD under the partial transpose of each
    factor) are projected by separate eigendecompositions and every sum runs
    over the cones in that order. Returns (value, minimizer, primal residual,
    dual residual, iterations); the minimizer is the clipped, renormalised and
    symmetrised consensus point.
    """
    d = wm.shape[0]
    n = len(dims)

    def pt(m: np.ndarray, ax: int) -> np.ndarray:
        axes = list(range(2 * n))
        axes[ax], axes[n + ax] = axes[n + ax], axes[ax]
        return m.reshape(tuple(dims) * 2).transpose(axes).reshape(d, d)

    def clip(m: np.ndarray) -> np.ndarray:
        vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
        vals = np.maximum(vals, 0.0)
        return (vecs * vals) @ vecs.conj().T

    def project(i: int, m: np.ndarray) -> np.ndarray:
        return clip(m) if i == 0 else pt(clip(pt(m, i - 1)), i - 1)

    n_cones = n + 1
    z = np.eye(d, dtype=complex) / d
    us = [np.zeros((d, d), dtype=complex) for _ in range(n_cones)]
    primal = dual = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        xs = [project(i, z - us[i]) for i in range(n_cones)]
        avg = sum(x + u for x, u in zip(xs, us)) / n_cones
        h = avg - wm / (n_cones * penalty)
        h = (h + h.conj().T) / 2
        z_new = h - (np.trace(h).real - 1.0) / d * np.eye(d)
        dual = penalty * np.sqrt(n_cones) * float(np.linalg.norm(z_new - z))
        z = z_new
        us = [u + x - z for u, x in zip(us, xs)]
        primal = float(np.sqrt(sum(np.linalg.norm(x - z) ** 2 for x in xs)))
        if max(primal, dual) < tol:
            break
    m = clip(z)
    m /= np.trace(m).real
    value = float(np.real(np.trace(m @ wm)))
    return value, (m + m.conj().T) / 2, primal, dual, it
