"""Independent reference implementations used only by the test suite.

Everything here is written as plain loops over Python floats, directly
off the defining formulas, and deliberately shares no code with the
package: no vectorized numpy path, no stabilized softmax, no shared
normalization helpers. Agreement between these and the package is the
point of the comparison tests, so keep them primitive.
"""

import math

import numpy as np


def rel_err(approx, reference, floor: float = 1e-12) -> float:
    """Max-norm relative error with a floor for near-zero references."""
    a = np.asarray(approx, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    denom = max(float(np.abs(r).max(initial=0.0)), floor)
    return float(np.abs(a - r).max(initial=0.0)) / denom


def _cos(u, v):
    dot = sum(float(a) * float(b) for a, b in zip(u, v))
    nu = math.sqrt(sum(float(a) ** 2 for a in u))
    nv = math.sqrt(sum(float(b) ** 2 for b in v))
    return dot / (nu * nv)


def naive_association(V, T):
    """Cosine association and its per-row softmax, as nested loops."""
    V, T = np.asarray(V), np.asarray(T)
    b, m = V.shape[0], T.shape[0]
    raw = [[_cos(V[i], T[j]) for j in range(m)] for i in range(b)]
    norm = []
    for i in range(b):
        exps = [math.exp(raw[i][j]) for j in range(m)]
        z = sum(exps)
        norm.append([e / z for e in exps])
    return np.array(raw), np.array(norm)


def naive_prototypes(A_norm, V):
    """P_j = sum_k A(k, j) V_k / sum_k A(k, j), column by column."""
    A_norm, V = np.asarray(A_norm), np.asarray(V)
    b, m = A_norm.shape
    d = V.shape[1]
    P = np.zeros((m, d))
    mass = np.zeros(m)
    for j in range(m):
        mass[j] = sum(float(A_norm[k][j]) for k in range(b))
        for t in range(d):
            P[j][t] = (
                sum(float(A_norm[k][j]) * float(V[k][t]) for k in range(b)) / mass[j]
            )
    return P, mass


def naive_reconstruction(A_norm, P):
    """V_hat_i = sum over categories k of A(i, k) P_k."""
    A_norm, P = np.asarray(A_norm), np.asarray(P)
    b, m = A_norm.shape
    d = P.shape[1]
    out = np.zeros((b, d))
    for i in range(b):
        for k in range(m):
            for t in range(d):
                out[i][t] += float(A_norm[i][k]) * float(P[k][t])
    return out


def naive_loss_pir(V_hat, V):
    V_hat, V = np.asarray(V_hat), np.asarray(V)
    b, d = V.shape
    total = 0.0
    for i in range(b):
        total += sum((float(V_hat[i][t]) - float(V[i][t])) ** 2 for t in range(d))
    return total / b


def naive_loss_ca(P, T):
    """Symmetric InfoNCE over cosine logits between prototypes and categories."""
    P, T = np.asarray(P), np.asarray(T)
    m = P.shape[0]
    s = [[_cos(P[i], T[j]) for j in range(m)] for i in range(m)]
    p2c = 0.0
    for i in range(m):
        denom = sum(math.exp(s[i][k]) for k in range(m))
        p2c += -math.log(math.exp(s[i][i]) / denom)
    c2p = 0.0
    for j in range(m):
        denom = sum(math.exp(s[k][j]) for k in range(m))
        c2p += -math.log(math.exp(s[j][j]) / denom)
    return 0.5 * (p2c / m + c2p / m)


def naive_loss_entropy(A_norm):
    A_norm = np.asarray(A_norm)
    b, m = A_norm.shape
    total = 0.0
    for i in range(b):
        for j in range(m):
            p = float(A_norm[i][j])
            if p > 0.0:
                total += p * math.log(p)
    return -total / b


def naive_conv3x3_same(x, w):
    """out[b][d][y][x] = sum over c, i, j of w[d][c][i][j] x[b][c][y+i-1][x+j-1],
    with taps that fall outside the image reading zero."""
    x, w = np.asarray(x), np.asarray(w)
    bsz, cin, h, wd = x.shape
    dout = w.shape[0]
    out = np.zeros((bsz, dout, h, wd))
    for b in range(bsz):
        for d in range(dout):
            for y in range(h):
                for xx in range(wd):
                    acc = 0.0
                    for c in range(cin):
                        for i in range(3):
                            for j in range(3):
                                yy, xj = y + i - 1, xx + j - 1
                                if 0 <= yy < h and 0 <= xj < wd:
                                    acc += float(w[d][c][i][j]) * float(x[b][c][yy][xj])
                    out[b][d][y][xx] = acc
    return out


def naive_conv3x3_same_vjp(g, w, x_shape):
    """Input gradient of :func:`naive_conv3x3_same`: every output cell
    scatters g times each tap's weight back onto the input pixel it read."""
    g, w = np.asarray(g), np.asarray(w)
    bsz, cin, h, wd = x_shape
    dout = w.shape[0]
    gx = np.zeros(x_shape)
    for b in range(bsz):
        for d in range(dout):
            for y in range(h):
                for xx in range(wd):
                    gv = float(g[b][d][y][xx])
                    for c in range(cin):
                        for i in range(3):
                            for j in range(3):
                                yy, xj = y + i - 1, xx + j - 1
                                if 0 <= yy < h and 0 <= xj < wd:
                                    gx[b][c][yy][xj] += float(w[d][c][i][j]) * gv
    return gx


def naive_conv_encoder(imgs, weights, tokens, s):
    """The conv encoder's features for (B, C, H, W) images, as loops: conv,
    add token (y // s) * (W // s) + x // s to every pixel of its s x s
    block, tanh, then conv + tanh twice, then the mean over all pixels."""
    w1, w2, w3 = weights
    tokens = np.asarray(tokens)
    z = naive_conv3x3_same(imgs, w1)
    bsz, dim, h, wd = z.shape
    for b in range(bsz):
        for d in range(dim):
            for y in range(h):
                for x in range(wd):
                    tok = (y // s) * (wd // s) + x // s
                    z[b][d][y][x] = math.tanh(float(z[b][d][y][x]) + float(tokens[tok][d]))
    for w in (w2, w3):
        z = naive_conv3x3_same(z, w)
        for b in range(bsz):
            for d in range(dim):
                for y in range(h):
                    for x in range(wd):
                        z[b][d][y][x] = math.tanh(float(z[b][d][y][x]))
    out = np.zeros((bsz, dim))
    for b in range(bsz):
        for d in range(dim):
            out[b][d] = sum(float(z[b][d][y][x]) for y in range(h) for x in range(wd)) / (h * wd)
    return out


def _vecmat(x, w):
    """Row vector x times matrix w."""
    return [sum(float(x[i]) * float(w[i][j]) for i in range(len(x))) for j in range(len(w[0]))]


def _centre(row):
    mean = sum(row) / len(row)
    return [v - mean for v in row]


def _naive_vit_block(x, blk):
    """One attention block on token rows x, from the unfolded weights."""
    n, d = len(x), len(x[0])
    xc = [_centre(row) for row in x]
    q = [_vecmat(row, blk["wq"]) for row in xc]
    k = [_vecmat(row, blk["wk"]) for row in xc]
    v = [_vecmat(row, blk["wv"]) for row in xc]
    mixed = []
    for i in range(n):
        logits = [sum(q[i][t] * k[j][t] for t in range(d)) / math.sqrt(d) for j in range(n)]
        exps = [math.exp(s) for s in logits]
        z = sum(exps)
        attended = [sum(exps[j] / z * v[j][t] for j in range(n)) for t in range(d)]
        out = _vecmat(attended, blk["wo"])
        mixed.append([x[i][t] + out[t] for t in range(d)])
    result = []
    for row in mixed:
        hidden = [math.tanh(u) for u in _vecmat(_centre(row), blk["w1"])]
        mlp = _vecmat(hidden, blk["w2"])
        result.append([row[t] + mlp[t] for t in range(d)])
    return result


def naive_vit_encoder(imgs, w_embed, blocks, tokens, grid, insertion_layer):
    """The attention encoder's features for (B, C, H, W) images, as loops
    over the seeded weights. Patch i (row-major over the grid), flattened
    in (c, y, x) order, times the embedding is token i. Token i of the
    adapter is added to token i before block ``insertion_layer`` (after the
    last block when it equals the block count). Each block centres every
    token on its feature mean, forms q, k and v, softmaxes
    q_i . k_j / sqrt(D) over j, mixes v, applies wo and adds the residual,
    then runs tanh(centre(x) w1) w2 and adds the residual. The feature is
    the token mean."""
    imgs, tokens = np.asarray(imgs), np.asarray(tokens)
    bsz, c, h, w = imgs.shape
    gr, gc = grid
    ph, pw = h // gr, w // gc
    out = []
    for b in range(bsz):
        x = []
        for pr in range(gr):
            for pc in range(gc):
                patch = [
                    imgs[b][ch][pr * ph + y][pc * pw + xx]
                    for ch in range(c)
                    for y in range(ph)
                    for xx in range(pw)
                ]
                x.append(_vecmat(patch, w_embed))
        for layer in range(len(blocks) + 1):
            if layer == insertion_layer:
                x = [[u + float(tokens[i][t]) for t, u in enumerate(row)] for i, row in enumerate(x)]
            if layer < len(blocks):
                x = _naive_vit_block(x, blocks[layer])
        n, d = len(x), len(x[0])
        out.append([sum(x[i][t] for i in range(n)) / n for t in range(d)])
    return np.array(out)
