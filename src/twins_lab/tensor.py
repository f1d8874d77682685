"""Dense tensors with reverse-mode automatic differentiation.

Every tensor wraps a numpy array (float32 for experiments, float64 for
verification). Image-shaped tensors are NCHW in shape at every
interface, but conv and batch-norm outputs are channels-last in memory
(C innermost): each is the (N, C, H, W) transposed view of an
(N, H, W, C) array. Elementwise ops keep their operands' memory order,
and a ``.grad`` may have any memory order.

The op set is the one the network runs, each a single graph node with a
closed-form backward: ``conv2d``, the two batch-norm-and-ReLU nodes,
``global_avg_pool``, ``linear`` (the classifier head), the fused
cross-entropy and KL losses, and ``feature_distance`` (lwf's penalty).
``+`` and ``*`` take an operand of the same shape or a scalar, and
``sum()`` reduces to a scalar; they combine loss terms and let tests
weight an output. None of them broadcasts.

Operations record their inputs and a backward closure on the output
node; ``backward`` replays the closures in reverse topological order,
passing each its node's gradient. A node is recorded only when one of
its operands is tracked (requires gradients, or is itself recorded), so
constant subgraphs cost nothing at backward time. A closure refers to
its operands but never to its own node, so a graph holds no reference
cycle and is freed as soon as its loss goes out of scope. Callers that
loop over steps (training, PGD, evaluation) drop a step's loss, logits
and captured nodes once its scalar, sign or argmax has been read, before
the next step builds its graph: one graph is live at a time, and the
next step's same-shaped arrays reuse its memory.

Which operands receive a gradient is decided once, when a node is
recorded: its closure adds into exactly the operands that were tracked
at that moment, and a reverse pass gives every recorded node a
gradient. A ``.grad`` is made on first write: the first contribution
becomes it and later ones are added out of place, so after the pass a
``.grad`` is read-only and may share memory with a neighbour's.

Parameters are the only operands whose ``.grad`` outlives a pass. An
untracked parameter is not in the graph, and its ``.grad`` may be left
over from an earlier pass. A forward whose parameters do not require
gradients also keeps nothing that only their gradients read: ``conv2d``
drops its im2col columns, ``batch_norm_fixed`` scales x-hat into its
output in place instead of keeping it, and ``linear`` drops its
flattened input. Forwards that train nothing run in
``untracked(params)``: ``pgd_attack``'s graphs have the input as their
only leaf and hold only what its gradient needs, so two share no node
and may be built and differentiated in two threads at once; every other
such forward records no node.
"""

import contextlib

import numpy as np

_FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


def _as_float_array(data, dtype=None):
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in _FLOAT_DTYPES:
        arr = arr.astype(np.float64)
    return arr


def _accumulate(t, g):
    """Add the gradient contribution `g` into `t.grad`.

    The first contribution becomes `t.grad` itself; later ones are added
    out of place, so no contribution is ever written through. The sum is
    cast to `t`'s dtype, as an in-place add into a buffer would be.
    """
    if t.grad is None:
        t.grad = np.asarray(g, dtype=t.data.dtype)
    else:
        t.grad = np.asarray(t.grad + g, dtype=t.data.dtype)


class Tensor:
    """A dense array node in a differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_float_array(data, dtype)
        self.grad = None
        self.requires_grad = requires_grad
        self._prev = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def _tracked(self):
        return self.requires_grad or bool(self._prev)

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    # -- graph plumbing --------------------------------------------------

    @staticmethod
    def _make(value, parents, backward):
        out = Tensor(value)
        tracked = tuple(p for p in parents if p._tracked())
        if tracked:
            out._prev = tracked
            out._backward = backward
        return out

    def backward(self):
        """Set `.grad` of every node in the graph to d(self)/d(node).

        Each `.grad` is made on first write, so treat it as read-only: it
        may be the very array of a neighbouring node's `.grad`.
        """
        if self.data.size != 1:
            raise ShapeError("backward requires a scalar loss node")
        topo = []
        visited = {id(self)}
        stack = [(self, iter(self._prev))]
        while stack:
            node, it = stack[-1]
            child = next(it, None)
            if child is None:
                stack.pop()
                topo.append(node)
            elif id(child) not in visited:
                visited.add(id(child))
                child.grad = None  # drop what an earlier pass left
                stack.append((child, iter(child._prev)))
        self.grad = np.ones_like(self.data)
        # topo lists every node after its operands, so each node's
        # consumers have all added into it by the time its closure runs
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # -- elementwise arithmetic ------------------------------------------

    def _operand(self, other):
        """`other` as a Tensor of this shape, or a scalar constant."""
        if not isinstance(other, Tensor):
            other = Tensor(np.asarray(other, dtype=self.data.dtype))
            if other.data.ndim == 0:
                return other
        if other.data.shape != self.data.shape:
            raise ShapeError(f"operand shapes differ: {self.data.shape} "
                             f"vs {other.data.shape}")
        return other

    def __add__(self, other):
        a, b = self, self._operand(other)
        grad_a, grad_b = a._tracked(), b._tracked()

        def bk(dout):
            if grad_a:
                _accumulate(a, dout)
            if grad_b:
                _accumulate(b, dout)

        return Tensor._make(a.data + b.data, (a, b), bk)

    __radd__ = __add__

    def __mul__(self, other):
        a, b = self, self._operand(other)
        grad_a, grad_b = a._tracked(), b._tracked()

        def bk(dout):
            if grad_a:
                _accumulate(a, dout * b.data)
            if grad_b:
                _accumulate(b, dout * a.data)

        return Tensor._make(a.data * b.data, (a, b), bk)

    __rmul__ = __mul__

    def sum(self):
        """The sum of every entry, as a 0-d node."""
        a = self

        def bk(dout):
            _accumulate(a, np.broadcast_to(dout, a.data.shape))

        return Tensor._make(a.data.sum(), (a,), bk)


# -- dense layers --------------------------------------------------------


def linear(x, w, b):
    """x @ w + b with x's trailing axes flattened: (N, ...) -> (N, K)."""
    n = x.data.shape[0]
    x2 = x.data.reshape(n, -1)
    if w.data.ndim != 2 or x2.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear: input {x.data.shape} does not match "
                         f"weight {w.data.shape}")
    if b.data.shape != w.data.shape[1:]:
        raise ShapeError(f"linear: bias {b.data.shape} does not match "
                         f"weight {w.data.shape}")

    val = x2 @ w.data + b.data
    grad_x, grad_w, grad_b = x._tracked(), w._tracked(), b._tracked()
    if not grad_w:
        x2 = None  # only the weight gradient reads the input

    def bk(dout):
        if grad_b:
            _accumulate(b, dout.sum(axis=0))
        if grad_w:
            _accumulate(w, x2.T @ dout)
        if grad_x:
            _accumulate(x, (dout @ w.data.T).reshape(x.data.shape))

    return Tensor._make(val, (x, w, b), bk)


def global_avg_pool(x):
    """Spatial mean per channel: (N,C,H,W) -> (N,C)."""
    if x.data.ndim != 4:
        raise ShapeError("global_avg_pool expects NCHW input")
    inv = np.asarray(1.0 / (x.data.shape[2] * x.data.shape[3]), x.data.dtype)

    def bk(dout):
        _accumulate(x, np.broadcast_to((dout * inv)[:, :, None, None],
                                       x.data.shape))

    return Tensor._make(x.data.sum(axis=(2, 3)) * inv, (x,), bk)


def feature_distance(feats, ref):
    """Mean over rows of the L2 distance from `feats` to the constant
    array `ref`. A row at distance 0 gets a zero gradient."""
    if feats.data.ndim != 2 or feats.data.shape != np.shape(ref):
        raise ShapeError(f"feature_distance: features {feats.data.shape} "
                         f"vs reference {np.shape(ref)}")
    d = feats.data - ref
    dist = np.sqrt((d * d).sum(axis=1))
    inv = np.asarray(1.0 / dist.size, feats.data.dtype)

    def bk(dout):
        live = dist > 0
        g = np.where(live, dout * inv / (2.0 * np.where(live, dist, 1.0)),
                     0.0)
        _accumulate(feats, 2.0 * (g[:, None] * d))

    return Tensor._make(dist.sum() * inv, (feats,), bk)


# -- convolution ---------------------------------------------------------


def _im2col(x, kh, kw, stride, pad):
    """The (N, C, kh, kw, Ho, Wo) windows of `x`, zero-padded in x's
    memory order."""
    n, c, h, w = x.shape
    if pad:
        xp = np.zeros_like(x, shape=(n, c, h + 2 * pad, w + 2 * pad))
        xp[:, :, pad:pad + h, pad:pad + w] = x
        x = xp
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    cols = np.lib.stride_tricks.as_strided(
        x, (n, c, kh, kw, ho, wo),
        (s0, s1, s2, s3, s2 * stride, s3 * stride))
    return cols, ho, wo


def _im2col_matrix(x, kh, kw, stride, pad):
    """The im2col columns of `x`, copied in the order x's memory favours.

    An NCHW-contiguous x (an image, or any one-channel tensor) gives
    (N, C*kh*kw, Ho*Wo) columns; any other, such as a channels-last
    activation, gives (N*Ho*Wo, kh*kw*C) rows whose runs of C are
    contiguous in x.
    """
    cols, ho, wo = _im2col(x, kh, kw, stride, pad)
    n, c = x.shape[:2]
    if x.flags.c_contiguous:
        return cols.reshape(n, c * kh * kw, ho * wo), ho, wo
    return (cols.transpose(0, 4, 5, 2, 3, 1).reshape(n * ho * wo, kh * kw * c),
            ho, wo)


def _conv2d_forward(x, k, stride, pad):
    """Returns the (N, O, Ho, Wo) output, channels-last in memory, and the
    im2col columns it used."""
    o, _, kh, kw = k.shape
    n = x.shape[0]
    cols, ho, wo = _im2col_matrix(x, kh, kw, stride, pad)
    if cols.ndim == 3:
        # (N, Ho*Wo, C*kh*kw) @ (C*kh*kw, O) -> (N, Ho*Wo, O)
        out = cols.transpose(0, 2, 1) @ k.reshape(o, -1).T
    else:
        # (N*Ho*Wo, kh*kw*C) @ (kh*kw*C, O) -> (N*Ho*Wo, O)
        out = cols @ k.transpose(0, 2, 3, 1).reshape(o, -1).T
    return out.reshape(n, ho, wo, o).transpose(0, 3, 1, 2), cols


def conv2d_weight_grad(x, grad_out, kh, kw, stride, pad, cols=None):
    """d(conv2d)/d(kernel) given the input and the output adjoint.

    `cols` are the forward pass's im2col columns of `x`; without them
    they are rebuilt. Both ways contract the same 2-D GEMM.
    """
    if cols is None:
        cols, _, _ = _im2col_matrix(x, kh, kw, stride, pad)
    n, o = grad_out.shape[:2]
    c = x.shape[1]
    if cols.ndim == 3:
        dk = np.tensordot(grad_out.reshape(n, o, -1), cols,
                          axes=([0, 2], [0, 2]))
        return dk.reshape(o, c, kh, kw)
    dk = grad_out.transpose(0, 2, 3, 1).reshape(-1, o).T @ cols
    return dk.reshape(o, kh, kw, c).transpose(0, 3, 1, 2)


def _conv2d_input_grad(grad_out, k, x, stride, pad):
    """d(conv2d)/d(input), returned in the memory order of `x`.

    Each tap's gk[u,v,i,j,n,c] = sum_o grad_out[n,o,i,j] * k[o,c,u,v] is
    added at a stride into a padded buffer. For an NCHW-contiguous x,
    whose few channels would make narrow per-tap GEMMs, gk comes from one
    GEMM with the batch innermost; otherwise from one GEMM per tap with
    (N, C) innermost. Either way each strided add runs over contiguous
    blocks.
    """
    n, c, h, w = x.shape
    o, _, kh, kw = k.shape
    ho, wo = grad_out.shape[2], grad_out.shape[3]
    hp, wp = h + 2 * pad, w + 2 * pad
    g = grad_out.transpose(2, 3, 0, 1).reshape(ho * wo * n, o)
    if x.flags.c_contiguous:
        gk = k.transpose(2, 3, 1, 0).reshape(kh * kw * c, o) @ g.T
        gk = gk.reshape(kh, kw, c, ho, wo, n).transpose(0, 1, 3, 4, 5, 2)
        dxp = np.zeros((c, hp, wp, n), grad_out.dtype).transpose(1, 2, 3, 0)
    else:
        gk = np.matmul(g, np.ascontiguousarray(k.transpose(2, 3, 0, 1)))
        gk = gk.reshape(kh, kw, ho, wo, n, c)
        dxp = np.zeros((hp, wp, n, c), grad_out.dtype)
    for u in range(kh):
        for v in range(kw):
            dxp[u:u + ho * stride:stride,
                v:v + wo * stride:stride] += gk[u, v]
    del gk  # the result may reuse its memory, which lowers peak memory
    dx = np.empty_like(x, dtype=grad_out.dtype)
    dx[...] = dxp[pad:pad + h, pad:pad + w].transpose(2, 3, 0, 1)
    return dx


def conv2d(x, k, stride=1, pad=0):
    """Cross-correlation (no kernel flip) with zero padding."""
    if x.data.ndim != 4 or k.data.ndim != 4:
        raise ShapeError("conv2d expects NCHW input and OCHW kernel")
    if x.data.shape[1] != k.data.shape[1]:
        raise ShapeError(
            f"conv2d channel mismatch: input {x.data.shape[1]} vs "
            f"kernel {k.data.shape[1]}")
    kh, kw = k.data.shape[2], k.data.shape[3]
    if kh > x.data.shape[2] + 2 * pad or kw > x.data.shape[3] + 2 * pad:
        raise ShapeError("kernel larger than padded input")
    if stride < 1:
        raise ShapeError("stride must be >= 1")
    val, cols = _conv2d_forward(x.data, k.data, stride, pad)
    a, b = x, k
    grad_a, grad_b = a._tracked(), b._tracked()
    if not grad_b:
        cols = None  # only the kernel gradient reads the columns

    def bk(dout):
        if grad_b:
            _accumulate(b, conv2d_weight_grad(a.data, dout, kh, kw, stride,
                                              pad, cols=cols))
        if grad_a:
            _accumulate(a, _conv2d_input_grad(dout, b.data, a.data, stride,
                                              pad))

    return Tensor._make(val, (a, b), bk)


# -- batch normalization -------------------------------------------------
#
# Each op is one graph node with a closed-form backward (Ioffe & Szegedy
# 2015, arXiv 1502.03167). Statistics are per channel over the N, H and
# W axes of an NCHW input, summed by `_channel_sum` on the (N*H*W, C)
# view of the channels-last array. The elementwise work runs on its
# (N*H, W*C) rows instead, so numpy's inner loops are W*C long rather
# than C: every per-channel operand (mean, sigma, gamma, beta and the
# backward's coefficients) is tiled once to W*C entries, which leaves
# each element's arithmetic as a broadcast would do it. For a conv
# output the rows are a free view; any other layout is copied into
# them. Each op ends with ReLU, in place, and its backward starts from
# the adjoint times (output > 0). The output is channels-last.


def _channel_sum(a):
    """Sum of an (N, H, W, C) array over its leading axes, as one GEMV.

    numpy's own sum over leading axes adds one pixel's C values at a
    time; on a conv output the GEMV is several times faster and closer
    to the float64 sum.
    """
    a = a.reshape(-1, a.shape[3])
    return np.ones(a.shape[0], a.dtype) @ a


def _nhwc(a):
    return a.transpose(0, 2, 3, 1)


def _nchw(a):
    return a.transpose(0, 3, 1, 2)


def _rows(a):
    """The (N*H, W*C) rows of an (N, H, W, C) array."""
    n, h, w, c = a.shape
    return a.reshape(n * h, w * c)


def _tile(a, w):
    """The (C,) array `a` repeated w times, to match a row's W*C entries;
    several times cheaper than np.tile at these sizes."""
    out = np.empty((w, a.shape[0]), a.dtype)
    out[...] = a
    return out.reshape(-1)


def batch_norm(x, gamma, beta, eps):
    """Normalize with batch statistics, then ReLU; returns (y, mean, var).

    `mean` and `var` are the biased per-channel batch statistics as plain
    (C,) arrays. With dy = dout * (y > 0), the backward pass is
    dx = gamma/sigma * (dy - mean(dy) - xhat * mean(dy * xhat)).
    """
    xt = _nhwc(x.data)
    shape, w = xt.shape, xt.shape[2]
    inv_m = 1.0 / (xt.size // xt.shape[3])
    mean = _channel_sum(xt) * inv_m
    xhat = _rows(xt) - _tile(mean, w)
    var = _channel_sum(np.square(xhat).reshape(shape)) * inv_m
    std = np.sqrt(var + eps)
    xhat /= _tile(std, w)
    g = gamma.data
    val = xhat * _tile(g, w)
    val += _tile(beta.data, w)
    y = _nchw(np.maximum(val, 0, out=val).reshape(shape))
    grad_x, grad_g, grad_b = x._tracked(), gamma._tracked(), beta._tracked()

    def bk(dout):
        dy = _nhwc(dout * (y > 0))
        dy_sum = _channel_sum(dy)
        if grad_b:
            _accumulate(beta, dy_sum)
        dy = _rows(dy)
        dyx_sum = _channel_sum((dy * xhat).reshape(shape))
        if grad_g:
            _accumulate(gamma, dyx_sum)
        if grad_x:
            dx = xhat * _tile(-inv_m * dyx_sum, w)
            dx += dy
            dx -= _tile(inv_m * dy_sum, w)
            dx *= _tile(g / std, w)
            _accumulate(x, _nchw(dx.reshape(shape)))

    return Tensor._make(y, (x, gamma, beta), bk), mean, var


def batch_norm_fixed(x, mean, var, gamma, beta, eps):
    """Normalize with fixed statistics `mean`/`var` (plain (C,) arrays).

    One node: y = relu((x - mean) / sigma * gamma + beta), so
    dx = dout * (y > 0) * gamma / sigma.
    """
    xt = _nhwc(x.data)
    shape, w = xt.shape, xt.shape[2]
    std = np.sqrt(var + eps)
    xhat = _rows(xt) - _tile(mean, w)
    xhat /= _tile(std, w)
    g = gamma.data
    grad_x, grad_g, grad_b = x._tracked(), gamma._tracked(), beta._tracked()
    # only the gamma gradient reads xhat; without it, scale in place
    val = np.multiply(xhat, _tile(g, w), out=None if grad_g else xhat)
    val += _tile(beta.data, w)
    y = _nchw(np.maximum(val, 0, out=val).reshape(shape))
    if not grad_g:
        xhat = None

    def bk(dout):
        dy = _nhwc(dout * (y > 0))
        if grad_b:
            _accumulate(beta, _channel_sum(dy))
        dy = _rows(dy)
        if grad_g:
            _accumulate(gamma, _channel_sum((dy * xhat).reshape(shape)))
        if grad_x:
            _accumulate(x, _nchw((dy * _tile(g / std, w)).reshape(shape)))

    return Tensor._make(y, (x, gamma, beta), bk)


# -- losses --------------------------------------------------------------


def _log_softmax(z):
    zmax = z.max(axis=1, keepdims=True)
    zs = z - zmax
    return zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))


def softmax_cross_entropy(logits, labels):
    """Mean negative log-likelihood of integer class labels."""
    labels = np.asarray(labels)
    n, k = logits.data.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels must have shape ({n},)")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    ls = _log_softmax(logits.data)
    val = -ls[np.arange(n), labels].mean()
    a = logits

    def bk(dout):
        g = np.exp(ls)
        g[np.arange(n), labels] -= 1.0
        _accumulate(a, dout * g / n)

    return Tensor._make(np.asarray(val, dtype=logits.data.dtype), (a,), bk)


def kl_div_logits(p_logits, q_logits):
    """Mean over rows of KL(softmax(p) || softmax(q))."""
    if p_logits.data.shape != q_logits.data.shape:
        raise ShapeError("kl_div_logits expects matching shapes")
    n = p_logits.data.shape[0]
    lp = _log_softmax(p_logits.data)
    lq = _log_softmax(q_logits.data)
    p = np.exp(lp)
    row_kl = (p * (lp - lq)).sum(axis=1)
    val = row_kl.mean()
    a, b = p_logits, q_logits
    grad_a, grad_b = a._tracked(), b._tracked()

    def bk(dout):
        if grad_a:
            _accumulate(a, dout / n * p * ((lp - lq) - row_kl[:, None]))
        if grad_b:
            _accumulate(b, dout / n * (np.exp(lq) - p))

    return Tensor._make(np.asarray(val, dtype=p_logits.data.dtype), (a, b), bk)


# -- parameter containers ------------------------------------------------


class ParamStore:
    """Named trainable tensors shared by every consumer of the model."""

    def __init__(self):
        self._params = {}

    def add(self, name, data, dtype=None):
        if name in self._params:
            raise KeyError(f"parameter {name!r} already registered")
        t = Tensor(_as_float_array(data, dtype), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name):
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def __iter__(self):
        return iter(self._params)

    def __len__(self):
        return len(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()


@contextlib.contextmanager
def untracked(params):
    """Untrack every parameter until exit, then restore each one's flag."""
    flags = [(p, p.requires_grad) for _, p in params.items()]
    for p, _ in flags:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in flags:
            p.requires_grad = flag


def backprop(loss, params, names=None):
    """Run reverse mode from a scalar loss; return a name->gradient map
    of the named parameters (all by default).

    Parameters absent from the loss graph get an explicit zero gradient.
    """
    if loss.data.size != 1:
        raise ShapeError("backprop requires a scalar loss")
    for _, p in params.items():
        p.grad = None  # drop stale gradients from earlier passes
    if names is None:
        names = params.names()
    loss.backward()
    grads = {}
    for name in names:
        p = params[name]
        grads[name] = (p.grad.copy() if p.grad is not None
                       else np.zeros_like(p.data))
    return grads


def finite_diff_grad(f, params, h=1e-5, names=None):
    """Central-difference gradient oracle: (f(p+h) - f(p-h)) / 2h."""
    if h <= 0:
        raise ValueError("h must be positive")
    if names is None:
        names = params.names()
    grads = {}
    for name in names:
        p = params[name]
        g = np.zeros(p.data.shape, dtype=p.data.dtype)
        # perturb through the index, in place whatever the memory order
        for i in np.ndindex(p.data.shape):
            orig = p.data[i]
            p.data[i] = orig + h
            fp = f()
            p.data[i] = orig - h
            fm = f()
            p.data[i] = orig
            g[i] = (fp - fm) / (2.0 * h)
        grads[name] = g
    return grads
