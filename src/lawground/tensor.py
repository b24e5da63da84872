"""Dense float64 tensors with taped reverse-mode differentiation.

Operations run eagerly on numpy. When a Tape is active, each differentiable
op records a closure mapping the output adjoint to input adjoints; backward
replays the records in exact reverse execution order (any execution order is
its own topological order). A closure keeps only the arrays and shapes its
backward formula reads, never a Tensor of the graph, so an intermediate
that no formula needs is freed during the forward. Everything is float64
with fixed reduction orders, so repeated runs are bit-identical.
"""

import ctypes
import os
import threading

import numpy as np

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

from .errors import NumericError, ShapeError, TapeError

# numpy's ufunc C-API table (numpy/__ufunc_api.h): slot 1 is
# PyUFunc_FromFuncAndData, slot 5 is PyUFunc_d_d, numpy's loop that applies
# a C `double f(double)` to each element with the GIL released.
_capsule_pointer = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
_capsule_pointer.restype = ctypes.c_void_p
_UFUNC_API = ctypes.cast(_capsule_pointer(_umath._UFUNC_API, None),
                         ctypes.POINTER(ctypes.c_void_p))
_ufunc_from_func_and_data = ctypes.PYFUNCTYPE(
    ctypes.py_object, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_char_p,
    ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int,
    ctypes.c_char_p, ctypes.c_char_p, ctypes.c_int)(_UFUNC_API[1])
_NPY_DOUBLE, _PYUFUNC_NONE = 12, -1
# a ufunc keeps raw pointers to its loop, data, types, name and doc: they
# live here for the life of the process
_ufunc_buffers = []


def _libm_ufunc(name):
    """A float64 numpy ufunc over the C library's `double name(double)`."""
    try:
        fn = getattr(ctypes.CDLL(None), name)
    except AttributeError:
        raise ImportError(f"the C library has no {name}()") from None
    funcs = (ctypes.c_void_p * 1)(_UFUNC_API[5])
    data = (ctypes.c_void_p * 1)(ctypes.cast(fn, ctypes.c_void_p).value)
    types = bytes([_NPY_DOUBLE, _NPY_DOUBLE])
    cname = name.encode()
    doc = f"{name}(x) of the C library, elementwise in float64.".encode()
    _ufunc_buffers.append((funcs, data, types, cname, doc))
    return _ufunc_from_func_and_data(funcs, data, types, 1, 1, 1,
                                     _PYUFUNC_NONE, cname, doc, 0)


# the C library's erf is the one math.erf calls, and its exp the one
# scipy.special.expit calls (np.exp rounds 5% of outputs differently)
erf = _libm_ufunc("erf")
_exp = _libm_ufunc("exp")


def expit(x):
    """Logistic function of the array x: 1 / (1 + exp(-x)), scipy's
    formula and roundings. exp(-x) overflows to inf quietly, giving 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + _exp(np.negative(x)))


_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327

# sigmoid outputs are clamped into the open interval (0,1); the true gradient
# beyond these saturations is < 4e-17, so clamping does not disturb training.
_SIG_HI = float(np.nextafter(1.0, 0.0))
_SIG_LO = 1e-300


class _ThreadTapes(threading.local):
    """Each thread's active tapes, innermost last: an op run on one thread
    never records onto a tape another thread has open."""

    def __init__(self):
        self.stack = []


_tapes = _ThreadTapes()
# a forked child starts with no tape open: the tapes its parent had open are
# the parent's to finish
os.register_at_fork(after_in_child=lambda: setattr(_tapes, "stack", []))


def active_tape():
    """The innermost Tape this thread has open, or None."""
    stack = _tapes.stack
    return stack[-1] if stack else None


class Tape:
    """Ordered record of executed differentiable operations.

    Use as a context manager around the forward pass; ops created inside are
    recorded in execution order. ``backward`` walks the record once, in
    reverse, accumulating into the ``grad`` buffers of requires_grad leaves.
    """

    def __init__(self):
        # (parents, backfn) per op in execution order; an op's output is
        # known by its entry's index here, its slot
        self._entries = []
        self._consumed = False

    def __enter__(self):
        _tapes.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tapes.stack.pop()
        assert popped is self
        if exc_type is not None:
            # a forward that failed leaves no graph behind
            self._entries.clear()
            self._consumed = True
        return False

    def record(self, out, parents, backfn):
        """Append one op: backfn(out_adjoint) -> per-parent adjoints (or None).

        The entry never holds `out` or an intermediate parent: `out` gets
        the next slot, and each parent is kept as its slot on this tape, as
        itself if it is a requires_grad leaf, or as None if no gradient
        flows into it."""
        out._tape, out._slot = self, len(self._entries)
        self._entries.append((tuple(
            p if p.requires_grad else p._slot if p._tape is self else None
            for p in parents), backfn))

    def backward(self, loss):
        """Replay the record in reverse, popping each entry as it runs.

        The tape holds nothing afterwards, so the graph (which refers back to
        the tape through each output's ``_tape``) is freed by reference
        counting once the caller drops its last tensor of it.
        """
        if loss.data.ndim != 0:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if getattr(loss, "_tape", None) is not self:
            raise TapeError("loss was not produced on this tape (detached graph)")
        if self._consumed:
            raise TapeError("backward already ran on this tape, or its forward "
                            "failed; build a new tape")
        self._consumed = True
        entries = self._entries
        try:
            if not np.isfinite(loss.data):
                raise NumericError(f"loss is not finite: {float(loss.data)}")
            # one adjoint per slot, popped with its entry
            adjoint = [None] * len(entries)
            adjoint[loss._slot] = np.ones((), dtype=np.float64)
            while entries:
                parents, backfn = entries.pop()
                g = adjoint.pop()
                if g is None:
                    continue
                for parent, gp in zip(parents, backfn(g)):
                    if gp is None or parent is None:
                        continue
                    if type(parent) is int:
                        held = adjoint[parent]
                        adjoint[parent] = gp if held is None else held + gp
                    else:
                        parent.grad += gp
        finally:
            # a replay that stops early drops the rest of the graph too
            entries.clear()


class Tensor:
    """Dense float64 array, row-major, with an optional gradient buffer."""

    # _tape and _slot name the tape entry that produced this tensor
    __slots__ = ("data", "requires_grad", "grad", "_tape", "_slot",
                 "__weakref__")

    def __init__(self, data, requires_grad=False):
        # strided views are fine internally; serialization emits row-major bytes
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._tape = self._slot = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # operator sugar; all dispatch to the module-level ops below
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _record(out, parents, backfn):
    tape = active_tape()
    if tape is not None:
        tape.record(out, parents, backfn)
    return out


def _unbroadcast(g, shape):
    """Sum an adjoint down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)
    a_shape, b_shape = a.shape, b.shape
    return _record(
        out, (a, b),
        lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    out = Tensor(ad * bd)
    return _record(
        out, (a, b),
        lambda g: (_unbroadcast(g * bd, ad.shape),
                   _unbroadcast(g * ad, bd.shape)))


def sigmoid(x):
    """Logistic function, clamped into the open interval (0, 1)."""
    x = as_tensor(x)
    p = np.clip(expit(x.data), _SIG_LO, _SIG_HI)
    out = Tensor(p)
    return _record(out, (x,), lambda g: (g * p * (1.0 - p),))


def gelu_cdf(x):
    """Standard normal CDF of the array x, exact-erf form.

    Computed in one buffer: 0.5 * (1 + erf(x / sqrt 2)) with the same
    roundings, without three array-sized temporaries."""
    cdf = np.multiply(x, _INV_SQRT2, out=np.empty(np.shape(x)))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def gelu_slope(x, cdf):
    """Derivative of gelu at the array x, given gelu_cdf(x): cdf + x *
    exp(-x^2 / 2) / sqrt(2 pi), computed in one buffer like gelu_cdf."""
    slope = np.multiply(x, -0.5, out=np.empty(np.shape(x)))
    slope *= x
    np.exp(slope, out=slope)
    slope *= _INV_SQRT2PI
    slope *= x
    slope += cdf
    return slope


def gelu(x):
    """x * CDF_N(0,1)(x), exact-erf form. On a tape, the slope is computed
    in the forward and is all the backward keeps."""
    x = as_tensor(x)
    cdf = gelu_cdf(x.data)
    out = Tensor(x.data * cdf)
    tape = active_tape()
    if tape is None:
        return out
    slope = gelu_slope(x.data, cdf)
    tape.record(out, (x,), lambda g: (np.multiply(slope, g, out=slope),))
    return out


def _softmax_stats_(p, axis=-1):
    """Max-subtracted softmax of the float64 array p along `axis`, in place.
    Returns the slice maxima m and normalisers s, with which _resoftmax_
    redoes the same softmax of the same input bit for bit.

    Finiteness is checked on the slice maxima: a NaN or +inf anywhere in a
    slice makes its maximum non-finite, and so does a slice that is all -inf
    (which would otherwise come out as NaN).
    """
    m = np.max(p, axis=axis, keepdims=True)
    if not np.isfinite(m).all():
        raise NumericError("softmax input contains NaN or +/-Inf")
    p -= m
    np.exp(p, out=p)
    s = np.sum(p, axis=axis, keepdims=True)
    p /= s
    return m, s


def _resoftmax_(p, m, s):
    """The softmax _softmax_stats_ took of p, in place, from its stats."""
    p -= m
    np.exp(p, out=p)
    p /= s
    return p


def _softmax_(p, axis=-1):
    """Max-subtracted softmax of p along `axis`, in place; returns p."""
    _softmax_stats_(p, axis)
    return p


def softmax(x, axis=-1):
    """Max-subtracted softmax along `axis`; each slice sums to 1."""
    x = as_tensor(x)
    if x.data.shape[axis] < 1:
        raise ShapeError("softmax over an empty axis")
    y = _softmax_(np.array(x.data), axis)
    out = Tensor(y)

    def backfn(g, y=y, axis=axis):
        dot = np.sum(g * y, axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record(out, (x,), backfn)


def segment_bounds(lengths, n_rows):
    """(start, stop) row bounds of consecutive segments of the given lengths,
    which must be positive and cover exactly n_rows rows."""
    bounds, start = [], 0
    for n in lengths:
        if n < 1:
            break
        bounds.append((start, start + n))
        start += n
    if len(bounds) != len(lengths) or not bounds or start != n_rows:
        raise ShapeError(
            f"segment lengths {list(lengths)} do not split {n_rows} rows into "
            f"non-empty segments")
    return bounds


# Scores one block of heads holds at once: 2^16 float64 (512 KiB), so that
# no (H, L, L) array is live unless the caller collects the probabilities.
# That is one head of a 256-token (128x128) image and every head of a
# 64-token image or a text segment; a head whose scores alone exceed it is
# a block by itself.
_BLOCK_SCORES = 2 ** 16


def _head_blocks(spans, heads):
    """(lo, hi, h0, h1) per block: a segment's rows lo:hi and the run of
    heads h0:h1 whose scores fit _BLOCK_SCORES (at least one head)."""
    blocks = []
    for lo, hi in spans:
        step = max(1, _BLOCK_SCORES // (hi - lo) ** 2)
        blocks += [(lo, hi, h, min(h + step, heads))
                   for h in range(0, heads, step)]
    return blocks


def _scratch(blocks):
    """A flat buffer that can hold the scores of any one of the blocks."""
    return np.empty(max((h1 - h0) * (hi - lo) ** 2
                        for lo, hi, h0, h1 in blocks))


def _block_view(buf, block):
    """The leading (h1 - h0, L, L) of buf, for one block's scores."""
    lo, hi, h0, h1 = block
    return buf[:(h1 - h0) * (hi - lo) ** 2].reshape(h1 - h0, hi - lo, hi - lo)


def _scores(buf, q, kt, scale, block):
    """One block's scaled scores q kᵀ * scale, written into buf."""
    lo, hi, h0, h1 = block
    p = np.matmul(q[h0:h1, lo:hi], kt[h0:h1, :, lo:hi],
                  out=_block_view(buf, block))
    p *= scale
    return p


def attention(qkv, heads, lengths, collect=False):
    """Scaled dot-product attention of fused (T, 3d) query/key/value rows.

    Heads split each d-wide block into `heads` slices of dh = d / heads.
    `lengths` splits the rows into consecutive segments; a row attends
    only to the rows of its own segment, so packed sequences never see each
    other. Returns the head-merged context (T, d), taped with qkv as its one
    parent, and, if `collect`, one (H, L, L) probability array per segment
    (else None). Each segment runs one block of heads at a time (see
    _BLOCK_SCORES), its scores built and softmaxed in place in a scratch
    buffer of this call. The tape keeps only each probability row's max
    and normaliser: backward rebuilds a block's probabilities with the
    forward's own ops in a scratch buffer of its own, so they come out bit
    for bit the same, and writes the three gradient blocks into one
    (T, 3d) buffer.
    """
    qkv = as_tensor(qkv)
    if qkv.ndim != 2 or qkv.shape[1] % 3:
        raise ShapeError(f"attention needs fused (T, 3d) rows, got {qkv.shape}")
    n_tok, d = qkv.shape[0], qkv.shape[1] // 3
    if d % heads:
        raise ShapeError(f"head count {heads} does not divide width {d}")
    spans = segment_bounds(lengths, n_tok)
    blocks = _head_blocks(spans, heads)
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    q, k, v = qkv.data.reshape(n_tok, 3, heads, dh).transpose(1, 2, 0, 3)
    kt = k.swapaxes(1, 2)

    buf = _scratch(blocks)
    ctx = np.empty((heads, n_tok, dh))
    probs, stats = [] if collect else None, []
    for block in blocks:
        lo, hi, h0, h1 = block
        p = _scores(buf, q, kt, scale, block)
        stats.append(_softmax_stats_(p))
        ctx[h0:h1, lo:hi] = p @ v[h0:h1, lo:hi]
        if collect:
            if h0 == 0:  # a segment's first block
                probs.append(np.empty((heads, hi - lo, hi - lo)))
            probs[-1][h0:h1] = p
    out = Tensor(ctx.transpose(1, 0, 2).reshape(n_tok, d))

    def backfn(g):
        gctx = g.reshape(n_tok, heads, dh).transpose(1, 0, 2)
        gqkv = np.empty((n_tok, 3 * d))
        gq, gk, gv = gqkv.reshape(n_tok, 3, heads, dh).transpose(1, 2, 0, 3)
        qt, vt = q.swapaxes(1, 2), v.swapaxes(1, 2)
        p_buf, gs_buf = _scratch(blocks), _scratch(blocks)
        for block, (m, s) in zip(blocks, stats):
            lo, hi, h0, h1 = block
            p = _resoftmax_(_scores(p_buf, q, kt, scale, block), m, s)
            gc = gctx[h0:h1, lo:hi]
            gv[h0:h1, lo:hi] = p.swapaxes(1, 2) @ gc
            # w.r.t. p, then (in place) scores
            gs = np.matmul(gc, vt[h0:h1, :, lo:hi],
                           out=_block_view(gs_buf, block))
            dot = np.sum(gs * p, axis=-1, keepdims=True)
            gs -= dot
            gs *= p
            gs *= scale
            gq[h0:h1, lo:hi] = gs @ k[h0:h1, lo:hi]
            # k's gradient as (q^T gs)^T, the product the unfused ops took;
            # BLAS may round gs^T q differently
            gk[h0:h1, lo:hi] = (qt[h0:h1, :, lo:hi] @ gs).swapaxes(1, 2)
        return (gqkv,)

    return _record(out, (qkv,), backfn), probs


# ---------------------------------------------------------------------------
# linear algebra and shape ops


class Rebuilt:
    """A weight array that no tape entry holds: the op that reads it calls
    `build()` for the array in its forward and again in its backward, and
    hands the array's adjoint to `backfn`, which returns one adjoint per
    Tensor in `parents`. `build` reads only arrays that stay unchanged until
    backward has run, so every call returns the same bits."""

    __slots__ = ("shape", "parents", "build", "backfn")

    def __init__(self, shape, parents, build, backfn):
        self.shape, self.parents = shape, parents
        self.build, self.backfn = build, backfn

    @property
    def ndim(self):
        return len(self.shape)


def _check_linear(x_shape, w_shape):
    blocks = w_shape[0] if len(w_shape) == 3 else 1
    if (len(x_shape) != 2 or len(w_shape) not in (2, 3)
            or x_shape[1] != w_shape[-1] or x_shape[0] % blocks):
        raise ShapeError(f"linear: incompatible shapes {x_shape} and {w_shape}")


def _project(xd, wd):
    """xd (n, k) @ wd^T: wd is (m, k), or a (B, m, k) stack whose weight b
    projects the b-th of B equal row blocks, as one batched matmul."""
    if wd.ndim == 2:
        return xd @ wd.T
    xb = xd.reshape(wd.shape[0], -1, xd.shape[1])
    return (xb @ wd.transpose(0, 2, 1)).reshape(xd.shape[0], -1)


def _project_grads(g, xd, wd):
    """The adjoints of _project's xd and wd, given its output's."""
    if wd.ndim == 2:
        return g @ wd, g.T @ xd
    gb = g.reshape(wd.shape[0], -1, g.shape[1])
    xb = xd.reshape(wd.shape[0], -1, xd.shape[1])
    return (gb @ wd).reshape(xd.shape), gb.transpose(0, 2, 1) @ xb


def linear(x, w, b=None):
    """x (n, k) @ w (m, k)^T -> (n, m), plus an optional (m,) bias.

    A (B, m, k) stack of weights splits the n rows into B equal blocks and
    applies weight b to block b, as one batched matmul.
    """
    x, w = as_tensor(x), as_tensor(w)
    _check_linear(x.shape, w.shape)
    xd, wd = x.data, w.data
    y = _project(xd, wd)
    if b is None:
        return _record(Tensor(y), (x, w), lambda g: _project_grads(g, xd, wd))
    b = as_tensor(b)
    y += b.data
    return _record(Tensor(y), (x, w, b), lambda g: (
        *_project_grads(g, xd, wd), g.sum(axis=0)))


def gelu_linear(u, w, b):
    """linear(gelu(u), w, b) as one op with the same arithmetic, for a
    transformer block's fc2 over its (n, k) pre-activation u.

    The tape entry keeps only u: backward rebuilds the GELU output and its
    slope from u with gelu_cdf and gelu_slope, as the forward and gelu's
    own record build them, so the MLP hidden is not kept twice.
    """
    u, w, b = as_tensor(u), as_tensor(w), as_tensor(b)
    _check_linear(u.shape, w.shape)
    ud, wd = u.data, w.data
    y = _project(ud * gelu_cdf(ud), wd)
    y += b.data
    out = Tensor(y)
    tape = active_tape()
    if tape is None:
        return out

    def backfn(g):
        cdf = gelu_cdf(ud)
        gh, gw = _project_grads(g, ud * cdf, wd)
        gh *= gelu_slope(ud, cdf)
        return gh, gw, g.sum(axis=0)

    tape.record(out, (u, w, b), backfn)
    return out


def tsum(x, axis=None, keepdims=False):
    x = as_tensor(x)
    out = Tensor(np.sum(x.data, axis=axis, keepdims=keepdims))

    def backfn(g, shape=x.shape, axis=axis, keepdims=keepdims):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape),)

    return _record(out, (x,), backfn)


def tmean(x, axis=None, keepdims=False):
    x = as_tensor(x)
    out = Tensor(np.mean(x.data, axis=axis, keepdims=keepdims))
    n = x.data.size if axis is None else np.prod(
        [x.shape[i] for i in (axis if isinstance(axis, tuple) else (axis,))])

    def backfn(g, shape=x.shape, axis=axis, keepdims=keepdims, n=float(n)):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / n, shape),)

    return _record(out, (x,), backfn)


def reshape(x, shape):
    x = as_tensor(x)
    out = Tensor(x.data.reshape(shape))
    return _record(out, (x,), lambda g, shape=x.shape: (g.reshape(shape),))


def transpose(x, axes):
    x = as_tensor(x)
    inv = [0] * len(axes)
    for i, a in enumerate(axes):
        inv[a] = i
    out = Tensor(np.transpose(x.data, axes))
    return _record(out, (x,), lambda g: (np.transpose(g, inv),))


def take_rows(table, ids):
    """Row gather table[ids]; the gradient scatter-adds duplicate rows."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"row index out of range for table with {table.shape[0]} rows")
    out = Tensor(table.data[ids])

    def backfn(g, shape=table.shape, ids=ids):
        gt = np.zeros(shape)
        np.add.at(gt, ids, g)
        return (gt,)

    return _record(out, (table,), backfn)


def _normalize(xd, eps):
    """(xhat, inv): xd centred and scaled to unit variance over its last
    axis, and the per-row scale 1 / sqrt(var + eps)."""
    mu = np.mean(xd, axis=-1, keepdims=True)
    xc = xd - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return xc * inv, inv


def _scale_shift(xhat, gain, bias):
    """The LayerNorm output xhat * gain + bias, in one new buffer."""
    y = xhat * gain
    y += bias
    return y


def _layer_norm_grads(g, gain, xhat, inv):
    """The adjoints of a LayerNorm's input, gain and bias, given its
    output's."""
    # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), with
    # dxhat = g * gain, built in place in dxhat's buffer
    dgain = _unbroadcast(g * xhat, gain.shape)
    dbias = _unbroadcast(g, gain.shape)
    dx = g * gain
    m1 = np.mean(dx, axis=-1, keepdims=True)
    scratch = dx * xhat
    m2 = np.mean(scratch, axis=-1, keepdims=True)
    dx -= m1
    dx -= np.multiply(xhat, m2, out=scratch)
    dx *= inv
    return dx, dgain, dbias


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize over the last axis, then scale and shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    gd = gain.data
    xhat, inv = _normalize(x.data, eps)
    out = Tensor(_scale_shift(xhat, gd, bias.data))
    return _record(out, (x, gain, bias),
                   lambda g: _layer_norm_grads(g, gd, xhat, inv))


def layer_norm_linear(x, gain, bias, w, b, eps=1e-5):
    """linear(layer_norm(x, gain, bias, eps), w, b) as one op with the same
    arithmetic, for a pre-norm projection.

    The tape keeps each activation once: the entry holds the LayerNorm's
    xhat, which its own gradient reads, and its backward rebuilds the
    LayerNorm output from it for the weight's gradient. w is a (m, k)
    weight, a (B, m, k) stack (see linear) or a Rebuilt one: its array is
    built for the forward and again for the backward, and its record folds
    into this op's, its parents between the LayerNorm's and the bias.
    """
    x, gain, bias, b = (as_tensor(x), as_tensor(gain), as_tensor(bias),
                        as_tensor(b))
    if not isinstance(w, Rebuilt):
        w = as_tensor(w)
        wd = w.data
        w = Rebuilt(w.shape, (w,), lambda: wd, lambda gw: (gw,))
    _check_linear(x.shape, w.shape)
    gd, bd = gain.data, bias.data
    xhat, inv = _normalize(x.data, eps)
    y = _project(_scale_shift(xhat, gd, bd), w.build())
    y += b.data
    out = Tensor(y)
    tape = active_tape()
    if tape is None:
        return out
    build, w_backfn = w.build, w.backfn

    def backfn(g):
        gh, gw = _project_grads(g, _scale_shift(xhat, gd, bd), build())
        return (*_layer_norm_grads(gh, gd, xhat, inv), *w_backfn(gw),
                g.sum(axis=0))

    tape.record(out, (x, gain, bias, *w.parents, b), backfn)
    return out


# ---------------------------------------------------------------------------
# upsampling


_BILINEAR_CACHE = {}


def _bilinear_matrix(n, factor):
    """(n*factor, n) interpolation weights, sample centers at (i+0.5)/f-0.5,
    edges replicated. Cached: the map is fixed per (size, factor)."""
    key = (n, factor)
    cached = _BILINEAR_CACHE.get(key)
    if cached is None:
        src = (np.arange(n * factor, dtype=np.float64) + 0.5) / factor - 0.5
        i0 = np.floor(src)
        t = src - i0
        lo = np.clip(i0, 0, n - 1).astype(np.int64)
        hi = np.clip(i0 + 1, 0, n - 1).astype(np.int64)
        cached = np.zeros((n * factor, n), dtype=np.float64)
        rows = np.arange(n * factor)
        np.add.at(cached, (rows, lo), 1.0 - t)
        np.add.at(cached, (rows, hi), t)
        _BILINEAR_CACHE[key] = cached
    return cached


def bilinear_upsample(x, factor):
    """Scale a 2-D map, or each map of a (B, h, w) stack, by an integer
    factor with bilinear interpolation (align-corners-false,
    edge-replicated)."""
    x = as_tensor(x)
    factor = int(factor)
    if factor < 1:
        raise ShapeError(f"upsample factor must be >= 1, got {factor}")
    if x.ndim not in (2, 3):
        raise ShapeError(f"bilinear_upsample expects (h, w) or (B, h, w), got {x.shape}")
    h, w = x.shape[-2:]
    wr = _bilinear_matrix(h, factor)
    wc = _bilinear_matrix(w, factor)
    out = Tensor((wr @ x.data) @ wc.T)

    def backfn(g, wr=wr, wc=wc):
        return ((wr.T @ g) @ wc,)

    return _record(out, (x,), backfn)


# ---------------------------------------------------------------------------
# verification


def grad_check(f, xs, h=1e-5):
    """Max relative error between taped gradients and central differences.

    f maps the given tensors to a scalar Tensor. Error per coordinate is
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    xs = [xs] if isinstance(xs, Tensor) else list(xs)
    for x in xs:
        if not x.requires_grad:
            raise TapeError("grad_check inputs must have requires_grad=True")
        x.zero_grad()
    with Tape() as tape:
        loss = f(*xs)
    tape.backward(loss)

    worst = 0.0
    for x in xs:
        analytic = x.grad.copy()
        flat = x.data.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            hi = float(f(*xs).data)
            flat[i] = keep - h
            lo = float(f(*xs).data)
            flat[i] = keep
            numeric = (hi - lo) / (2.0 * h)
            a = analytic.reshape(-1)[i]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if err > worst:
                worst = err
    return worst

