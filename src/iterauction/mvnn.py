"""Monotone network core: parameters, bounded-ReLU forward pass, and the
two-uniform mixture initialization scheme.

The network maps [0,1]^m -> R_+ through hidden layers with non-negative
weights, non-positive biases and bounded-ReLU activations min(t, max(0, x)),
plus an optional non-negative linear skip from input to output.  These sign
constraints make every valid parameter set monotone in each input coordinate
by construction.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .domain import require_keys
from .errors import InvalidInputError

CUTOFF_FLOOR = 1e-3  # the lowest cutoff, at initialisation and after each training step


@dataclass
class MvnnParams:
    """Parameters of one monotone network, or of a stack of n networks of
    one architecture (see :meth:`stack`).

    ``weights`` holds W^1..W^K (K = len(weights)); ``biases`` and ``cutoffs``
    cover the K-1 hidden layers only (per-neuron cutoffs).  ``skip`` is an
    optional non-negative (m,) vector added linearly to the output.  A stack
    puts a leading bidder axis on every array: weights (n, d_out, d_in),
    biases and cutoffs (n, d), skip (n, m).
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    cutoffs: list[np.ndarray]
    skip: np.ndarray | None = None

    def __post_init__(self):
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        self.cutoffs = [np.asarray(t, dtype=np.float64) for t in self.cutoffs]
        if self.skip is not None:
            self.skip = np.asarray(self.skip, dtype=np.float64)
        self.validate()

    def validate(self) -> None:
        K = len(self.weights)
        if K < 1:
            raise InvalidInputError("need at least an output layer")
        if len(self.biases) != K - 1 or len(self.cutoffs) != K - 1:
            raise InvalidInputError("biases/cutoffs must cover exactly the hidden layers")
        lead = self.weights[0].shape[:-2]  # () for one net, (n,) for a stack
        # each sign check is written so that a NaN fails it
        for k, W in enumerate(self.weights):
            if W.ndim < 2 or W.shape[:-2] != lead:
                raise InvalidInputError("weights must be matrices with one shared leading shape")
            if not (W >= 0).all():
                raise InvalidInputError(f"negative weight in layer {k + 1}")
            if k > 0 and W.shape[-1] != self.weights[k - 1].shape[-2]:
                raise InvalidInputError("inconsistent layer dimensions")
        if self.weights[-1].shape[-2] != 1:
            raise InvalidInputError("output layer must have a single neuron")
        for k, b in enumerate(self.biases):
            if b.shape != self.weights[k].shape[:-1]:
                raise InvalidInputError("bias shape mismatch")
            if not (b <= 0).all():
                raise InvalidInputError(f"positive bias in layer {k + 1}")
        for k, t in enumerate(self.cutoffs):
            if t.shape != self.weights[k].shape[:-1]:
                raise InvalidInputError("cutoff shape mismatch")
            if not (t > 0).all():
                raise InvalidInputError(f"non-positive cutoff in layer {k + 1}")
        if self.skip is not None:
            if self.skip.shape != (*lead, self.m):
                raise InvalidInputError("skip weights must have shape (m,)")
            if not (self.skip >= 0).all():
                raise InvalidInputError("negative skip weight")

    @classmethod
    def stack(cls, nets: list["MvnnParams"]) -> "MvnnParams":
        """The networks along a leading bidder axis; ``forward`` then maps
        (n, k, m) to (n, k), row block i through network i."""
        if not nets:
            raise InvalidInputError("cannot stack zero networks")
        if len({(tuple(W.shape for W in net.weights), net.skip is None) for net in nets}) > 1:
            raise InvalidInputError("stacked networks must share one architecture")
        return cls(
            weights=[np.stack(Ws) for Ws in zip(*(net.weights for net in nets))],
            biases=[np.stack(bs) for bs in zip(*(net.biases for net in nets))],
            cutoffs=[np.stack(ts) for ts in zip(*(net.cutoffs for net in nets))],
            skip=None if nets[0].skip is None else np.stack([net.skip for net in nets]),
        )

    @property
    def m(self) -> int:
        return self.weights[0].shape[-1]

    @property
    def num_hidden(self) -> int:
        return len(self.weights) - 1

    @property
    def layer_dims(self) -> list[int]:
        return [self.m] + [W.shape[-2] for W in self.weights]

    def copy(self) -> "MvnnParams":
        return MvnnParams(
            weights=[W.copy() for W in self.weights],
            biases=[b.copy() for b in self.biases],
            cutoffs=[t.copy() for t in self.cutoffs],
            skip=None if self.skip is None else self.skip.copy(),
        )

    def forward(self, x) -> float | np.ndarray:
        """Evaluate the network on a single input (m,) or a batch (B, m); a
        stack of n networks on a batch (n, B, m), giving (n, B)."""
        arr = np.asarray(x, dtype=np.float64)
        single = arr.ndim == 1
        z = arr.reshape(1, -1) if single else arr
        if z.ndim != self.weights[0].ndim:
            raise InvalidInputError(f"input of shape {arr.shape} for weights {self.weights[0].shape}")
        if z.shape[-1] != self.m:
            raise InvalidInputError(f"input length {z.shape[-1]} != {self.m}")
        # the cutoff check stays per call, NaN failing it too: nets can be
        # edited in place after validate()
        for t in self.cutoffs:
            if not t.min() > 0:
                raise InvalidInputError("bounded-ReLU cutoff must be positive")
        out = forward_cache(self, z)[0]
        return float(out[0]) if single else out

    def to_json_obj(self) -> dict:
        return {
            "layer_dims": self.layer_dims,
            "weights": [W.tolist() for W in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "cutoffs": [t.tolist() for t in self.cutoffs],
            "skip": None if self.skip is None else self.skip.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MvnnParams":
        require_keys(obj, ["weights", "biases", "cutoffs"], "network")
        return cls(
            weights=[np.asarray(W) for W in obj["weights"]],
            biases=[np.asarray(b) for b in obj["biases"]],
            cutoffs=[np.asarray(t) for t in obj["cutoffs"]],
            skip=None if obj.get("skip") is None else np.asarray(obj["skip"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "MvnnParams":
        return cls.from_json_obj(json.loads(text))


# A product of fan-in at or above this can take OpenBLAS's AVX-512
# small-matrix kernel, which sums in another order than its general one.
_SMALL_KERNEL_FAN_IN = 32
# A gemv row's bits depend on its position modulo the kernel's row unroll,
# which divides this; measured, blocks of 4, 8, 12 and 16 to 128 rows kept
# them in one call, and blocks of 2 and 6 did not.
_GEMV_ROW_UNROLL = 16

_WHOLE = (slice(None),)  # one product over every row


def _operand(x) -> np.ndarray:
    """x as a 0-d float64 array: an op's bits are the same, and numpy need
    not convert a Python number each call (0.2 us of a 0.5 us small op)."""
    operand = np.array(x, dtype=np.float64)
    operand.flags.writeable = False
    return operand


_ZERO = _operand(0.0)


def _row_spans(blocks: tuple[int, ...]) -> list[slice]:
    """The row slices of consecutive blocks of these sizes."""
    return [slice(end - size, end) for size, end in zip(blocks, itertools.accumulate(blocks))]


def _product_spans(fan_in: int | None, blocks: tuple[int, ...] | None, spans):
    """The row spans a product over row blocks runs on (see
    ``forward_cache``): all rows at once, or ``spans``, the blocks' own.
    A gemm product of fan-in ``fan_in`` runs at once only when every block
    has an even number of rows and the fan-in cannot take the small-matrix
    kernel; a one-column gemv product (``fan_in`` None) only over blocks of
    one size that is a multiple of ``_GEMV_ROW_UNROLL``."""
    if blocks is None:
        return _WHOLE
    if fan_in is None:
        whole = len(set(blocks)) == 1 and blocks[0] % _GEMV_ROW_UNROLL == 0
    else:
        whole = all(size % 2 == 0 for size in blocks) and fan_in < _SMALL_KERNEL_FAN_IN
    return _WHOLE if whole else spans


def _bind_product(a: np.ndarray, B: np.ndarray, spans, out: np.ndarray) -> list[tuple]:
    """The calls that write ``a @ B`` into ``out``, rows being axis -2:
    one over all rows, or one per row span into that span's rows, each as
    (function, a's rows, B, out's rows).  Two matrices go through
    ``ndarray.dot``, which gives ``np.matmul``'s bits at less cost per call
    (``np.dot``'s, without its dispatch); a stack goes through
    ``np.matmul``.  Both write into a C-contiguous ``out``, as every
    buffer's row span is."""
    product = np.ndarray.dot if a.ndim == B.ndim == 2 else np.matmul
    if spans is _WHOLE:
        return [(product, a, B, out)]
    return [(product, a[..., s, :], B, out[..., s, :]) for s in spans]


def _run(products: list[tuple]) -> None:
    """Make the calls of ``_bind_product``."""
    for product, a, B, out in products:
        product(a, B, out=out)


class ForwardBuffers:
    """The forward pass of a network, or stack, on one input ``X`` in row
    blocks of the sizes ``blocks`` (if given), bound when made: every array
    it writes and every operand and view its numpy calls take.  The arrays
    are each hidden layer's pre-activations ``O`` and outputs (in ``Z``,
    after ``X``), the output and the skip product, as (..., rows, d)
    arrays, ``result`` the outputs' view; ``spans`` holds the blocks' row
    slices, ``out_spans`` those of the output product.  ``forward_cache``
    runs the calls on ``X`` and the network's arrays as they then are, so
    both must be written in place.  Training binds one per fit, after
    ``Adam`` has moved the network into its flat vector; ``empty`` may
    take the arrays from a caller's own storage."""

    __slots__ = ("X", "O", "Z", "out", "skip_out", "spans", "out_spans", "result", "_hidden",
                 "_output", "_skip")

    def __init__(self, params: MvnnParams, X: np.ndarray,
                 blocks: tuple[int, ...] | None = None, empty=np.empty):
        weights, skip = params.weights, params.skip
        stack = weights[0].ndim > 2
        lead, rows = weights[0].shape[:-2] or X.shape[:-2], X.shape[-2]
        self.X = X
        self.spans = spans = _WHOLE if blocks is None else _row_spans(blocks)
        self.O, self.Z, self._hidden = O, Z, hidden = [], [X], []
        for W, b, t in zip(weights, params.biases, params.cutoffs):  # the hidden layers
            shape = (*lead, rows, W.shape[-2])
            o, z = empty(shape), empty(shape)
            products = _bind_product(Z[-1], W.swapaxes(-1, -2),
                                     _product_spans(W.shape[-1], blocks, spans), o)
            # its products, O, the bias and the cutoffs broadcast over the
            # rows (a stack's net by net), and Z
            hidden.append((products, o, b[..., None, :] if stack else b, z,
                           t[..., None, :] if stack else t))
            O.append(o)
            Z.append(z)
        self.out = out = empty((*lead, rows, 1))
        self.out_spans = _product_spans(None, blocks, spans)
        self._output = _bind_product(Z[-1], weights[-1].swapaxes(-1, -2), self.out_spans, out)
        if skip is None:
            self.skip_out, self._skip = None, ()
        else:
            self.skip_out = empty(out.shape)
            self._skip = _bind_product(X, skip[..., None], self.out_spans, self.skip_out)
        self.result = out[..., 0]


def forward_cache(params: MvnnParams, X: np.ndarray, buffers: ForwardBuffers | None = None):
    """The network's forward pass on a batch (B, m), or a stack's on
    (n, B, m): its outputs (B,) or (n, B), the hidden pre-activations O and
    the layer inputs Z (X first), as kept for backprop.  Unlike
    ``MvnnParams.forward`` it does not check the cutoffs.

    It runs the calls of ``buffers``, bound to ``params`` and this very X,
    or of fresh ones without row blocks.  The outputs are views of their
    arrays, so an epoch of training, which runs its fit's buffers,
    allocates nothing here.

    Buffers made with ``blocks``, as training's are, split the batch into
    consecutive row blocks of these sizes.  The result equals one call per
    block, bit for bit, by two row rules of OpenBLAS:

    - a gemm row has the same bits wherever it sits in the batch, unless
      it falls in the one-row tail of a product over an odd row count,
      which OpenBLAS's AVX2 kernels sum in another order.  So a hidden
      layer's product runs once over all rows only when every block has
      an even row count: then no row falls in that tail, in its block's
      own call or in the whole.  Otherwise it runs per block.  A fan-in
      of 32 or more can take the AVX-512 small-matrix kernel, so such
      products run per block too;
    - a gemv row's bits depend on its position modulo the kernel's row
      unroll.  So the one-column output and skip products run once per
      block, unless the blocks are of one size that keeps every row's
      position modulo ``_GEMV_ROW_UNROLL``; then they run once over all
      rows.

    Each block's product is written into its rows of the layer's buffer,
    which gives the bits of a product on those rows alone.  The rules hold
    per net of a stack too: numpy's matmul runs one BLAS call per net, so a
    stack of n nets on a shared batch (B, m), with ``blocks``, equals one
    blocked call per net.  Training scores a fit's every epoch so, as a
    stack of its epochs' nets.

    Threading: OpenBLAS runs a gemm of more than about 2^19 multiply-adds
    (rows x fan-in x width) on a second thread, which then spins between
    calls; so a caller that batches many rows splits them into calls whose
    widest product stays below that.
    """
    if buffers is None:
        buffers = ForwardBuffers(params, X)
    elif buffers.X is not X:
        raise InvalidInputError("these forward buffers are bound to another input")
    for products, o, b, z, t in buffers._hidden:  # the hidden layers
        _run(products)
        o += b
        np.maximum(o, _ZERO, out=z)
        np.minimum(z, t, out=z)
    _run(buffers._output)
    if buffers._skip:
        _run(buffers._skip)
        buffers.out += buffers.skip_out
    return buffers.result, buffers.O, buffers.Z


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


@dataclass
class InitHyper:
    """Hyperparameters of the mixture initialization."""

    e_init: float = 1.0
    v_init: float = 0.05
    b_init: float = 0.05
    bias_init: float = 0.05
    eps_little: float = 0.1

    def __post_init__(self):
        # written so that NaN fails both checks
        if not all(0 < v < math.inf for v in (self.e_init, self.v_init)):
            raise InvalidInputError("e_init and v_init must be positive and finite")
        if not all(0 <= v < math.inf for v in (self.b_init, self.bias_init, self.eps_little)):
            raise InvalidInputError("init hyperparameters must be finite and non-negative")

    @property
    def m_k(self) -> float:
        # target mean of a pre-activated neuron before the bias correction
        return self.e_init + self.bias_init / 2.0


def mixture_params(d_prev: int, hyper: InitHyper) -> tuple[float, float, float]:
    """Mixture parameters (A, B, p) for a layer with fan-in ``d_prev``.

    Weights are drawn from Unif[0, A] with probability 1-p and Unif[0, B]
    with probability p, tuned so a pre-activated neuron keeps constant
    conditional mean e_init and (for wide layers) variance v_init.
    """
    if d_prev < 1:
        raise InvalidInputError("fan-in must be at least 1")
    d = float(d_prev)
    mk = hyper.m_k
    v = hyper.v_init
    if d <= mk * mk / (3.0 * v):
        # narrow layer: a single uniform with the right mean; variance >= v
        return 0.0, 2.0 * mk / d, 1.0
    b = max((3 * mk * mk + 3 * d * v) / (2 * mk * d) + hyper.eps_little / d, hyper.b_init)
    p = 1.0 - (b * b * d * d - 4 * b * mk * d + 4 * mk * mk) / (
        b * b * d * d - 4 * b * mk * d + 3 * mk * mk + 3 * d * v
    )
    a = (2 * mk - b * d * p) / (d * (1.0 - p))
    return a, b, p


def sample_mixture(d_out: int, d_prev: int, hyper: InitHyper, rng: np.random.Generator) -> np.ndarray:
    a, b, p = mixture_params(d_prev, hyper)
    big = rng.random((d_out, d_prev)) < p
    w = np.where(
        big,
        rng.uniform(0.0, b, size=(d_out, d_prev)),
        rng.uniform(0.0, a if a > 0 else 1.0, size=(d_out, d_prev)) * (a > 0),
    )
    return w


def init_params(
    layer_dims: list[int],
    hyper: InitHyper,
    cutoff_range: tuple[float, float] = (0.0, 1.0),
    seed: int | np.random.Generator = 0,
    skip: bool = False,
) -> MvnnParams:
    """Sample a fresh parameter set; deterministic for a fixed seed.

    ``layer_dims`` is [m, d_1, ..., d_{K-1}, 1].
    """
    if len(layer_dims) < 2 or layer_dims[-1] != 1:
        raise InvalidInputError("layer_dims must end in an output dimension of 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    lo, hi = cutoff_range
    weights, biases, cutoffs = [], [], []
    for k in range(1, len(layer_dims)):
        d_out, d_prev = layer_dims[k], layer_dims[k - 1]
        weights.append(sample_mixture(d_out, d_prev, hyper, rng))
        if k < len(layer_dims) - 1:
            biases.append(-rng.uniform(0.0, hyper.bias_init, size=d_out))
            t = rng.uniform(lo, hi, size=d_out)
            cutoffs.append(np.maximum(t, CUTOFF_FLOOR))
    skip_w = rng.uniform(0.0, 1.0 / layer_dims[0], size=layer_dims[0]) if skip else None
    return MvnnParams(weights=weights, biases=biases, cutoffs=cutoffs, skip=skip_w)


def random_containment_pair(m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A random pair of bundles with the first contained in the second."""
    big = (rng.random(m) < 0.6).astype(np.int64)
    keep = rng.random(m) < 0.5
    small = big * keep
    return small, big
