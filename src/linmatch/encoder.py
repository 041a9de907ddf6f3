"""The matching Transformer: projection, self/cross loops, pairwise layers.

Layer wiring
------------
Each encoder layer projects its query rows and source rows to q/k/v and
runs multi-head attention (linear, or restricted to neighborhoods; all heads
at once) to get a message m, and combines:

    out = carrier + mlp1(relu(layer_norm(mlp0(concat(carrier, m)))))

where `carrier` is the query input itself, except in the very first layer
whose projection matrices are rectangular (D -> C'): there the carrier is
the v-projection of the query input so that the residual path lives in the
reduced dimension.  Both linear maps are bias-free; with mlp1 zeroed the
layer is exactly the identity on its carrier.  A layer is two autodiff nodes,
`attention.projected_attention` and `feed_forward` (plus layer 0's carrier
product), whose backwards use the separate ops' formulas and input order.

The full network runs L1 iterations of (self, cross) updates with linear
attention, captures the raw descriptors f after the last cross layer, takes
the checked `Membership` of f's neighborhoods from `build_neighborhoods`
(only when L2 > 0; keypoint coordinates enter the computation nowhere else),
then runs L2 pairwise-attention iterations on it.  The final rows are
L2-normalized to give x.  With L2 = 0, x is exactly the row-normalized f.

Weights are stored in the "LAWT" container: little-endian, magic + version 2 +
tensor count, then a length-prefixed JSON config record, then named f32
tensors.  For weights the record holds the head count and the tensors give
every other size, so a file states its whole network (`NetworkWeights.config`)
and a model cannot run with another head count.  `layer_prefixes` alone
defines the tensor names (`layer{i}.self`, `layer{i}.cross`, then
`layer{l1+i}.pair`, each followed by `.{param}`): `NetworkWeights.all_params`
writes through it and `NetworkWeights.from_table` reads back only a table
named exactly that way.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, as_tensor
from .attention import projected_attention
from .geometry import KeypointSet, read_exact, require_int
# the benchmark's tracer patches ratio_match, select_seeds and build_neighborhoods here
from .neighborhood import NeighborhoodConfig, build_neighborhoods, ratio_match, select_seeds

_LAWT_MAGIC = b"LAWT"
_LAWT_VERSION = 2

_PARAM_NAMES = ("wq", "wk", "wv", "mlp0", "mlp1", "ln_g", "ln_b")


@dataclass
class LayerWeights:
    """Projection, feed-forward, and normalization parameters of one layer."""

    wq: object
    wk: object
    wv: object
    mlp0: object  # 2C' x 2C', bias-free
    mlp1: object  # 2C' x C', bias-free
    ln_g: object  # 2C'
    ln_b: object  # 2C'

    def params(self):
        return [(name, getattr(self, name)) for name in _PARAM_NAMES]

    def validate(self, in_dim: int, hidden: int):
        expect = {
            "wq": (in_dim, hidden), "wk": (in_dim, hidden), "wv": (in_dim, hidden),
            "mlp0": (2 * hidden, 2 * hidden), "mlp1": (2 * hidden, hidden),
            "ln_g": (2 * hidden,), "ln_b": (2 * hidden,),
        }
        for name, arr in self.params():
            data = arr.data if isinstance(arr, Tensor) else np.asarray(arr)
            if data.shape != expect[name]:
                raise ValueError(f"{name}: expected shape {expect[name]}, got {data.shape}")
            if not np.isfinite(data).all():
                raise ValueError(f"{name}: non-finite values")


@dataclass
class NetworkConfig:
    input_dim: int = 256
    hidden_dim: int = 64
    heads: int = 8
    l1: int = 4  # self/cross loop count
    l2: int = 2  # pairwise loop count

    def __post_init__(self):
        for name, low in (("input_dim", 1), ("hidden_dim", 1), ("heads", 1), ("l1", 1), ("l2", 0)):
            require_int(name, getattr(self, name), low)
        if self.hidden_dim % self.heads != 0:
            raise ValueError("hidden_dim must be divisible by heads")


def layer_prefixes(l1: int, l2: int) -> list:
    """Tensor name prefixes of the layers, in file order."""
    return ([f"layer{i}.{kind}" for kind in ("self", "cross") for i in range(l1)]
            + [f"layer{l1 + i}.pair" for i in range(l2)])


@dataclass
class NetworkWeights:
    self_layers: list  # L1 LayerWeights; index 0 is the rectangular reducer
    cross_layers: list  # L1 LayerWeights
    pair_layers: list  # L2 LayerWeights
    heads: int  # the head count they were made for

    def all_params(self):
        """(name, value) pairs in the canonical file order."""
        prefixes = layer_prefixes(len(self.self_layers), len(self.pair_layers))
        layers = self.self_layers + self.cross_layers + self.pair_layers
        return [(f"{prefix}.{n}", v) for prefix, w in zip(prefixes, layers, strict=True)
                for n, v in w.params()]

    @classmethod
    def from_table(cls, table, heads: int) -> NetworkWeights:
        """Layers from a name -> tensor mapping named exactly as `all_params` names them."""
        l1 = sum(name.endswith(".self.wq") for name in table)
        l2 = sum(name.endswith(".pair.wq") for name in table)
        if l1 == 0:
            raise ValueError("no self/cross layers in the weight file")
        prefixes = layer_prefixes(l1, l2)
        expected = {f"{prefix}.{n}" for prefix in prefixes for n in _PARAM_NAMES}
        if expected != table.keys():
            raise ValueError(f"tensor names differ from the layout of {l1} self/cross and "
                             f"{l2} pairwise layers: missing {sorted(expected - table.keys())}, "
                             f"unexpected {sorted(table.keys() - expected)}")
        layers = [LayerWeights(*(table[f"{prefix}.{n}"] for n in _PARAM_NAMES))
                  for prefix in prefixes]
        return cls(layers[:l1], layers[l1:2 * l1], layers[2 * l1:], heads)

    def config(self) -> NetworkConfig:
        """The network these weights make up; `ValueError` if no valid one."""
        shape = np.shape(self.self_layers[0].wq)
        if len(shape) != 2:
            raise ValueError(f"layer0.self.wq: expected a 2-D tensor, got shape {shape}")
        return NetworkConfig(*shape, self.heads, len(self.self_layers), len(self.pair_layers))

    def validate(self, cfg: NetworkConfig):
        if self.heads != cfg.heads:
            raise ValueError(f"weights are for {self.heads} heads, config has {cfg.heads}")
        if len(self.self_layers) != cfg.l1 or len(self.cross_layers) != cfg.l1:
            raise ValueError(f"expected {cfg.l1} self/cross layers")
        if len(self.pair_layers) != cfg.l2:
            raise ValueError(f"expected {cfg.l2} pairwise layers")
        self.self_layers[0].validate(cfg.input_dim, cfg.hidden_dim)
        for w in self.self_layers[1:] + self.cross_layers + self.pair_layers:
            w.validate(cfg.hidden_dim, cfg.hidden_dim)


@dataclass
class EncodedPair:
    """Final descriptors x and the pre-pairwise intermediates f, per side."""

    xs_hat: object  # N x C'
    xt_hat: object  # M x C'
    fs_hat: object  # N x C', output of the last cross layer
    ft_hat: object  # M x C'


def feed_forward(carrier, m, w: LayerWeights) -> Tensor:
    """carrier + mlp1(relu(layer_norm(mlp0(concat(carrier, m))))) as one autodiff op; with
    no gradient to record, it works in place and keeps none of its intermediates."""
    c, m = as_tensor(carrier), as_tensor(m)
    w0, gamma, beta, w1 = (as_tensor(x) for x in (w.mlp0, w.ln_g, w.ln_b, w.mlp1))
    parents = (c, m, w0, gamma, beta, w1)
    keep = any(p.requires_grad for p in parents)
    cat = np.concatenate([c.data, m.data], axis=1)
    h = cat @ w0.data
    (n, nf), width = h.shape, c.data.shape[1]
    ad.note_mul(cat.size * nf + h.size + n * w1.data.size)  # mlp0, layer norm, mlp1
    for a in (cat, h):
        ad.note_alloc(a)
    cat = cat if keep else None
    h -= h.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt((h * h).mean(axis=1, keepdims=True) + 1e-5)
    h *= inv  # the normalized rows
    r = h * gamma.data if keep else np.multiply(h, gamma.data, out=h)
    r += beta.data
    np.maximum(r, 0.0, out=r)

    def backward(g):
        dn = (g @ w1.data.T) * (r > 0)
        dx = dn * gamma.data
        dh = inv / nf * (nf * dx - dx.sum(axis=1, keepdims=True)
                         - h * (dx * h).sum(axis=1, keepdims=True))
        dcat = dh @ w0.data.T
        # the separate ops' formulas and order: the carrier gets the residual's
        # share first and the concat's second, as the add and concat ops gave them
        for t, dt in ((c, g), (w1, r.T @ g), (gamma, (dn * h).sum(axis=0)),
                      (beta, dn.sum(axis=0)), (w0, cat.T @ dh), (c, dcat[:, :width]),
                      (m, dcat[:, width:])):
            if t.requires_grad:
                t._accumulate(dt)

    return ad.node(c.data + r @ w1.data, parents, backward)


def encoder_layer(x_query, x_source, w: LayerWeights, heads: int = 1, pairs=None,
                  reverse: bool = False):
    """One residual attention block (see the module docstring); its attention is linear,
    or with `pairs` that of `pairwise_attention(..., pairs, heads, reverse)`."""
    xq, xs, wv = as_tensor(x_query), as_tensor(x_source), as_tensor(w.wv)
    (n, width), hidden = xq.data.shape, wv.data.shape[1]
    carrier = xq if width == hidden else ad.matmul(xq, wv)
    if n == 0:
        return carrier
    if xs.data.shape[0] == 0:
        m = Tensor(np.zeros((n, hidden), dtype=carrier.data.dtype))
    else:
        m = projected_attention(xq, xs, as_tensor(w.wq), as_tensor(w.wk), wv, heads, pairs, reverse)
    return feed_forward(carrier, m, w)


def self_attention_update(xs, xt, w: LayerWeights, heads: int = 1):
    """Each side attends to itself with shared layer weights."""
    return encoder_layer(xs, xs, w, heads), encoder_layer(xt, xt, w, heads)


def cross_attention_update(xs, xt, w: LayerWeights, heads: int = 1):
    """Each side attends to the other; both directions share weights."""
    return encoder_layer(xs, xt, w, heads), encoder_layer(xt, xs, w, heads)


def pairwise_layer_update(xs, xt, pairs, w: LayerWeights, heads: int = 1):
    """Neighborhood-restricted update in both directions.

    `pairs` is a `Membership`.  Rows outside every neighborhood get a zero
    message and are changed only by the layer's feed-forward path.
    """
    return (encoder_layer(xs, xt, w, heads, pairs),
            encoder_layer(xt, xs, w, heads, pairs, reverse=True))


def forward(xs: KeypointSet, xt: KeypointSet, weights: NetworkWeights,
            cfg: NetworkConfig, neigh_cfg: NeighborhoodConfig | None = None) -> EncodedPair:
    """Encode both keypoint sets into matchable descriptors.

    Pure given weights; deterministic.  Keypoint coordinates are used only
    for neighborhood selection between the cross and pairwise stages, so
    with l2 = 0 the output depends on descriptors alone.  With array weights
    (inference), non-finite encodings raise `ValueError`: one huge input or
    weight overflows, and linear attention spreads that to every row.
    Training (Tensor weights) checks its loss instead; with l2 > 0 on either
    path, `ratio_match` rejects non-finite encodings first.
    """
    if xs.descriptors.shape[1] != cfg.input_dim or xt.descriptors.shape[1] != cfg.input_dim:
        raise ValueError(f"descriptor dim must be {cfg.input_dim}")
    weights.validate(cfg)
    if isinstance(weights.self_layers[0].wq, Tensor):
        return _forward_impl(xs, xt, weights, cfg, neigh_cfg)
    # an overflow shows up as non-finite encodings, rejected below with one message
    with ad.no_grad(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        enc = _forward_impl(xs, xt, weights, cfg, neigh_cfg)
    out = EncodedPair(enc.xs_hat.data, enc.xt_hat.data, enc.fs_hat.data, enc.ft_hat.data)
    if not all(np.isfinite(x).all() for x in vars(out).values()):
        raise ValueError("non-finite encodings: an input or weight is too large")
    return out


def _forward_impl(xs, xt, weights, cfg, neigh_cfg):
    ref = weights.self_layers[0].wq
    dtype = (ref.data if isinstance(ref, Tensor) else np.asarray(ref)).dtype
    a = as_tensor(xs.descriptors.astype(dtype))
    b = as_tensor(xt.descriptors.astype(dtype))
    for i in range(cfg.l1):
        a, b = self_attention_update(a, b, weights.self_layers[i], cfg.heads)
        a, b = cross_attention_update(a, b, weights.cross_layers[i], cfg.heads)
    fs, ft = a, b
    if cfg.l2 > 0:
        ncfg = (neigh_cfg or NeighborhoodConfig()).resolved_pair(
            (xs.width, xs.height), (xt.width, xt.height))
        m = ratio_match(fs.data, ft.data, ncfg.theta)
        seeds = select_seeds(m, xs.keypoints, ncfg.r)
        pairs = build_neighborhoods(seeds, m, xs.keypoints, xt.keypoints, ncfg)
        for i in range(cfg.l2):
            a, b = pairwise_layer_update(a, b, pairs, weights.pair_layers[i], cfg.heads)
    xs_hat, xt_hat = (ad.row_l2_normalize(x) if x.data.shape[0] else x for x in (a, b))
    return EncodedPair(xs_hat, xt_hat, fs, ft)


def _xavier(rng, fan_in, fan_out, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


def init_weights(cfg: NetworkConfig, seed: int, dtype=np.float32) -> NetworkWeights:
    """Xavier-uniform projections, identity layer norms; deterministic per seed."""
    rng = np.random.default_rng(seed)
    c = cfg.hidden_dim

    def make_layer(in_dim):
        return LayerWeights(
            wq=_xavier(rng, in_dim, c, dtype),
            wk=_xavier(rng, in_dim, c, dtype),
            wv=_xavier(rng, in_dim, c, dtype),
            mlp0=_xavier(rng, 2 * c, 2 * c, dtype),
            mlp1=_xavier(rng, 2 * c, c, dtype),
            ln_g=np.ones(2 * c, dtype=dtype),
            ln_b=np.zeros(2 * c, dtype=dtype),
        )

    selfs, crosses = [], []
    for i in range(cfg.l1):
        selfs.append(make_layer(cfg.input_dim if i == 0 else c))
        crosses.append(make_layer(c))
    pairs = [make_layer(c) for _ in range(cfg.l2)]
    return NetworkWeights(selfs, crosses, pairs, cfg.heads)


def write_tensor_table(path, entries, config) -> None:
    """Serialize named f32 tensors, and the `config` dict, in the LAWT layout."""
    record = json.dumps(config, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_LAWT_MAGIC)
        f.write(struct.pack("<IIH", _LAWT_VERSION, len(entries), len(record)))
        f.write(record)
        for name, value in entries:
            data = value.data if isinstance(value, Tensor) else np.asarray(value)
            data = np.ascontiguousarray(data, dtype="<f4")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", data.ndim))
            f.write(struct.pack(f"<{data.ndim}I", *data.shape))
            f.write(data.tobytes())


def read_tensor_table(path):
    """Read a LAWT container back into (ordered name -> array mapping, config)."""
    tensors = {}
    with open(path, "rb") as f:
        if read_exact(f, 4, "magic") != _LAWT_MAGIC:
            raise ValueError("bad magic: not a weight file")
        version, count = struct.unpack("<II", read_exact(f, 8, "header"))
        if version != _LAWT_VERSION:
            raise ValueError(f"unsupported version {version}")
        (size,) = struct.unpack("<H", read_exact(f, 2, "config length"))
        config = json.loads(read_exact(f, size, "config record").decode("utf-8"))
        if not isinstance(config, dict):
            raise ValueError("config record is not a JSON object")
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read_exact(f, 2, "name length"))
            name = read_exact(f, name_len, "tensor name").decode("utf-8")
            (ndim,) = struct.unpack("<B", read_exact(f, 1, f"{name} ndim"))
            shape = struct.unpack(f"<{ndim}I", read_exact(f, 4 * ndim, f"{name} dims"))
            raw = read_exact(f, math.prod(shape) * 4, f"{name} data")  # Python ints: no wrap
            if name in tensors:
                raise ValueError(f"repeated tensor name {name!r}")
            tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        if f.read(1):
            raise ValueError("trailing bytes after last tensor")
    return tensors, config


def save_weights(path, weights: NetworkWeights) -> None:
    write_tensor_table(path, weights.all_params(), {"heads": weights.heads})


def load_weights(path) -> NetworkWeights:
    """Read a LAWT file into a layer structure, checking its head count and every tensor."""
    tensors, config = read_tensor_table(path)
    heads = config.get("heads")
    if type(heads) is not int:
        raise ValueError(f"config record: head count {heads!r} is not an integer")
    weights = NetworkWeights.from_table(tensors, heads)
    weights.validate(weights.config())
    return weights
