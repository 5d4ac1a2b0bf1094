"""Graph collections: storage, validation, sampling from a graphon, JSONL I/O.

A collection holds M undirected simple graphs with disjoint node sets and
heterogeneous sizes. Each graph is a node count plus an edge list of
unordered pairs (i, j), i < j, 0-based. A :class:`GraphCollection` stores
all of them in one flat layout: node offsets, edge offsets and a single
edge array of global node ids.

Reproducibility contract: graph ``m`` of a collection sampled with seed ``s``
is drawn from ``numpy.random.default_rng([s, m])``, i.e. the sub-stream is
derived from (seed, graph index) through numpy's SeedSequence mixing. The
same (seed, m) always yields the same graph, and distinct graphs use
statistically independent streams, so determinism holds no matter which
thread draws which graph. The sampler derives the PCG64 seed states of all
graphs of a collection in one vectorized pass of that SeedSequence algorithm
and seeds each graph's generator from its row; every stream stays exactly
the one ``SeedSequence([s, m])`` gives.
"""
from __future__ import annotations

import io
import json
from functools import cache
from itertools import chain

import numpy as np

from .graphons import Graphon, _kernel
from .tv import _require_int

__all__ = [
    "GraphCollection",
    "InvalidGraph",
    "graph_rng",
    "sample_collection",
    "save_collection",
    "load_collection",
]

_EMPTY_EDGES = np.empty((0, 2), dtype=np.int64)


class InvalidGraph(ValueError):
    """A graph of a collection failed validation; ``graph`` is its index."""

    def __init__(self, graph: int, reason: str):
        super().__init__(f"graph {graph}: {reason}")
        self.graph = graph
        self.reason = reason


def _offsets(counts) -> np.ndarray:
    """Exclusive prefix sums: (M,) counts -> (M+1,) offsets starting at 0."""
    return np.concatenate(([0], np.cumsum(np.asarray(counts, dtype=np.int64))))


def _split(values: np.ndarray, offsets: np.ndarray) -> tuple:
    """Per-graph views ``values[offsets[m]:offsets[m+1]]`` (np.split is ~5x slower)."""
    bounds = offsets.tolist()
    return tuple(values[a:b] for a, b in zip(bounds[:-1], bounds[1:]))


def _integers(values, name: str) -> np.ndarray:
    """``values`` as an int64 array; a non-empty array of any dtype but an
    integer one is refused, not truncated."""
    a = np.asarray(values)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got {a.dtype} values")
    return a.astype(np.int64, copy=False)


def _graph_of(offsets: np.ndarray, position) -> int:
    """Index of the graph whose range in ``offsets`` holds ``position``."""
    return int(np.searchsorted(offsets, position, side="right")) - 1


def _global_edges(node_offsets: np.ndarray, edge_offsets: np.ndarray, local: np.ndarray) -> np.ndarray:
    """Check the local edge lists of M graphs, concatenated in graph order,
    and turn them in place into global endpoints (node offset + local id).

    Raises :class:`InvalidGraph` naming the first graph with fewer than one
    node, an edge with i >= j, an endpoint outside [0, n) or a repeated edge.
    """
    sizes = np.diff(node_offsets)
    if np.any(sizes < 1):
        raise InvalidGraph(int(np.argmax(sizes < 1)), "graph must have at least one node")
    counts = np.diff(edge_offsets)
    u, v = local[:, 0], local[:, 1]
    bad = u >= v
    if bad.any():
        raise InvalidGraph(_graph_of(edge_offsets, np.argmax(bad)), "edges must satisfy i < j (no self-loops)")
    bad = (u < 0) | (v >= np.repeat(sizes, counts))
    if bad.any():
        raise InvalidGraph(_graph_of(edge_offsets, np.argmax(bad)), "edge endpoints must lie in [0, n)")
    local += np.repeat(node_offsets[:-1], counts)[:, None]
    # graphs own increasing node ranges, so edge lists in lexicographic order
    # (as the sampler and saved files have them) give strictly increasing keys
    n_total = node_offsets[-1]
    keys = u * n_total
    keys += v
    if not np.all(keys[1:] > keys[:-1]):
        keys.sort()
        repeated = keys[1:] == keys[:-1]
        if repeated.any():
            node = keys[np.argmax(repeated)] // n_total
            raise InvalidGraph(_graph_of(node_offsets, node), "duplicate edges")
    return local


class GraphCollection:
    """M graphs in one flat (CSR) layout, validated once at construction.

    Graph m owns the global node ids ``node_offsets[m]`` to
    ``node_offsets[m+1] - 1`` and the rows ``edge_offsets[m]`` to
    ``edge_offsets[m+1] - 1`` of ``edges``, an (E, 2) int64 array of global
    endpoints (node offset + local id) with i < j in every row; treat the
    arrays as read-only.
    """

    def __init__(self, sizes, edge_counts, local_edges: np.ndarray):
        """Build from graph sizes, per-graph edge counts and the local edge
        lists of all graphs concatenated in graph order, an (E, 2) int64
        array that the collection takes over and rewrites in place. Sizes,
        counts and endpoints must be integers (of an integer dtype)."""
        if len(sizes) == 0:
            raise ValueError("collection must contain at least one graph")
        self.node_offsets = _offsets(_integers(sizes, "graph sizes"))
        self.edge_offsets = _offsets(_integers(edge_counts, "edge counts"))
        local = _integers(local_edges, "edge endpoints").reshape(-1, 2)
        if len(edge_counts) != len(sizes) or self.edge_offsets[-1] != local.shape[0]:
            raise ValueError("need one edge count per graph, adding up to the number of edges")
        self.edges = _global_edges(self.node_offsets, self.edge_offsets, local)

    @property
    def num_graphs(self) -> int:
        """M, the number of graphs."""
        return self.node_offsets.size - 1

    @property
    def total_nodes(self) -> int:
        """N = sum of graph sizes."""
        return int(self.node_offsets[-1])

    @property
    def total_dyads(self) -> int:
        """S = sum of squared graph sizes (observed entries of the merged matrix)."""
        sizes = np.diff(self.node_offsets)
        return int(sizes @ sizes)

    @property
    def edge_count(self) -> int:
        """E, the number of edges over all graphs."""
        return self.edges.shape[0]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(np.diff(self.node_offsets).tolist())


def _graph_edges(collection: GraphCollection) -> tuple:
    """The edge rows of each graph with local node ids: views of one (E, 2)
    array, computed from the flat layout in one pass."""
    counts = np.diff(collection.edge_offsets)
    local = collection.edges - np.repeat(collection.node_offsets[:-1], counts)[:, None]
    return _split(local, collection.edge_offsets)


def graph_rng(seed: int, m: int) -> np.random.Generator:
    """The documented sub-stream for graph ``m`` under collection seed ``seed``."""
    return np.random.default_rng([int(seed), int(m)])


# numpy's SeedSequence: a pool of 4 uint32 words and its hash constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(const: int, mult: int):
    """SeedSequence's hash of uint32 arrays; its running constant starts at
    ``const`` and is multiplied by ``mult`` in every call."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value *= const
        value ^= value >> 16
        return value

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    result ^= result >> 16
    return result


def _seed_states(seed: int, graphs: np.ndarray) -> np.ndarray:
    """PCG64 seed states of graphs ``graphs`` under collection seed ``seed``:
    a (len(graphs), 4) uint64 array whose row i equals
    ``SeedSequence([seed, graphs[i]]).generate_state(4, np.uint64)``, the
    state ``graph_rng(seed, graphs[i])`` seeds PCG64 with.

    Runs numpy's SeedSequence algorithm for all graphs at once, in uint32
    array arithmetic, which wraps modulo 2**32 as the reference does. The
    entropy words are those of the seed, least significant first (at least
    one), then the graph index as one word: indices lie in [0, 2**32).
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    graphs = np.asarray(graphs)
    words = [seed & _MASK32]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _MASK32)
    entropy = [np.full(graphs.size, w, dtype=np.uint32) for w in words] + [graphs.astype(np.uint32)]
    entropy += [np.zeros(graphs.size, dtype=np.uint32)] * (4 - len(entropy))
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hashmix(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1).astype("<u4", copy=False)
    return state.view("<u8").astype(np.uint64, copy=False)


@cache
def _precomputed_seed() -> type:
    """The seed-sequence type that hands PCG64 a row of :func:`_seed_states`.

    Built on first use: numpy loads ``numpy.random`` lazily, and a module
    that never samples need not load it.
    """

    class PrecomputedSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 seeds itself from 4 uint64 words; any other request means
            # numpy now seeds it differently, and the state would be wrong
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise RuntimeError(
                    f"PCG64 requested {n_words} words of {np.dtype(dtype)}; "
                    "the precomputed seed state holds 4 words of uint64"
                )
            return self.state

    return PrecomputedSeed


# most pairs per chunk of the collection's pair stream; bounds the sampler's
# working set (~70 bytes a pair) whatever the graph sizes
_DYAD_CHUNK = 1 << 16


def sample_collection(spec: Graphon, sizes, seed: int) -> tuple[GraphCollection, tuple]:
    """Sample one graph per entry of ``sizes`` from the graphon.

    For each graph: latent positions are i.i.d. Uniform[0,1]; each pair
    i < j is an edge independently with probability W(U_i, U_j).
    Returns the collection together with the true latent positions
    (one array per graph, views of one array).

    Graph m draws from ``graph_rng(seed, m)`` its n latents, then one number
    per pair i < j in row-major order. A negative seed raises ValueError.
    """
    sizes = list(sizes)
    _require_int("graph size", *sizes)
    n = np.array(sizes, dtype=np.int64)
    node_offsets = _offsets(n)
    latent = np.empty(int(node_offsets[-1]))
    heads, tails, counts = _sample_pairs(spec, n, node_offsets, seed, latent)
    local = np.empty((int(counts.sum()), 2), dtype=np.int64)
    np.concatenate(heads, out=local[:, 0])
    np.concatenate(tails, out=local[:, 1])
    del heads, tails
    coll = GraphCollection(sizes, counts, local)
    return coll, _split(latent, node_offsets)


def _sample_pairs(spec: Graphon, n: np.ndarray, node_offsets: np.ndarray, seed: int,
                  latent: np.ndarray) -> tuple[list, list, np.ndarray]:
    """Draw the latents of graphs of sizes ``n`` into ``latent`` and their
    edges; returns the edges' local endpoint columns (i, j), one array per
    chunk, and the edge count of each graph.

    The pairs of all graphs form one stream, walked in chunks: a chunk may
    span many small graphs or part of a large one, and chunked
    ``rng.random`` calls draw the same numbers as one call. A graph's
    generator is seeded, and its latents drawn, when the first chunk
    reaches it.
    """
    states = _seed_states(seed, np.arange(n.size))
    seeded, generator, pcg64 = _precomputed_seed(), np.random.Generator, np.random.PCG64
    nodes = node_offsets.tolist()
    graph_pairs = n * (n - 1) // 2
    pair_offsets = _offsets(graph_pairs)
    pairs = pair_offsets.tolist()
    # one row per (graph, local i < n - 1): its pairs (i, i+1..n-1) sit at
    # positions row_start[r]..row_start[r+1]-1 of the stream
    row_i = np.arange(int(np.sum(n - 1))) - np.repeat(_offsets(n - 1)[:-1], n - 1)
    row_node = np.repeat(node_offsets[:-1], n - 1) + row_i
    row_start = _offsets(np.repeat(n - 1, n - 1) - row_i)
    edge_counts = np.zeros(n.size, dtype=np.int64)

    # a chunk holds the pairs of a largest graph, within [1 << 13, _DYAD_CHUNK]:
    # small graphs keep a small working set, and a large graph's edges come in
    # few large pieces. Under glibc malloc, chunks of 1 << 13 pairs raised the
    # peak RSS of a run of n = 1000 cells by ~5 MB (hundreds of 16 KB edge
    # pieces on the heap), and 1 << 16 that of Table-1 cells by ~0.7 MB
    chunk = min(_DYAD_CHUNK, max(int(np.max(graph_pairs, initial=0)), 1 << 13))
    size = min(chunk, pairs[-1])
    steps = np.arange(size)
    draw, other = np.empty(size), np.empty(size)
    index, hit = np.empty(size, dtype=np.int64), np.empty(size, dtype=bool)
    heads, tails = [_EMPTY_EDGES[:, 0]], [_EMPTY_EDGES[:, 1]]
    m, rng = -1, None
    for start in range(0, pairs[-1], chunk):
        stop = min(start + chunk, pairs[-1])
        length = stop - start
        first_graph = int(np.searchsorted(pair_offsets, start, side="right")) - 1
        a = start
        while a < stop:
            while pairs[m + 1] <= a:
                m += 1
                rng = generator(pcg64(seeded(states[m])))
                rng.random(out=latent[nodes[m]:nodes[m + 1]])
            b = min(stop, pairs[m + 1])
            rng.random(out=draw[a - start:b - start])
            a = b
        first = int(np.searchsorted(row_start, start, side="right")) - 1
        last = int(np.searchsorted(row_start, stop - 1, side="right"))
        rows = slice(first, last)
        bounds = np.clip(row_start[first:last + 1], start, stop) - start
        counts = np.diff(bounds)
        # pair p of row r joins node row_node[r] to node p - row_start[r] + row_node[r] + 1
        np.add(steps[:length], start, out=index[:length])
        index[:length] -= np.repeat(row_start[rows] - row_node[rows] - 1, counts)
        np.take(latent, index[:length], out=other[:length], mode="clip")
        # latents come from rng.random, inside [0, 1): no range check needed
        w = _kernel(spec, np.repeat(latent[row_node[rows]], counts), other[:length])
        np.less(draw[:length], w, out=hit[:length])
        tail = np.flatnonzero(hit[:length])
        per_row = np.diff(np.searchsorted(tail, bounds))
        graph_bounds = np.clip(pair_offsets[first_graph:m + 2], start, stop) - start
        edge_counts[first_graph:m + 1] += np.diff(np.searchsorted(tail, graph_bounds))
        tail += start
        tail -= np.repeat(row_start[rows] - row_i[rows] - 1, per_row)
        heads.append(np.repeat(row_i[rows], per_row))
        tails.append(tail)
    for m in range(m + 1, n.size):  # graphs after the last pair
        generator(pcg64(seeded(states[m]))).random(out=latent[nodes[m]:nodes[m + 1]])
    return heads, tails, edge_counts


def save_collection(
    collection: GraphCollection,
    path,
    latent=None,
    graphon_id: int | None = None,
    seed: int | None = None,
) -> None:
    """Write the collection as JSON Lines, one graph object per line.

    With ``latent`` given, a provenance sidecar ``<path>.sidecar.json`` is
    written holding the true latent positions (plus graphon id and seed).
    Output bytes are a pure function of the arguments.
    """
    with open(path, "w") as fh:
        for m, (n, edges) in enumerate(zip(collection.sizes, _graph_edges(collection))):
            rec = {"id": m, "n": n, "edges": edges.tolist()}
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    if latent is not None:
        sidecar = {
            "latent": [np.asarray(u).tolist() for u in latent],
            "graphon_id": graphon_id,
            "seed": seed,
        }
        with open(str(path) + ".sidecar.json", "w") as fh:
            fh.write(json.dumps(sidecar, separators=(",", ":")) + "\n")


# save_collection's line form with every digit run collapsed to "#": a fixed
# prefix, the edges as "[#,#]" joined by ",", a fixed suffix
_PREFIX, _PERIOD, _SUFFIX = (
    np.frombuffer(text, dtype=np.uint8) for text in (b'{"id":#,"n":#,"edges":[', b"[#,#],", b"]}\n")
)
_MAX_DIGITS = 18  # every integer of 18 digits fits int64
_ZERO = np.uint8(ord("0"))


def _read_canonical(data: bytes) -> tuple | None:
    """Sizes, edge counts, local edges and line numbers of the records of a
    file whose every line has exactly the form save_collection writes,
    parsed in one vectorized pass; None for any other file.

    The form is ``{"id":D,"n":D,"edges":[[D,D],...]}`` and a newline, the
    ids counting 0..M-1, where D is ``0`` or up to 18 digits without a
    leading zero. Record m is on line m + 1.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf.size == 0 or buf[0] != _PREFIX[0] or buf[-1] != _SUFFIX[-1]:
        return None
    digit = buf - _ZERO < 10  # uint8 wraps: only "0".."9" land below 10
    # the first and last bytes are not digits, so every digit run starts
    # after a non-digit and ends before one
    starts = np.flatnonzero(digit[1:] > digit[:-1])
    starts += 1
    width = np.flatnonzero(digit[1:] < digit[:-1])
    width += 1
    width -= starts
    if width.max(initial=0) > _MAX_DIGITS or np.any((width > 1) & (buf[starts] == _ZERO)):
        return None
    keep = ~digit
    del digit
    keep[starts] = True
    counts = _skeleton_edge_counts(buf[keep])
    del keep
    if counts is None:
        return None

    value = (buf[starts] - _ZERO).astype(np.int64)
    more = np.flatnonzero(width > 1)
    for j in range(1, int(width.max(initial=0))):
        value[more] = value[more] * 10 + (buf[starts[more] + j] - _ZERO)
        more = more[width[more] > j + 1]
    del starts, width, more
    # line m holds 2 + 2 c_m digit runs: id, n, then the endpoints
    first = _offsets(2 * counts + 2)[:-1]
    if not np.array_equal(value[first], np.arange(counts.size)):
        return None
    sizes = value[first + 1]
    endpoint = np.ones(value.size, dtype=bool)
    endpoint[first] = endpoint[first + 1] = False
    return sizes, counts, value[endpoint].reshape(-1, 2), range(1, counts.size + 1)


def _skeleton_edge_counts(skeleton: np.ndarray) -> np.ndarray | None:
    """Edge count of each line of ``skeleton``, a file's bytes with each digit
    run cut to its first digit; None unless every line, each digit read as
    "#", is the prefix, c periods with the last comma dropped, and the
    suffix. Overwrites ``skeleton``."""
    np.putmask(skeleton, skeleton - _ZERO < 10, ord("#"))
    line_end = np.flatnonzero(skeleton == _SUFFIX[-1]) + 1
    length = np.diff(line_end, prepend=0)
    body = length - _PREFIX.size - _SUFFIX.size
    counts = (body + 1) // _PERIOD.size
    if np.any(np.where(counts > 0, counts * _PERIOD.size - 1, 0) != body):
        return None
    line_start = line_end - length
    for j, ch in enumerate(_PREFIX):
        if np.any(skeleton[line_start + j] != ch):
            return None
    for j, ch in enumerate(_SUFFIX, start=-_SUFFIX.size):
        if np.any(skeleton[line_end + j] != ch):
            return None
    # with a comma in place of its closing bracket, the edge list of a line
    # with c edges is the period c times: select those 6c bytes of each line
    skeleton[line_end[counts > 0] - _SUFFIX.size] = ord(",")
    pieces = np.column_stack([np.full_like(counts, _PREFIX.size), counts * _PERIOD.size, _SUFFIX.size - (counts > 0)])
    in_edges = np.repeat(np.tile([False, True, False], counts.size), pieces.ravel())
    return counts if (skeleton[in_edges].reshape(-1, _PERIOD.size) == _PERIOD).all() else None


def _parse_record(line: str, m: int) -> tuple[int, list]:
    """``n`` and the flattened edge endpoints of the record for graph ``m``."""
    rec = json.loads(line)
    n, rec_id, edges = rec["n"], rec["id"], rec["edges"]
    # type(x) is int, not isinstance: bools are ints to Python but not here
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    if type(rec_id) is not int or rec_id != m:
        raise ValueError(f"id must be {m} (records are numbered 0..M-1 in file order), got {rec_id!r}")
    if type(edges) is not list or not set(map(len, edges)) <= {2}:
        raise ValueError("edges must be a list of [i, j] pairs")
    endpoints = list(chain.from_iterable(edges))
    if not set(map(type, endpoints)) <= {int}:
        raise ValueError("edge endpoints must be integers")
    return n, endpoints


def _read_lines(data: bytes, path) -> tuple[list, list, list, list]:
    """Sizes, edge counts, flattened edge endpoints and line numbers of the
    records of a JSON Lines file, read line by line as text (blank lines
    skipped); raises ValueError naming the line of the first bad record."""
    sizes, counts, endpoints, linenos = [], [], [], []
    for lineno, line in enumerate(io.TextIOWrapper(io.BytesIO(data)), start=1):
        if not line.strip():
            continue
        try:
            n, ends = _parse_record(line, len(sizes))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: malformed collection record on line {lineno}: {exc}") from exc
        sizes.append(n)
        counts.append(len(ends) // 2)
        endpoints += ends
        linenos.append(lineno)
    return sizes, counts, endpoints, linenos


def load_collection(path, *, latent: bool = True) -> tuple[GraphCollection, tuple | None, dict]:
    """Read a JSONL collection; returns (collection, latent or None, sidecar dict).

    Every record must carry an integer ``n``, integer edge endpoints and an
    ``id`` equal to its position among the records (0..M-1); any other
    record is rejected with its line number. A file in save_collection's
    exact form is parsed in one vectorized pass, any other line by line,
    with the same result. A sidecar ``<path>.sidecar.json``, if there is
    one, must be valid JSON and list for each graph of n nodes its n latent
    positions as JSON numbers in [0, 1]; its ``graphon_id`` and ``seed``, if
    given and not null, must be integers, the seed >= 0.

    With ``latent=False`` the latent values are neither converted nor
    checked (the sidecar's JSON, its shape and its provenance still are):
    the latent comes back as None and the sidecar dict without its
    ``latent`` key.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    sizes, counts, endpoints, linenos = _read_canonical(data) or _read_lines(data, path)
    try:
        local = np.asarray(endpoints, dtype=np.int64).reshape(-1, 2)
        collection = GraphCollection(sizes, counts, local)
    except InvalidGraph as exc:
        raise ValueError(
            f"{path}: malformed collection record on line {linenos[exc.graph]}: {exc.reason}"
        ) from exc
    except OverflowError as exc:
        raise ValueError(f"{path}: integer out of range: {exc}") from exc
    except ValueError as exc:  # a file with no record
        raise ValueError(f"{path}: {exc}") from exc
    try:
        with open(str(path) + ".sidecar.json") as fh:
            text = fh.read()
    except FileNotFoundError:
        return collection, None, {}
    # with latent=False every float token reads as True, which no provenance
    # check accepts: the scan builds no float object
    try:
        sidecar = json.loads(text, parse_float=None if latent else bool)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}.sidecar.json: not valid JSON ({exc})") from None
    if latent:
        values = _parse_latent(sidecar, collection, path)
    else:
        _latent_lists(sidecar, collection, path)
        del sidecar["latent"]
        values = None
        if not {type(sidecar.get("graphon_id")), type(sidecar.get("seed"))} <= {int, type(None)}:
            sidecar = json.loads(text)  # the checks below raise, naming the value as written
    graphon_id, seed = sidecar.get("graphon_id"), sidecar.get("seed")
    if graphon_id is not None and type(graphon_id) is not int:
        raise ValueError(f"{path}: sidecar graphon_id must be an integer or null, got {graphon_id!r}")
    if seed is not None:
        _require_int(f"{path}: sidecar seed", seed, least=0)
    return collection, values, sidecar


def _latent_lists(sidecar, collection: GraphCollection, path) -> list:
    """The sidecar's ``latent`` entry, checked to hold one list of n entries
    for each graph of n nodes."""
    lists = sidecar.get("latent") if type(sidecar) is dict else None
    if type(lists) is not list or len(lists) != collection.num_graphs:
        raise ValueError(f"{path}: sidecar latent count does not match collection")
    sizes = collection.sizes
    if not set(map(type, lists)) <= {list} or tuple(map(len, lists)) != sizes:
        m, n = next((m, n) for m, (u, n) in enumerate(zip(lists, sizes)) if type(u) is not list or len(u) != n)
        raise ValueError(f"{path}: sidecar latent of graph {m} must be a list of its {n} positions")
    return lists


def _parse_latent(sidecar, collection: GraphCollection, path) -> tuple:
    """The sidecar's latent positions, one array per graph (views of one
    array): n JSON numbers in [0, 1] for each graph of n nodes."""
    flat = list(chain.from_iterable(_latent_lists(sidecar, collection, path)))
    try:
        # type(x), not isinstance: bools are ints to Python but not here
        values = np.fromiter(flat, dtype=float, count=len(flat)) if set(map(type, flat)) <= {int, float} else None
    except OverflowError:
        values = None
    # NaN fails both comparisons
    if values is None or not ((values >= 0.0) & (values <= 1.0)).all():
        node = next(i for i, x in enumerate(flat) if not (type(x) in (int, float) and 0 <= x <= 1))
        raise ValueError(
            f"{path}: sidecar latent of graph {_graph_of(collection.node_offsets, node)} "
            f"must hold numbers in [0, 1], got {flat[node]!r}"
        )
    return _split(values, collection.node_offsets)
