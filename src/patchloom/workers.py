"""Worker threads for large work: how many, when to split, and the pool.

Training splits each time step's weight products by columns: two column
halves, one per thread, each packing only its half of the weight
(columns()).  Those are the forward's [h~; h] @ W_rec and h @ W_h, the
backward's dz @ W_rec, dz @ W_h, dpre_c @ W_comb and dm_sum @ W_att_h,
and the batch-wide products of the embeddings and the attention
(model._rows); every step runs over the whole padded batch in one loop.
The encoder's backward runs beside the decoder's gradient products
(beside()).  Decoding multiplies each step's [h~; h] @ W_rec by column
halves too.  numpy's matrix products and elementwise loops release the
GIL, so at the paper's hidden size the threads overlap most of their work.

There is no setting.  The worker count is derived once per process,
from the threads numpy's bundled OpenBLAS runs (read through ctypes) so
that BLAS's own threads and these never compete for cores: when OpenBLAS
runs one thread, the cores this process may run on
(os.sched_getaffinity), at most MAX_WORKERS; when it runs more (its
default on a machine with several cores) or cannot be asked, 1, and
everything runs in the calling thread.  OPENBLAS_NUM_THREADS=1 lets the
program use the cores itself.

Splitting does not change results, at the hidden sizes LEAST_ROWS lists
and on the OpenBLAS kernels probed there.  A column of a product has the
same bits in a half as in the whole when the product has one row (numpy
then calls OpenBLAS's gemv, whose halves give the whole gemv's bits,
though not a gemm's) or each half has at least SMALL_PRODUCT
multiply-adds; a smaller half may take OpenBLAS's small-matrix kernel,
with other bits, so columns() multiplies such a product whole.  Probed
at float32 and float64, H=256 and 512, R = 1 to 33, 64, 100, 300 and 465
rows, same bits: (R, 2H) @ (2H, 4H), (R, H) @ (H, 4H), (R, d) @ (d, 4H)
for d = 16 to 256, (R, 4H) @ (4H, 2H), (R, 4H) @ (4H, H), (R, H) @ (H,
2H) and (R, H) @ (H, H), with the weight C- or F-contiguous.  Other bits
where a half falls below SMALL_PRODUCT and the whole does not, such as
(2, 512) @ (512, 1024) and (5, 256) @ (256, 256) (numpy's bundled
OpenBLAS, x86-64 SkylakeX kernels).  The output layer's product, whose
halves can hold a handful of columns, and every sum over rows are
computed whole, each by one thread.  Tier-1 tests check it at each
listed size.

Row blocks (blocks()) serve only work with no sum over rows and no
product whose rows could change bits: a decode step's blocks of whole
runs, from the LSTM to the combiner, Adam's chunks, and the copies that
save and load a model.

At float64, the dtype decoding runs in, a row of a product has the
same bits for every row count from 2 up, small products included; only
a one-row product (gemv) differs.  Probed with R = 2 to 40, 64, 120 and
400 rows of (R, d) @ (d, 4H) at (V, d, 4H) = (95, 64, 512), (100, 16,
2048), (100, 256, 2048), (100, 128, 1024) and (5000, 256, 2048), rows
gathered from a V-row product.  decoding.Decoder relies on it at every
hidden size and worker count: a step of at least V_tgt rows reads its
input half from a (V_tgt, 4H) table.

The initial weights (model.ModelParameters.initialize) are drawn in two
halves on two threads at those hidden sizes, from one random stream.
"""

from __future__ import annotations

import bisect
import ctypes
import functools
import glob
import os
import threading

import numpy as np

# No more threads than this, whatever the machine reports: speed, the
# split rule and peak memory were measured with two.
MAX_WORKERS = 2

# The split rule, measured on a 2-core Xeon with one BLAS thread: the
# hidden sizes where work is split at all (column halves, beside() and
# row blocks), each with the fewest rows a row block may hold.  Tier-1
# tests check at each of them that results do not depend on the worker
# count; at any other size everything runs in the calling thread.  Below
# 256 the per-step Python work, which holds the GIL, dominates: at H=128
# a threaded training step took 0.94-1.45 times as long as a serial one,
# for 8 to 64 pairs.  The least rows keep a decode block's smallest
# products, (rows, H) @ (H, H), above OpenBLAS's small-matrix size (2^20
# multiply-adds, probed: at H=512 a row of such a product has the same
# bits for any row count from 4 up, not below) and never fewer than the
# 4 rows probed.
LEAST_ROWS = {256: 16, 512: 4}

# OpenBLAS's small-matrix size: a product of fewer multiply-adds may take
# another kernel than a larger one, with other bits (its permit is 10^6)
SMALL_PRODUCT = 1 << 20


def _blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS runs, or None when it cannot be
    asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


@functools.cache
def count() -> int:
    """Threads that may run blocks at once, the calling thread included:
    1 unless OpenBLAS runs exactly one thread, else the available cores,
    at most MAX_WORKERS."""
    if _blas_threads() != 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), MAX_WORKERS))


def splits(hidden_size: int) -> bool:
    """Whether work at hidden size H is shared among threads at all: H is
    a size LEAST_ROWS lists, there are workers, and this is not a task
    that run() started (so no task waits on another)."""
    return hidden_size in LEAST_ROWS and not _local.in_task and count() > 1


def blocks(rows: int, hidden_size: int,
           ends: list[int] | None = None) -> list[tuple[int, int]]:
    """Row ranges (b0, b1) that cover rows 0 to rows-1 in order, one per
    worker where splits() says yes and each holds LEAST_ROWS[H] rows,
    their sizes differing by at most one; otherwise [(0, rows)].  With
    ends, the ascending row indices where a block may end, each cut moves
    to the first of them at or after it, and a cut that would leave a
    block under LEAST_ROWS[H] rows goes."""
    if not splits(hidden_size):
        return [(0, rows)]
    least = LEAST_ROWS[hidden_size]
    n = min(count(), rows // least)
    cuts = [rows * k // n for k in range(1, n)]
    if ends is not None:
        cuts = [ends[bisect.bisect_left(ends, cut)] for cut in cuts]
    edges = [0]
    for cut in cuts:
        if least <= min(cut - edges[-1], rows - cut):
            edges.append(cut)
    edges.append(rows)
    return list(zip(edges[:-1], edges[1:]))


def columns(a: np.ndarray, W: np.ndarray, hidden_size: int) -> np.ndarray:
    """a (R, k) @ W (k, m): where splits() says yes at hidden size H, as
    two column halves, one per thread, when R is 1 or each half has at
    least SMALL_PRODUCT multiply-adds; otherwise the plain product."""
    half = W.shape[1] // 2
    if not splits(hidden_size) or 1 < len(a) and a.size * half < SMALL_PRODUCT:
        return a @ W
    out = np.empty((len(a), W.shape[1]), dtype=np.result_type(a, W))

    def part(cols):
        np.matmul(a, W[:, cols], out=out[:, cols])

    run(part, [slice(0, half), slice(half, None)])
    return out


class _Local(threading.local):
    in_task = False


_local = _Local()
_pool = None
_pool_lock = threading.Lock()


def _executor():
    """The one pool, made on first use with a thread for each worker but
    the calling one.  concurrent.futures is imported only then: a serial
    run never needs it, and it adds 0.6 MiB to the peak RSS."""
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(1, count() - 1),
                                       thread_name_prefix="patchloom-worker")
        return _pool


def _task(fn, part):
    _local.in_task = True
    try:
        return fn(part)
    finally:
        _local.in_task = False


def run(fn, items: list) -> list:
    """[fn(item) for item in items], at once when there are workers and
    this is not itself a task: the first item in the calling thread, the
    others on the pool's threads.  Returns once every item is done, and
    raises the first error in item order."""
    if len(items) == 1 or count() == 1 or _local.in_task:
        return [fn(item) for item in items]
    futures = [_executor().submit(_task, fn, item) for item in items[1:]]
    try:
        first = _task(fn, items[0])
    finally:
        for future in futures:
            future.exception()      # waits for it
    return [first] + [future.result() for future in futures]


def beside(tasks: list, hidden_size: int) -> None:
    """Call every task: side by side where splits() says yes at hidden
    size H, else one after another in order."""
    if splits(hidden_size):
        run(lambda task: task(), tasks)
    else:
        for task in tasks:
            task()
