"""Evaluation metrics (Chamfer, F-score@tau) and their report format.

Both scores read one search of a pair of clouds, `_search`: the unbounded `losses.query_pair`
of the prediction's points in the ground truth's KD-tree and the reverse. Both trees are built
with `compact_nodes=False`, faster to query here, and no score depends on which of two tied
points a tree returns. On two or more CPUs a worker thread of `core.worker_pool`, kept off this
thread's CPU and joined before the call returns, answers the prediction's query while this
thread builds the prediction's tree and answers the other, and then takes what this thread has
left of it, so the values are those of one thread. A `--jobs` worker process, or a run on one
CPU, starts no thread.

Each thread keeps its last search, with copies of the two position arrays it searched, and
reads it again for clouds whose positions have the same shapes and bytes in the same order:
an evaluation, `eval_chamfer` and then `fscore` at one or more taus, searches once. A search
answers a point the same whatever was queried with it, so a score read from a kept search has
the bytes of one searched now (`tests/test_metrics.py` checks them against unbounded queries).
"""
from __future__ import annotations

import contextlib
import math
import threading

from .core import PointCloud, worker_pool
from .errors import EmptyCloud, InvalidConfig
from .losses import _TABLE_MAX, _chamfer_from, cKDTree, chamfer, query_pair

DEFAULT_TAU = 0.5  # meters

_last = threading.local()  # .record: (pred positions, gt positions, their query_pair) of this thread's last search


def _search(pred: PointCloud, gt: PointCloud):
    """((d_pred, ia), (d_gt, ib)): the unbounded `query_pair` of pred's points in gt's tree. This
    thread's last search when it was of positions with these shapes and bytes, in this order;
    otherwise searched now, with `core.worker_pool`'s worker if there is one, and kept."""
    pa, pb = pred.positions, gt.positions
    kept = getattr(_last, "record", None)
    if kept is not None and all(k.shape == p.shape and k.tobytes() == p.tobytes() for k, p in zip(kept, (pa, pb))):
        return kept[2]
    with (executor := worker_pool()) or contextlib.nullcontext():
        pair = query_pair(pa, cKDTree(pb, compact_nodes=False), executor, compact_nodes=False)
    _last.record = pa.copy(), pb.copy(), pair
    return pair


def eval_chamfer(pred: PointCloud, gt: PointCloud) -> float:
    """Symmetric squared Chamfer distance, no gradient: `chamfer(pred, gt)[0]`, byte for byte.

    At or below `_TABLE_MAX` it is `chamfer`; above it, the value is read from `_search`'s indices
    with `chamfer`'s formula (`losses._chamfer_from`, InvalidConfig on overflow).
    """
    if len(pred) * len(gt) <= _TABLE_MAX:
        return chamfer(pred, gt)[0]
    (_, ia), (_, ib) = _search(pred, gt)
    return float(_chamfer_from(pred.positions[None], gt.positions, ia[None], ib[None])[0][0])


def check_tau(tau: float) -> None:
    """Raise InvalidConfig unless the match radius tau is positive and finite."""
    if not (0.0 < tau < math.inf):
        raise InvalidConfig("tau must be positive and finite")


def fscore(
    pred: PointCloud, gt: PointCloud, tau: float = DEFAULT_TAU
) -> tuple[float, float, float]:
    """(precision, recall, f) at match radius tau, from `_search`'s nearest distances; recall is
    'coverage'. A point matches when its distance is at most tau, so a match at exactly tau counts;
    a point whose every squared distance overflows has an infinite distance and no match. Alone it
    pays the full unbounded search; a thread keeps one search, so score a pair fully before the next."""
    check_tau(tau)
    if len(pred) == 0 or len(gt) == 0:
        raise EmptyCloud("fscore requires two non-empty clouds")
    (d_pred, _), (d_gt, _) = _search(pred, gt)
    precision = float((d_pred <= tau).mean())
    recall = float((d_gt <= tau).mean())
    f = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f


def format_report(metrics: dict[str, float]) -> str:
    """Key-value metrics report, one `key=value` pair per space-separated field."""
    return " ".join(f"{k}={v:.6g}" for k, v in metrics.items())
