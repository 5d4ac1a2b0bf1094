"""Spans around the package's public layer calls, for the traced run.

:func:`instrument` replaces functions in the modules that look them up
(``bench.sample_collection``, ``jgs.jgs_histogram``, ``baselines.sas_single``
and so on) with wrappers that record a span and, where the result carries
one, a counter; on exit the originals are put back. The traced op then runs
the program itself, through the same public entry point as the untimed op,
so its outputs can be compared with the untraced ones byte for byte.

A hook whose module attribute no longer exists is skipped and reported, so
a refactor of the package loses a layer metric instead of the whole run.
"""
from __future__ import annotations

import functools
import importlib
import os
from contextlib import contextmanager


def collection_counts(tracer, coll) -> None:
    tracer.count("collection.graphs", coll.num_graphs)
    tracer.count("collection.dyads", sum(n * (n - 1) // 2 for n in coll.sizes))
    try:
        edges = sum(g.edge_count for g in coll.graphs)
    except AttributeError:  # a collection without per-graph edge lists: not counted
        return
    tracer.count("collection.edges", edges)


def _sampled(tracer, args, kwargs, result):
    collection_counts(tracer, result[0])


def collection_bytes(path) -> int:
    """Size of a JSONL collection plus its sidecar, if it has one."""
    sidecar = f"{path}.sidecar.json"
    return os.path.getsize(path) + (os.path.getsize(sidecar) if os.path.exists(sidecar) else 0)


def _loaded(tracer, args, kwargs, result):
    tracer.count("collection.load_bytes", collection_bytes(args[0] if args else kwargs["path"]))
    collection_counts(tracer, result[0])


def _histogram(tracer, args, kwargs, hist):
    tracer.count("jgs.nodes", hist.n_total)
    tracer.count("jgs.k", hist.k)
    tracer.count("jgs.empty_blocks", hist.empty_blocks)
    if "edges_touched" in hist.params:
        tracer.count("jgs.edges_touched", hist.params["edges_touched"])


def _smoothed(tracer, args, kwargs, result):
    tracer.count("tv.calls", 1)


def _denoised(tracer, args, kwargs, result):
    tracer.count("tv.iterations", result.iterations)


def _scored(tracer, args, kwargs, result):
    tracer.count("evaluation.mise_calls", 1)


def _single_graph(tracer, args, kwargs, result):
    tracer.count("baselines.graphs", 1)


def _pooled(tracer, args, kwargs, est):
    tracer.count("baselines.skipped_singletons", est.params.get("skipped_singletons", 0))


def _rows(tracer, args, kwargs, records):
    tracer.count("bench.rows", len(records))
    tracer.count("bench.rows_failed", sum(r.error is not None for r in records))


# (module, attribute the module looks up, span name or None for a counter
# only, counter hook or None)
HOOKS = (
    ("bench", "_run_cell", "bench.cell", _rows),
    ("bench", "sample_collection", "collection.sample_collection", _sampled),
    ("bench", "estimate_jgs", "jgs.estimate_jgs", None),
    ("bench", "estimate_sas_pool", "baselines.estimate_sas_pool", _pooled),
    ("bench", "estimate_usvt_pool", "baselines.estimate_usvt_pool", _pooled),
    # the MAE re-sort _run_cell does after each jgs estimate
    ("bench", "normalized_degrees", "bench.mae_resort", None),
    ("bench", "joint_sort", "bench.mae_resort", None),
    ("jgs", "normalized_degrees", "jgs.normalized_degrees", None),
    ("jgs", "joint_sort", "jgs.joint_sort", None),
    ("jgs", "select_k", "jgs.select_k", None),
    ("jgs", "jgs_histogram", "jgs.jgs_histogram", _histogram),
    ("jgs", "tv_smooth", "tv.tv_smooth", _smoothed),
    ("baselines", "tv_smooth", "tv.tv_smooth", _smoothed),
    ("tv", "tv_denoise", None, _denoised),  # counted only: TV time stays in tv_smooth
    ("evaluation", "mise", "evaluation.mise", _scored),
    ("evaluation", "mae_latent", "evaluation.mae_latent", None),
    ("evaluation", "canonical_rearrangement", "graphons.canonical_rearrangement", None),
    ("baselines", "sas_single", "baselines.sas_single", _single_graph),
    ("baselines", "usvt_single", "baselines.usvt_single", _single_graph),
    ("baselines", "pool_estimates", "baselines.pool_estimates", None),
    ("cli", "load_collection", "collection.load_collection", _loaded),
    ("cli", "estimate_jgs", "jgs.estimate_jgs", None),
    ("cli", "save_estimate", "estimates.save_estimate", None),
)


def _wrap(fn, tracer, name, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if name is None:
            result = fn(*args, **kwargs)
        else:
            with tracer.span(name):
                result = fn(*args, **kwargs)
        if counter is not None:
            try:
                counter(tracer, args, kwargs, result)
            except (AttributeError, KeyError, TypeError, IndexError):
                pass  # the result no longer carries this count: the metric goes missing
        return result

    return traced


@contextmanager
def instrument(tracer):
    """Install every hook for the duration of the block; yields the list of
    ``module.attribute`` hooks that could not be installed."""
    installed, missing = [], []
    try:
        for module_name, attr, name, counter in HOOKS:
            module = importlib.import_module(f"multigraphon.{module_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, _wrap(fn, tracer, name, counter))
            installed.append((module, attr, fn))
        yield missing
    finally:
        for module, attr, fn in reversed(installed):
            setattr(module, attr, fn)
