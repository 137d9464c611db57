"""Section 5.6: training and scoring overheads.

Paper numbers (103 TPC-DS queries / scale factor):
  - PPM fit on Sparklens estimates: ~0.3 ms per training data point;
  - random-forest training (single-threaded): ~79 ms;
  - model files: pickled 0.8/0.9 MB, ONNX 1.0/1.1 MB (AE_AL / AE_PL);
  - scikit-learn scoring: ~3.6 ms; ONNX inference: ~0.9 ms per query;
  - plan featurization: ~10.3 ms;
  - one-time ONNX load/setup: ~88.1 / ~47.1 ms.

Absolute numbers differ across hardware and stacks; the reproduction
targets the *profile*: sub-millisecond-to-millisecond per-query scoring,
~1 MB model files, one-time costs dominated by load.

Both scoring paths measured here, the in-process forest ("direct") and
the portable runtime, score through one flattened-forest kernel
(:mod:`repro.ml.flat`): the 100 trees are walked together, one
vectorized numpy step per tree level, rather than one tree after
another.  Per-query scoring therefore costs about as many numpy steps
as the forest is deep, whatever the number of trees, and the two paths
return bit-identical parameters.  Building the kernel's node table is
part of the runtime's one-time setup.
"""

import time

import numpy as np

from repro.core.features import QueryFeatures
from repro.export.format import save_parameter_model
from repro.export.runtime import PortableModelRuntime, PortablePPMScorer


def test_sec56_overheads(ctx, report, benchmark, tmp_path):
    dataset = ctx.training_dataset(100)

    # --- training ---------------------------------------------------------
    start = time.perf_counter()
    model_pl = dataset.fit_parameter_model("power_law")
    train_pl_ms = 1e3 * (time.perf_counter() - start)
    start = time.perf_counter()
    model_al = dataset.fit_parameter_model("amdahl")
    train_al_ms = 1e3 * (time.perf_counter() - start)

    # --- export (the ONNX stand-in) ---------------------------------------
    size_pl = save_parameter_model(model_pl, tmp_path / "ae_pl.json")
    size_al = save_parameter_model(model_al, tmp_path / "ae_al.json")

    # --- scoring -----------------------------------------------------------
    row = dataset.features[0]
    model_pl.predict_ppm(row)  # builds the forest's node table once
    start = time.perf_counter()
    for _ in range(50):
        model_pl.predict_ppm(row)
    direct_ms = 1e3 * (time.perf_counter() - start) / 50

    runtime = PortableModelRuntime(tmp_path)
    scorer = PortablePPMScorer(runtime, "ae_pl")
    scorer.predict_ppm(row)  # triggers load + setup
    start = time.perf_counter()
    for _ in range(50):
        scorer.predict_ppm(row)
    portable_ms = 1e3 * (time.perf_counter() - start) / 50

    plan = ctx.workload(100).optimized_plan("q42")
    start = time.perf_counter()
    for _ in range(50):
        QueryFeatures.from_plan(plan)
    featurize_ms = 1e3 * (time.perf_counter() - start) / 50

    report(
        "sec56_overheads",
        "Section 5.6 — overheads (103 queries, SF=100)\n"
        f"  PPM fit per training point:  "
        f"{1e3 * dataset.fit_seconds_per_point:7.3f} ms   (paper ~0.3 ms)\n"
        f"  train AE_PL forest:          {train_pl_ms:7.1f} ms   (paper ~79 ms)\n"
        f"  train AE_AL forest:          {train_al_ms:7.1f} ms\n"
        f"  model file AE_PL:            {size_pl / 1024**2:7.2f} MB   "
        "(paper 0.9-1.1 MB)\n"
        f"  model file AE_AL:            {size_al / 1024**2:7.2f} MB   "
        "(paper 0.8-1.0 MB)\n"
        f"  direct (sklearn-style) score:{direct_ms:7.2f} ms   (paper ~3.6 ms)\n"
        f"  portable-runtime inference:  {portable_ms:7.2f} ms   (paper ~0.9 ms)\n"
        f"  one-time load / setup:       "
        f"{1e3 * runtime.mean_timing('load'):.1f} / "
        f"{1e3 * runtime.mean_timing('setup'):.1f} ms   (paper 88 / 47 ms)\n"
        f"  plan featurization:          {featurize_ms:7.2f} ms   "
        "(paper ~10.3 ms)",
    )

    # the profile the paper's design relies on
    assert dataset.fit_seconds_per_point < 0.005  # ms-scale label fitting
    assert 0.2e6 < size_pl < 5e6  # ~1 MB-scale model files
    assert 0.2e6 < size_al < 5e6
    assert size_al <= size_pl  # 2 outputs vs 3 -> smaller file
    assert portable_ms < 50.0  # fast enough for the live query path
    assert featurize_ms < 50.0

    benchmark(lambda: scorer.predict_ppm(row))
