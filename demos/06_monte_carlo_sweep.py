"""
Monte Carlo sweeps: estimation error and classification vs network size
=======================================================================

The harness sweeps the edge count from the cycle toward the complete
graph, runs independent trials at each point, and reports RMSE per
estimator and misclassification per classifier.  The CLI wraps exactly
this; everything here is also `scoregraph sweep --config ...`.
"""

from scoregraph.experiments import (ExperimentConfig, emit_outputs,
                                    read_misclass_csv, read_rmse_csv,
                                    run_sweep)

# a small configuration that finishes in seconds; the full desk-scale
# defaults are N=50 with 100 trials, and the CLI's --full-scale preset sets
# N=300 with 1000 trials
cfg = ExperimentConfig(
    model="reliability",
    n_agents=12,
    sweep=(12, 40, 132),
    trials=20,
    estimators=("NR", "FR"),
    master_seed=0,
)
result = run_sweep(cfg)

print(f"model: {result.model_name}, trials per point: {cfg.trials}")
print("\nn      RMSE(NR)   RMSE(FR)   misclass oracle/NR/FR")
for p in result.points:
    print(f"{p.n_edges:5d}  {p.rmse['NR']['gamma']:.4f}     "
          f"{p.rmse['FR']['gamma']:.4f}     "
          f"{p.misclass['oracle']:.3f} / {p.misclass['NR']:.3f} / "
          f"{p.misclass['FR']:.3f}")

# outputs are plot-ready CSVs plus a metadata sidecar; numerics
# round-trip exactly and reruns are byte-identical
paths = emit_outputs(result, "/tmp/demo_sweep")
rmse = read_rmse_csv(paths["rmse"])
mis = read_misclass_csv(paths["misclass"])
print(f"\nwrote {paths['rmse']} ({len(rmse)} rows)")
print(f"wrote {paths['misclass']} ({len(mis)} rows)")
print(f"wrote {paths['meta']}")
