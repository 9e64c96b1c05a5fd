"""Fluid-antenna uplink rate analysis and antenna-position optimization.

Modules: `scenario` (configuration, derived statistics and the feasible
layout set), `channel` (LoS geometry and Rician sampling), `estimation`
(pilots and LMMSE), `rate` (closed-form bound plus the Monte Carlo
oracle), `opt_ga` and `opt_grad` (position optimizers), `harness`
(sweeps, baselines, export), `cli` (command line entry point).
"""

__version__ = "0.1.0"
