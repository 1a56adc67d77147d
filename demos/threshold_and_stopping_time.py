"""The absorption threshold and how long a walker survives on the boundary.

A partially reflected walker carries an exponential budget chi with mean
Lambda. Every boundary contact spends a slice of local time; the walk stops
once the accumulated local time exceeds chi. This script samples that
stopping time on the lattice, one exact first-passage draw per walk, and
sets the empirical CDF beside the closed-form law, then prints the two
reference absorption probabilities for a centered chord (2D) and a centered
disk (3D).
"""

import numpy as np

from prbm import (
    RngStream,
    absorption_probability_disk,
    estimate_stopping_time,
    eta,
    stopping_time_cdf,
    stopping_time_density,
)

LAMBDA = 0.8

gen = RngStream(seed=42, stream_id=0).generator()
chi = gen.exponential(LAMBDA, 20_000)
print(f"threshold samples: mean {chi.mean():.4f} (target {LAMBDA}), "
      f"min {chi.min():.2e}")

samples = estimate_stopping_time(LAMBDA, LAMBDA / 200.0, 50_000, RngStream(7))
print(f"\nstopping times from {len(samples)} walks at a = Lambda/200:")
print(f"{'t':>8} {'empirical CDF':>14} {'exact CDF':>10} {'density':>9}")
for t in (0.05, 0.2, 0.8, 3.2, 12.8):
    emp = float(np.mean(samples <= t))
    print(f"{t:8.2f} {emp:14.4f} {stopping_time_cdf(t, LAMBDA):10.4f} "
          f"{stopping_time_density(t, LAMBDA):9.4f}")

print("\ncentered-target absorption probabilities (ratio = size/Lambda):")
p2 = absorption_probability_disk(0.5, 1.0, 2)
p3 = absorption_probability_disk(1.0, 1.0, 3)
print(f"  chord of half-width Lambda/2 in the plane : {p2:.6f}")
print(f"  disk of radius Lambda in space            : {p3:.6f}")
print("both sit near, not at, one half: the spread measure leaks past any")
print("finite target, so matching the target to Lambda almost splits the odds")

print("\nspreading correction eta versus scaled distance z = |s|/Lambda:")
for z in (0.01, 0.3, 1.0, 3.0, 30.0):
    print(f"  eta_2({z:5.2f}) = {eta(z, 2):8.4f}    eta_3({z:5.2f}) = {eta(z, 3):8.4f}")
print("eta -> 1 far away: spreading only reshapes the law near the contact point")
