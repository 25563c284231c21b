import numpy as np

from oracles import truncation_safe_loop
from treerecon.core import GridSpec
from treerecon.diffrender import SoftConfig
from treerecon.gradcheck import _truncation_safe


def test_truncation_mask_matches_per_point_loop():
    rng = np.random.default_rng(0)
    unsafe = 0
    for _ in range(100):
        spec = GridSpec.centered(int(rng.integers(5, 25)), float(rng.uniform(0.3, 1.0)))
        cfg = SoftConfig(sigma=float(rng.uniform(0.2, 1.5)),
                         trunc=float(rng.choice([1.0, 3.0, np.inf])))
        xy = rng.uniform(-8.0, 8.0, (int(rng.integers(1, 60)), 2))
        slack = float(rng.choice([1e-3, 0.1, 0.5]))
        safe = _truncation_safe(xy, spec, cfg, slack)
        np.testing.assert_array_equal(
            safe, truncation_safe_loop(xy, spec, cfg.trunc * cfg.sigma, slack)
        )
        unsafe += int((~safe).sum())
    assert unsafe > 100  # both outcomes are exercised
