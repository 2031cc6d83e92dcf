"""One set-up of the benchmark: import the package and run a tiny replicate.

Usage (from the checkout root): python3 setup_probe.py
Prints {"import_s": ..., "warmup_s": ...}; interpreter start-up is timed by
the caller.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, "src")
import empcouple as ec  # noqa: E402

t1 = time.perf_counter()
requests = ec.default_requests() + [
    ec.StatRequest(s, s, ec.WeightConfig(), rate_c=1.0, xi_exp=0.1) for s in ("cens-h0", "cens-h1")
]
ec.evaluate_requests(requests, 0, 64, 0, 6)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1}))
