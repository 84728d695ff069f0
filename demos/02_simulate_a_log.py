"""
Simulating a labeled event log
==============================

Draw cases from the loan process, look at route statistics, and write the
log in the JSONL exchange format.
"""

import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from procex import load_fixture
from procex.simulation import (
    SimulationConfig,
    execute_case,
    generate_log,
    read_log_jsonl,
    write_log_jsonl,
)

loan = load_fixture()

# Cases draw from per-chunk RNG substreams, always drawn in full, so trace i
# never depends on how many cases were requested. Identical configs give identical logs.
log = generate_log(loan, SimulationConfig(n_cases=5000, seed=42))
print("cases:", len(log))
print("first case:", log.traces[0])

# Route and outcome statistics follow the declared guards and probabilities.
routes = Counter(
    "skilled" if "skilled_agent_review" in t.activities else "standard"
    for t in log.traces
)
labels = Counter(t.label for t in log.traces)
print("routes:", dict(routes))
print("labels:", dict(labels))

# label_noise flips outcomes without touching the executed path, which is
# how noisy training data gets produced for robustness experiments.
noisy = generate_log(loan, SimulationConfig(n_cases=5000, seed=42, label_noise=0.1))
flipped = sum(a.label != b.label for a, b in zip(log.traces, noisy.traces))
print(f"labels flipped by 10% noise: {flipped} of {len(log)}")

# generate_log draws every attribute uniformly over its declared bounds. For
# another distribution, draw the attributes yourself and execute each case:
# here scores follow a normal centred at 600, clipped to the declared bounds.
rng = np.random.default_rng(42)
score_lo, score_hi = loan.attribute_bounds["credit_score"]
amount_lo, amount_hi = loan.attribute_bounds["loan_amount"]
scores = np.clip(rng.normal(600.0, 40.0, 2000), score_lo, score_hi)
amounts = rng.uniform(amount_lo, amount_hi, 2000)
shifted = [
    execute_case(loan, {"credit_score": s, "loan_amount": a}, rng, case_id=f"s{i}")
    for i, (s, a) in enumerate(zip(scores.tolist(), amounts.tolist()))
]
shifted_routes = Counter(
    "skilled" if "skilled_agent_review" in t.activities else "standard"
    for t in shifted
)
print("routes with scores centered at 600:", dict(shifted_routes))

# The JSONL format round-trips exactly and is byte-stable across runs.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "loan_log.jsonl"
    write_log_jsonl(log, path)
    again = read_log_jsonl(path, process_name=loan.name)
    print("round trip equal:", again.traces == log.traces)
    print("first line:", path.read_text().splitlines()[0][:80], "...")
