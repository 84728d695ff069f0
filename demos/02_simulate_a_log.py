"""
Simulating a labeled event log
==============================

Draw cases from the loan process, look at route statistics, and write the
log in the JSONL exchange format.
"""

import tempfile
from collections import Counter
from pathlib import Path

from procex import load_fixture
from procex.simulation import (
    SimulationConfig,
    TruncatedNormal,
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

# Per-attribute distributions can be overridden as long as their support
# stays inside the declared bounds.
shifted = generate_log(
    loan,
    SimulationConfig(
        n_cases=5000,
        seed=42,
        distributions={"credit_score": TruncatedNormal(600.0, 40.0, 300.0, 850.0)},
    ),
)
shifted_routes = Counter(
    "skilled" if "skilled_agent_review" in t.activities else "standard"
    for t in shifted.traces
)
print("routes with scores centered at 600:", dict(shifted_routes))

# The JSONL format round-trips exactly and is byte-stable across runs.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "loan_log.jsonl"
    write_log_jsonl(log, path)
    again = read_log_jsonl(path, process_name=loan.name)
    print("round trip equal:", again.traces == log.traces)
    print("first line:", path.read_text().splitlines()[0][:80], "...")
