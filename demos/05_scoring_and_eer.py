"""Score files and equal-error-rate evaluation.

Scores follow the "higher = more bona fide" convention.  The EER sits
where the false-acceptance and false-rejection curves cross; the crossing
is interpolated linearly between adjacent operating points, which makes
the value invariant under any strictly increasing rescaling of the scores.
"""
import tempfile
from pathlib import Path

import numpy as np

from lgpnet import ScoreRecord, compute_eer, score_file_read, score_file_write

rng = np.random.default_rng(4)
bona = rng.normal(loc=1.5, scale=1.0, size=300)
spoof = rng.normal(loc=0.0, scale=1.0, size=500)

result = compute_eer(bona, spoof)
print(f"overlapping gaussians: EER = {100 * result.eer:.2f}% at threshold {result.threshold:.3f}")

print("\ninvariance under increasing transforms:")
for name, f in (("tanh", np.tanh), ("exp", np.exp), ("3x+7", lambda s: 3 * s + 7)):
    r = compute_eer(f(bona), f(spoof))
    print(f"  {name:5s} -> EER = {100 * r.eer:.2f}%")

perfect = compute_eer(np.array([1.0, 2.0]), np.array([-2.0, -1.0]))
print(f"\nperfectly separated scores: EER = {perfect.eer}")

records = [ScoreRecord(f"utt_{i:03d}", float(s)) for i, s in enumerate(np.concatenate([bona[:3], spoof[:3]]))]
with tempfile.TemporaryDirectory(prefix="lgpnet_demo_") as tmp:  # the score file goes at the end
    path = Path(tmp) / "scores.txt"
    score_file_write(path, records)
    print(f"\nwrote {len(records)} records to {path}:")
    print(path.read_text(), end="")
    roundtrip = score_file_read(path)
print(f"read back {len(roundtrip)} records, identical: {roundtrip == records}")
