"""The fixed 120-vector test corpus.

Presets mixed, product and bell (the library's default epsilon, 0.05
for product and bell), on the local then the inseparable set, at
lambda 1e2, 1e3, 1e4 and 1e5, five draws each.  Draw d of preset p on
set s at lambda 10^e is `sample_counts` with the generator
`default_rng([p, s, e, d])`.  The corpus is the same in every run.
"""

import numpy as np

from tomo2q.projectors import inseparable_projector_set, local_projector_set
from tomo2q.simulate import preset_state, sample_counts

PRESETS = ("mixed", "product", "bell")
SETS = ("local", "inseparable")
LOG10_LAMBDAS = (2, 3, 4, 5)
DRAWS = 5


def corpus():
    """A list of (label, pset, counts), 120 entries, in a fixed order;
    a label reads e.g. 'bell/inseparable/1e3/4'."""
    psets = (local_projector_set(), inseparable_projector_set())
    out = []
    for p, preset in enumerate(PRESETS):
        rho = preset_state(preset)
        for s, pset in enumerate(psets):
            for e in LOG10_LAMBDAS:
                for d in range(DRAWS):
                    rng = np.random.default_rng([p, s, e, d])
                    counts = sample_counts(rho, pset, 10.0 ** e, rng)
                    out.append((f"{preset}/{SETS[s]}/1e{e}/{d}", pset,
                                counts))
    return out
