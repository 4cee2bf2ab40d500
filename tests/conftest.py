import os
import sys
from pathlib import Path

# One BLAS thread, set before NumPy loads. The model's matrices are too small
# for a second thread to help, and two-thread BLAS in processes that share the
# CPUs (the concurrent ablation trainings in test_acceptance.py, or a busy
# host) runs several times slower than one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))

from kgdialog.corpus import SynthConfig, generate_synthetic
from kgdialog.model import ModelConfig, init_model
from kgdialog.sequence import AssemblyLimits, build_vocab


@pytest.fixture(scope="session")
def tiny_split():
    return generate_synthetic(SynthConfig(n_dialogues=6, n_subjects_per_graph=3, n_relations=2, seed=3))


@pytest.fixture(scope="session")
def tiny_vocab(tiny_split):
    return build_vocab([tiny_split])


@pytest.fixture(scope="session")
def limits():
    return AssemblyLimits()


@pytest.fixture()
def tiny_model(tiny_vocab):
    cfg = ModelConfig(
        vocab_size=len(tiny_vocab), d_model=32, n_heads=2, n_layers=2, d_ff=64,
        dropout=0.0, max_entity_ids=8, max_triple_ids=16, max_positions=256,
    )
    return init_model(cfg, seed=11)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


# Session fixtures in test_acceptance.py that train end-to-end models, ranked
# by cost: the full system (~12 min on a 2-core box), its evaluation, and the
# two ablations.
_TRAINED_FIXTURE_RANK = {"full_system": 1, "full_report": 2, "ablation_no_struct_emb": 3, "ablation_no_mask": 3}


def pytest_collection_modifyitems(items):
    """Run the tests that need trained models after all others, cheapest first.

    Every other test then reports within seconds, and the tests that share the
    full system run before the ablation trainings start.
    """
    def rank(item):
        return max((_TRAINED_FIXTURE_RANK.get(f, 0) for f in getattr(item, "fixturenames", ())), default=0)

    items.sort(key=rank)
