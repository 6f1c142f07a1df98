"""Results do not depend on how many threads BLAS runs.

The same short training and forecasting job runs in two fresh processes,
at one and at two OpenBLAS threads (the count is read once, when numpy
loads BLAS), and every state hash and forecast byte must agree. Only one
and two threads are tried: more would mean more threads than small test
boxes have cores.
"""

import json
import os
import subprocess
import sys

import loadcast

#: A short pretrain, one fine-tune, an MLP and an LSTM fit, and the rolling
#: sweep of each fitted model over a case1 test slice; prints one JSON
#: object of state hashes and forecast digests. Before pretraining ran in
#: 32-row passes, this pretrain (batch-256 steps over 512-point series)
#: ended at other weights at two threads than at one.
_JOB = """
import hashlib, json
from loadcast import harness
from loadcast.corpus import GeneratorSpec, build_corpus, generate_series
from loadcast.series import fit_normalizer, split_case
from loadcast.transformer import TransformerConfig, TransformerForecaster

base = TransformerForecaster(TransformerConfig(), init_seed=0)
base.pretrain(build_corpus(20, master_seed=0, series_length=512, exclude_families=("trend_seasonal",)),
              epochs=2, batch_size=256)
series = generate_series(GeneratorSpec(family="trend_seasonal", length=72 + 120, period=24, noise_std=0.1, seed=5))
split = split_case(series, "case1")
normalizer = fit_normalizer(split.train)
result = {"pretrain": base.state_hash()}
for model_id, hyperparams in (("tsfm", None), ("mlp", {"epochs": 20}), ("lstm", {"epochs": 3})):
    model = harness.fit_case_model(model_id, split.train, 7, base_transformer=base, hyperparams=hyperparams)
    forecasts = harness.roll_forecasts(model, series, len(split.train), 24, normalizer)
    result[model_id] = model.params.state_hash()
    result[model_id + " forecasts"] = hashlib.sha256(forecasts.tobytes()).hexdigest()
print(json.dumps(result))
"""


def _run_job(threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(loadcast.__file__)))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    run = subprocess.run([sys.executable, "-c", _JOB], env=env, capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def test_one_and_two_blas_threads_give_the_same_weights_and_forecasts():
    one, two = _run_job(1), _run_job(2)
    assert len(one) == 7
    assert one == two
