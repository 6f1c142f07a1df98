"""Golden digests: a refactor that moves one bit of a trained model, a
forecast or a report fails here.

One fresh process at one OpenBLAS thread runs a fixed set of small recipes
and prints a SHA-256 of each output:

- a default-config pretrain at batch 256, two Adam steps of eight 32-row
  passes each;
- a fine-tune of that model on a case1 slice, which stops early;
- a fit of every model at case1 and its 24 h `roll_forecasts` sweep over
  257 origins: two `harness.ROLL_ROWS` blocks, the one-origin tail folded
  into the first;
- one-origin 24 h and 7 h forecasts of the fine-tuned model;
- the bytes `emit_report` writes for a small `run_experiment`.

The bits depend on more than the code, so the table is keyed by what else
was seen to move them:

- numpy's version, and the version and kernel family ("core") of its
  bundled OpenBLAS, which picks the core by CPU or from `OPENBLAS_CORETYPE`;
- numpy's SIMD dispatch targets that the CPU runs (`X86_V4` is AVX-512):
  np.exp and np.tanh have their own code for some of them;
- the C library, whose exp numpy calls below `X86_V4`.

On a platform without a row the test skips and names its key; record the
row by running this module's `_JOB` there. Every row here was recorded on
one host with glibc 2.36 whose CPU runs all four of numpy 2.4.6's x86
dispatch targets: the other cores by `OPENBLAS_CORETYPE`, fewer targets by
`NPY_DISABLE_CPU_FEATURES`, and the Sandybridge row also with
`GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4,-AVX512F,-AVX512DQ,-AVX512BW,-AVX512VL`,
as the C library of a CPU without FMA would run. A deliberate change of the
bits updates every row in the same commit.
"""

import json
import os
import subprocess
import sys

import pytest

import loadcast

_JOB = """
import ctypes, glob, hashlib, json, os, platform, tempfile
import numpy as np
from loadcast import harness
from loadcast.baselines import MODEL_ORDER
from loadcast.corpus import GeneratorSpec, build_corpus, generate_series
from loadcast.report import emit_report
from loadcast.series import fit_normalizer, split_case
from loadcast.transformer import TransformerConfig, TransformerForecaster


# What the bits depend on besides the code (see the module docstring).
def key():
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*"))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])
    config, corename = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_corename64_
    for fn in (config, corename):
        fn.argtypes, fn.restype = (), ctypes.c_char_p
    targets = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    return [np.__version__, config().split()[1].decode(), corename().decode(), targets, " ".join(platform.libc_ver())]


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


digests = {}
base = TransformerForecaster(TransformerConfig(), init_seed=0)
curve = base.pretrain(build_corpus(2, master_seed=0, series_length=285), epochs=1, batch_size=256)
digests["pretrain"] = digest(base.params.value, curve)
series = generate_series(GeneratorSpec(family="trend_seasonal", length=72 + 257, period=24, noise_std=0.1, seed=5))
split = split_case(series, "case1")
train_len, normalizer = len(split.train), fit_normalizer(split.train)
tuned = base.clone()
tune_curve = tuned.fine_tune(split.train, seed=5)
digests["fine_tune"] = digest(tuned.params.value, tune_curve)
for model_id in MODEL_ORDER:
    model = tuned if model_id == "tsfm" else harness.fit_case_model(model_id, split.train, 5)
    digests[model_id + " roll"] = digest(harness.roll_forecasts(model, series, train_len, 24, normalizer))
for hours in (24, 7):
    digests[f"forecast {hours}h"] = digest(tuned.forecast(series.values[:train_len], hours))
spec = harness.ExperimentSpec(cases=("case1",), horizons_hours=(1, 24), models=("pm", "lr", "rt", "gbt", "mlp"),
                              runs_per_model=2)
with tempfile.TemporaryDirectory() as out:
    h = hashlib.sha256()
    for path in emit_report(harness.run_experiment(spec, series=series.slice(0, train_len + 40)), out):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\\0" + fh.read())
    digests["report"] = h.hexdigest()
print(json.dumps({"key": key(), "fine_tune_epochs": len(tune_curve), "digests": digests}))
"""

#: SHA-256 digests of the recipes' outputs on OpenBLAS's SkylakeX kernels with numpy's AVX-512 paths.
_SKYLAKEX_AVX512 = {
    "fine_tune": "124e0007926b5bc7b16b608d1525310f6fbe897413333e00371d55138e2cb187",
    "forecast 24h": "a3d2f5cbf2f6c707e620005b41cf2b19b968b3345025bb7c11157222eaa25b38",
    "forecast 7h": "61ff9e924ef9a40f0d4b2e769ac23ff51eaf445978beed7731a379f7459c9b32",
    "gbt roll": "e48a55a8b4c5c252859b515e3801fedb548e30879f208c00328b921684de593d",
    "lr roll": "6744ff2156cc419ccf87f964aa53b340ebd83559f1c53c0d2c975c42d734ff46",
    "lstm roll": "1507f97abcf827fe05ca35d553363b11bf5d8de4b241040d63a94093e661273e",
    "mlp roll": "26d95e4de4a83cb7ccba53ac2c776eb36cc069e5ba1ba256457e9e6890e2bfb9",
    "pm roll": "5454ff8e1fee0ccb7e5013809f5f03f19e7358a181e9adb1bf3a1f57337349b6",
    "pretrain": "058353c07e1ab7e036c4339c1eb15c6e94631df712e2683498eed1826ec38e71",
    "report": "a4cb892effe7998721612d7a0cc685911fa60b199527fb3b1d037a7cd712f6d4",
    "rt roll": "39865e3f3fbdc7c3220a4dbee89833b358135e0eb5fd8356a5ff9ffda801b216",
    "tsfm roll": "013834e664fd562edc56a787b90e4353e965dde86041f76da4fd9b5b0d735ee4",
}

#: The same on OpenBLAS's Haswell kernels with numpy's AVX-512 paths.
_HASWELL_AVX512 = {
    "fine_tune": "71d466ef2506241852192ffef574f820a2d35b87c2a6fbb709a457d6cab68508",
    "forecast 24h": "10ddac759ed351cebfde947752ab4812d080928c152942dff4c87722811f25f5",
    "forecast 7h": "08f030ebef2ecff5714721ca0d41c9b68af16eb96108ee4b63cd34cade5a2432",
    "gbt roll": "e48a55a8b4c5c252859b515e3801fedb548e30879f208c00328b921684de593d",
    "lr roll": "76b5bddd8cbd116b23ce6d08d4de5263bc663695c61aab0a31c12ccfa59e9fdb",
    "lstm roll": "4bc4faf355fe22b7885456311f1fcfe43465d15644c0c549e6851ea1ad14293d",
    "mlp roll": "d0085a2805be493100cb51a2cbef06009e5f6a4203168921b734625b5109c8c1",
    "pm roll": "5454ff8e1fee0ccb7e5013809f5f03f19e7358a181e9adb1bf3a1f57337349b6",
    "pretrain": "c160eb9e2b05128105f2790877a28d8b2be45a62f29d276ccb10f4e348bdbccf",
    "report": "58934e4a14494ed1179d2420d30898514a0d12724b14bf9bcb077296dc89b8b2",
    "rt roll": "39865e3f3fbdc7c3220a4dbee89833b358135e0eb5fd8356a5ff9ffda801b216",
    "tsfm roll": "7113a03b415803820619f01167454c0abb6852c4bfe3a6c7af8cc6e9b963b8c7",
}

#: The same on OpenBLAS's Haswell kernels with numpy's AVX2 paths and the C library's exp.
_HASWELL_AVX2 = {
    "fine_tune": "ed08a3d7f6e401e6f6538eb0c455c2f01f7389f1c3f7bea6f337f47e46ee9700",
    "forecast 24h": "7751f933296bfd424d7e4318fd00234d0ee4721f7b4ed17a58faa00a072f1dfa",
    "forecast 7h": "275bb17c2345b1f0f81b6cea291f37f226dd408e1ac29482fd856d8777e18cd0",
    "gbt roll": "e48a55a8b4c5c252859b515e3801fedb548e30879f208c00328b921684de593d",
    "lr roll": "76b5bddd8cbd116b23ce6d08d4de5263bc663695c61aab0a31c12ccfa59e9fdb",
    "lstm roll": "072c55c9ccd489a0e98e74743cbbef9d4da142a865fd50aae922774b3170a21d",
    "mlp roll": "2985468bcd1234fb6a13be91435ffb6dbcfa585eed88e496f0d12b7253c9bcda",
    "pm roll": "5454ff8e1fee0ccb7e5013809f5f03f19e7358a181e9adb1bf3a1f57337349b6",
    "pretrain": "9af8f7820d2e382691ecc90b48a9190a36fa6b98090e0bea54e3107cbbb5da14",
    "report": "6c587f02c5960f530e645d4b13b1828fbbc1959a9817f0cdf2eac9b22b87abfc",
    "rt roll": "39865e3f3fbdc7c3220a4dbee89833b358135e0eb5fd8356a5ff9ffda801b216",
    "tsfm roll": "0c6c9bca04a7868af181fa8cd4d7afe8c821fbf5a516da46c4c51f85e44bce6e",
}

#: The same on OpenBLAS's Sandybridge kernels with numpy's baseline paths and the C library's exp without FMA.
_SANDYBRIDGE = {
    "fine_tune": "013f718ed2561c98e3d3f87d9ac0ae5cc8cee605f6be4abef88c519e4eb39bdc",
    "forecast 24h": "e6113dfc5035bf0d8000568dcb819f4f8bbc6bbace5ae5428aae63293ad6ae80",
    "forecast 7h": "52c1e4237ccab6ca203482e9b4c943d63cb1be0fc2490112310b37129828d9a1",
    "gbt roll": "e48a55a8b4c5c252859b515e3801fedb548e30879f208c00328b921684de593d",
    "lr roll": "4000c598b22feab0dedfc60c4244ecc5c1f29a0ccbb8847e9947a102eec3f7db",
    "lstm roll": "7f25ed92f7448cbb1906119ad6c4f5d23614344ccab673c7e94e539c3a4f0792",
    "mlp roll": "4d35385a6f7b4d567129ed0f11d8a08a366df604dca957f94b9abf6ff68670d6",
    "pm roll": "5454ff8e1fee0ccb7e5013809f5f03f19e7358a181e9adb1bf3a1f57337349b6",
    "pretrain": "e8e9f89d219727e3ce78f582ef97a6ea6479f5dd9687267caacdbe6b419254c5",
    "report": "b057995d0ea04c3c7ae27e972499e743596a51884d724419431ecdbc226ea71d",
    "rt roll": "39865e3f3fbdc7c3220a4dbee89833b358135e0eb5fd8356a5ff9ffda801b216",
    "tsfm roll": "fc9fa97a9d1156f728a3a5c523cbad7229abe0245c766f429fccd212676a84d2",
}

# numpy 2.4.6 computes these outputs alike with or without its AVX512_ICL and
# AVX512_SPR targets: the bits moved only when X86_V4 went too.
_AVX512 = ("X86_V3 X86_V4 AVX512_ICL AVX512_SPR", "X86_V3 X86_V4 AVX512_ICL", "X86_V3 X86_V4")

#: Digests by (numpy, OpenBLAS, core, numpy dispatch targets, C library).
GOLDEN = {
    **{("2.4.6", "0.3.31.188.0", "SkylakeX", targets, "glibc 2.36"): _SKYLAKEX_AVX512 for targets in _AVX512},
    **{("2.4.6", "0.3.31.188.0", "Haswell", targets, "glibc 2.36"): _HASWELL_AVX512 for targets in _AVX512},
    ("2.4.6", "0.3.31.188.0", "Haswell", "X86_V3", "glibc 2.36"): _HASWELL_AVX2,
    ("2.4.6", "0.3.31.188.0", "Sandybridge", "", "glibc 2.36"): _SANDYBRIDGE,
}


def _describe(key: tuple) -> str:
    return "numpy {}, OpenBLAS {} core {}, numpy dispatch targets [{}], {}".format(*key)


def _run_job() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(loadcast.__file__)))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    run = subprocess.run([sys.executable, "-c", _JOB], env=env, capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def test_outputs_match_the_golden_digests_of_this_platform():
    result = _run_job()
    if result["key"] is None:
        pytest.skip("numpy's BLAS is not its bundled scipy-openblas, whose version and core key the golden digests")
    key = tuple(result["key"])
    if key not in GOLDEN:
        pytest.skip(f"no golden digests for {_describe(key)}")
    assert result["fine_tune_epochs"] < 20, "the fine-tune must stop early to cover the restore of its best epoch"
    expected = GOLDEN[key]
    moved = sorted(name for name in expected.keys() | result["digests"].keys()
                   if expected.get(name) != result["digests"].get(name))
    assert not moved, f"outputs moved on {_describe(key)}: {moved}"
