"""Golden digests of every benchmark's generated workload.

The generator is rewritten for speed from time to time; its output must
not move by a single bit, because every simulated statistic, exhibit and
perfbench reference is a function of it.  Each digest covers the trace,
the image's ``(address, value)`` items in insertion order, the image's
write count and its heap bounds.  Builds go through
:class:`~repro.workloads.base.SyntheticWorkload` directly, so the on-disk
workload store is never consulted.  Region initialisation and pointer
set-up do not depend on the trace length, so a short trace covers them.

To re-record after an *intended* change of generator output, print
``_digest(name)`` for every name and replace the table below.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.workloads.base import SyntheticWorkload
from repro.workloads.registry import ALL_BENCHMARKS, get_spec

N = 2000

GOLDEN = {
    "ammp": "e652700050971e11966d22981049bd4af5ac23ac977779714bb0a9c98234550d",
    "applu": "8030d0caf05814ee48e2c86eaba322173a6afdda9911c5319326a0eefb5008e8",
    "apsi": "ee7b7fe4303719ee062329dd9ec2f7e422bdc4a4405e8993603921b24f451f84",
    "art": "9a05e3040f3b71c12f1c98fc01f6adfb5b7607bfa57f178a9cf9d6d51093b4f6",
    "equake": "2a37a89edae69f4440fa538af118d1ce519939c1aecb2fd9c25bfa5816432f2c",
    "facerec": "b03bb48c04dab929fcf24f3dea052631ce93548d52e3eddbe66cb4a72f234d7e",
    "fma3d": "ebeddc0df3f69a232a8f86e797df92e1a3a47ec9fa5f1ef9e70709408ce82a78",
    "galgel": "d7dd2e570833e468198af7e6374a9c2f745ce2f70725160a813c625605f73e65",
    "lucas": "b8e3a4f28bae1abc0b6c1508f129b6670ecb3fb5afce2e44a7ca2823a0451c85",
    "mesa": "76e0cdea94ab71cae9d41e032c033deffc3e29c489b2419679c2d4f3ec41a29c",
    "mgrid": "d18163aa89e364b0fcb8875b0c711cd63821749bfffb789693fca7dfd797a936",
    "sixtrack": "8fa32921918d9ceeab76d2b1cf87d65e3e5205c4c760e2f03509b75874127f0a",
    "swim": "e659c07c806fbfc82230d0b9848ee3fe01e84f279605db06f54a606616b438da",
    "wupwise": "2e2d2da00e0bcd2683a20e08e8e0218d3f24c31d75006d01af52145f143121ba",
    "bzip2": "7d251328e06ebb2aaeab8cd2659ab86dd60beeee7df46180c4632af4d2e47848",
    "crafty": "089d2f0997f036b9255bb0bf0cb03f9dfbf2703420aafe5967b3259ddb714189",
    "eon": "6dc41feec9e752e7b9a888a3ac238589f3036515ea702cb2c277f163bc8a0dff",
    "gap": "b268aac49504457733887739d5b18a71dd18e0f8f98f55c3815fc538875141d2",
    "gcc": "f5d24dfac286ac7e6c0d268bad6e7ab350779409b185aa69087b21c5748bc64e",
    "gzip": "1589af901a1b6417593e07adb567877fa96db0f3e96a7304cd63b186a8e532a1",
    "mcf": "bf4710aa86d21006834ca33183dfc76e31b1fa43bde6b0a1f62218d61ee7d824",
    "parser": "e1f4c7f6ac926c68339867cc4489fa7f33c36f5136bfc856b92593c2db2c6e61",
    "perlbmk": "e436600c637f58a7992d78f3fcaf91162e6b73d417f8a0b30ebc28a767acf94b",
    "twolf": "dbf161b6b23e6547f68b78da636c182729cc2c1960064a170adf2b62b33df318",
    "vortex": "986824f3d26264fda96a7042bfb4b811efe6c4aa7b6c5dc4ad966d54e10803e1",
    "vpr": "3d57599485c4b86dba501a81777df0eacfc24ca2eede96920cd9035c5a253ea2",
}


def _digest(name: str) -> str:
    trace, image = SyntheticWorkload(get_spec(name)).build(N)
    assert image._pending is None
    h = hashlib.sha256()
    h.update(repr(trace).encode())
    h.update(repr(list(image._words.items())).encode())
    h.update(repr((image.writes, image.reads, image.heap_lo,
                   image.heap_hi)).encode())
    return h.hexdigest()


def test_golden_covers_every_benchmark():
    assert sorted(GOLDEN) == sorted(ALL_BENCHMARKS)


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_workload_build_is_bit_identical(name):
    assert _digest(name) == GOLDEN[name]
