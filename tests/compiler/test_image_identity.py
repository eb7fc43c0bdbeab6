"""Pinned image digests: the build pipeline must not move a single byte.

Every ``sweep`` benchmark pair at both benchmark scales, a few more
hardened variants (software baselines included), and a fixed set of
fuzz victims are compiled and the sha256 of ``Executable.to_bytes()``
is compared with the digest recorded when the pins were set. A change
to the assembler, the IR copy before hardening, codegen or the linker
that alters any image fails here.

To re-record after an intended image change, run
``PYTHONPATH=src python tests/compiler/test_image_identity.py`` and
paste its output over ``PINNED``.
"""

import hashlib

import pytest

from repro.compiler import compile_module
from repro.eval.measure import make_hardening
from repro.fuzz.target import VictimSpec, build_image
from repro.workloads import build_workload, profile

# (program, variant, scale): the three sweep pairs at the smoke and the
# timed scale, then the two software baselines and the remaining C++
# programs at the smoke scale.
WORKLOAD_CASES = (
    ("429.mcf", "base", 0.1), ("483.xalancbmk", "vcall", 0.1),
    ("403.gcc", "icall", 0.1),
    ("429.mcf", "base", 0.75), ("483.xalancbmk", "vcall", 0.75),
    ("403.gcc", "icall", 0.75),
    ("471.omnetpp", "vtint", 0.1), ("445.gobmk", "cfi", 0.1),
    ("473.astar", "vcall", 0.1),
)

VICTIM_SPECS = (
    VictimSpec(),
    VictimSpec(reps=1, vcalls=1, icalls=0),
    VictimSpec(reps=1, vcalls=0, icalls=1),
    VictimSpec(reps=2, vcalls=3, icalls=3),
    VictimSpec(reps=4, vcalls=2, icalls=1, arith=5),
    VictimSpec(reps=6, vcalls=0, icalls=2, arith=12),
    VictimSpec(reps=8, vcalls=1, icalls=1, arith=48),
    VictimSpec(reps=12, vcalls=1, icalls=0, arith=3),
    VictimSpec(reps=20, vcalls=1, icalls=1),
    VictimSpec(reps=40, vcalls=0, icalls=1),
    VictimSpec(reps=3, loop=True),
    VictimSpec(reps=1, loop=True, vcalls=1, icalls=0),
    VictimSpec(reps=5, loop=True, vcalls=3, icalls=3, arith=48),
    VictimSpec(reps=10, loop=True, vcalls=2, icalls=0, arith=7),
    VictimSpec(reps=16, loop=True, vcalls=0, icalls=3, arith=1),
    VictimSpec(reps=25, loop=True, vcalls=1, icalls=2, arith=20),
    VictimSpec(reps=33, loop=True, vcalls=3, icalls=1),
    VictimSpec(reps=40, loop=True, vcalls=1, icalls=1, arith=48),
    VictimSpec(reps=40, loop=True, vcalls=2, icalls=2, arith=0),
    VictimSpec(reps=7, loop=False, vcalls=2, icalls=2, arith=2),
)


def workload_digest(name: str, variant: str, scale: float) -> str:
    program = build_workload(profile(name), scale=scale)
    image = compile_module(program.module,
                           hardening=make_hardening(variant, program))
    return hashlib.sha256(image.to_bytes()).hexdigest()


def victim_digest(spec: VictimSpec) -> str:
    image = build_image(spec.normalized())
    return hashlib.sha256(image.to_bytes()).hexdigest()


def case_ids():
    for name, variant, scale in WORKLOAD_CASES:
        yield f"{name}/{variant}@{scale}"
    for spec in VICTIM_SPECS:
        yield "victim:" + ",".join(f"{k}={v}" for k, v in
                                   spec.to_dict().items())


PINNED = {
    '429.mcf/base@0.1':
        '3da2346b5d8f58be1d3aaaddd8bf5380b7731c57fd0cc0d9e9bd2336d02dd039',
    '483.xalancbmk/vcall@0.1':
        '7e5db9bbb7dcd81cbc41db121b5c19d485ecdb3ec700e157f9e0dda8da1c44b8',
    '403.gcc/icall@0.1':
        'dd040841135564eddb94c274bd26a6bdf813acf7b152a16426a572c5ebf15461',
    '429.mcf/base@0.75':
        'f3ef7276bded94503023ba1e45065ee217bbc5d6c59adf0f24cac2598ca4e05c',
    '483.xalancbmk/vcall@0.75':
        'c5034d896bdeacf605466241391a17eeae27a6133168ce8db290ea2753df99e3',
    '403.gcc/icall@0.75':
        'b676a274fd7b899d44f9025ada56bb8120335c851326eae9ce67e549da7ed99d',
    '471.omnetpp/vtint@0.1':
        'b122e4707bba9a08fc527fcd934f35f20fdd62f4751ec7149e4214aea9e77977',
    '445.gobmk/cfi@0.1':
        '7fd1012dd031cf8f6778f2bd59efd10286c1688e2a4efcbf96b217fc5543d69f',
    '473.astar/vcall@0.1':
        '90c65db55b94554d7174f1727518f6bfd331667fa31163c6af4076d49e8f5b95',
    'victim:reps=8,loop=False,vcalls=1,icalls=1,arith=0':
        '647373123f75aaf043f7dbb8f403f38208d8b3c94c449061c55c51a14254791b',
    'victim:reps=1,loop=False,vcalls=1,icalls=0,arith=0':
        '111ce9bbe6efeaea0537e7b2976c5412416b672640a0978417499ad54452f6e3',
    'victim:reps=1,loop=False,vcalls=0,icalls=1,arith=0':
        '8379ac86e016602aa64a5de407b1dd70983c504ae961f2274224c4fa824a2f36',
    'victim:reps=2,loop=False,vcalls=3,icalls=3,arith=0':
        '38953537c4e4161a3face25ca010aa4729dfee140113db0abab92d4bbc2b2862',
    'victim:reps=4,loop=False,vcalls=2,icalls=1,arith=5':
        'ca9d9225bac2a225810c5cb86309d97bf9e1f4a9c94a03ad124193202341e184',
    'victim:reps=6,loop=False,vcalls=0,icalls=2,arith=12':
        '9d166fc38e20cb14df632dc60bfbbf8e4981a18a2a86fdfa5a0c20f1df7edb9c',
    'victim:reps=8,loop=False,vcalls=1,icalls=1,arith=48':
        '4d875996bb91d37b92f3e6766555548c4929b47f855e485044afb582603c4769',
    'victim:reps=12,loop=False,vcalls=1,icalls=0,arith=3':
        'a21eda8c11ec48482ca1de7ab30582e295a12c2a3cdc7e7dd4a358c669810e13',
    'victim:reps=20,loop=False,vcalls=1,icalls=1,arith=0':
        'fe6528c446e8937186da5244e19681434ba2c2f03a3196adf4772146a7ae6a19',
    'victim:reps=40,loop=False,vcalls=0,icalls=1,arith=0':
        'd3f7cf21b4caa925afc6150d017ce615f1bef2f7845f563f1e0dd5ffb18585bf',
    'victim:reps=3,loop=True,vcalls=1,icalls=1,arith=0':
        '281a20ca62af5957791fe46bb30a281382eb8b0099236fd6a56c0054f497a967',
    'victim:reps=1,loop=True,vcalls=1,icalls=0,arith=0':
        'da82ff39ceb6bc76f319ecc8989f20467002e434d34f3ce1b6a1e39f9844d453',
    'victim:reps=5,loop=True,vcalls=3,icalls=3,arith=48':
        '8a7f4087c7b4c92cc844ca7ad26a839219159454a8ed720484c7009bf2fd3a98',
    'victim:reps=10,loop=True,vcalls=2,icalls=0,arith=7':
        '3b61ee8ab965c42999fa93c337fbdaa9c5838b8a18af46e3303bfa754cf6167b',
    'victim:reps=16,loop=True,vcalls=0,icalls=3,arith=1':
        '0a9c9b4d06899743842faa433f08a1dff34590631501b44eabe4eba58e05d046',
    'victim:reps=25,loop=True,vcalls=1,icalls=2,arith=20':
        '847db99e96ed876a5109037ac65a4b1c34350cd03c218d352c0a44e9d160625b',
    'victim:reps=33,loop=True,vcalls=3,icalls=1,arith=0':
        'fb16cbdb48fdf6f5dbcae993624e3b0bdf771f34b0a0e23d2b5451dee9b388b6',
    'victim:reps=40,loop=True,vcalls=1,icalls=1,arith=48':
        'faee602e250b0f24681986b58f55bc3146c120438afca672a4708575f6e7324d',
    'victim:reps=40,loop=True,vcalls=2,icalls=2,arith=0':
        '17a150045e2572cfa76c143442c8526e225430cc54de7b021328d67fff4ee109',
    'victim:reps=7,loop=False,vcalls=2,icalls=2,arith=2':
        '7b134243a5b468c6dd7f7b6d5f1e16b2ede58155112e5646cde2e93b4038a11e',
}


@pytest.mark.parametrize("case", WORKLOAD_CASES,
                         ids=[f"{n}/{v}@{s}" for n, v, s in WORKLOAD_CASES])
def test_workload_images_are_pinned(case):
    name, variant, scale = case
    assert workload_digest(*case) == PINNED[f"{name}/{variant}@{scale}"]


def test_victim_images_are_pinned():
    ids = list(case_ids())[len(WORKLOAD_CASES):]
    observed = {cid: victim_digest(spec)
                for cid, spec in zip(ids, VICTIM_SPECS)}
    assert observed == {cid: PINNED[cid] for cid in ids}


if __name__ == "__main__":
    digests = [workload_digest(*case) for case in WORKLOAD_CASES] + \
        [victim_digest(spec) for spec in VICTIM_SPECS]
    for cid, digest in zip(case_ids(), digests):
        print(f"    {cid!r}:\n        {digest!r},")
