"""Pinned machine state right after ``Kernel.create_process``.

Mapping a region allocates its frames, zero-fills them and installs
their leaf PTEs. However that is done, the loaded machine must come
out the same: the same PTE words, the same frames in the same order,
the same vpage -> frame map, the same frames reported to the
host-write guard, and the same state hash. Each of the three ``sweep``
pairs (on every system profile) and five fuzz victims is loaded and
compared with digests recorded when the pins were set.

To re-record after an intended change, run
``PYTHONPATH=src python tests/kernel/test_load_identity.py`` and paste
its output over ``PINNED``.
"""

import hashlib

import pytest

from repro.compiler import compile_module
from repro.eval.measure import make_hardening
from repro.fuzz.target import VictimSpec, build_image
from repro.kernel import Kernel
from repro.replay.snapshot import state_hash
from repro.soc import build_system
from repro.workloads import build_workload, profile

SWEEP_PAIRS = (("429.mcf", "base"), ("483.xalancbmk", "vcall"),
               ("403.gcc", "icall"))
SYSTEM_PROFILES = ("baseline", "processor", "processor+kernel")
VICTIM_SPECS = (
    VictimSpec(),
    VictimSpec(reps=1, vcalls=1, icalls=0),
    VictimSpec(reps=6, vcalls=0, icalls=2, arith=12),
    VictimSpec(reps=5, loop=True, vcalls=3, icalls=3, arith=48),
    VictimSpec(reps=40, loop=True, vcalls=1, icalls=1, arith=48),
)


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def loaded_state(image, system_profile: str) -> dict:
    """Digests of what ``create_process`` leaves behind."""
    kernel = Kernel(build_system(system_profile))
    memory = kernel.system.memory
    memory.written_frames = set()
    process = kernel.create_process(image)
    written = sorted(memory.written_frames)
    memory.written_frames = None
    space = process.address_space
    frames = memory.frame_map
    return {
        "ptes": _digest([(vaddr, pte.pack()) for vaddr, pte in
                         space.page_table.mappings()]),
        "memory": _digest([(index, bytes(frames[index]))
                           for index in frames]),
        "frames": _digest(list(space._frames.items())),
        "written": _digest(written),
        "state_hash": state_hash(kernel),
    }


def _workload_image(name: str, variant: str):
    program = build_workload(profile(name), scale=0.1)
    return compile_module(program.module,
                          hardening=make_hardening(variant, program))


def _victim_id(spec: VictimSpec) -> str:
    return "victim:" + ",".join(f"{k}={v}" for k, v in
                                spec.to_dict().items())


def cases():
    for name, variant in SWEEP_PAIRS:
        image = _workload_image(name, variant)
        for system_profile in SYSTEM_PROFILES:
            yield f"{name}/{variant}@{system_profile}", image, system_profile
    for spec in VICTIM_SPECS:
        yield _victim_id(spec), build_image(spec.normalized()), \
            "processor+kernel"


PINNED = {
    '429.mcf/base@baseline': {
        'ptes': '251e845e32cbd73d', 'memory': '4f757b68118537e9',
        'frames': '5276ab332bbc14aa', 'written': '5fb2c54adb09ecec',
        'state_hash':
        '88f0c8cdba91d1cbe0efd85285c2b2c5b04e74b9d75a77653276d42023041800'},
    '429.mcf/base@processor': {
        'ptes': '251e845e32cbd73d', 'memory': '4f757b68118537e9',
        'frames': '5276ab332bbc14aa', 'written': '5fb2c54adb09ecec',
        'state_hash':
        '2bc26ffafb13566fb0637fa00f28c2dbe436ebc8d8b3a33d1dbb3cbbbd5373b1'},
    '429.mcf/base@processor+kernel': {
        'ptes': '251e845e32cbd73d', 'memory': '4f757b68118537e9',
        'frames': '5276ab332bbc14aa', 'written': '5fb2c54adb09ecec',
        'state_hash':
        'ae9336d476a84dc158b4e4334bc244db80da548430df9d56b22be5ea56b1b15a'},
    '483.xalancbmk/vcall@baseline': {
        'ptes': '903e94b5fed6b621', 'memory': '40919c6f13b571f0',
        'frames': '4ef3283be9f166fd', 'written': '632034b2822486f7',
        'state_hash':
        '941f697e52aa250b35a422954ab2f40a22e7453d0de55844086c11f74670bafc'},
    '483.xalancbmk/vcall@processor': {
        'ptes': '903e94b5fed6b621', 'memory': '40919c6f13b571f0',
        'frames': '4ef3283be9f166fd', 'written': '632034b2822486f7',
        'state_hash':
        'b7996bf45881fe3e25172a800dff44274c9b8353d45d5d38fb1ab1724b4dc406'},
    '483.xalancbmk/vcall@processor+kernel': {
        'ptes': 'a801c55891e41782', 'memory': '34c85c4b2cdd9fa5',
        'frames': '4ef3283be9f166fd', 'written': '632034b2822486f7',
        'state_hash':
        '1b8c7bc2c6e5b55d03e9c7f9ebd94eccf25c451c0a7c0e7b65db292d8b369db6'},
    '403.gcc/icall@baseline': {
        'ptes': '46701b77c92e518d', 'memory': '733a7c05c86adc02',
        'frames': 'e364ba04a56c7fac', 'written': '4a91172abf689ae6',
        'state_hash':
        'fe13457e7f43c740a0820e2a82772fdbc9d05f6c1ddd985a94716e3d603efcce'},
    '403.gcc/icall@processor': {
        'ptes': '46701b77c92e518d', 'memory': '733a7c05c86adc02',
        'frames': 'e364ba04a56c7fac', 'written': '4a91172abf689ae6',
        'state_hash':
        '284334eeeefcba79cc511e30decc4ea01cb1cd11da8292ce772dd4b53237a615'},
    '403.gcc/icall@processor+kernel': {
        'ptes': 'b5f1ca10b246a167', 'memory': 'aa9d397ca596b8fd',
        'frames': 'e364ba04a56c7fac', 'written': '4a91172abf689ae6',
        'state_hash':
        'eb28ae8c3e3b24d3db8c140c1c012d245ceed04b50b6736d3a7447afda68eabd'},
    'victim:reps=8,loop=False,vcalls=1,icalls=1,arith=0': {
        'ptes': 'e13daccededac9ea', 'memory': '09837417ee13a38a',
        'frames': '93f5d5ed8e5b89d1', 'written': 'ff87c81c31337b6b',
        'state_hash':
        '3354639ceb15e39ac5327b33483e18fe74a627321088826ed3f4e4f2f2f28a4c'},
    'victim:reps=1,loop=False,vcalls=1,icalls=0,arith=0': {
        'ptes': 'e13daccededac9ea', 'memory': '749c8a045b6664a5',
        'frames': '93f5d5ed8e5b89d1', 'written': 'ff87c81c31337b6b',
        'state_hash':
        'd1eea544272b09c227b3651549b2503ff850a863697f44e946693e6166fc090d'},
    'victim:reps=6,loop=False,vcalls=0,icalls=2,arith=12': {
        'ptes': 'e13daccededac9ea', 'memory': 'fe20b54f94d15e25',
        'frames': '93f5d5ed8e5b89d1', 'written': 'ff87c81c31337b6b',
        'state_hash':
        '84ceeb397e856e646582652a3219710b8c18729e5258ad44b4c9f30a9cdf2e33'},
    'victim:reps=5,loop=True,vcalls=3,icalls=3,arith=48': {
        'ptes': 'e13daccededac9ea', 'memory': '1819f7ad7d626666',
        'frames': '93f5d5ed8e5b89d1', 'written': 'ff87c81c31337b6b',
        'state_hash':
        '5cac8967dfe1bba5839bb5ab6495966138013c46ab7ca790e3b5a6372c3813c2'},
    'victim:reps=40,loop=True,vcalls=1,icalls=1,arith=48': {
        'ptes': 'e13daccededac9ea', 'memory': '5002a8bc059a05cc',
        'frames': '93f5d5ed8e5b89d1', 'written': 'ff87c81c31337b6b',
        'state_hash':
        'ec873db5ef7a9f5f1636ce14bc064727d69051d9ed27611b3b8f3ca2fdaefba7'},
}


@pytest.mark.parametrize("name,variant", SWEEP_PAIRS)
def test_sweep_loads_are_pinned(name, variant):
    image = _workload_image(name, variant)
    for system_profile in SYSTEM_PROFILES:
        cid = f"{name}/{variant}@{system_profile}"
        assert loaded_state(image, system_profile) == PINNED[cid], cid


def test_victim_loads_are_pinned():
    for spec in VICTIM_SPECS:
        cid = _victim_id(spec)
        image = build_image(spec.normalized())
        assert loaded_state(image, "processor+kernel") == PINNED[cid], cid


if __name__ == "__main__":
    for cid, image, system_profile in cases():
        pins = loaded_state(image, system_profile)
        print(f"    {cid!r}: {{\n"
              f"        'ptes': {pins['ptes']!r}, "
              f"'memory': {pins['memory']!r},\n"
              f"        'frames': {pins['frames']!r}, "
              f"'written': {pins['written']!r},\n"
              f"        'state_hash':\n"
              f"        {pins['state_hash']!r}}},")
