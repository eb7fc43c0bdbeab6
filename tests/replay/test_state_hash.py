"""The streamed state hash against its oracle (DESIGN.md §11).

``Snapshot.state_hash`` feeds the canonical text of a snapshot's
architectural state into SHA-256 piece by piece. ``_canon`` below is
that text built the direct way, as one nested string: the digest of
its UTF-8 bytes is the oracle, and the streamed digest must equal it
for generated nested states and for real machine states (a long
``serve-steady``-shaped mcf fork, a ``serve-fork``-shaped omnetpp
fork, a fuzz victim). Literal digests of fixed machine states pin the
value itself, outside the benchmark goldens.

To check a saved snapshot against the oracle, run
``PYTHONPATH=src python tests/replay/test_state_hash.py FILE.snap...``.
"""

import hashlib
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReplayError
from repro.fuzz.executor import WarmVictimPool
from repro.fuzz.target import VictimSpec
from repro.replay.snapshot import Snapshot, _strip_volatile, snapshot
from repro.serve.pool import PoolKey, SnapshotPool

# serve-steady's session key, paused after about seven of its slices;
# serve-fork's, paused after one session's instructions.
STEADY_KEY = PoolKey(profile="processor+kernel", workload="429.mcf",
                     scale=4.0, variant="base", boot=4096)
STEADY_INSTRUCTIONS = 175_000
FORK_KEY = PoolKey(profile="processor+kernel", workload="471.omnetpp",
                   scale=0.05, variant="vcall", boot=4096)
FORK_INSTRUCTIONS = 16_000

# state_hash of the fixed states below.
PINNED = {
    "mcf-fork":
        "67490342c77cda20dfc2be3d7b43c173d6469483d8b6b50d82c64b6eb0f418a1",
    "omnetpp-fork":
        "1b00e68b31431fa90c24b6aca7227ae9cd4bc8a33282b33c7a6c8f8e3249a2eb",
    "victim":
        "2d766e89f111a94289b10528562068a3918ff9f76d7a5a6fe9d14b32dbe12277",
}


def _canon(obj) -> str:
    """Canonical, key-sorted textual form for hashing."""
    if isinstance(obj, dict):
        inner = ",".join(f"{_canon(k)}:{_canon(v)}"
                         for k, v in sorted(obj.items(), key=lambda i:
                                            _canon(i[0])))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(item) for item in obj) + "]"
    if isinstance(obj, (bytes, bytearray)):
        return "b" + bytes(obj).hex()
    if isinstance(obj, bool) or obj is None:
        return repr(obj)
    if isinstance(obj, (int, float, str)):
        return repr(obj)
    raise ReplayError(f"non-canonical value in snapshot state: {obj!r}")


def oracle_digest(state: dict) -> str:
    """The state hash computed from the one-string canonical form."""
    return hashlib.sha256(
        _canon(_strip_volatile(state)).encode()).hexdigest()


def _fork_state(key: PoolKey, instructions: int) -> dict:
    kernel, process, _ = SnapshotPool().fork(key)
    kernel.run(process, stop_after=instructions)
    assert process.alive
    return snapshot(kernel).state


def _victim_state() -> dict:
    return WarmVictimPool().victim(VictimSpec()).snapshot.state


STATES = {
    "mcf-fork": lambda: _fork_state(STEADY_KEY, STEADY_INSTRUCTIONS),
    "omnetpp-fork": lambda: _fork_state(FORK_KEY, FORK_INSTRUCTIONS),
    "victim": _victim_state,
}


def _digests(state: dict) -> "tuple[str, str]":
    return Snapshot(state).state_hash(), oracle_digest(state)


scalars = st.one_of(
    st.integers(),
    st.integers(min_value=-(1 << 200), max_value=1 << 200),
    st.floats(), st.booleans(), st.none(), st.text(),
    st.binary(), st.binary().map(bytearray))
keys = st.one_of(
    st.integers(min_value=-1000, max_value=1 << 70), st.text(max_size=8),
    st.tuples(st.integers(), st.text(max_size=4)))
nested = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(keys, children, max_size=6)),
    max_leaves=40)


class TestGeneratedStates:
    @settings(max_examples=300, deadline=None)
    @given(nested)
    def test_streamed_hash_equals_oracle(self, value):
        state = {"value": value, "tiers": {}}
        streamed, oracle = _digests(state)
        assert streamed == oracle

    def test_keys_sort_by_text_not_number(self):
        state = {"map": {9: b"\x09", 10: b"", -1: None, "9": 1, (2, "a"): 2},
                 "seq": (10, 9)}
        assert _canon(state["map"]) == "{'9':1,-1:None,10:b,9:b09,[2,'a']:2}"
        streamed, oracle = _digests(state)
        assert streamed == oracle

    def test_unicode_and_big_values(self):
        state = {"é": "snow ☃", "big": -(1 << 100), "f": [1.5, -0.0],
                 "bytes": bytearray(b"\xff\x00"), "flag": True}
        streamed, oracle = _digests(state)
        assert streamed == oracle

    def test_large_states_are_hashed_in_chunks(self, monkeypatch):
        state = {"frames": {n: bytes([n % 256]) * 4096 for n in range(256)},
                 "map": {n: n * 4096 for n in range(10_000)}}
        chunks = []

        class Recorder:
            def __init__(self):
                self.inner = hashlib.sha256()

            def update(self, data):
                chunks.append(len(data))
                self.inner.update(data)

            def hexdigest(self):
                return self.inner.hexdigest()

        monkeypatch.setattr(sys.modules["repro.replay.snapshot"], "hashlib",
                            SimpleNamespace(sha256=Recorder))
        assert Snapshot(state).state_hash() == oracle_digest(state)
        assert sum(chunks) == len(_canon(_strip_volatile(state)).encode())
        assert max(chunks) <= 64 * 1024 < sum(chunks) // 32

    @pytest.mark.parametrize("bad", [object(), {1, 2}, 1j, [frozenset()],
                                     {"k": {"nested": object()}},
                                     {object(): 1}])
    def test_unsupported_value_raises(self, bad):
        with pytest.raises(ReplayError, match="non-canonical"):
            Snapshot({"value": bad}).state_hash()
        with pytest.raises(ReplayError, match="non-canonical"):
            oracle_digest({"value": bad})


@pytest.fixture(scope="module", params=sorted(STATES))
def real_state(request):
    return request.param, STATES[request.param]()


class TestRealStates:
    def test_streamed_hash_equals_oracle(self, real_state):
        _, state = real_state
        streamed, oracle = _digests(state)
        assert streamed == oracle

    def test_pinned_digest(self, real_state):
        name, state = real_state
        assert Snapshot(state).state_hash() == PINNED[name]


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        for name in sorted(STATES):
            print(f"    {name!r}: {Snapshot(STATES[name]()).state_hash()!r},")
        sys.exit(0)
    for path in sys.argv[1:]:
        snap = Snapshot.load(path)
        streamed, oracle = snap.state_hash(), oracle_digest(snap.state)
        print(f"{path}: streamed {streamed} oracle {oracle}")
        if streamed != oracle:
            sys.exit(f"{path}: the streamed state hash differs from the "
                     f"oracle")
