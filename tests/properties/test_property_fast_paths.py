"""Property tests pinning each linear-time fast path to the behaviour it replaced.

* the per-batch vote of :class:`BatchedConsensusBlock` against a per-label
  ``majority_decision`` over the same view — directly, and through whole
  networks on the strict and the timeout-merged path, with an equivocating or
  a silent provider;
* the indexed allocation totals and the id lookups of ``BidVector`` and
  ``Payments`` against the linear scans they replaced, bit for bit;
* memoised canonical bytes and wire sizes against a fresh (reference) encode,
  including frozen dataclasses that hold mutable values;
* :class:`FrozenDict`: mutators raise, and it sizes and encodes like a dict.
"""

from __future__ import annotations

import dataclasses
import pickle
import struct
from typing import Any, Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import run_block_network

from repro.auctions.base import (
    EPSILON,
    Allocation,
    BidVector,
    FeasibilityError,
    Payments,
    ProviderAsk,
    UserBid,
)
from repro.consensus.multi_consensus import BatchedConsensusBlock
from repro.consensus.rational_consensus import majority_decision
from repro.net.protocol import ProtocolBlock
from repro.net.serialization import FrozenDict, canonical_encode, estimate_size

# -- the per-batch vote ----------------------------------------------------------

#: Classes of values that compare equal within a class but differ in type or
#: hashability: a batch vote that returned the wrong member would show in repr.
_EQUAL_CLASSES = [
    [0, 0.0, False],
    [1, 1.0, True],
    [UserBid("u", 1, 2), UserBid("u", 1.0, 2.0)],
    [(0,), (0.0,)],
    [[0], [0.0]],
    [frozenset({1}), {1}],
    ["x"],
    [None],
]


@st.composite
def _views(draw):
    """A provider -> batch view whose batches are often equal, and often subtly not.

    ``copies`` shares one batch's objects, ``equal`` draws every value from its
    label's class (the batches compare equal but may differ in type and repr),
    ``mixed`` lets values stray to other classes (ties and majorities).
    """
    providers = draw(st.permutations([f"p{i}" for i in range(draw(st.integers(1, 5)))]))
    labels = [f"l{i}" for i in range(draw(st.integers(1, 4)))]
    classes = {label: draw(st.sampled_from(_EQUAL_CLASSES)) for label in labels}
    mode = draw(st.sampled_from(["copies", "equal", "mixed"]))
    view = {}
    for provider in providers:
        batch = {}
        for label in labels:
            pool = classes[label]
            if mode == "mixed" and draw(st.booleans()):
                pool = draw(st.sampled_from(_EQUAL_CLASSES))
            batch[label] = draw(st.sampled_from(pool))
        view[provider] = batch
    if mode == "copies":
        first = view[providers[0]]
        view = {provider: dict(first) for provider in providers}
    return view, labels


def _per_label(view: Dict[str, Dict[str, Any]], labels: List[str]) -> Dict[str, Any]:
    """The per-label vote the batch vote replaced."""
    return {
        label: majority_decision({provider: batch[label] for provider, batch in view.items()})
        for label in labels
    }


class _PerLabelBlock(BatchedConsensusBlock):
    def _decide(self, view):
        self.complete(_per_label(view, self.labels))


class _Equivocator(BatchedConsensusBlock):
    """Sends its batch to every other peer and a forged batch to the rest."""

    def on_start(self, ctx):
        forged = dict(self.my_inputs, **{self.labels[0]: "forged"})
        peers = sorted(p for p in ctx.participants if p != ctx.node_id)
        for index, peer in enumerate(peers):
            ctx.send(peer, forged if index % 2 else dict(self.my_inputs), subtag=self.VALUE)
        self._batches[ctx.node_id] = self.my_inputs
        if self.round_timeout is not None:
            ctx.set_timer(self.round_timeout, self.TIMER_VALUE)
        self._maybe_echo(ctx)


class _Silent(ProtocolBlock):
    def on_start(self, ctx):
        pass

    def on_message(self, ctx, sender, subtag, payload):
        pass


class TestBatchVote:
    @given(_views())
    @settings(max_examples=300, deadline=None)
    def test_decide_equals_per_label_majority(self, view_and_labels):
        view, labels = view_and_labels
        block = BatchedConsensusBlock("b", view[min(view)], labels=labels)
        block._decide({provider: FrozenDict(batch) for provider, batch in view.items()})
        expected = _per_label(view, labels)
        assert list(block.result) == list(expected)
        for label in labels:
            # The very object the per-label vote picks, not just an equal one.
            assert block.result[label] is expected[label]

    @given(
        _views(),
        st.sampled_from(["strict", "merged"]),
        st.sampled_from(["honest", "equivocator", "silent"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_network_outputs_equal_per_label_blocks(self, view_and_labels, path, deviant):
        view, labels = view_and_labels
        if deviant == "silent" and path == "strict":
            deviant = "honest"  # a silent peer blocks the strict path for good
        timeout = 1.0 if path == "merged" else None
        odd_one = max(view) if deviant != "honest" and len(view) > 2 else None

        def run(honest_cls):
            def factory(node_id):
                if node_id == odd_one:
                    if deviant == "silent":
                        return _Silent("b")
                    return _Equivocator("b", view[node_id], labels=labels, round_timeout=timeout)
                return honest_cls("b", view[node_id], labels=labels, round_timeout=timeout)

            return run_block_network(sorted(view), factory)

        fast, reference = run(BatchedConsensusBlock), run(_PerLabelBlock)
        honest = [node for node in sorted(view) if node != odd_one]
        assert [repr(fast[node]) for node in honest] == [repr(reference[node]) for node in honest]


# -- indexed totals and id lookups ------------------------------------------------

_USERS = ["a", "b", "c", "d"]
_PROVIDERS = ["x", "y", "z"]
_amounts = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=1e-12, max_value=1e-6),
    st.integers(min_value=0, max_value=10),
)
_entries = st.lists(
    st.tuples(st.sampled_from(_USERS), st.sampled_from(_PROVIDERS), _amounts), max_size=12
)


def _reference_check_feasible(alloc: Allocation, bids: BidVector, single_provider: bool) -> None:
    """``Allocation.check_feasible`` before its lookups were indexed."""
    for user_id, provider_id, amount in alloc.entries:
        if amount < -EPSILON:
            raise FeasibilityError(f"negative allocation for {user_id} at {provider_id}")
        if user_id not in bids.user_ids:
            raise FeasibilityError(f"allocation references unknown user {user_id!r}")
        if provider_id not in bids.provider_ids:
            raise FeasibilityError(f"allocation references unknown provider {provider_id!r}")
    for provider in bids.providers:
        used = sum(a for _, p, a in alloc.entries if p == provider.provider_id)
        if used > provider.capacity + EPSILON:
            raise FeasibilityError(
                f"provider {provider.provider_id} over capacity: {used} > {provider.capacity}"
            )
    for user in bids.users:
        received = sum(a for u, _, a in alloc.entries if u == user.user_id)
        if received > user.demand + EPSILON:
            raise FeasibilityError(
                f"user {user.user_id} allocated more than demanded: {received} > {user.demand}"
            )
        if single_provider:
            providers_of_user = [
                p for u, p, a in alloc.entries if u == user.user_id and a > EPSILON
            ]
            if len(providers_of_user) > 1:
                raise FeasibilityError(
                    f"user {user.user_id} split across providers {providers_of_user}"
                )
            if providers_of_user and abs(received - user.demand) > 1e-6:
                raise FeasibilityError(
                    f"user {user.user_id} partially allocated ({received} of {user.demand})"
                )


def _verdict(check, *args):
    try:
        check(*args)
    except FeasibilityError as error:
        return str(error)
    return None


_bid_vectors = st.builds(
    lambda users, providers: BidVector(tuple(users), tuple(providers)),
    st.lists(st.sampled_from(_USERS[:3]), unique=True).map(
        lambda ids: [UserBid(u, 1.0, float(i + 1)) for i, u in enumerate(ids)]
    ),
    st.lists(st.sampled_from(_PROVIDERS[:2]), unique=True).map(
        lambda ids: [ProviderAsk(p, 0.5, float(2 * i + 1)) for i, p in enumerate(ids)]
    ),
)


class TestIndexedLookups:
    @given(_entries)
    @settings(max_examples=300, deadline=None)
    def test_totals_equal_linear_sum_bit_for_bit(self, entries):
        alloc = Allocation(tuple(entries))
        for user in _USERS + ["missing"]:
            assert repr(alloc.user_total(user)) == repr(sum(a for u, _, a in entries if u == user))
        for provider in _PROVIDERS + ["missing"]:
            assert repr(alloc.provider_total(provider)) == repr(
                sum(a for _, p, a in entries if p == provider)
            )

    @given(_entries, _bid_vectors, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_check_feasible_matches_linear_reference(self, entries, bids, single_provider):
        alloc = Allocation(tuple(entries))
        assert _verdict(alloc.check_feasible, bids, single_provider) == _verdict(
            _reference_check_feasible, alloc, bids, single_provider
        )

    @given(_bid_vectors)
    @settings(max_examples=100, deadline=None)
    def test_bid_vector_lookups_equal_linear_scan(self, bids):
        for user in _USERS:
            scan = [bid for bid in bids.users if bid.user_id == user]
            if scan:
                assert bids.user(user) is scan[0]
            else:
                with pytest.raises(KeyError):
                    bids.user(user)
        for provider in _PROVIDERS:
            scan = [ask for ask in bids.providers if ask.provider_id == provider]
            if scan:
                assert bids.provider(provider) is scan[0]
            else:
                with pytest.raises(KeyError):
                    bids.provider(provider)

    @given(
        st.lists(st.tuples(st.sampled_from(_USERS), _amounts), max_size=6),
        st.lists(st.tuples(st.sampled_from(_PROVIDERS), _amounts), max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_payment_lookups_equal_linear_scan(self, user_payments, provider_revenues):
        # Built directly, so ids may repeat: the first entry wins, as in a scan.
        payments = Payments(tuple(user_payments), tuple(provider_revenues))
        for user in _USERS:
            scan = [p for u, p in user_payments if u == user]
            assert repr(payments.user_payment(user)) == repr(scan[0] if scan else 0.0)
        for provider in _PROVIDERS:
            scan = [r for p, r in provider_revenues if p == provider]
            assert repr(payments.provider_revenue(provider)) == repr(scan[0] if scan else 0.0)


# -- memoised canonical bytes and sizes -------------------------------------------


def _reference_encode(value: Any) -> bytes:
    """``canonical_encode`` before its bytes were memoised."""
    if value is None:
        return b"n"
    if isinstance(value, (bool, int, float)):
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, int):
            try:
                as_float = float(value)
            except OverflowError:
                as_float = None
            if as_float is None or as_float != value:
                data = str(value).encode("ascii")
                return b"i" + len(data).to_bytes(4, "big") + data
            value = as_float
        return b"f" + struct.pack(">d", 0.0 if value == 0.0 else float(value))
    if isinstance(value, str):
        data = value.encode("utf-8")
        return b"s" + len(data).to_bytes(4, "big") + data
    if isinstance(value, (bytes, bytearray)):
        return b"y" + len(value).to_bytes(4, "big") + bytes(value)
    if isinstance(value, (list, tuple)):
        return b"l" + len(value).to_bytes(4, "big") + b"".join(map(_reference_encode, value))
    if isinstance(value, (set, frozenset)):
        parts = sorted(map(_reference_encode, value))
        return b"e" + len(parts).to_bytes(4, "big") + b"".join(parts)
    if isinstance(value, dict):
        items = sorted(
            ((_reference_encode(k), _reference_encode(v)) for k, v in value.items()),
            key=lambda kv: kv[0],
        )
        return b"d" + len(items).to_bytes(4, "big") + b"".join(k + v for k, v in items)
    fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    return b"c" + _reference_encode(type(value).__name__) + _reference_encode(fields)


@dataclasses.dataclass(frozen=True)
class _Node:
    left: Any
    right: Any


@dataclasses.dataclass
class _MutableNode:
    value: Any


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.binary(max_size=6),
)
_payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
        st.dictionaries(st.text(max_size=4), children, max_size=3).map(FrozenDict),
        st.builds(_Node, children, children),
        st.builds(_MutableNode, children),
    ),
    max_leaves=12,
)


def _memoised(value: Any) -> bool:
    return "_repro_canonical" in getattr(value, "__dict__", {})


def _deep_immutable(value: Any) -> bool:
    if isinstance(value, list) or isinstance(value, _MutableNode):
        return False
    if isinstance(value, dict):
        return isinstance(value, FrozenDict) and all(map(_deep_immutable, value.values()))
    if isinstance(value, tuple):
        return all(map(_deep_immutable, value))
    if isinstance(value, _Node):
        return _deep_immutable(value.left) and _deep_immutable(value.right)
    return True


class TestMemoisedEncoding:
    @given(_payloads)
    @settings(max_examples=300, deadline=None)
    def test_memoised_encode_equals_fresh_encode(self, value):
        expected = _reference_encode(value)
        assert canonical_encode(value) == expected
        assert canonical_encode(value) == expected  # now answered from the memo
        if isinstance(value, (_Node, FrozenDict)):
            assert _memoised(value) == _deep_immutable(value)

    @given(_payloads)
    @settings(max_examples=200, deadline=None)
    def test_frozen_dict_sizes_like_a_dict(self, value):
        mapping = {"k": value, "j": [value]}
        frozen = FrozenDict(mapping)
        assert estimate_size(frozen) == estimate_size(mapping)
        assert estimate_size(frozen) == estimate_size(mapping)  # memoised or not

    @pytest.mark.parametrize("mutable", [[1, 2], {"a": 1}])
    def test_frozen_dataclass_holding_mutables_is_re_encoded(self, mutable):
        node = _Node(mutable, 1.5)
        before = canonical_encode(node)
        size_before = estimate_size(node)
        assert not _memoised(node)
        if isinstance(mutable, list):
            mutable.append(3)
        else:
            mutable["b"] = 2
        assert canonical_encode(node) == _reference_encode(node) != before
        assert estimate_size(node) > size_before

    def test_frozen_dataclass_holding_frozen_dict_is_memoised(self):
        node = _Node(FrozenDict({"a": (1, 2)}), "x")
        assert canonical_encode(node) == _reference_encode(node)
        assert _memoised(node) and _memoised(node.left)


class TestFrozenDict:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.__setitem__("a", 2),
            lambda d: d.__delitem__("a"),
            lambda d: d.clear(),
            lambda d: d.pop("a"),
            lambda d: d.popitem(),
            lambda d: d.setdefault("b", 1),
            lambda d: d.update(b=1),
            lambda d: d.__ior__({"b": 1}),
        ],
    )
    def test_mutators_raise(self, mutate):
        frozen = FrozenDict({"a": 1})
        with pytest.raises(TypeError):
            mutate(frozen)
        assert frozen == {"a": 1}

    def test_behaves_like_the_plain_dict(self):
        plain = {"b": UserBid("u", 1.0, 2.0), "a": (1, "x")}
        frozen = FrozenDict(plain)
        assert frozen == plain and plain == frozen
        assert list(frozen) == list(plain) and repr(frozen) == repr(plain)
        assert canonical_encode(frozen) == canonical_encode(plain)
        assert estimate_size(frozen) == estimate_size(plain)
        with pytest.raises(TypeError):
            hash(frozen)  # unhashable, like a dict: the majority vote counts it by repr
        clone = pickle.loads(pickle.dumps(frozen))
        assert type(clone) is FrozenDict and clone == plain
