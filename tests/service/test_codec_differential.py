"""Service-level codec differential: the storage codec never changes an
answer.

Cluster stores are built from identical data -- one all-WAH, one written
with ``codec="auto"`` (so its records carry the V2.1 tag table and mix
WAH and Roaring payloads), one all-Roaring.  Scatter-gather global
queries, rank-qualified queries, and mask queries over shard counts
{1, 2, 4} must return values and mask words byte-identical between the
stores, with the all-WAH in-process service as the oracle.  Every
reader decodes to WAH, so with replication enabled the replica wire
(fetch/install) moves WAH words between workers without disturbing a
single byte of any answer.
"""

import numpy as np
import pytest

from repro.bitmap import (
    BitmapIndex,
    EqualWidthBinning,
    LazyBitmapIndex,
    load_index,
    save_index,
)
from repro.bitmap.wah import WAHBitVector
from repro.service import QueryServer, QueryService, ServiceClient

RANKS = 3
#: Unequal, non-word-aligned slab sizes: splice boundaries land
#: mid-group.
RANK_ELEMENTS = [217, 340, 155]
STEPS = (0, 2)
BINS = 16

QUERIES = [
    "SELECT COUNT FROM temperature, salinity",
    "SELECT COUNT FROM temperature, salinity "
    "WHERE temperature BETWEEN 2 AND 7",
    "SELECT MI FROM temperature, salinity",
    "SELECT CE FROM temperature, salinity WHERE salinity >= 30",
    "SELECT COUNT FROM rank_0000/temperature, rank_0000/salinity "
    "WHERE rank_0000/temperature <= 5",
    "SELECT MI FROM rank_0001/temperature, rank_0001/salinity",
]

MASK_QUERIES = [
    "SELECT COUNT FROM temperature, salinity "
    "WHERE temperature BETWEEN 2 AND 7 AND salinity >= 30",
    "SELECT COUNT FROM rank_0000/temperature, rank_0000/salinity "
    "WHERE rank_0000/temperature <= 5",
]

#: Skewed warm-up driving rank_0000 hot (the replica placement target).
SKEWED_QUERIES = [
    "SELECT COUNT FROM rank_0000/temperature, rank_0000/salinity",
    "SELECT COUNT FROM rank_0000/temperature, rank_0000/salinity "
    "WHERE rank_0000/temperature BETWEEN 2 AND 7",
    "SELECT MI FROM rank_0000/temperature, rank_0000/salinity",
]


def _build_store(root, codec: str) -> None:
    """A rank-sharded store; data is a fixed function of (rank, step, var)
    so every store indexes byte-for-byte identical values."""
    binnings = {
        "temperature": EqualWidthBinning(0.0, 10.0, BINS),
        "salinity": EqualWidthBinning(20.0, 40.0, BINS),
    }
    for step in STEPS:
        for rank in range(RANKS):
            d = root / f"rank_{rank:04d}" / f"step_{step:05d}"
            d.mkdir(parents=True, exist_ok=True)
            n = RANK_ELEMENTS[rank]
            for var, binning in binnings.items():
                rng = np.random.default_rng(
                    hash((rank, step, var)) % (2**32)
                )
                lo, hi = float(binning.edges[0]), float(binning.edges[-1])
                # Mixture: a dense spike in one bin plus a uniform tail,
                # so the auto record mixes codecs even on small slabs.
                data = np.where(
                    rng.random(n) < 0.4,
                    rng.uniform(lo, lo + (hi - lo) / BINS, n),
                    rng.uniform(lo, hi, n),
                )
                index = BitmapIndex.build(data, binning, codec=codec)
                save_index(d / f"{var}.rbmp", index)


@pytest.fixture(scope="module")
def twin_roots(tmp_path_factory):
    base = tmp_path_factory.mktemp("codec_diff")
    roots = {codec: base / f"store_{codec}" for codec in ("wah", "auto", "roaring")}
    for codec, root in roots.items():
        _build_store(root, codec)
    # The differential is vacuous unless the auto store mixes codecs; and
    # whatever a file stores, readers hand back WAH.
    tags = set()
    for path in sorted(roots["auto"].rglob("*.rbmp")):
        with LazyBitmapIndex.open(path) as lazy:
            tags |= {c.name for c in lazy.codecs}
        assert all(
            type(v) is WAHBitVector for v in load_index(path).bitvectors
        )
    assert tags == {"wah", "roaring"}, f"auto store tags: {tags}"
    return roots["wah"], roots["auto"], roots["roaring"]


@pytest.fixture(scope="module", params=[1, 2, 4])
def auto_server(request, twin_roots):
    """A sharded, replicating server over the auto-codec store, plus the
    forced-WAH in-process oracle."""
    root_wah, root_auto, _ = twin_roots
    with QueryService(root_wah, max_workers=2) as oracle:
        server = QueryServer(
            root_auto,
            shards=request.param,
            port=0,
            replicate=True,
            rebalance_interval=3600.0,
            hotset_top_k=64,
        )
        with server.launch():
            yield oracle, server, request.param


class TestAutoVsForcedWAH:
    @pytest.mark.parametrize("sql", QUERIES)
    @pytest.mark.parametrize("step", list(STEPS))
    def test_values_identical(self, auto_server, sql, step):
        oracle, server, _ = auto_server
        local = oracle.execute(sql, step=step)
        with ServiceClient("127.0.0.1", server.port) as client:
            remote = client.query(sql, step=step)
        assert remote["value"] == local.value  # ==, not approx
        assert remote["metric"] == local.metric

    @pytest.mark.parametrize("sql", MASK_QUERIES)
    def test_masks_byte_identical(self, auto_server, sql):
        """The wire mask from the auto-codec sharded path matches the
        forced-WAH single-process mask word for word."""
        oracle, server, _ = auto_server
        local = oracle.execute_mask(sql, step=0)
        with ServiceClient("127.0.0.1", server.port) as client:
            remote = client.mask(sql, step=0)
        assert remote["value"] == local.value
        assert isinstance(remote["mask"], WAHBitVector)
        assert remote["mask"].n_bits == local.mask.n_bits
        assert np.array_equal(remote["mask"].words, local.mask.words)


class TestCodecReplicaWire:
    def test_replication_moves_tagged_payloads(self, auto_server):
        """Warm a skewed workload, rebalance, and re-check answers: the
        replica wire ships the WAH words decoded from Roaring / mixed
        records, and results stay byte-identical with routes live."""
        oracle, server, shards = auto_server
        with ServiceClient("127.0.0.1", server.port) as client:
            for sql in SKEWED_QUERIES:
                for step in STEPS:
                    client.query(sql, step=step)
        report = server.rebalance()
        assert report.published
        if shards > 1:
            assert report.installed > 0
        for sql in QUERIES:
            local = oracle.execute(sql, step=0)
            with ServiceClient("127.0.0.1", server.port) as client:
                remote = client.query(sql, step=0)
            assert remote["value"] == local.value
        for sql in MASK_QUERIES:
            local = oracle.execute_mask(sql, step=0)
            with ServiceClient("127.0.0.1", server.port) as client:
                remote = client.mask(sql, step=0)
            assert np.array_equal(remote["mask"].words, local.mask.words)


class TestRoaringStore:
    def test_all_roaring_store_matches_wah(self, twin_roots):
        """Every value and mask over the all-Roaring store, served by 2
        shards, equals the all-WAH in-process oracle."""
        root_wah, _, root_roaring = twin_roots
        with QueryService(root_wah, max_workers=2) as oracle:
            server = QueryServer(root_roaring, shards=2, port=0)
            with server.launch(), ServiceClient(
                "127.0.0.1", server.port
            ) as client:
                for step in STEPS:
                    for sql in QUERIES:
                        remote = client.query(sql, step=step)
                        assert remote["value"] == oracle.execute(
                            sql, step=step
                        ).value
                for sql in MASK_QUERIES:
                    local = oracle.execute_mask(sql, step=0)
                    remote = client.mask(sql, step=0)
                    assert np.array_equal(
                        remote["mask"].words, local.mask.words
                    )
