"""On-disk integrity coverage for the ``.hsis-cache`` result cache.

An entry is trusted only if its stored key matches its filename-key
and its ``result_sha`` digest re-derives from the result payload.
Anything less — truncation, bit rot, a hand-edited result — must be
detected, counted as corrupt, recomputed, and atomically rewritten.
The key itself must be sensitive to every result-affecting knob and
insensitive to request spelling (knob order, defaults written out).
"""

import asyncio
import json
import os

import pytest

from repro.serve import (
    KNOB_DEFAULTS,
    HsisServer,
    ProtocolError,
    ServeClient,
    cache_key,
    canonical_knobs,
    parse_submit,
)
from repro.serve.cache import ResultCache, result_digest

STALL_BUDGET_SECONDS = 60.0


def serve_once(tmp_path, cache_dir, **submit_kwargs):
    """Boot a fresh server over ``cache_dir``, run one submission."""

    async def main():
        server = HsisServer(
            host="127.0.0.1", port=0, jobs=1, timeout=60.0,
            cache_dir=cache_dir,
        )
        await server.start()
        try:
            async with ServeClient(port=server.port) as client:
                result = await asyncio.wait_for(
                    client.submit(**submit_kwargs),
                    timeout=STALL_BUDGET_SECONDS,
                )
            return result, server.cache.snapshot(), \
                dict(server.stats.counters)
        finally:
            await server.stop()

    return asyncio.run(main())


def sole_entry_path(cache_dir):
    entries = [n for n in os.listdir(cache_dir) if n.endswith(".json")]
    assert len(entries) == 1
    return os.path.join(cache_dir, entries[0])


SUBMIT = dict(kind="check", design={"gallery": "traffic"})


def verdict_core(result):
    """A check result minus its wall-clock noise, for cross-run equality."""
    return {
        "passed": result["passed"],
        "properties": result["properties"],
        "verdicts": [
            {k: v for k, v in verdict.items() if k != "seconds"}
            for verdict in result["verdicts"]
        ],
    }


class TestIntegrity:
    def test_tampered_result_is_detected_and_recomputed(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first, _, _ = serve_once(tmp_path, cache_dir, **SUBMIT)
        assert first["ok"] and not first["cached"]

        path = sole_entry_path(cache_dir)
        with open(path) as handle:
            entry = json.load(handle)
        entry["result"]["passed"] = 999  # flip a verdict, keep the sha
        with open(path, "w") as handle:
            json.dump(entry, handle)

        second, cache, counters = serve_once(tmp_path, cache_dir, **SUBMIT)
        assert not second["cached"], "tampered entry was trusted"
        assert verdict_core(second["result"]) == verdict_core(first["result"])
        assert cache["corrupt"] == 1
        assert counters["serve.cache_corrupt"] == 1

        # The rewrite healed the entry: a third server trusts it again.
        third, cache3, _ = serve_once(tmp_path, cache_dir, **SUBMIT)
        assert third["cached"]
        assert verdict_core(third["result"]) == verdict_core(second["result"])
        assert cache3["corrupt"] == 0

    def test_truncated_entry_is_detected_and_recomputed(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first, _, _ = serve_once(tmp_path, cache_dir, **SUBMIT)

        path = sole_entry_path(cache_dir)
        size = os.path.getsize(path)
        with open(path, "r+") as handle:
            handle.truncate(size // 2)

        second, cache, _ = serve_once(tmp_path, cache_dir, **SUBMIT)
        assert not second["cached"]
        assert verdict_core(second["result"]) == verdict_core(first["result"])
        assert cache["corrupt"] == 1

    def test_rewrite_is_atomic_no_temp_droppings(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        serve_once(tmp_path, cache_dir, **SUBMIT)
        path = sole_entry_path(cache_dir)
        with open(path, "w") as handle:
            handle.write("{ garbage")
        serve_once(tmp_path, cache_dir, **SUBMIT)
        # Only the healed entry remains: atomic_write_json's temp file
        # was renamed over it, never left beside it.
        assert sorted(os.listdir(cache_dir)) == [os.path.basename(path)]
        with open(path) as handle:
            healed = json.load(handle)
        assert healed["result_sha"] == result_digest(healed["result"])

    def test_load_counts_hits_misses_corrupt(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = "k" * 64
        assert cache.load(key) is None  # absent: miss, not corrupt
        cache.store(key, "check", {"passed": 1}, 0.5)
        assert cache.load(key)["result"] == {"passed": 1}
        with open(cache.path(key), "w") as handle:
            json.dump({"key": "wrong", "result": {}, "result_sha": ""},
                      handle)
        assert cache.load(key) is None
        assert cache.snapshot() == {
            "entries": 1, "hits": 1, "misses": 2, "corrupt": 1, "stores": 1,
            "evictions": 0,
        }


class TestEviction:
    """Size-capped LRU eviction (``--cache-max-mib``): stores sweep the
    directory down to the cap in mtime order, a load refreshes its
    entry's recency, and the entry just written is never the victim."""

    PAD = {"pad": "x" * 1000}

    def keys(self):
        return ["a" * 64, "b" * 64, "c" * 64]

    def fitted_cache(self, tmp_path, entries=2):
        """A cache whose cap fits exactly ``entries`` padded entries."""
        probe = ResultCache(str(tmp_path / "probe"))
        probe.store("p" * 64, "check", self.PAD, 0.0)
        size = os.path.getsize(probe.path("p" * 64))
        return ResultCache(
            str(tmp_path / "cache"), max_bytes=size * entries + size // 2
        )

    def age(self, cache, key, seconds_ago):
        """Backdate an entry's mtime (deterministic LRU order, no sleeps)."""
        import time

        stamp = time.time() - seconds_ago
        os.utime(cache.path(key), (stamp, stamp))

    def test_store_evicts_oldest_past_the_cap(self, tmp_path):
        cache = self.fitted_cache(tmp_path, entries=2)
        ka, kb, kc = self.keys()
        cache.store(ka, "check", self.PAD, 0.0)
        self.age(cache, ka, 100)
        cache.store(kb, "check", self.PAD, 0.0)
        self.age(cache, kb, 50)
        cache.store(kc, "check", self.PAD, 0.0)
        assert cache.load(ka) is None, "oldest entry survived the cap"
        assert cache.load(kb) is not None
        assert cache.load(kc) is not None
        assert cache.evictions == 1
        assert cache.snapshot()["evictions"] == 1
        assert cache.snapshot()["entries"] == 2

    def test_load_refreshes_recency(self, tmp_path):
        cache = self.fitted_cache(tmp_path, entries=2)
        ka, kb, kc = self.keys()
        cache.store(ka, "check", self.PAD, 0.0)
        cache.store(kb, "check", self.PAD, 0.0)
        self.age(cache, ka, 100)
        self.age(cache, kb, 50)
        assert cache.load(ka) is not None  # touch: ka becomes newest
        cache.store(kc, "check", self.PAD, 0.0)
        assert cache.load(ka) is not None, "recently-used entry evicted"
        assert cache.load(kb) is None
        assert cache.evictions == 1

    def test_just_written_entry_is_never_the_victim(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), max_bytes=1)
        ka, kb, _ = self.keys()
        cache.store(ka, "check", self.PAD, 0.0)
        assert cache.load(ka) is not None, "cap smaller than one entry"
        cache.store(kb, "check", self.PAD, 0.0)
        assert cache.load(kb) is not None
        assert cache.load(ka) is None
        assert cache.evictions == 1

    def test_uncapped_cache_never_evicts(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        for key in self.keys():
            cache.store(key, "check", self.PAD, 0.0)
        assert cache.evictions == 0
        assert cache.snapshot()["entries"] == 3


class TestKeySensitivity:
    def test_result_affecting_knobs_fork_the_key(self):
        base = cache_key("check", "design", "pif",
                         canonical_knobs("check", {}))
        reordered = cache_key(
            "check", "design", "pif",
            canonical_knobs("check", {"auto_reorder": 5000}),
        )
        capped = cache_key(
            "check", "design", "pif",
            canonical_knobs("check", {"cache_limit": 4096}),
        )
        assert len({base, reordered, capped}) == 3

    def test_request_spelling_does_not_fork_the_key(self):
        implicit = cache_key("fuzz", None, None,
                             canonical_knobs("fuzz", {}))
        explicit = cache_key(
            "fuzz", None, None,
            canonical_knobs(
                "fuzz", {"trials": 25, "seed": 0, "auto_reorder": None}
            ),
        )
        assert implicit == explicit

    def test_design_pif_and_kind_all_participate(self):
        knobs = canonical_knobs("check", {})
        base = cache_key("check", "d", "p", knobs)
        assert cache_key("check", "d2", "p", knobs) != base
        assert cache_key("check", "d", "p2", knobs) != base
        assert cache_key("profile", "d", "p",
                         canonical_knobs("profile", {})) != base

    def test_batch_apply_is_not_a_knob(self):
        """The kernel picks its apply route itself; a submission cannot,
        so the route never forks the cache key."""
        for kind in KNOB_DEFAULTS:
            canonical = canonical_knobs(kind, {})
            assert "batch_apply" not in canonical
            assert "batch_apply" not in json.dumps(canonical)
            with pytest.raises(ProtocolError) as err:
                parse_submit({
                    "op": "submit", "kind": kind,
                    "design": None if kind == "fuzz" else {"gallery": "traffic"},
                    "knobs": {"batch_apply": False},
                })
            message = str(err.value)
            assert "unknown knob(s)" in message and "batch_apply" in message
            assert f"(known: {', '.join(sorted(canonical))})" in message

    def test_knob_spelling_served_from_cache_end_to_end(self, tmp_path):
        """A resubmission with defaults spelled out explicitly hits the
        cache entry the implicit-defaults submission stored."""
        cache_dir = str(tmp_path / "cache")
        first, _, _ = serve_once(
            tmp_path, cache_dir, kind="fuzz", knobs={"trials": 2, "seed": 9}
        )
        second, _, _ = serve_once(
            tmp_path, cache_dir, kind="fuzz",
            knobs={"seed": 9, "trials": 2, "auto_reorder": None},
        )
        assert not first["cached"] and second["cached"]
        assert second["result"] == first["result"]
        # ...while a genuinely different knob recomputes.
        third, _, _ = serve_once(
            tmp_path, cache_dir, kind="fuzz", knobs={"trials": 3, "seed": 9}
        )
        assert not third["cached"]
