//! The content-addressed tile cache (protocol revision 3).
//!
//! Revision 3 lets the server replace a display payload the client
//! already holds with a 13-byte [`Message::CacheRef`] carrying the
//! payload's 64-bit content hash ([`crate::hash`]). Both ends keep a
//! byte-budgeted LRU over the same key space:
//!
//! - the **server ledger** maps hash → full message for every
//!   cacheable payload it has actually sent, so a ref is only ever
//!   emitted for content the client was given, and a
//!   [`Message::CacheMiss`] can be answered with the byte-exact
//!   original;
//! - the **client store** maps hash → full message for every
//!   cacheable payload it has received, so a ref resolves locally
//!   without touching the network.
//!
//! Because both sides insert the same entries, in the same order, with
//! the same sizes, under the same budget, the two LRUs evict in
//! lockstep; divergence (loss, a fresh client against a warm ledger)
//! is repaired by the miss → full-payload fallback path. The
//! consistency argument and its property tests live in
//! `docs/CACHE.md`.

use std::collections::{HashMap, VecDeque};

use crate::message::Message;

/// Default cache byte budget used by both the server ledger and the
/// client store (4 MiB — a few screenfuls of compressed tiles).
///
/// The eviction mirror between ledger and store depends on both sides
/// using the *same* budget; deployments that change one side must
/// change the other, or pay for the divergence in miss round trips.
pub const DEFAULT_CACHE_BUDGET: u64 = 4 * 1024 * 1024;

/// Minimum encoded message size worth caching, in bytes.
///
/// A `CacheRef` costs 13 payload bytes on the wire; referencing
/// anything smaller than this floor would save little and churn the
/// LRU. Both sides apply the same floor via [`cache_key`], keeping
/// their notion of "cacheable" identical.
pub const CACHE_MIN_PAYLOAD: usize = 64;

/// The cache key for `msg` given its encoded (revision-1 framed)
/// bytes, or `None` if the message is not cacheable.
///
/// Only pixel-bearing display commands are cacheable — `RAW`, `PFILL`
/// and `BITMAP` — and only when the encoded message meets
/// [`CACHE_MIN_PAYLOAD`]. `COPY` and `SFILL` are already near-minimal
/// on the wire, and non-display traffic (video, audio, control) has
/// its own delivery semantics. The hash covers the *final* encoded
/// bytes, after any RAW compression, so the server's flush-time view
/// and the client's receive-time view agree byte-for-byte.
pub fn cache_key(msg: &Message, encoded: &[u8]) -> Option<u64> {
    if cacheable_kind(msg) && encoded.len() >= CACHE_MIN_PAYLOAD {
        Some(crate::hash::fnv64(encoded))
    } else {
        None
    }
}

/// Whether `msg` is of a cacheable kind (`RAW`, `PFILL`, `BITMAP`),
/// before the [`CACHE_MIN_PAYLOAD`] floor: a receiver checks this
/// first and encodes only candidates to key them.
pub fn cacheable_kind(msg: &Message) -> bool {
    use crate::commands::DisplayCommand;
    matches!(
        msg,
        Message::Display(
            DisplayCommand::Raw { .. } | DisplayCommand::Pfill { .. } | DisplayCommand::Bitmap { .. }
        )
    )
}

/// FNV-1a digest over a sorted key set, used by the session-resume
/// handshake to prove ledger/store coherence.
///
/// The client computes this over its store's sorted keys and carries
/// it in `MSG_SESSION_RESUME`; the server computes the same digest
/// over the checkpointed ledger's sorted keys. A match means the
/// mirrored-LRU invariant survived the failover and cache refs can
/// keep flowing; a mismatch forces the cold-reconnect path, which
/// clears both sides. `keys` must already be sorted ascending (the
/// order [`CacheLru::keys`] returns).
pub fn store_digest(sorted_keys: &[u64]) -> u64 {
    let mut state = crate::hash::fnv64(&[]);
    for k in sorted_keys {
        state = crate::hash::fnv64_update(state, &k.to_le_bytes());
    }
    state
}

/// A byte-budgeted LRU keyed by 64-bit content hash.
///
/// Used as both the server-side per-client ledger and the client-side
/// store, parameterized by the value kept per entry. Eviction is
/// strictly deterministic — least-recently-used first, driven only by
/// the insert/touch sequence — which is what lets the two sides stay
/// mirrored without any coordination traffic.
#[derive(Debug, Clone, Default)]
pub struct CacheLru<V> {
    budget: u64,
    used: u64,
    /// Keys from least- (front) to most-recently-used (back).
    order: VecDeque<u64>,
    entries: HashMap<u64, (u64, V)>,
    evictions: u64,
}

impl<V> CacheLru<V> {
    /// An empty cache with the given byte budget.
    pub fn new(budget: u64) -> Self {
        Self {
            budget,
            used: 0,
            order: VecDeque::new(),
            entries: HashMap::new(),
            evictions: 0,
        }
    }

    /// The byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently accounted to entries.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` is held (does not touch LRU order).
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// Total entries evicted over the cache's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up `key`, bumping it to most-recently-used on a hit.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        self.get_sized(key).map(|(_, v)| v)
    }

    /// [`get`](Self::get), also returning the size recorded at insert.
    pub fn get_sized(&mut self, key: u64) -> Option<(u64, &V)> {
        if self.entries.contains_key(&key) {
            self.bump(key);
        }
        self.entries.get(&key).map(|(size, v)| (*size, v))
    }

    /// Looks up `key` without touching LRU order.
    pub fn peek(&self, key: u64) -> Option<&V> {
        self.entries.get(&key).map(|(_, v)| v)
    }

    /// Bumps `key` to most-recently-used; returns whether it was held.
    pub fn touch(&mut self, key: u64) -> bool {
        if self.entries.contains_key(&key) {
            self.bump(key);
            true
        } else {
            false
        }
    }

    /// Inserts (or refreshes) `key` at `size` bytes, evicting
    /// least-recently-used entries as needed to stay within budget.
    /// Returns the number of entries evicted. An entry larger than the
    /// whole budget is not inserted at all (both sides apply the same
    /// rule, so neither ever expects the other to hold it).
    pub fn insert(&mut self, key: u64, size: u64, value: V) -> u64 {
        if size > self.budget {
            return 0;
        }
        if let Some((old_size, _)) = self.entries.remove(&key) {
            self.used -= old_size;
            self.order.retain(|&k| k != key);
        }
        let mut evicted = 0;
        while self.used + size > self.budget {
            let Some(victim) = self.order.pop_front() else {
                break;
            };
            if let Some((victim_size, _)) = self.entries.remove(&victim) {
                self.used -= victim_size;
                self.evictions += 1;
                evicted += 1;
            }
        }
        self.used += size;
        self.order.push_back(key);
        self.entries.insert(key, (size, value));
        evicted
    }

    /// Every held key, sorted ascending (not LRU order). The stable
    /// ordering lets two mirrored caches — the server's per-client
    /// ledger and the client's store — be compared for coherence.
    pub fn keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Every held entry from least- to most-recently-used, as
    /// `(key, size, value)`.
    ///
    /// This is the serialization order for checkpoints: replaying the
    /// iteration through [`insert`](Self::insert) reconstructs not
    /// just the key set but the exact eviction order, so a restored
    /// ledger keeps evicting in lockstep with the live client store.
    pub fn iter_lru(&self) -> impl Iterator<Item = (u64, u64, &V)> + '_ {
        self.order.iter().filter_map(move |&k| {
            self.entries.get(&k).map(|(size, v)| (k, *size, v))
        })
    }

    /// Drops every entry (budget and lifetime eviction count remain).
    pub fn clear(&mut self) {
        self.used = 0;
        self.order.clear();
        self.entries.clear();
    }

    fn bump(&mut self, key: u64) {
        self.order.retain(|&k| k != key);
        self.order.push_back(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{DisplayCommand, RawEncoding};
    use thinc_raster::{Color, Rect};

    #[test]
    fn insert_get_touch() {
        let mut c: CacheLru<u32> = CacheLru::new(100);
        assert_eq!(c.insert(1, 40, 10), 0);
        assert_eq!(c.insert(2, 40, 20), 0);
        assert_eq!(c.get(1), Some(&10));
        assert!(c.contains(2));
        assert_eq!(c.used_bytes(), 80);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut c: CacheLru<u32> = CacheLru::new(100);
        c.insert(1, 40, 10);
        c.insert(2, 40, 20);
        // Touch 1 so 2 becomes LRU.
        assert!(c.touch(1));
        assert_eq!(c.insert(3, 40, 30), 1);
        assert!(c.contains(1));
        assert!(!c.contains(2), "LRU entry evicted");
        assert!(c.contains(3));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn oversized_entry_never_inserted() {
        let mut c: CacheLru<u32> = CacheLru::new(100);
        c.insert(1, 40, 10);
        assert_eq!(c.insert(2, 101, 20), 0);
        assert!(!c.contains(2));
        assert!(c.contains(1), "oversized insert evicts nothing");
    }

    #[test]
    fn reinsert_updates_size_without_leak() {
        let mut c: CacheLru<u32> = CacheLru::new(100);
        c.insert(1, 60, 10);
        c.insert(1, 30, 11);
        assert_eq!(c.used_bytes(), 30);
        assert_eq!(c.get(1), Some(&11));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn mirrored_sequences_stay_mirrored() {
        // The consistency model in one test: identical insert/touch
        // sequences against identical budgets hold identical key sets.
        let ops: Vec<(u64, u64)> = (0..200).map(|i| (i % 37, 64 + (i % 7) * 32)).collect();
        let mut a: CacheLru<()> = CacheLru::new(2048);
        let mut b: CacheLru<()> = CacheLru::new(2048);
        for &(key, size) in &ops {
            a.insert(key, size, ());
            b.insert(key, size, ());
            assert_eq!(a.used_bytes(), b.used_bytes());
            assert_eq!(a.evictions(), b.evictions());
            for probe in 0..37 {
                assert_eq!(a.contains(probe), b.contains(probe));
            }
        }
    }

    #[test]
    fn iter_lru_replay_reconstructs_eviction_order() {
        let mut original: CacheLru<u32> = CacheLru::new(200);
        original.insert(1, 50, 10);
        original.insert(2, 50, 20);
        original.insert(3, 50, 30);
        original.touch(1); // LRU order is now 2, 3, 1.
        let mut replayed: CacheLru<u32> = CacheLru::new(original.budget());
        for (k, size, v) in original.iter_lru() {
            replayed.insert(k, size, *v);
        }
        assert_eq!(replayed.keys(), original.keys());
        assert_eq!(replayed.used_bytes(), original.used_bytes());
        // Same eviction order: one more insert evicts the same victim.
        original.insert(4, 120, 40);
        replayed.insert(4, 120, 40);
        assert_eq!(replayed.keys(), original.keys());
    }

    #[test]
    fn cache_key_selects_pixel_bearing_commands_over_the_floor() {
        let raw = Message::Display(DisplayCommand::Raw {
            rect: Rect::new(0, 0, 8, 8),
            encoding: RawEncoding::None,
            data: vec![7; 8 * 8 * 3].into(),
        });
        let enc = crate::wire::encode_message(&raw);
        assert!(cache_key(&raw, &enc).is_some());
        // Deterministic: same bytes, same key.
        assert_eq!(cache_key(&raw, &enc), cache_key(&raw, &enc));

        let tiny = Message::Display(DisplayCommand::Raw {
            rect: Rect::new(0, 0, 2, 2),
            encoding: RawEncoding::None,
            data: vec![7; 12].into(),
        });
        let enc = crate::wire::encode_message(&tiny);
        assert!(cache_key(&tiny, &enc).is_none(), "below the size floor");

        let sfill = Message::Display(DisplayCommand::Sfill {
            rect: Rect::new(0, 0, 1024, 768),
            color: Color::WHITE,
        });
        let enc = crate::wire::encode_message(&sfill);
        assert!(cache_key(&sfill, &enc).is_none(), "SFILL is never cached");
    }
}
