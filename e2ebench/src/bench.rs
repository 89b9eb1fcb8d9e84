//! The measurement loop shared by every workload, and the metrics it
//! reports.
//!
//! A run sets the workload up several times (the median is
//! `setup_s`), then runs whole passes of updates until `--seconds`
//! have passed; pass `p` draws its inputs from seed `S + p`. The
//! first [`Shape::exact_passes`] passes always complete: the
//! deterministic metrics and the wire digest come from them alone, so
//! they repeat exactly for one seed. Wall-clock metrics come from
//! every untraced update of the run.

use std::time::{Duration, Instant};

use crate::stats;
use crate::trace;

/// Geometry and size of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub width: u32,
    pub height: u32,
    /// Updates per pass: pages for `web`/`fanout`, frames for `video`.
    pub updates: usize,
    /// Viewers (`fanout` only; the paper path has one).
    pub viewers: usize,
    /// Flush worker threads (`fanout` only).
    pub workers: usize,
    /// Passes the deterministic metrics cover. More than one where a
    /// single pass's content leaves them spread widely across seeds.
    pub exact_passes: u64,
}

/// Wall-clock accounting of one update.
#[derive(Debug, Clone)]
pub struct Update {
    /// Time in `display`, `core` and `protocol.encode`.
    pub server_ns: u64,
    /// `StreamClient::feed` time, per viewer.
    pub client_ns: Vec<u64>,
    /// The whole update, from the first server call to the last feed.
    pub total_ns: u64,
    pub failed: bool,
}

impl Update {
    pub fn new(viewers: usize) -> Self {
        Self {
            server_ns: 0,
            client_ns: vec![0; viewers],
            total_ns: 0,
            failed: false,
        }
    }

    /// Pixels to pixels: server time plus the slowest viewer's client
    /// time (viewers are separate machines).
    pub fn latency_ns(&self) -> u64 {
        self.server_ns + self.client_ns.iter().copied().max().unwrap_or(0)
    }
}

macro_rules! counts {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Cumulative deterministic counters of a workload.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct Counts { $($(#[$doc])* pub $field: u64,)* }

        impl Counts {
            /// Field-wise `self - base`.
            pub fn since(&self, base: &Counts) -> Counts {
                Counts { $($field: self.$field - base.$field,)* }
            }
        }
    };
}

counts! {
    /// Updates completed.
    updates,
    /// Wire bytes fed to viewers (every viewer counted).
    wire_bytes,
    /// Sum over updates of the virtual-time latency, µs.
    sim_us,
    /// Server flush calls (`flush` or `flush_epoch`).
    flush_calls,
    /// RAW messages emitted, their uncompressed and sent sizes, and
    /// how many were sent `PngLike`.
    raw_msgs,
    raw_in_bytes,
    raw_out_bytes,
    raw_png_msgs,
    /// Translator counters (single-client server only).
    raw_fallback_bytes,
    offscreen_queued,
    /// Scheduler counters (single-client server only).
    merges,
    evictions,
    splits,
    /// Cache references the viewers resolved, bytes those saved, and
    /// references they could not resolve.
    cache_hits,
    cache_saved_bytes,
    cache_ref_misses,
    /// Cacheable payloads (RAW, PFILL, BITMAP of at least the cache's
    /// minimum size) the server sent in full.
    cache_misses,
    /// Encode-once plane (`fanout` only).
    shared_sends,
    payload_encodes,
    /// Simulated downlink bytes, all viewers.
    net_bytes,
    /// Sum over updates of the largest queued-command backlog.
    backlog_sum,
    /// Viewer decode errors.
    decode_errors,
}

/// One workload, driven update by update.
pub trait Bench {
    fn shape(&self) -> Shape;
    /// Makes the inputs of a pass from `seed`.
    fn begin_pass(&mut self, seed: u64);
    /// Runs update `k` of the pass: untimed input generation, the
    /// timed server and client work, then the untimed correctness
    /// check.
    fn update(&mut self, k: usize) -> Update;
    /// Finishes a pass; `false` when a viewer failed to converge.
    fn end_pass(&mut self) -> bool;
    fn counts(&self) -> Counts;
    /// FNV-1a 64 over every wire byte delivered so far.
    fn digest(&self) -> u64;
    /// Paper A/V quality of the first pass, 0–1 (`video` only).
    fn av_quality(&self) -> Option<f64> {
        None
    }
    /// Mean simulated downlink utilization so far, 0–1.
    fn net_utilization(&self) -> f64;
    /// (sum over epochs of the slowest shard's flush µs, sum of the
    /// mean shard's, epochs) for the sharded path.
    fn shard_epochs(&self) -> (f64, f64, u64) {
        (0.0, 0.0, 0)
    }
}

/// Everything a run measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// Every update, with whether it was traced.
    pub updates: Vec<(Update, bool)>,
    /// Counters over the first `exact_passes` passes.
    pub exact: Counts,
    pub digest: u64,
    pub av_quality: Option<f64>,
    pub net_utilization: f64,
    pub shard_epochs: (f64, f64, u64),
    pub viewers: usize,
    pub spans: Vec<trace::Span>,
    pub peak_rss_mb: f64,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Sets the workload up [`SETUPS`] times, then measures for
/// `seconds`. With `traced`, every other update records spans.
pub fn run<B: Bench>(setup: impl Fn() -> B, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let t = Instant::now();
        let b = setup();
        setup_s.push(t.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut b = bench.expect("at least one setup");
    let base = b.counts();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut updates = Vec::new();
    let mut exact = None;
    let mut pass = 0u64;
    'run: loop {
        b.begin_pass(seed.wrapping_add(pass));
        for k in 0..b.shape().updates {
            if exact.is_some() && Instant::now() >= deadline {
                break 'run;
            }
            let id = updates.len() as u64;
            // Alternate by page and by pass, so every page is traced in
            // about half the passes.
            let on = traced && (k as u64 + pass) % 2 == 1;
            trace::set_update(id);
            trace::set_enabled(on);
            let u = b.update(k);
            trace::set_enabled(false);
            updates.push((u, on));
        }
        if !b.end_pass() {
            if let Some((u, _)) = updates.last_mut() {
                u.failed = true;
            }
        }
        pass += 1;
        if pass == b.shape().exact_passes {
            exact = Some((
                b.counts().since(&base),
                b.digest(),
                b.av_quality(),
                b.net_utilization(),
            ));
        }
        if exact.is_some() && Instant::now() >= deadline {
            break;
        }
    }
    let (exact, digest, av_quality, net_utilization) = exact.expect("exact passes complete");
    Outcome {
        setup_s,
        updates,
        exact,
        digest,
        av_quality,
        net_utilization,
        shard_epochs: b.shard_epochs(),
        viewers: b.shape().viewers,
        spans: trace::take(),
        peak_rss_mb: peak_rss_mb(),
    }
}

/// Peak resident set (VmHWM) of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A named metric with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Latency samples (ms) of the untraced or the traced updates.
fn latencies_ms(o: &Outcome, traced: bool) -> Vec<f64> {
    let mut v: Vec<f64> = o
        .updates
        .iter()
        .filter(|(_, t)| *t == traced)
        .map(|(u, _)| u.latency_ns() as f64 / 1e6)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The end-to-end metrics, from untraced updates and the exact passes.
/// Also returns the tail percentile and its sample count.
pub fn end_to_end(o: &Outcome) -> (Vec<Metric>, f64, usize) {
    let lat = latencies_ms(o, false);
    let untraced: Vec<&Update> = o
        .updates
        .iter()
        .filter(|(_, t)| !t)
        .map(|(u, _)| u)
        .collect();
    let n = untraced.len() as f64;
    let total_s = untraced.iter().map(|u| u.total_ns).sum::<u64>() as f64 / 1e9;
    let server_ms = untraced.iter().map(|u| u.server_ns).sum::<u64>() as f64 / 1e6;
    let client_ms = untraced.iter().flat_map(|u| &u.client_ns).sum::<u64>() as f64 / 1e6;
    let (tail_p, tail) = stats::tail(&lat);
    let f = &o.exact;
    let metrics = vec![
        ("setup_s", stats::median(&o.setup_s), "s"),
        ("update_ms_p50", stats::percentile(&lat, 50.0), "ms"),
        ("update_ms_tail", tail, "ms"),
        ("updates_per_s", n / total_s, "1/s"),
        ("server_ms_per_update", server_ms / n, "ms"),
        (
            "client_ms_per_update",
            client_ms / (n * o.viewers as f64),
            "ms",
        ),
        (
            "wire_kb_per_update",
            per(f.wire_bytes, f.updates) / 1024.0,
            "KB",
        ),
        ("sim_update_ms", per(f.sim_us, f.updates) / 1000.0, "sim_ms"),
        ("peak_rss_mb", o.peak_rss_mb, "MB"),
    ];
    (metrics, tail_p, lat.len())
}

/// Updates that failed.
pub fn failed(o: &Outcome) -> usize {
    o.updates.iter().filter(|(u, _)| u.failed).count()
}

/// The spans nested in each `update` span; their self times plus the
/// update's own self time (unattributed) make up the update.
const LAYERS: [&str; 6] = [
    "display",
    "core.translate",
    "core.input",
    "core.flush",
    "protocol.encode",
    "client.feed",
];

/// The per-layer metrics, from the traced updates' spans and the
/// exact passes.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let totals = trace::totals(&o.spans);
    let get = |name: &str| {
        totals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    };
    let traced = o.updates.iter().filter(|(_, t)| *t).count().max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / traced;
    let allocs = |name: &str| get(name).self_allocs as f64 / traced;
    let ns_per_byte = |name: &str| {
        let t = get(name);
        if t.bytes == 0 {
            0.0
        } else {
            t.total_ns as f64 / t.bytes as f64
        }
    };
    let f = &o.exact;
    let pu = |n: u64| per(n, f.updates);
    let kb = |n: u64| per(n, f.updates) / 1024.0;
    let update = get("update");
    let attributed: u64 = LAYERS.iter().map(|n| get(n).self_ns).sum();
    let p50 = |traced| stats::percentile(&latencies_ms(o, traced), 50.0);
    let (shard_max, shard_mean, epochs) = o.shard_epochs;
    vec![
        ("display.self_ms", ms(get("display").self_ns), "ms"),
        ("display.allocs", allocs("display"), "count"),
        (
            "core.translate_ms",
            ms(get("core.translate").total_ns),
            "ms",
        ),
        ("core.translate.allocs", allocs("core.translate"), "count"),
        (
            "core.translate.raw_fallback_kb",
            kb(f.raw_fallback_bytes),
            "KB",
        ),
        (
            "core.translate.offscreen_queued",
            pu(f.offscreen_queued),
            "count",
        ),
        ("core.scheduler.merges", pu(f.merges), "count"),
        ("core.scheduler.evictions", pu(f.evictions), "count"),
        ("core.scheduler.splits", pu(f.splits), "count"),
        ("core.input_ms", ms(get("core.input").total_ns), "ms"),
        ("core.flush_ms", ms(get("core.flush").total_ns), "ms"),
        (
            "core.flush_ns_per_raw_byte",
            ns_per_byte("core.flush"),
            "ns/B",
        ),
        ("core.flush_calls", pu(f.flush_calls), "count"),
        ("core.flush.allocs", allocs("core.flush"), "count"),
        ("core.backlog_peak", pu(f.backlog_sum), "count"),
        ("compress.raw_msgs", pu(f.raw_msgs), "count"),
        ("compress.raw_in_kb", kb(f.raw_in_bytes), "KB"),
        ("compress.raw_out_kb", kb(f.raw_out_bytes), "KB"),
        (
            "compress.kept_frac",
            per(f.raw_png_msgs, f.raw_msgs),
            "ratio",
        ),
        ("cache.hits", pu(f.cache_hits), "count"),
        ("cache.misses", pu(f.cache_misses), "count"),
        (
            "cache.hit_ratio",
            per(f.cache_hits, f.cache_hits + f.cache_misses),
            "ratio",
        ),
        ("cache.kb_saved", kb(f.cache_saved_bytes), "KB"),
        ("cache.ref_misses", pu(f.cache_ref_misses), "count"),
        ("plane.shared_sends", pu(f.shared_sends), "count"),
        ("plane.payload_encodes", pu(f.payload_encodes), "count"),
        (
            "plane.hit_ratio",
            per(
                f.shared_sends.saturating_sub(f.payload_encodes),
                f.shared_sends,
            ),
            "ratio",
        ),
        (
            "shard.epoch_ms_max",
            if epochs == 0 {
                0.0
            } else {
                shard_max / epochs as f64 / 1e3
            },
            "ms",
        ),
        (
            "shard.imbalance",
            if shard_mean == 0.0 {
                0.0
            } else {
                shard_max / shard_mean
            },
            "ratio",
        ),
        (
            "protocol.encode_ms",
            ms(get("protocol.encode").total_ns),
            "ms",
        ),
        (
            "protocol.encode_ns_per_byte",
            ns_per_byte("protocol.encode"),
            "ns/B",
        ),
        ("protocol.encode.allocs", allocs("protocol.encode"), "count"),
        ("client.feed_ms", ms(get("client.feed").total_ns), "ms"),
        (
            "client.feed_ns_per_byte",
            ns_per_byte("client.feed"),
            "ns/B",
        ),
        ("client.feed.allocs", allocs("client.feed"), "count"),
        ("client.decode_errors", pu(f.decode_errors), "count"),
        ("net.kb_down", kb(f.net_bytes), "KB"),
        ("net.sim_utilization", o.net_utilization, "ratio"),
        ("trace.update_ms", ms(update.total_ns), "ms"),
        ("trace.unattributed_ms", ms(update.self_ns), "ms"),
        (
            "trace.attributed_pct",
            100.0 * per(attributed, update.total_ns),
            "%",
        ),
        (
            "trace.overhead_pct",
            100.0 * (p50(true) / p50(false) - 1.0),
            "%",
        ),
    ]
}
