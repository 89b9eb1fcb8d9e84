//! Short runs of each workload: the timing wrapper is transparent,
//! the deterministic outputs repeat, and each workload exercises the
//! mechanism it was chosen for.

use thinc_core::ThincServer;

use crate::bench::{Bench, Counts, Shape};
use crate::driver::Timed;
use crate::fanout::Fanout;
use crate::paper::{Video, Web};
use crate::trace;

fn shape(updates: usize, viewers: usize, workers: usize) -> Shape {
    Shape {
        width: 320,
        height: 240,
        updates,
        viewers,
        workers,
        exact_passes: 1,
    }
}

/// Runs one pass with spans on or off; returns its counters, wire
/// digest and failed updates.
fn pass<B: Bench>(mut b: B, seed: u64, traced: bool) -> (Counts, u64, usize) {
    let base = b.counts();
    b.begin_pass(seed);
    trace::set_enabled(traced);
    let failed = (0..b.shape().updates)
        .filter(|&k| b.update(k).failed)
        .count();
    trace::set_enabled(false);
    trace::take();
    let failed = failed + usize::from(!b.end_pass());
    (b.counts().since(&base), b.digest(), failed)
}

#[test]
fn wrapper_is_transparent_on_web() {
    let s = shape(4, 1, 1);
    let plain = pass(Web::new(s, |srv: ThincServer| srv), 11, false);
    let timed = pass(Web::new(s, Timed), 11, true);
    assert_eq!(plain.2, 0);
    assert_eq!(plain, timed, "wire bytes differ with the timing wrapper");
}

#[test]
fn wrapper_is_transparent_on_video() {
    let s = shape(30, 1, 1);
    let plain = pass(Video::new(s, |srv: ThincServer| srv), 5, false);
    let timed = pass(Video::new(s, Timed), 5, true);
    assert_eq!(plain.2, 0);
    assert_eq!(plain, timed, "wire bytes differ with the timing wrapper");
}

#[test]
fn tracing_is_transparent_on_fanout() {
    let s = shape(4, 4, 1);
    let untraced = pass(Fanout::new(s), 9, false);
    let traced = pass(Fanout::new(s), 9, true);
    assert_eq!(untraced.2, 0);
    assert_eq!(untraced, traced);
}

#[test]
fn fanout_is_identical_across_workers() {
    let one = pass(Fanout::new(shape(6, 16, 1)), 21, false);
    let two = pass(Fanout::new(shape(6, 16, 2)), 21, false);
    assert_eq!(one.2, 0);
    assert_eq!(one, two);
}

#[test]
fn runs_repeat_for_one_seed_and_differ_across_seeds() {
    let s = shape(4, 1, 1);
    let a = pass(Web::new(s, Timed), 3, false);
    let b = pass(Web::new(s, Timed), 3, false);
    let c = pass(Web::new(s, Timed), 4, false);
    assert_eq!(a, b);
    assert_ne!(a.1, c.1, "another seed must give other pages");
}

#[test]
fn a_run_covers_its_exact_passes_and_repeats() {
    let s = Shape {
        exact_passes: 2,
        ..shape(3, 1, 1)
    };
    let a = crate::bench::run(|| Web::new(s, Timed), 8, 0.0, false);
    let b = crate::bench::run(|| Web::new(s, Timed), 8, 0.0, true);
    assert_eq!(a.exact.updates, 6);
    assert_eq!(a.updates.len(), 6);
    assert_eq!((a.exact, a.digest), (b.exact, b.digest));
    assert_eq!(crate::bench::failed(&a) + crate::bench::failed(&b), 0);
    assert_eq!(b.updates.iter().filter(|(_, traced)| *traced).count(), 3);
    assert!(!b.spans.is_empty() && a.spans.is_empty());
}

#[test]
fn web_compresses_and_misses_the_cache() {
    let (c, _, failed) = pass(Web::new(shape(13, 1, 1), Timed), 1, false);
    assert_eq!(failed, 0);
    assert!(c.raw_msgs > 0 && c.raw_png_msgs > 0, "{c:?}");
    assert!(c.cache_hits * 10 < c.cache_misses, "{c:?}");
    assert_eq!(c.updates, 13);
}

#[test]
fn fanout_hits_the_cache_and_the_plane() {
    let (c, _, failed) = pass(Fanout::new(shape(8, 4, 1)), 1, false);
    assert_eq!(failed, 0);
    assert!(c.cache_hits > 0, "{c:?}");
    assert!(c.payload_encodes < c.shared_sends, "{c:?}");
    assert_eq!(c.cache_ref_misses, 0);
}

#[test]
fn video_bypasses_compression() {
    let (c, _, failed) = pass(Video::new(shape(30, 1, 1), Timed), 1, false);
    assert_eq!(failed, 0);
    assert_eq!(c.raw_msgs, 0, "{c:?}");
    assert_eq!(c.updates, 30);
}

/// Metric names listed in one section of the repository's
/// `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn reported_metrics_match_benchmark_json() {
    let (c, digest, _) = pass(Web::new(shape(2, 1, 1), Timed), 1, false);
    let o = crate::bench::Outcome {
        setup_s: vec![0.1],
        updates: vec![
            (crate::bench::Update::new(1), false),
            (crate::bench::Update::new(1), true),
        ],
        exact: c,
        digest,
        av_quality: None,
        net_utilization: 0.0,
        shard_epochs: (0.0, 0.0, 0),
        viewers: 1,
        spans: Vec::new(),
        peak_rss_mb: 1.0,
    };
    let names = |m: Vec<crate::bench::Metric>| {
        m.into_iter()
            .map(|(n, _, _)| n.to_string())
            .collect::<Vec<_>>()
    };
    assert_eq!(names(crate::bench::end_to_end(&o).0), listed("end_to_end"));
    assert_eq!(names(crate::bench::per_layer(&o)), listed("per_layer"));
}
