//! Property tests of the TCP flow model: physical sanity (no
//! faster-than-link transfers, FIFO ordering, monotone time) across
//! arbitrary parameter and workload combinations.

use proptest::prelude::*;
use thinc_net::tcp::{TcpParams, TcpPipe};
use thinc_net::time::{SimDuration, SimTime};

fn arb_params() -> impl Strategy<Value = TcpParams> {
    (
        1_000_000u64..1_000_000_000,   // 1 Mbps .. 1 Gbps.
        100u64..300_000,               // 0.1 ms .. 300 ms RTT.
        8u64..2048,                    // 8 KB .. 2 MB window.
    )
        .prop_map(|(bw, rtt_us, rwnd_kb)| TcpParams {
            bandwidth_bps: bw,
            rtt: SimDuration::from_micros(rtt_us),
            rwnd_bytes: rwnd_kb * 1024,
            ..TcpParams::default()
        })
}

proptest! {
    #[test]
    fn transfers_never_beat_the_link(
        params in arb_params(),
        sizes in prop::collection::vec(1u64..2_000_000, 1..20),
    ) {
        let mut pipe = TcpPipe::new(params);
        let total: u64 = sizes.iter().sum();
        let mut last_arrival = SimTime::ZERO;
        for &s in &sizes {
            let (_, arrival) = pipe.send(SimTime::ZERO, s);
            prop_assert!(arrival >= last_arrival, "FIFO ordering violated");
            last_arrival = arrival;
        }
        // Wall time >= pure serialization + half RTT propagation.
        let min_secs = total as f64 * 8.0 / params.bandwidth_bps as f64
            + params.rtt.as_secs_f64() / 2.0;
        prop_assert!(
            last_arrival.as_secs_f64() >= min_secs * 0.999,
            "faster than the link: {} < {}",
            last_arrival.as_secs_f64(),
            min_secs
        );
    }

    #[test]
    fn throughput_never_exceeds_window_cap(
        params in arb_params(),
        bytes in 1_000_000u64..50_000_000,
    ) {
        let mut pipe = TcpPipe::new(params);
        let cap = pipe.throughput_cap_bps() as f64;
        let (_, arrival) = pipe.send(SimTime::ZERO, bytes);
        let achieved = bytes as f64 * 8.0 / arrival.as_secs_f64().max(1e-9);
        // Allow 1% numerical slack.
        prop_assert!(
            achieved <= cap * 1.01,
            "achieved {achieved} bps > cap {cap} bps"
        );
    }

    #[test]
    fn later_sends_never_finish_earlier(
        params in arb_params(),
        batch in prop::collection::vec((0u64..500_000, 0u64..100_000), 2..30),
    ) {
        let mut pipe = TcpPipe::new(params);
        let mut t = SimTime::ZERO;
        let mut prev = SimTime::ZERO;
        for &(size, gap_us) in &batch {
            t += SimDuration::from_micros(gap_us);
            let (departure, arrival) = pipe.send(t, size);
            prop_assert!(departure >= t);
            prop_assert!(arrival >= departure);
            prop_assert!(arrival >= prev, "reordering");
            prev = arrival;
        }
    }

    #[test]
    fn writable_bytes_is_consistent_with_would_block(
        params in arb_params(),
        preload in 0u64..10_000_000,
        probe in 1u64..500_000,
    ) {
        let mut pipe = TcpPipe::new(params);
        if preload > 0 {
            pipe.send(SimTime::ZERO, preload);
        }
        let writable = pipe.writable_bytes(SimTime::ZERO);
        prop_assert_eq!(
            pipe.would_block(SimTime::ZERO, probe),
            writable < probe
        );
        // And the queue always drains eventually.
        let later = pipe.tx_free_at();
        prop_assert!(pipe.writable_bytes(later) >= params.sndbuf_bytes);
    }

    #[test]
    fn warm_connection_is_never_slower(
        params in arb_params(),
        bytes in 10_000u64..2_000_000,
    ) {
        // Cold connection (slow start from scratch).
        let mut cold = TcpPipe::new(params);
        let (_, cold_arrival) = cold.send(SimTime::ZERO, bytes);
        // Warm connection: same transfer after a big priming send.
        let mut warm = TcpPipe::new(params);
        warm.send(SimTime::ZERO, 10_000_000);
        let start = warm.tx_free_at();
        let (_, warm_arrival) = warm.send(start, bytes);
        let cold_dur = cold_arrival - SimTime::ZERO;
        let warm_dur = warm_arrival - start;
        prop_assert!(
            warm_dur.as_micros() <= cold_dur.as_micros() + 1,
            "warm {warm_dur} slower than cold {cold_dur}"
        );
    }
}
