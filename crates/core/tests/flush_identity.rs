//! Flush identity: the messages a `ClientBuffer` delivers through a
//! throttled socket are pinned byte for byte.
//!
//! Flush-time RAW compression stops early when its result cannot be
//! sent (it would be no smaller than the raw payload, or larger than
//! the socket's writable space). That must never change what goes on
//! the wire. Each scenario drains large compressible and
//! incompressible RAWs, a clipped multi-part RAW, and a RAW repeated
//! when the socket is nearly full, through a small send buffer in slow
//! start or a lossy WAN, with the cache off, with it on, and through a
//! shared `WirePlane`. The digest covers every delivered message's
//! arrival time and encoded bytes, in order.
//!
//! The expected digests were captured by running these scenarios at
//! commit 5cf3c8b, whose flush compressed every RAW whole before it
//! checked the socket, and printing `run`'s result.

use thinc_core::{ClientBuffer, PlaneCounters, WirePlane};
use thinc_net::link::NetworkConfig;
use thinc_net::tcp::{TcpParams, TcpPipe};
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::PacketTrace;
use thinc_protocol::wire::encode_message;
use thinc_protocol::{fnv64, DisplayCommand, RawEncoding};
use thinc_raster::{Color, Rect};

/// Flush period of the drain loop (as in the paper harness): most
/// flushes find the socket partly full.
const TICK: SimDuration = SimDuration(2_000);

fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as u8
        })
        .collect()
}

/// A light gradient page with dark text-like specks: compresses well,
/// but not to nothing.
fn page(w: u32, h: u32, seed: u64) -> Vec<u8> {
    let specks = noise((w * h) as usize, seed);
    let mut data = Vec::with_capacity((w * h * 3) as usize);
    for y in 0..h {
        for x in 0..w {
            let i = (y * w + x) as usize;
            let v = if specks[i].is_multiple_of(13) { 0x20 } else { 0xE0 - (y / 4) as u8 };
            data.extend_from_slice(&[v, v, v.wrapping_add(x as u8 / 16)]);
        }
    }
    data
}

fn raw(x: i32, y: i32, w: u32, h: u32, data: Vec<u8>) -> DisplayCommand {
    DisplayCommand::Raw {
        rect: Rect::new(x, y, w, h),
        encoding: RawEncoding::None,
        data: data.into(),
    }
}

/// A 64 KiB send buffer with a 2 ms RTT, starting in slow start.
fn small_socket() -> TcpPipe {
    TcpPipe::new(TcpParams {
        bandwidth_bps: 100_000_000,
        rtt: SimDuration::from_millis(2),
        rwnd_bytes: 64 * 1024,
        sndbuf_bytes: 64 * 1024,
        ..TcpParams::default()
    })
}

fn lossy_wan() -> TcpPipe {
    NetworkConfig::lossy_wan().connect().down
}

enum Op {
    Push(DisplayCommand),
    /// One flush round at the current time.
    Flush,
    /// Advance time without flushing.
    Wait(SimDuration),
    /// Flush every `TICK` until every buffer is empty.
    Drain,
}

fn script() -> Vec<Op> {
    let repeated = raw(700, 0, 256, 128, page(256, 128, 3));
    vec![
        // A large compressible RAW, clipped into several parts by a
        // fill over its middle, then a large incompressible one.
        Op::Push(raw(0, 0, 640, 400, page(640, 400, 1))),
        Op::Push(DisplayCommand::Sfill {
            rect: Rect::new(100, 100, 200, 150),
            color: Color::rgb(9, 99, 199),
        }),
        Op::Push(raw(0, 400, 512, 200, noise(512 * 200 * 3, 2))),
        Op::Drain,
        // A medium compressible RAW sent whole into an empty socket...
        Op::Wait(SimDuration::from_millis(200)),
        Op::Push(repeated.clone()),
        Op::Drain,
        // ...then sent again right after noise nearly fills the
        // socket: a cache hit must still go out as a reference.
        Op::Wait(SimDuration::from_millis(200)),
        Op::Push(raw(0, 700, 150, 130, noise(150 * 130 * 3, 4))),
        Op::Flush,
        Op::Push(repeated),
        Op::Flush,
        Op::Drain,
    ]
}

/// Runs the script against one buffer per pipe (all fed the same
/// commands) and returns the digest of everything delivered.
fn run(pipes: Vec<TcpPipe>, cache: bool, shared_plane: bool) -> (u64, Vec<ClientBuffer>) {
    let mut viewers: Vec<(ClientBuffer, TcpPipe, PacketTrace)> = pipes
        .into_iter()
        .map(|pipe| {
            let mut buf = ClientBuffer::new().with_raw_compression(3);
            if cache {
                buf.enable_cache(8 << 20);
            }
            (buf, pipe, PacketTrace::new())
        })
        .collect();
    let mut now = SimTime::ZERO;
    let mut stream = Vec::new();
    let mut flush = |viewers: &mut Vec<(ClientBuffer, TcpPipe, PacketTrace)>, now: SimTime| {
        let plane = WirePlane::new();
        for (i, (buf, pipe, trace)) in viewers.iter_mut().enumerate() {
            buf.set_time(now);
            let plane = shared_plane.then_some(&plane);
            let batch =
                buf.flush_shared(now, pipe, trace, plane, &mut PlaneCounters::default());
            for (arrival, msg) in batch {
                stream.push(i as u8);
                stream.extend_from_slice(&arrival.0.to_le_bytes());
                stream.extend_from_slice(&encode_message(&msg));
            }
        }
    };
    for op in script() {
        match op {
            Op::Push(cmd) => {
                for (buf, _, _) in viewers.iter_mut() {
                    buf.set_time(now);
                    buf.push(cmd.clone(), false);
                }
            }
            Op::Flush => flush(&mut viewers, now),
            Op::Wait(d) => now += d,
            Op::Drain => {
                for _ in 0..100_000 {
                    flush(&mut viewers, now);
                    if viewers.iter().all(|(buf, _, _)| buf.is_empty()) {
                        break;
                    }
                    now += TICK;
                }
                assert!(viewers.iter().all(|(buf, _, _)| buf.is_empty()), "did not drain");
            }
        }
    }
    (fnv64(&stream), viewers.into_iter().map(|(buf, _, _)| buf).collect())
}

fn cache_hits(buf: &ClientBuffer) -> u64 {
    buf.cache_counts().0
}

#[test]
fn small_socket_without_cache() {
    let (digest, bufs) = run(vec![small_socket()], false, false);
    assert!(bufs[0].stats().splits > 0);
    assert_eq!(digest, 0xb2327995e26e806d, "{digest:#x}");
}

#[test]
fn small_socket_with_cache() {
    let (digest, bufs) = run(vec![small_socket()], true, false);
    assert!(cache_hits(&bufs[0]) > 0);
    assert_eq!(digest, 0xb382fa8d132cbc55, "{digest:#x}");
}

#[test]
fn lossy_wan_with_cache() {
    let (digest, bufs) = run(vec![lossy_wan()], true, false);
    assert!(bufs[0].stats().splits > 0);
    assert_eq!(digest, 0x1912b66924bd3ed9, "{digest:#x}");
}

#[test]
fn shared_plane_with_cache() {
    let (digest, _) = run(vec![small_socket(), lossy_wan()], true, true);
    assert_eq!(digest, 0x2f014b95c8a0be6c, "{digest:#x}");
}
