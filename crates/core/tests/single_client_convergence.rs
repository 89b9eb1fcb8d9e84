//! Seeded convergence property of the single-client path: a random
//! script of fills, images, text and screen-to-screen copies drawn
//! through `ThincServer` with a bounded display buffer, a viewport
//! change (a resize or a zoom, later undone), and a bandwidth
//! collapse on the link that walks the degradation ladder down and
//! back up. After the drain and debt repayment, the client
//! framebuffer must equal the screen byte for byte.
//!
//! Every flushed message reaches two clients: a `ThincClient` that
//! applies it directly and a `StreamClient` fed its encoded frame.
//! The cache-on run negotiates the current protocol version first and
//! draws its script twice, so refs, misses and the mirrored store are
//! in play; both clients must end byte-exact with equal store keys.
//!
//! Small byte bounds make overflow evictions, and with them COPYs
//! over unpaid refresh debt, common. The ladder runs its default
//! hysteresis: with a hair-trigger ladder (one epoch to demote, one
//! to promote) and a bound below one full-view RAW, every promotion's
//! refresh evicts itself and the ladder never settles (see
//! `ROADMAP.md`).

use proptest::prelude::*;
use thinc_core::degradation::{DegradationConfig, DegradationLevel};
use thinc_core::server::{ServerConfig, ThincServer};
use thinc_display::request::DrawRequest;
use thinc_display::server::WindowServer;
use thinc_display::SCREEN;
use thinc_net::fault::FaultPlan;
use thinc_net::link::NetworkConfig;
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::PacketTrace;
use thinc_protocol::message::Message;
use thinc_protocol::PROTOCOL_VERSION;
use thinc_raster::{Color, PixelFormat, Rect};

const W: u32 = 96;
const H: u32 = 64;

/// A rectangle inside the screen.
fn rect() -> impl Strategy<Value = Rect> {
    (0..W as i32 - 4, 0..H as i32 - 4, 4..48u32, 4..40u32).prop_map(|(x, y, w, h)| {
        Rect::new(x, y, w.min(W - x as u32), h.min(H - y as u32))
    })
}

fn draw() -> impl Strategy<Value = DrawRequest> {
    prop_oneof![
        (rect(), any::<u32>()).prop_map(|(rect, c)| DrawRequest::FillRect {
            target: SCREEN,
            rect,
            color: Color::rgb(c as u8, (c >> 8) as u8, (c >> 16) as u8),
        }),
        (rect(), any::<u64>()).prop_map(|(rect, salt)| {
            let mut x = salt | 1;
            let data = (0..rect.w * rect.h * 3)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (x >> 56) as u8
                })
                .collect();
            DrawRequest::PutImage { target: SCREEN, rect, data }
        }),
        (0..W as i32 - 8, 0..H as i32 - 8, any::<u8>()).prop_map(|(x, y, c)| DrawRequest::Text {
            target: SCREEN,
            x,
            y,
            text: "thinc".into(),
            fg: Color::rgb(c, 255 - c, c / 2),
        }),
        (rect(), 0..W as i32 - 4, 0..H as i32 - 4).prop_map(|(src_rect, dst_x, dst_y)| {
            DrawRequest::CopyArea { src: SCREEN, dst: SCREEN, src_rect, dst_x, dst_y }
        }),
    ]
}

/// The viewport change a case makes and later undoes: a smaller
/// viewport, or a zoom onto part of the screen.
fn viewport_change() -> impl Strategy<Value = Message> {
    prop_oneof![
        (8..W, 8..H).prop_map(|(viewport_width, viewport_height)| Message::Resize {
            viewport_width,
            viewport_height,
        }),
        rect().prop_map(|view| Message::SetView { view }),
    ]
}

/// How one run ended.
struct Outcome {
    /// Bytes in which the directly applied client differs from the
    /// screen.
    applied_diff: usize,
    /// The same for the wire-fed client.
    fed_diff: usize,
    /// Whether both clients' content stores hold the same keys.
    same_store: bool,
}

/// Runs one script; `cached` negotiates the current protocol version
/// (and with it the content cache) before the first draw.
fn run(
    ops: Vec<DrawRequest>,
    change: Message,
    (change_at, undo_at): (usize, usize),
    bound: u64,
    (fault_seed, collapse_ms): (u64, u64),
    cached: bool,
) -> Outcome {
    let thinc = ThincServer::new(ServerConfig {
        width: W,
        height: H,
        compress_raw: false,
        buffer_bound_bytes: Some(bound),
        degradation: Some(DegradationConfig::default()),
        ..ServerConfig::default()
    });
    let mut ws = WindowServer::new(W, H, PixelFormat::Rgb888, thinc);
    let plan = FaultPlan::seeded(fault_seed).with_collapse(
        SimTime(20_000),
        SimDuration::from_millis(collapse_ms),
        0.01,
    );
    let mut link = NetworkConfig::lan_desktop().with_faults(plan).connect();
    let mut trace = PacketTrace::new();
    let mut client = thinc_client::ThincClient::new(W, H, PixelFormat::Rgb888);
    let mut fed = thinc_client::StreamClient::new(W, H, PixelFormat::Rgb888);
    if cached {
        let hello = ws.driver().hello();
        fed.feed(&ws.driver_mut().encode_frame(&hello));
        ws.driver_mut().handle_message(&Message::ClientHello {
            version: PROTOCOL_VERSION,
            viewport_width: W,
            viewport_height: H,
        });
    }
    // Delivers one flush to both clients and forwards the cache
    // misses they owe (the same ones) to the server.
    let mut deliver = |ws: &mut WindowServer<ThincServer>, batch: Vec<(SimTime, Message)>| {
        for (_, m) in batch {
            client.apply(&m);
            fed.feed(&ws.driver_mut().encode_frame(&m));
        }
        while let Some(miss) = client.take_cache_miss() {
            assert_eq!(fed.take_cache_miss().as_ref(), Some(&miss));
            ws.driver_mut().handle_message(&miss);
        }
        assert_eq!(fed.take_cache_miss(), None);
    };
    let mut now = SimTime::ZERO;
    let undo = match change {
        Message::Resize { .. } => Message::Resize { viewport_width: W, viewport_height: H },
        _ => Message::SetView { view: Rect::new(0, 0, W, H) },
    };
    // The cache-on run draws the script twice, so the second pass
    // repaints content the client already holds.
    let passes = if cached { 2 } else { 1 };
    let len = ops.len();
    for (i, op) in ops.into_iter().cycle().take(len * passes).enumerate() {
        if i == change_at {
            ws.driver_mut().handle_message(&change);
        }
        if i == undo_at {
            // Back at full view the client holds scaled content: the
            // harness refreshes the view, as after a zoom.
            ws.driver_mut().handle_message(&undo);
            let screen = ws.screen().clone();
            ws.driver_mut().refresh_view(&screen);
        }
        ws.driver_mut().set_time(now);
        ws.process(op);
        let batch = ws.driver_mut().flush(now, &mut link.down, &mut trace);
        deliver(&mut ws, batch);
        now += SimDuration::from_millis(20);
    }
    // Drain: past the collapse window every clear epoch climbs a
    // rung; each transition owes a refresh, repaid with the debt.
    for _ in 0..400 {
        let batch = ws.driver_mut().flush(now, &mut link.down, &mut trace);
        deliver(&mut ws, batch);
        let screen = ws.screen().clone();
        ws.driver_mut().repay_overflow_debt(&screen);
        let s = ws.driver();
        if s.display_backlog() == 0
            && !s.overflow_debt_outstanding()
            && s.degradation_level() == DegradationLevel::Full
        {
            break;
        }
        now = link.down.tx_free_at().max(now + SimDuration::from_millis(20));
    }
    assert_eq!(ws.driver().display_backlog(), 0, "the drain must finish");
    let want = ws.screen().data();
    let diff = |got: &[u8]| got.iter().zip(want).filter(|(a, b)| a != b).count();
    Outcome {
        applied_diff: diff(client.framebuffer().data()),
        fed_diff: diff(fed.client().framebuffer().data()),
        same_store: client.cache_keys() == fed.cache_keys(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every mixed script converges byte-exact on the single-client
    /// path.
    #[test]
    fn single_client_converges_byte_exact(
        ops in prop::collection::vec(draw(), 8..40),
        change in viewport_change(),
        at in (0..8usize, 8..40usize),
        bound in 2_048..16_384u64,
        fault in (any::<u64>(), 40..400u64),
    ) {
        let undo_at = at.1.min(ops.len() - 1);
        let out = run(ops, change, (at.0, undo_at), bound, fault, false);
        prop_assert_eq!(out.applied_diff, 0, "client differs from the screen in {} bytes", out.applied_diff);
        prop_assert_eq!(out.fed_diff, 0, "wire-fed client differs in {} bytes", out.fed_diff);
    }

    /// The same with the content cache on: both clients resolve the
    /// same references against equal stores.
    #[test]
    fn single_client_converges_byte_exact_with_cache(
        ops in prop::collection::vec(draw(), 8..40),
        change in viewport_change(),
        at in (0..8usize, 8..40usize),
        bound in 2_048..16_384u64,
        fault in (any::<u64>(), 40..400u64),
    ) {
        let undo_at = at.1.min(ops.len() - 1);
        let out = run(ops, change, (at.0, undo_at), bound, fault, true);
        prop_assert_eq!(out.applied_diff, 0, "client differs from the screen in {} bytes", out.applied_diff);
        prop_assert_eq!(out.fed_diff, 0, "wire-fed client differs in {} bytes", out.fed_diff);
        prop_assert!(out.same_store, "the two clients' stores diverged");
    }
}
