//! End-to-end integration: random application workloads through the
//! complete THINC pipeline — window server, translation layer,
//! scheduler, wire encoding, RC4, frame reassembly, client execution —
//! verified by byte-comparing the client framebuffer against the
//! server screen.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use thinc::client::ThincClient;
use thinc::compress::Rc4;
use thinc::core::server::{ServerConfig, ThincServer};
use thinc::display::drawable::DrawableId;
use thinc::display::request::{DrawRequest, RequestResult};
use thinc::display::server::WindowServer;
use thinc::display::SCREEN;
use thinc::net::link::NetworkConfig;
use thinc::net::time::SimTime;
use thinc::net::trace::PacketTrace;
use thinc::protocol::wire::{encode_message, FrameReader};
use thinc::raster::{Color, PixelFormat, Rect};

const KEY: &[u8] = b"integration-test-key";

struct Pipeline {
    ws: WindowServer<ThincServer>,
    client: ThincClient,
    link: thinc::net::link::DuplexLink,
    trace: PacketTrace,
    server_rc4: Rc4,
    client_rc4: Rc4,
    reader: FrameReader,
    now: SimTime,
}

impl Pipeline {
    fn new(w: u32, h: u32, net: &NetworkConfig) -> Self {
        let config = ServerConfig {
            width: w,
            height: h,
            rc4_key: Some(KEY.to_vec()),
            ..ServerConfig::default()
        };
        Self {
            ws: WindowServer::new(w, h, PixelFormat::Rgb888, ThincServer::new(config)),
            client: ThincClient::new(w, h, PixelFormat::Rgb888),
            link: net.connect(),
            trace: PacketTrace::new(),
            server_rc4: Rc4::new(KEY),
            client_rc4: Rc4::new(KEY),
            reader: FrameReader::new(),
            now: SimTime::ZERO,
        }
    }

    fn pump_to_client(&mut self) {
        for _ in 0..100_000 {
            let batch = self
                .ws
                .driver_mut()
                .flush(self.now, &mut self.link.down, &mut self.trace);
            for (_arrival, msg) in &batch {
                let mut bytes = encode_message(msg);
                self.server_rc4.apply(&mut bytes);
                self.client_rc4.apply(&mut bytes);
                self.reader.feed(&bytes);
                while let Some(m) = self.reader.next_message().expect("valid wire stream") {
                    self.client.apply(&m);
                }
            }
            if self.ws.driver().display_backlog() == 0 && self.ws.driver().av_backlog() == 0 {
                break;
            }
            self.now = self
                .link
                .down
                .tx_free_at()
                .max(self.now + thinc::net::time::SimDuration::from_millis(1));
        }
        assert_eq!(self.ws.driver().display_backlog(), 0, "backlog did not drain");
    }

    fn assert_synced(&self, context: &str) {
        assert_eq!(
            self.client.framebuffer().checksum(),
            self.ws.screen().checksum(),
            "client != server after {context}"
        );
    }
}

fn random_color(rng: &mut StdRng) -> Color {
    Color::rgb(rng.gen(), rng.gen(), rng.gen())
}

fn random_rect(rng: &mut StdRng, w: u32, h: u32) -> Rect {
    let x = rng.gen_range(-8..w as i32);
    let y = rng.gen_range(-8..h as i32);
    Rect::new(x, y, rng.gen_range(1..=w / 2), rng.gen_range(1..=h / 2))
}

/// Random drawing requests, onscreen and offscreen, with copies
/// between every kind of drawable.
fn random_requests(
    rng: &mut StdRng,
    w: u32,
    h: u32,
    pixmaps: &mut [DrawableId],
    out: &mut Vec<DrawRequest>,
    n: usize,
) {
    for _ in 0..n {
        let target = if !pixmaps.is_empty() && rng.gen_bool(0.4) {
            pixmaps[rng.gen_range(0..pixmaps.len())]
        } else {
            SCREEN
        };
        match rng.gen_range(0..7) {
            0 => out.push(DrawRequest::FillRect {
                target,
                rect: random_rect(rng, w, h),
                color: random_color(rng),
            }),
            1 => {
                let r = random_rect(rng, w, h);
                let bytes = (r.w * r.h * 3) as usize;
                out.push(DrawRequest::PutImage {
                    target,
                    rect: r,
                    data: (0..bytes).map(|_| rng.gen()).collect(),
                });
            }
            2 => {
                let r = random_rect(rng, w, h);
                let row_bytes = (r.w as usize).div_ceil(8);
                out.push(DrawRequest::StippleRect {
                    target,
                    rect: r,
                    bits: (0..row_bytes * r.h as usize).map(|_| rng.gen()).collect(),
                    fg: random_color(rng),
                    bg: if rng.gen_bool(0.5) {
                        Some(random_color(rng))
                    } else {
                        None
                    },
                });
            }
            3 => out.push(DrawRequest::Text {
                target,
                x: rng.gen_range(0..w as i32),
                y: rng.gen_range(0..h as i32),
                text: "integration test".chars().take(rng.gen_range(1..16)).collect(),
                fg: random_color(rng),
            }),
            4 => {
                // Copy within / between drawables.
                let src = if !pixmaps.is_empty() && rng.gen_bool(0.5) {
                    pixmaps[rng.gen_range(0..pixmaps.len())]
                } else {
                    SCREEN
                };
                out.push(DrawRequest::CopyArea {
                    src,
                    dst: target,
                    src_rect: random_rect(rng, w, h),
                    dst_x: rng.gen_range(-4..w as i32),
                    dst_y: rng.gen_range(-4..h as i32),
                });
            }
            5 => {
                if !pixmaps.is_empty() && rng.gen_bool(0.6) {
                    // Copy a pixmap onscreen (the offscreen execution
                    // path).
                    let src = pixmaps[rng.gen_range(0..pixmaps.len())];
                    out.push(DrawRequest::CopyArea {
                        src,
                        dst: SCREEN,
                        src_rect: random_rect(rng, w, h),
                        dst_x: rng.gen_range(0..w as i32),
                        dst_y: rng.gen_range(0..h as i32),
                    });
                }
            }
            _ => out.push(DrawRequest::FillRect {
                target: SCREEN,
                rect: random_rect(rng, w, h),
                color: random_color(rng),
            }),
        }
    }
}

#[test]
fn random_workload_client_matches_server_lan() {
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = Pipeline::new(96, 72, &NetworkConfig::lan_desktop());
        let mut pixmaps = Vec::new();
        for round in 0..6 {
            // Occasionally create/free pixmaps.
            if rng.gen_bool(0.7) {
                if let RequestResult::Created(id) = p.ws.process(DrawRequest::CreatePixmap {
                    width: rng.gen_range(8..64),
                    height: rng.gen_range(8..64),
                }) {
                    pixmaps.push(id);
                }
            }
            let mut reqs = Vec::new();
            random_requests(&mut rng, 96, 72, &mut pixmaps, &mut reqs, 25);
            p.ws.process_all(reqs);
            p.pump_to_client();
            p.assert_synced(&format!("seed {seed} round {round}"));
        }
    }
}

#[test]
fn random_workload_client_matches_server_wan_with_splits() {
    // High-latency, small-window path: flushes split large commands
    // and spread over many rounds; the result must still converge.
    let net = NetworkConfig::custom(
        "tight",
        2_000_000,
        thinc::net::time::SimDuration::from_millis(40),
        32 * 1024,
    );
    for seed in 100..103u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = Pipeline::new(96, 72, &net);
        let mut pixmaps = Vec::new();
        let mut reqs = Vec::new();
        random_requests(&mut rng, 96, 72, &mut pixmaps, &mut reqs, 40);
        p.ws.process_all(reqs);
        p.pump_to_client();
        p.assert_synced(&format!("seed {seed}"));
        assert!(
            p.ws.driver().stats().buffer.splits > 0 || p.trace.total_bytes() < 32 * 1024,
            "expected command splitting on the tight link"
        );
    }
}

#[test]
fn input_driven_realtime_updates_stay_correct() {
    let mut p = Pipeline::new(96, 72, &NetworkConfig::wan_desktop());
    // Click, then interleave feedback near the pointer with bulk
    // updates far away; the scheduler reorders, the final state must
    // still match.
    p.ws.driver_mut()
        .handle_message(&thinc::protocol::message::Message::Input(
            thinc::protocol::message::ProtocolInput::ButtonPress { x: 10, y: 10, button: 1 },
        ));
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..10 {
        let bulk: Vec<u8> = (0..40 * 30 * 3).map(|_| rng.gen()).collect();
        p.ws.process(DrawRequest::PutImage {
            target: SCREEN,
            rect: Rect::new(50, 40, 40, 30),
            data: bulk,
        });
        p.ws.process(DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(8, 8, 6, 6),
            color: random_color(&mut rng),
        });
    }
    p.pump_to_client();
    p.assert_synced("realtime interleaving");
}

#[test]
fn pixmap_free_and_recreate_cycle() {
    let mut p = Pipeline::new(64, 64, &NetworkConfig::lan_desktop());
    for i in 0..10 {
        let id = match p.ws.process(DrawRequest::CreatePixmap { width: 16, height: 16 }) {
            RequestResult::Created(id) => id,
            other => panic!("{other:?}"),
        };
        p.ws.process_all(vec![
            DrawRequest::FillRect {
                target: id,
                rect: Rect::new(0, 0, 16, 16),
                color: Color::rgb(i as u8 * 20, 0, 0),
            },
            DrawRequest::CopyArea {
                src: id,
                dst: SCREEN,
                src_rect: Rect::new(0, 0, 16, 16),
                dst_x: (i % 4) * 16,
                dst_y: (i / 4) * 16,
            },
            DrawRequest::FreePixmap { id },
        ]);
    }
    p.pump_to_client();
    p.assert_synced("pixmap churn");
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let mut rng = StdRng::seed_from_u64(42);
        let mut p = Pipeline::new(96, 72, &NetworkConfig::wan_desktop());
        let mut pixmaps = Vec::new();
        let mut reqs = Vec::new();
        random_requests(&mut rng, 96, 72, &mut pixmaps, &mut reqs, 30);
        p.ws.process_all(reqs);
        p.pump_to_client();
        (
            p.client.framebuffer().checksum(),
            p.trace.total_bytes(),
            p.now,
        )
    };
    assert_eq!(run(), run());
}
