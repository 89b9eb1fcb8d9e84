//! THINC under the benchmark harness.
//!
//! Unlike the baseline *models*, this adapter drives the actual THINC
//! implementation end to end: the window server rasterizes requests
//! and mirrors them to the real [`ThincServer`] driver; the server
//! translates, schedules and flushes over the simulated connection;
//! and a real [`ThincClient`] executes every message, headless as in
//! the paper's §8.1 (nothing looks at its framebuffer but the check) —
//! so the benchmark also continuously verifies that the client
//! framebuffer matches the server screen.

use thinc_baselines::framework::{raster_cost, server_time, CLIENT_HZ};
use thinc_baselines::traits::{AvStats, RemoteDisplay};
use thinc_client::ThincClient;
use thinc_core::server::{ServerConfig, ThincServer};
use thinc_display::request::DrawRequest;
use thinc_display::server::WindowServer;
use thinc_net::link::{DuplexLink, NetworkConfig};
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::{Direction, PacketTrace};
use thinc_protocol::message::{Message, ProtocolInput};
use thinc_protocol::wire::encode_message;
use thinc_raster::{Point, Rect, YuvFrame};
use thinc_telemetry::{SessionTelemetry, Timeline};

/// Flush period of the server's delivery loop.
const FLUSH_PERIOD: SimDuration = SimDuration(2_000);

/// Minimum virtual-time gap between timeline samples of the same
/// metric (bounds the JSONL export to ~100 samples per second of
/// session time).
const TIMELINE_GAP: SimDuration = SimDuration(10_000);

/// The real THINC pipeline behind the harness interface.
pub struct ThincSystem {
    ws: WindowServer<ThincServer>,
    link: DuplexLink,
    trace: PacketTrace,
    client: ThincClient,
    /// Virtual time the in-flight frame update was requested (by a
    /// click); the next display message the client executes closes
    /// the request-to-screen latency sample.
    frame_requested: Option<SimTime>,
    last_arrival: Option<SimTime>,
    frames_sent: u32,
    frames_delivered: u32,
    audio_bytes: u64,
    timeline: Timeline,
    net_metrics: thinc_telemetry::NetMetrics,
}

impl ThincSystem {
    /// THINC over `net` at the given session geometry.
    pub fn new(net: &NetworkConfig, width: u32, height: u32) -> Self {
        Self::with_viewport(net, width, height, width, height)
    }

    /// THINC with a small client viewport (server-side scaling).
    pub fn with_viewport(net: &NetworkConfig, width: u32, height: u32, vw: u32, vh: u32) -> Self {
        Self::with_config(
            net,
            ServerConfig {
                width,
                height,
                ..ServerConfig::default()
            },
            (vw, vh),
        )
    }

    /// THINC with a custom configuration (ablations).
    pub fn with_config(net: &NetworkConfig, config: ServerConfig, viewport: (u32, u32)) -> Self {
        let (w, h, fmt) = (config.width, config.height, config.format);
        // The client store mirrors the server's ledger: same budget,
        // and none when the cache is off.
        let budget = config.cache_budget_bytes.unwrap_or(0);
        let mut server = ThincServer::new(config);
        server.handle_message(&Message::ClientHello {
            version: thinc_protocol::PROTOCOL_VERSION,
            viewport_width: viewport.0,
            viewport_height: viewport.1,
        });
        Self {
            ws: WindowServer::new(w, h, fmt, server),
            link: net.connect(),
            trace: PacketTrace::new(),
            client: ThincClient::new(viewport.0, viewport.1, fmt).with_cache_budget(budget),
            frame_requested: None,
            last_arrival: None,
            frames_sent: 0,
            frames_delivered: 0,
            audio_bytes: 0,
            timeline: Timeline::new(),
            net_metrics: thinc_telemetry::NetMetrics::new(),
        }
    }

    /// A full telemetry snapshot of this session, assembled from the
    /// metric groups each component owns: the server's protocol and
    /// scheduler counters, the translator, the downlink transport,
    /// the client decoder, and the sampled timeline.
    pub fn session_telemetry(&self) -> SessionTelemetry {
        let driver = self.ws.driver();
        let mut t = SessionTelemetry::new(thinc_core::scheduler::NUM_QUEUES);
        t.protocol = driver.protocol_metrics();
        t.scheduler = driver.scheduler_metrics().clone();
        t.translator = driver.translator_metrics().clone();
        t.net = self.net_metrics.clone();
        t.client = self.client.metrics().clone();
        t.timeline = self.timeline.clone();
        t.resilience = driver.resilience_metrics();
        for stats in [self.link.down.fault_stats(), self.link.up.fault_stats()] {
            t.resilience.add_transport_faults(
                stats.segments_lost,
                stats.retransmits,
                stats.corrupt_events,
                stats.corrupted_bytes,
                stats.outage_defers,
                stats.segments_reordered,
                stats.segments_duplicated,
            );
        }
        t
    }

    /// The server-side screen (ground truth).
    pub fn server_screen(&self) -> &thinc_raster::Framebuffer {
        self.ws.screen()
    }

    /// The client (for verification).
    pub fn client(&self) -> &ThincClient {
        &self.client
    }

    /// The THINC server's statistics.
    pub fn server_stats(&self) -> thinc_core::server::ServerStats {
        self.ws.driver().stats()
    }

    /// Whether the client framebuffer matches the server screen
    /// byte for byte (only meaningful at full viewport with all
    /// pending updates drained).
    pub fn verified(&self) -> bool {
        self.client.framebuffer().data() == self.ws.screen().data()
    }

    fn flush_once(&mut self, now: SimTime) {
        let batch = self.ws.driver_mut().flush(now, &mut self.link.down, &mut self.trace);
        for (arrival, msg) in batch {
            if matches!(msg, Message::VideoData { .. }) {
                self.frames_delivered += 1;
            }
            if let Message::Audio { ref data, .. } = msg {
                self.audio_bytes += data.len() as u64;
            }
            let done = self.client.apply(&msg);
            if matches!(done.as_deref(), Some(Message::Display(_))) {
                if let Some(t0) = self.frame_requested.take() {
                    let us = arrival.0.saturating_sub(t0.0);
                    self.client.metrics_mut().record_frame_latency_us(us);
                }
            }
            self.last_arrival = Some(self.last_arrival.map_or(arrival, |a| a.max(arrival)));
        }
        while let Some(miss) = self.client.take_cache_miss() {
            self.ws.driver_mut().handle_message(&miss);
        }
        self.sample_net(now);
    }

    /// Samples the downlink transport into the net gauges and the
    /// throttled session timeline.
    fn sample_net(&mut self, now: SimTime) {
        let cwnd = self.link.down.cwnd_bytes() as f64;
        let util = self.link.down.utilization(now);
        let sent = self.link.down.bytes_sent();
        let delta = sent.saturating_sub(self.net_metrics.bytes_sent());
        self.net_metrics.add_bytes(delta);
        self.net_metrics.sample(cwnd, util);
        self.timeline
            .record_sampled(now.0, "net.cwnd_bytes", cwnd, TIMELINE_GAP.0);
        self.timeline
            .record_sampled(now.0, "net.utilization", util, TIMELINE_GAP.0);
        let driver = self.ws.driver();
        self.timeline.record_sampled(
            now.0,
            "server.display_backlog",
            driver.display_backlog() as f64,
            TIMELINE_GAP.0,
        );
        self.timeline.record_sampled(
            now.0,
            "server.av_backlog",
            driver.av_backlog() as f64,
            TIMELINE_GAP.0,
        );
    }
}

impl RemoteDisplay for ThincSystem {
    fn name(&self) -> String {
        "THINC".into()
    }

    fn click(&mut self, now: SimTime, pos: Point) -> SimTime {
        let msg = Message::Input(ProtocolInput::ButtonPress {
            x: pos.x,
            y: pos.y,
            button: 1,
        });
        let size = encode_message(&msg).len() as u64;
        let (_, arrival) = self.link.up.send(now, size);
        self.trace.record(now, arrival, size, Direction::Up, "input");
        self.frame_requested = Some(now);
        if let Some(ev) = self.ws.driver_mut().handle_message(&msg) {
            self.ws.handle_input(ev);
        }
        arrival
    }

    fn process(&mut self, now: SimTime, reqs: Vec<DrawRequest>) -> SimDuration {
        let cpu = server_time(raster_cost(&reqs));
        self.ws.driver_mut().set_time(now);
        self.ws.process_all(reqs);
        self.flush_once(now + cpu);
        cpu
    }

    fn pump(&mut self, now: SimTime) {
        self.flush_once(now);
    }

    fn drain(&mut self, from: SimTime) -> SimTime {
        let mut now = from;
        for _ in 0..1_000_000 {
            if self.ws.driver().av_backlog() == 0 && self.ws.driver().display_backlog() == 0 {
                break;
            }
            self.flush_once(now);
            now = self.link.down.tx_free_at().max(now + FLUSH_PERIOD);
        }
        self.last_arrival.unwrap_or(from).max(from)
    }

    fn last_client_arrival(&self) -> Option<SimTime> {
        self.last_arrival
    }

    fn trace(&self) -> &PacketTrace {
        &self.trace
    }

    fn video_frame(&mut self, now: SimTime, frame: &YuvFrame, dst: Rect) {
        self.ws.driver_mut().set_time(now);
        self.ws.process(DrawRequest::VideoPut {
            frame: frame.clone(),
            dst,
        });
        self.frames_sent += 1;
        self.flush_once(now);
    }

    fn audio(&mut self, now: SimTime, pcm: &[u8]) {
        self.ws.driver_mut().set_time(now);
        if self.ws.driver().av_backlog() == 0 && self.audio_bytes == 0 && pcm.is_empty() {
            return;
        }
        // Lazily open the device on first use.
        if self.ws.driver_mut().stats().audio_messages == 0 && self.audio_bytes == 0 {
            self.ws.driver_mut().open_audio(44_100, 2);
        }
        self.ws.driver_mut().play_audio(pcm);
        self.flush_once(now);
    }

    fn av_stats(&self) -> AvStats {
        AvStats {
            frames_delivered: self.frames_delivered,
            frames_dropped: self.frames_sent.saturating_sub(self.frames_delivered),
            audio_bytes: self.audio_bytes,
        }
    }

    fn client_processing_secs(&self) -> Option<f64> {
        Some(self.client.hardware().seconds_at(CLIENT_HZ))
    }

    fn supports_small_screen(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinc_raster::Color;

    #[test]
    fn end_to_end_fill_reaches_client() {
        let mut sys = ThincSystem::new(&NetworkConfig::lan_desktop(), 64, 64);
        sys.process(
            SimTime::ZERO,
            vec![DrawRequest::FillRect {
                target: thinc_display::SCREEN,
                rect: Rect::new(0, 0, 32, 32),
                color: Color::rgb(10, 20, 30),
            }],
        );
        sys.drain(SimTime::ZERO);
        assert_eq!(
            sys.client().framebuffer().get_pixel(16, 16),
            Some(Color::rgb(10, 20, 30))
        );
        assert!(sys.verified());
    }

    #[test]
    fn end_to_end_offscreen_page_compose() {
        let mut sys = ThincSystem::new(&NetworkConfig::wan_desktop(), 128, 128);
        // Page composed offscreen, then copied onscreen.
        let reqs = vec![
            DrawRequest::CreatePixmap {
                width: 128,
                height: 128,
            },
            DrawRequest::FillRect {
                target: thinc_display::drawable::DrawableId(1),
                rect: Rect::new(0, 0, 128, 128),
                color: Color::WHITE,
            },
            // Short enough to stay inside the 128-px pixmap: text
            // that overhangs the pixmap is covered by RAW fallback.
            DrawRequest::Text {
                target: thinc_display::drawable::DrawableId(1),
                x: 8,
                y: 8,
                text: "hello thinc".into(),
                fg: Color::BLACK,
            },
            DrawRequest::CopyArea {
                src: thinc_display::drawable::DrawableId(1),
                dst: thinc_display::SCREEN,
                src_rect: Rect::new(0, 0, 128, 128),
                dst_x: 0,
                dst_y: 0,
            },
        ];
        sys.process(SimTime::ZERO, reqs);
        sys.drain(SimTime::ZERO);
        assert!(sys.verified(), "client framebuffer != server screen");
        // Offscreen awareness: no RAW fallback needed for this page.
        assert_eq!(sys.server_stats().translator.raw_fallback_bytes, 0);
    }

    /// A full-screen PutImage of incompressible noise.
    fn noise_image(w: u32, h: u32, salt: u64) -> DrawRequest {
        let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let data = (0..w as usize * h as usize * 3)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        DrawRequest::PutImage {
            target: thinc_display::SCREEN,
            rect: Rect::new(0, 0, w, h),
            data,
        }
    }

    #[test]
    fn client_store_follows_the_configured_cache_budget() {
        // Regression: the client store used to be built at the default
        // 4 MiB whatever the server's budget. Under a 16 MiB budget the
        // ledger then still held images the store had evicted, and
        // every revisit sent references the client could not resolve.
        let (w, h) = (256, 192);
        let config = ServerConfig {
            width: w,
            height: h,
            cache_budget_bytes: Some(16 * 1024 * 1024),
            ..ServerConfig::default()
        };
        let mut sys = ThincSystem::with_config(&NetworkConfig::lan_desktop(), config, (w, h));
        let mut now = SimTime::ZERO;
        // 36 distinct images (about 5.3 MB) overflow 4 MiB, then the
        // first ones come back.
        for round in 0..40u64 {
            sys.process(now, vec![noise_image(w, h, round % 36)]);
            now = sys.drain(now) + SimDuration::from_millis(5);
            assert!(sys.verified(), "round {round}");
        }
        let m = sys.client().resilience_metrics();
        assert!(m.cache_hits() > 0, "the revisits are sent as references");
        assert_eq!(m.cache_misses(), 0, "every reference resolves");
    }

    #[test]
    fn click_to_screen_latency_is_sampled_once_per_click() {
        let mut sys = ThincSystem::new(&NetworkConfig::lan_desktop(), 64, 64);
        sys.click(SimTime(1_000), Point::new(4, 4));
        for (t, x) in [(2_000, 0), (3_000, 32)] {
            sys.process(
                SimTime(t),
                vec![DrawRequest::FillRect {
                    target: thinc_display::SCREEN,
                    rect: Rect::new(x, 0, 32, 32),
                    color: Color::WHITE,
                }],
            );
        }
        sys.drain(SimTime(4_000));
        let t = sys.session_telemetry();
        assert_eq!(t.client.frame_latency_us().count(), 1);
        assert_eq!(t.client.decoded(thinc_telemetry::CommandKind::Sfill), 2);
    }

    #[test]
    fn video_frames_counted() {
        let mut sys = ThincSystem::new(&NetworkConfig::lan_desktop(), 128, 128);
        let frame = YuvFrame::new(thinc_raster::YuvFormat::Yv12, 32, 32);
        for i in 0..5 {
            sys.video_frame(SimTime(i * 41_667), &frame, Rect::new(0, 0, 128, 128));
        }
        sys.drain(SimTime(300_000));
        let s = sys.av_stats();
        assert_eq!(s.frames_delivered, 5);
        assert_eq!(s.frames_dropped, 0);
    }

    #[test]
    fn viewport_scaling_shrinks_traffic() {
        // Incompressible noise so the comparison measures scaling,
        // not the RAW compressor.
        let mut x = 5u64;
        let img: Vec<u8> = (0..128usize * 128 * 3)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        let reqs = || {
            vec![DrawRequest::PutImage {
                target: thinc_display::SCREEN,
                rect: Rect::new(0, 0, 128, 128),
                data: img.clone(),
            }]
        };
        let mut full = ThincSystem::new(&NetworkConfig::lan_desktop(), 128, 128);
        full.process(SimTime::ZERO, reqs());
        full.drain(SimTime::ZERO);
        let mut pda = ThincSystem::with_viewport(&NetworkConfig::lan_desktop(), 128, 128, 40, 40);
        pda.process(SimTime::ZERO, reqs());
        pda.drain(SimTime::ZERO);
        assert!(
            pda.trace().bytes(Direction::Down) * 2 < full.trace().bytes(Direction::Down),
            "pda {} vs full {}",
            pda.trace().bytes(Direction::Down),
            full.trace().bytes(Direction::Down)
        );
    }
}
