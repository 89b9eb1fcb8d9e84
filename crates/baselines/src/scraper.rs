//! The screen-scraping, client-pull systems: VNC and the GoToMyPC
//! class.
//!
//! Both reduce everything to framebuffer pixels and compress them;
//! the client *requests* each update ("the client-pull model used by
//! popular systems such as VNC and GoToMyPC", §5), which costs at
//! least half a round trip per update and caps the video frame rate
//! at the request rate — the effect behind VNC's halved WAN A/V
//! quality in Figure 5. GoToMyPC additionally quantizes to 8-bit
//! color, compresses very aggressively (high server CPU — "complex
//! compression algorithms ... at the expense of high server
//! utilization and longer latencies"), and routes every byte through
//! a hosted relay that adds ~70 ms of RTT.

use thinc_compress::{adaptive_codec, Codec};
use thinc_display::driver::NullDriver;
use thinc_display::request::DrawRequest;
use thinc_display::server::WindowServer;
use thinc_net::link::{DuplexLink, NetworkConfig};
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::{Direction, PacketTrace};
use thinc_raster::{PixelFormat, Point, Rect, Region, YuvFrame};

use crate::framework::{encode_region, raster_cost, server_time};
use crate::traits::{AvStats, RemoteDisplay};

/// Configuration of a scraping system.
struct ScrapeConfig {
    name: &'static str,
    /// Wire pixel depth in bytes (GoToMyPC: 1; VNC: 3).
    depth_bytes: usize,
    /// Pixel codec.
    codec: Codec,
    /// Multiplier on encode CPU (GoToMyPC's heavyweight compressor).
    cpu_factor: u64,
    /// Client viewport; when smaller than the session the client
    /// *clips* (VNC) — only the intersecting part is sent.
    viewport: Option<(u32, u32)>,
}

/// A screen-scraping client-pull system.
pub struct Scraper {
    cfg: ScrapeConfig,
    ws: WindowServer<NullDriver>,
    link: DuplexLink,
    trace: PacketTrace,
    /// Pending damage not yet sent.
    damage: Region,
    /// Server-side arrival time of the client's outstanding update
    /// request, if any.
    pending_request: Option<SimTime>,
    /// Earliest time the server can serve (CPU busy horizon).
    cpu_free: SimTime,
    last_arrival: Option<SimTime>,
    av: AvStats,
    /// Current on-screen video rectangle (for frame accounting).
    video_rect: Option<Rect>,
    frames_pending: u32,
}

/// VNC 4.0-style system: 24-bit, adaptive encoding, client pull.
pub struct Vnc(Scraper);

/// GoToMyPC-style system: 8-bit, heavy compression, relay-routed.
pub struct GoToMyPc(Scraper);

impl Vnc {
    /// VNC over `net` with full-size client display.
    pub fn new(net: &NetworkConfig, width: u32, height: u32) -> Self {
        Self::with_viewport(net, width, height, None)
    }

    /// VNC with a small client screen: the display is clipped to the
    /// viewport (VNC has no resize support, §8.3).
    pub fn with_viewport(
        net: &NetworkConfig,
        width: u32,
        height: u32,
        viewport: Option<(u32, u32)>,
    ) -> Self {
        // Adaptive encoding: cheap pixel-RLE on fast local links,
        // heavier dictionary coding once latency indicates a WAN
        // ("adaptive compression schemes which change encoding
        // settings according to the characteristics of the link").
        let codec = if net.rtt >= SimDuration::from_millis(10) {
            Codec::Lzss
        } else {
            adaptive_codec(net.bandwidth_bps, 3, width as usize * 3)
        };
        Self(Scraper::new(
            ScrapeConfig {
                name: "VNC",
                depth_bytes: 3,
                codec,
                cpu_factor: 1,
                viewport,
            },
            net,
            width,
            height,
        ))
    }
}

impl GoToMyPc {
    /// GoToMyPC over `net`; the hosted relay hop is added internally
    /// (the paper measured ~70 ms RTT through the relay).
    pub fn new(net: &NetworkConfig, width: u32, height: u32) -> Self {
        Self::with_viewport(net, width, height, None)
    }

    /// GoToMyPC with a small client screen: client-side resize (the
    /// full-size data is still sent; the client scales it down).
    pub fn with_viewport(
        net: &NetworkConfig,
        width: u32,
        height: u32,
        viewport: Option<(u32, u32)>,
    ) -> Self {
        let relay = NetworkConfig::custom(
            "relay",
            net.bandwidth_bps,
            SimDuration::from_millis(70).max(net.rtt) - net.rtt,
            net.rwnd_bytes,
        );
        let routed = net.via_relay(&relay);
        let mut s = Scraper::new(
            ScrapeConfig {
                name: "GoToMyPC",
                depth_bytes: 1,
                codec: Codec::PngLike {
                    bpp: 1,
                    stride: width as usize,
                },
                // "Complex compression algorithms ... at the expense
                // of high server utilization and longer latencies."
                cpu_factor: 25,
                // Client-side resize: full data sent regardless.
                viewport: None,
            },
            &routed,
            width,
            height,
        );
        let _ = viewport; // Resize happens on the client; wire unchanged.
        s.cfg.name = "GoToMyPC";
        Self(s)
    }
}

impl Scraper {
    fn new(cfg: ScrapeConfig, net: &NetworkConfig, width: u32, height: u32) -> Self {
        Self {
            cfg,
            ws: WindowServer::new(width, height, PixelFormat::Rgb888, NullDriver),
            link: net.connect(),
            trace: PacketTrace::new(),
            damage: Region::new(),
            // The client's first update request is in flight at t=0.
            pending_request: Some(SimTime::ZERO + net.rtt.div(2)),
            cpu_free: SimTime::ZERO,
            last_arrival: None,
            av: AvStats::default(),
            video_rect: None,
            frames_pending: 0,
        }
    }

    /// Serves pull cycles whose request has arrived by `now`.
    fn serve(&mut self, now: SimTime) {
        #[allow(clippy::while_let_loop)] // Multiple exit conditions read better this way.
        loop {
            let Some(req_at) = self.pending_request else { break };
            if req_at > now {
                break;
            }
            if self.damage.is_empty() {
                // Server waits for content; it will reply as soon as
                // new drawing occurs (handled on next serve call).
                break;
            }
            let mut region = self.damage.clone();
            if let Some((vw, vh)) = self.cfg.viewport {
                // Clipping client: only the viewport's pixels travel.
                region.intersect_rect(&Rect::new(0, 0, vw, vh));
                if region.is_empty() {
                    // Damage entirely outside the viewport: consumed.
                    self.damage = Region::new();
                    self.request_again(req_at);
                    continue;
                }
            }
            self.damage = Region::new();
            let (bytes, cycles) =
                encode_region(self.ws.screen(), &region, self.cfg.codec, self.cfg.depth_bytes);
            let cpu = server_time(cycles * self.cfg.cpu_factor);
            let t = req_at.max(self.cpu_free).max(now);
            self.cpu_free = t + cpu;
            let arrival = self.link.send_down(self.cpu_free, bytes);
            self.trace
                .record(self.cpu_free, arrival, bytes, Direction::Down, "update");
            self.last_arrival = Some(arrival);
            // Video frame accounting: this update showed the video
            // area once, however many frames were coalesced into it.
            if let Some(vr) = self.video_rect {
                if region.intersects_rect(&vr) && self.frames_pending > 0 {
                    self.av.frames_delivered += 1;
                    self.av.frames_dropped += self.frames_pending - 1;
                    self.frames_pending = 0;
                }
            }
            self.request_again(arrival);
        }
    }

    fn request_again(&mut self, client_time: SimTime) {
        let arr = self.link.send_up(client_time, 24);
        self.trace.record(client_time, arr, 24, Direction::Up, "pull");
        self.pending_request = Some(arr);
    }
}

macro_rules! impl_scraper {
    ($ty:ty) => {
        impl RemoteDisplay for $ty {
            fn name(&self) -> String {
                self.0.cfg.name.into()
            }
            fn click(&mut self, now: SimTime, _pos: Point) -> SimTime {
                let arr = self.0.link.send_up(now, 48);
                self.0.trace.record(now, arr, 48, Direction::Up, "input");
                arr
            }
            fn process(&mut self, now: SimTime, reqs: Vec<DrawRequest>) -> SimDuration {
                let cpu = server_time(raster_cost(&reqs));
                self.0.ws.process_all(reqs);
                let dmg = self.0.ws.take_screen_damage();
                self.0.damage.union(&dmg);
                self.0.serve(now + cpu);
                cpu
            }
            fn pump(&mut self, now: SimTime) {
                self.0.serve(now);
            }
            fn drain(&mut self, from: SimTime) -> SimTime {
                let mut now = from;
                for _ in 0..10_000 {
                    if self.0.damage.is_empty() {
                        break;
                    }
                    let next = self.0.pending_request.unwrap_or(now).max(now);
                    self.0.serve(next);
                    now = self
                        .0
                        .last_arrival
                        .map(|a| a.max(next))
                        .unwrap_or(next);
                }
                self.0.last_arrival.unwrap_or(from).max(from)
            }
            fn last_client_arrival(&self) -> Option<SimTime> {
                self.0.last_arrival
            }
            fn trace(&self) -> &PacketTrace {
                &self.0.trace
            }
            fn video_frame(&mut self, now: SimTime, frame: &YuvFrame, dst: Rect) {
                // The player decodes to RGB and blits: pure damage.
                self.0.ws.process(DrawRequest::VideoPut {
                    frame: frame.clone(),
                    dst,
                });
                let dmg = self.0.ws.take_screen_damage();
                self.0.damage.union(&dmg);
                self.0.video_rect = Some(dst);
                self.0.frames_pending += 1;
                self.0.serve(now);
            }
            fn audio(&mut self, _now: SimTime, _pcm: &[u8]) {
                // No audio support (video-only platforms, §8.2).
            }
            fn av_stats(&self) -> AvStats {
                self.0.av
            }
            fn client_processing_secs(&self) -> Option<f64> {
                // VNC is instrumentable in the paper; decode cost is
                // roughly proportional to received bytes.
                let bytes = self.0.trace.bytes(Direction::Down);
                Some(bytes as f64 * 14.0 / crate::framework::CLIENT_HZ as f64)
            }
            fn supports_small_screen(&self) -> bool {
                true
            }
            fn supports_audio(&self) -> bool {
                false
            }
        }
    };
}

impl_scraper!(Vnc);
impl_scraper!(GoToMyPc);

#[cfg(test)]
mod tests {
    use super::*;
    use thinc_raster::Color;

    fn fill(w: u32, h: u32) -> DrawRequest {
        DrawRequest::FillRect {
            target: thinc_display::SCREEN,
            rect: Rect::new(0, 0, w, h),
            color: Color::rgb(40, 80, 120),
        }
    }

    #[test]
    fn pull_cycle_serves_damage() {
        let mut vnc = Vnc::new(&NetworkConfig::lan_desktop(), 256, 256);
        vnc.process(SimTime::ZERO, vec![fill(128, 128)]);
        let last = vnc.drain(SimTime::ZERO);
        assert!(last > SimTime::ZERO);
        assert!(vnc.trace().bytes(Direction::Down) > 0);
        // Pull requests appear in the uplink.
        assert!(vnc.trace().bytes(Direction::Up) > 0);
    }

    #[test]
    fn updates_wait_for_request_round_trip() {
        let wan = NetworkConfig::wan_desktop();
        let mut vnc = Vnc::new(&wan, 256, 256);
        vnc.process(SimTime::ZERO, vec![fill(64, 64)]);
        let last = vnc.drain(SimTime::ZERO);
        // At minimum: request arrival (rtt/2) + response (rtt/2).
        assert!(last.as_micros() >= 66_000, "{last}");
    }

    #[test]
    fn coalescing_drops_video_frames() {
        let wan = NetworkConfig::wan_desktop();
        let mut vnc = Vnc::new(&wan, 512, 512);
        let frame = YuvFrame::new(thinc_raster::YuvFormat::Yv12, 64, 64);
        // 24 frames over one simulated second; the pull cycle takes
        // ≥66 ms, so at most ~15 updates can be served.
        for i in 0..24 {
            vnc.video_frame(SimTime(i * 41_667), &frame, Rect::new(0, 0, 512, 512));
        }
        vnc.drain(SimTime(1_000_000));
        let s = vnc.av_stats();
        assert!(s.frames_delivered < 20, "{s:?}");
        assert!(s.frames_dropped > 0, "{s:?}");
        assert_eq!(s.frames_delivered + s.frames_dropped, 24);
    }

    #[test]
    fn gotomypc_sends_less_but_works_harder() {
        let wan = NetworkConfig::wan_desktop();
        // Noisy content so that depth dominates, not trivially
        // compressible fills.
        let img = DrawRequest::PutImage {
            target: thinc_display::SCREEN,
            rect: Rect::new(0, 0, 200, 200),
            data: (0..200 * 200 * 3).map(|i| ((i * 2654435761u64) >> 13) as u8).collect(),
        };
        let mut vnc = Vnc::new(&wan, 512, 512);
        vnc.process(SimTime::ZERO, vec![img.clone()]);
        vnc.drain(SimTime::ZERO);
        let mut gp = GoToMyPc::new(&wan, 512, 512);
        gp.process(SimTime::ZERO, vec![img]);
        gp.drain(SimTime::ZERO);
        assert!(
            gp.trace().bytes(Direction::Down) < vnc.trace().bytes(Direction::Down),
            "gp {} vnc {}",
            gp.trace().bytes(Direction::Down),
            vnc.trace().bytes(Direction::Down)
        );
    }

    #[test]
    fn gotomypc_latency_includes_relay() {
        let lan = NetworkConfig::lan_desktop();
        let mut gp = GoToMyPc::new(&lan, 256, 256);
        gp.process(SimTime::ZERO, vec![fill(32, 32)]);
        let last = gp.drain(SimTime::ZERO);
        // Even on a LAN, the relay adds ~70 ms of RTT to the cycle.
        assert!(last.as_micros() >= 60_000, "{last}");
    }

    #[test]
    fn vnc_viewport_clips_data() {
        let lan = NetworkConfig::lan_desktop();
        let mut full = Vnc::new(&lan, 512, 512);
        full.process(SimTime::ZERO, vec![fill(512, 512)]);
        full.drain(SimTime::ZERO);
        let mut clipped = Vnc::with_viewport(&lan, 512, 512, Some((128, 128)));
        clipped.process(SimTime::ZERO, vec![fill(512, 512)]);
        clipped.drain(SimTime::ZERO);
        assert!(
            clipped.trace().bytes(Direction::Down) < full.trace().bytes(Direction::Down) / 2
        );
    }

    #[test]
    fn no_audio_support() {
        let mut vnc = Vnc::new(&NetworkConfig::lan_desktop(), 64, 64);
        vnc.audio(SimTime::ZERO, &[0; 1000]);
        assert_eq!(vnc.av_stats().audio_bytes, 0);
        assert!(!vnc.supports_audio());
    }
}
