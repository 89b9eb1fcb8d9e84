//! The paper path: one LAN viewer of a `WindowServer<ThincServer>`,
//! running the `web` page sequence or the `video` clip. Updates travel
//! as real wire bytes: `ThincServer::encode_frame` on the server,
//! `StreamClient::feed` on the client.

use thinc_baselines::framework::{
    raster_cost, server_time, BROWSER_CYCLES_PER_BYTE, WEB_SERVER_BPS,
};
use thinc_client::StreamClient;
use thinc_core::{ServerConfig, ThincServer};
use thinc_display::drawable::DrawableId;
use thinc_display::request::{DrawRequest, RequestResult};
use thinc_display::server::WindowServer;
use thinc_net::link::{DuplexLink, NetworkConfig};
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::{av_quality, PacketTrace};
use thinc_protocol::message::{Message, ProtocolInput};
use thinc_protocol::wire::encode_message;
use thinc_protocol::PROTOCOL_VERSION;
use thinc_raster::{Framebuffer, PixelFormat, Rect};
use thinc_workloads::video::{AudioTrack, VideoClip};
use thinc_workloads::web::WebWorkload;

use crate::bench::{Bench, Counts, Shape, Update};
use crate::driver::Paper;
use crate::tally::Tally;
use crate::trace::Timer;

/// Period between flushes while draining (as in the paper harness).
pub const FLUSH_PERIOD: SimDuration = SimDuration(2_000);
/// Virtual think time between pages.
pub const THINK_TIME: SimDuration = SimDuration(1_000_000);

/// One server, one viewer, one simulated LAN link.
pub struct Single<D: Paper> {
    ws: WindowServer<D>,
    link: DuplexLink,
    ptrace: PacketTrace,
    client: StreamClient,
    tally: Tally,
    backlog_sum: u64,
    last_arrival: Option<SimTime>,
    decode_errors_seen: u64,
}

impl<D: Paper> Single<D> {
    /// Builds the server and the viewer and runs the handshake: the
    /// server's hello goes out as wire bytes, the client's hello
    /// negotiates the framing revision and the cache.
    pub fn connect(width: u32, height: u32, wrap: impl FnOnce(ThincServer) -> D) -> Self {
        let format = PixelFormat::Rgb888;
        let mut server = ThincServer::new(ServerConfig {
            width,
            height,
            ..ServerConfig::default()
        });
        let mut client = StreamClient::new(width, height, format);
        let hello = server.hello();
        client.feed(&server.encode_frame(&hello));
        server.handle_message(&Message::ClientHello {
            version: PROTOCOL_VERSION,
            viewport_width: width,
            viewport_height: height,
        });
        let mut s = Self {
            ws: WindowServer::new(width, height, format, wrap(server)),
            link: NetworkConfig::lan_desktop().connect(),
            ptrace: PacketTrace::new(),
            client,
            tally: Tally::new(format.bytes_per_pixel()),
            backlog_sum: 0,
            last_arrival: None,
            decode_errors_seen: 0,
        };
        // A newly attached viewer is sent the whole screen.
        let screen = s.ws.screen().clone();
        s.server().refresh_view(&screen);
        s.drain(SimTime::ZERO, &mut Update::new(1));
        s
    }

    fn server(&mut self) -> &mut ThincServer {
        self.ws.driver_mut().server()
    }

    fn pending(&self) -> bool {
        let s = self.ws.driver().server_ref();
        s.display_backlog() + s.av_backlog() > 0
    }

    /// Notes the backlog the last server call left queued.
    fn note_backlog(&mut self) {
        let s = self.ws.driver().server_ref();
        self.backlog_sum += (s.display_backlog() + s.av_backlog()) as u64;
    }

    /// One flush: `ThincServer::flush`, then each message framed by
    /// `encode_frame` and fed to the viewer. Returns the messages'
    /// arrival times paired with their video timestamps, if any.
    pub fn flush(&mut self, now: SimTime, u: &mut Update) -> Vec<(SimTime, Option<u64>)> {
        let t = Timer::start("core.flush");
        let batch = self
            .ws
            .driver_mut()
            .server()
            .flush(now, &mut self.link.down, &mut self.ptrace);
        let done = t.stop();
        u.server_ns += done.bytes(self.tally.messages(&batch));
        if batch.is_empty() {
            return Vec::new();
        }
        let t = Timer::start("protocol.encode");
        let frames: Vec<Vec<u8>> = batch
            .iter()
            .map(|(_, m)| self.server().encode_frame(m))
            .collect();
        let bytes: u64 = frames.iter().map(|f| f.len() as u64).sum();
        u.server_ns += t.stop().bytes(bytes);
        let t = Timer::start("client.feed");
        for f in &frames {
            self.client.feed(f);
        }
        u.client_ns[0] += t.stop().bytes(bytes);
        for f in &frames {
            self.tally.wire(f);
        }
        while let Some(miss) = self.client.take_cache_miss() {
            let t = Timer::start("core.input");
            self.server().handle_message(&miss);
            u.server_ns += t.stop().ns;
        }
        let arrivals = batch
            .iter()
            .map(|(a, m)| {
                let ts = match m {
                    Message::VideoData { timestamp_us, .. } => Some(*timestamp_us),
                    _ => None,
                };
                (*a, ts)
            })
            .collect::<Vec<_>>();
        for (a, _) in &arrivals {
            self.last_arrival = Some(self.last_arrival.map_or(*a, |l| l.max(*a)));
        }
        arrivals
    }

    /// Flushes until nothing is queued, starting at `from`, the way the
    /// paper harness drains. Returns the last arrival (at least `from`)
    /// and the flush outputs' arrivals.
    pub fn drain(
        &mut self,
        from: SimTime,
        u: &mut Update,
    ) -> (SimTime, Vec<(SimTime, Option<u64>)>) {
        let mut now = from;
        let mut arrivals = Vec::new();
        while self.pending() {
            arrivals.extend(self.flush(now, u));
            now = self.link.down.tx_free_at().max(now + FLUSH_PERIOD);
        }
        (self.last_arrival.unwrap_or(from).max(from), arrivals)
    }

    /// The viewer decoded cleanly and has nothing half-received or
    /// owed.
    fn clean(&mut self) -> bool {
        let errors = self.client.resilience_metrics().decode_errors();
        let clean = errors == self.decode_errors_seen;
        self.decode_errors_seen = errors;
        clean && !self.client.needs_refresh() && self.client.pending_bytes() == 0
    }

    /// The viewer is clean and shows exactly `expected`.
    pub fn shows(&mut self, expected: &Framebuffer) -> bool {
        self.clean() && self.client.client().framebuffer().data() == expected.data()
    }

    /// The viewer is clean and shows exactly the server screen.
    pub fn matches_screen(&mut self) -> bool {
        self.clean() && self.client.client().framebuffer().data() == self.ws.screen().data()
    }

    /// Virtual time after everything sent so far has arrived.
    pub fn quiet_at(&self) -> SimTime {
        self.last_arrival.unwrap_or(SimTime::ZERO)
    }

    pub fn counts(&self) -> Counts {
        let s = self.ws.driver().server_ref();
        let stats = s.stats();
        let sched = s.scheduler_metrics();
        let viewer = self.client.resilience_metrics();
        Counts {
            raw_fallback_bytes: stats.translator.raw_fallback_bytes,
            offscreen_queued: stats.translator.offscreen_queued,
            merges: sched.merges(),
            evictions: sched.evictions(),
            splits: sched.splits(),
            cache_hits: viewer.cache_hits(),
            cache_saved_bytes: viewer.cache_bytes_saved(),
            cache_ref_misses: viewer.cache_misses(),
            net_bytes: self.link.down.bytes_sent(),
            backlog_sum: self.backlog_sum,
            decode_errors: viewer.decode_errors(),
            ..self.tally.counts()
        }
    }

    pub fn utilization(&self) -> f64 {
        self.link
            .down
            .utilization(self.last_arrival.unwrap_or(SimTime::ZERO))
    }
}

/// Virtual time the server-side browser needs to fetch and parse
/// `bytes` of page content (the paper harness's model).
fn fetch_time(bytes: u64) -> SimDuration {
    SimDuration::from_micros(bytes * 8 * 1_000_000 / WEB_SERVER_BPS)
        + server_time(bytes * BROWSER_CYCLES_PER_BYTE)
}

/// Drawing requests that render `page` of `wl` into pixmap `pm` and
/// copy it onscreen, browser style.
pub fn page_requests(wl: &WebWorkload, page: usize, pm: DrawableId) -> Vec<DrawRequest> {
    let mut reqs = vec![DrawRequest::CreatePixmap {
        width: wl.width,
        height: wl.height,
    }];
    reqs.extend(wl.render_requests(page, pm));
    reqs.push(DrawRequest::FreePixmap { id: pm });
    reqs
}

/// `web`: the 54-page i-Bench-style sequence, closed loop: click, the
/// page renders, every update drains, then the next click.
pub struct Web<D: Paper> {
    s: Single<D>,
    shape: Shape,
    wl: WebWorkload,
    now: SimTime,
    next_pixmap: u32,
}

impl<D: Paper> Web<D> {
    pub fn new(shape: Shape, wrap: impl FnOnce(ThincServer) -> D) -> Self {
        let s = Single::connect(shape.width, shape.height, wrap);
        Self {
            now: s.quiet_at() + THINK_TIME,
            s,
            shape,
            wl: WebWorkload::new(shape.width, shape.height, 0),
            next_pixmap: 1,
        }
    }
}

impl<D: Paper> Bench for Web<D> {
    fn shape(&self) -> Shape {
        self.shape
    }

    fn begin_pass(&mut self, seed: u64) {
        self.wl = WebWorkload::new(self.shape.width, self.shape.height, seed);
    }

    fn update(&mut self, k: usize) -> Update {
        let page = self.wl.page(k);
        let pm = DrawableId(self.next_pixmap);
        self.next_pixmap += 1;
        let reqs = page_requests(&self.wl, k, pm);
        let cpu = server_time(raster_cost(&reqs));
        let click = Message::Input(ProtocolInput::ButtonPress {
            x: page.link_position.x,
            y: page.link_position.y,
            button: 1,
        });
        let t0 = self.now;
        let (_, at_server) = self.s.link.up.send(t0, encode_message(&click).len() as u64);
        let render_start = at_server + fetch_time(page.content_bytes);

        let mut u = Update::new(1);
        let root = Timer::start("update");
        let t = Timer::start("core.input");
        if let Some(ev) = self.s.server().handle_message(&click) {
            self.s.ws.handle_input(ev);
        }
        u.server_ns += t.stop().ns;
        let t = Timer::start("display");
        self.s.server().set_time(render_start);
        let results = self.s.ws.process_all(reqs);
        u.server_ns += t.stop().ns;
        self.s.note_backlog();
        let from = render_start + cpu;
        self.s.flush(from, &mut u);
        let (last, _) = self.s.drain(from, &mut u);
        u.total_ns = root.stop().ns;

        self.s.tally.update((last - t0).as_micros());
        self.now = last + THINK_TIME;
        u.failed = results.first() != Some(&RequestResult::Created(pm)) || !self.s.matches_screen();
        u
    }

    fn end_pass(&mut self) -> bool {
        true
    }

    fn counts(&self) -> Counts {
        self.s.counts()
    }

    fn digest(&self) -> u64 {
        self.s.tally.digest
    }

    fn net_utilization(&self) -> f64 {
        self.s.utilization()
    }
}

/// Audio chunk length (as in the paper harness).
const AUDIO_CHUNK: SimDuration = SimDuration(100_000);

/// `video`: the paper clip (352×240 YV12, 24 fps) shown full screen,
/// with its 44.1 kHz PCM track. Frames are due at their pts in
/// virtual time; each is processed as fast as wall time allows.
pub struct Video<D: Paper> {
    s: Single<D>,
    shape: Shape,
    clip: VideoClip,
    track: AudioTrack,
    /// Frame-content offset of this pass (from the seed).
    offset: u32,
    /// Virtual start of this pass and of its next audio chunk.
    start: SimTime,
    next_audio: SimTime,
    audio_open: bool,
    sent: u64,
    delivered: u64,
    /// First pass's A/V quality.
    quality: Option<f64>,
    /// What the viewer's overlay must show once the latest frame is
    /// delivered: the frame converted and scaled to the destination.
    /// (The server screen scales with a different filter.)
    expected: Framebuffer,
}

impl<D: Paper> Video<D> {
    pub fn new(shape: Shape, wrap: impl FnOnce(ThincServer) -> D) -> Self {
        let s = Single::connect(shape.width, shape.height, wrap);
        let start = s.quiet_at() + SimDuration::from_millis(10);
        Self {
            s,
            shape,
            clip: VideoClip::benchmark(),
            track: AudioTrack::benchmark(),
            offset: 0,
            start,
            next_audio: start,
            audio_open: false,
            sent: 0,
            delivered: 0,
            quality: None,
            expected: Framebuffer::new(shape.width, shape.height, PixelFormat::Rgb888),
        }
    }

    /// Counts delivered frames and their pts-to-arrival latency.
    fn note_arrivals(&mut self, arrivals: &[(SimTime, Option<u64>)]) {
        for (arrival, ts) in arrivals {
            if let Some(ts) = ts {
                self.delivered += 1;
                self.s.tally.sim_us += arrival.as_micros().saturating_sub(*ts);
            }
        }
    }
}

impl<D: Paper> Bench for Video<D> {
    fn shape(&self) -> Shape {
        self.shape
    }

    fn begin_pass(&mut self, seed: u64) {
        self.offset = (seed % 100_000) as u32;
        self.sent = 0;
        self.delivered = 0;
    }

    fn update(&mut self, k: usize) -> Update {
        let k = k as u32;
        let t = self.start + SimDuration::from_micros(self.clip.pts_us(k));
        let frame = self.clip.frame(k + self.offset);
        let dst = Rect::new(0, 0, self.shape.width, self.shape.height);
        let mut chunks = Vec::new();
        while self.next_audio <= t {
            let off_ms = (self.next_audio - self.start).as_micros() / 1000;
            if off_ms >= self.track.duration_ms {
                break;
            }
            chunks.push((
                self.next_audio,
                self.track.pcm(off_ms, AUDIO_CHUNK.as_millis()),
            ));
            self.next_audio += AUDIO_CHUNK;
        }

        let shown = frame.clone();

        let mut u = Update::new(1);
        let root = Timer::start("update");
        let mut arrivals = Vec::new();
        for (at, pcm) in &chunks {
            let c = Timer::start("core.input");
            let server = self.s.server();
            server.set_time(*at);
            if !self.audio_open {
                server.open_audio(self.track.sample_rate, self.track.channels);
                self.audio_open = true;
            }
            server.play_audio(pcm);
            u.server_ns += c.stop().ns;
            arrivals.extend(self.s.flush(*at, &mut u));
        }
        let d = Timer::start("display");
        self.s.server().set_time(t);
        self.s.ws.process(DrawRequest::VideoPut { frame, dst });
        u.server_ns += d.stop().ns;
        self.s.note_backlog();
        arrivals.extend(self.s.flush(t, &mut u));
        u.total_ns = root.stop().ns;

        self.sent += 1;
        self.s.tally.updates += 1;
        self.note_arrivals(&arrivals);
        self.expected = shown.to_rgb_scaled(dst.w, dst.h, PixelFormat::Rgb888);
        u.failed = !self.s.pending() && !self.s.shows(&self.expected);
        u
    }

    fn end_pass(&mut self) -> bool {
        let ideal = SimDuration::from_millis(self.clip.duration_ms);
        let mut u = Update::new(1);
        let (last, arrivals) = self.s.drain(self.start + ideal, &mut u);
        self.note_arrivals(&arrivals);
        if self.quality.is_none() {
            let frac = self.delivered as f64 / self.sent.max(1) as f64;
            self.quality = Some(av_quality(ideal, (last - self.start).max(ideal), frac));
        }
        self.start = last + SimDuration::from_millis(10);
        self.next_audio = self.start;
        self.s.shows(&self.expected)
    }

    fn counts(&self) -> Counts {
        self.s.counts()
    }

    fn digest(&self) -> u64 {
        self.s.tally.digest
    }

    fn av_quality(&self) -> Option<f64> {
        self.quality
    }

    fn net_utilization(&self) -> f64 {
        self.s.utilization()
    }
}
