//! The per-client delivery pipeline.
//!
//! THINC keeps a command buffer and server-side scaling state for
//! every client (§5, §6), and screen sharing multiplexes one display
//! over many clients (§7). [`ClientPipeline`] is that per-client state
//! and the code that drives it: the buffer and scale policy, video and
//! the A/V FIFO, liveness, degradation, the refresh-debt ledger with
//! its COPY guard, the flush body and the per-client checkpoint
//! section. [`ThincServer`](crate::server::ThincServer) owns one;
//! [`SharedSession`](crate::session::SharedSession) owns one per
//! attached client.

use std::collections::VecDeque;

use thinc_net::tcp::TcpPipe;
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::{Direction, PacketTrace};
use thinc_protocol::commands::{DisplayCommand, RawEncoding};
use thinc_protocol::message::Message;
use thinc_protocol::wire::{encode_message, encoded_len};
use thinc_raster::{Framebuffer, Rect, Region, YuvFrame};
use thinc_telemetry::{ProtocolMetrics, ResilienceMetrics};

use crate::buffer::{decode_checkpoint_message, ClientBuffer};
use crate::checkpoint::{CheckpointError, Reader, Writer};
use crate::degradation::{
    DegradationConfig, DegradationController, DegradationLevel, EpochSignals,
};
use crate::liveness::{LivenessConfig, LivenessTracker, LivenessVerdict};
use crate::plane::{PlaneCounters, WirePlane};
use crate::scaling::ScalePolicy;
use crate::video::VideoStreamManager;

/// A blocked video frame older than this is dropped instead of sent
/// ("if updates are not buffered carefully … outdated content is sent
/// to the client").
const STALE_VIDEO_US: u64 = 200_000;

/// Checkpoint byte for "no degradation controller".
const NO_LEVEL: u8 = 0xFF;

/// The owner-wide policy every pipeline of that owner shares: the
/// session geometry and the per-client knobs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PipelineConfig {
    /// Session framebuffer width.
    pub width: u32,
    /// Session framebuffer height.
    pub height: u32,
    /// Resize updates server-side for a smaller viewport (§6).
    pub scaling: bool,
    /// Cap on the A/V FIFO depth.
    pub av_bound: Option<usize>,
    /// Probe silent clients and declare them dead past the timeout.
    pub liveness: Option<LivenessConfig>,
    /// Walk the fidelity ladder on fault telemetry.
    pub degradation: Option<DegradationConfig>,
}

impl PipelineConfig {
    /// Serializes the policy into a checkpoint image.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u32(self.width);
        w.u32(self.height);
        w.bool(self.scaling);
        w.opt_u64(self.av_bound.map(|n| n as u64));
        match self.liveness {
            Some(cfg) => {
                w.bool(true);
                w.u64(cfg.timeout.0);
                w.u64(cfg.ping_interval.0);
            }
            None => w.bool(false),
        }
        match self.degradation {
            Some(cfg) => {
                w.bool(true);
                w.u32(cfg.degrade_after);
                w.u32(cfg.promote_after);
                w.f64(cfg.pressure_fraction);
                w.u8(cfg.max_level.index() as u8);
            }
            None => w.bool(false),
        }
    }

    /// Reads back what [`encode`](Self::encode) wrote.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(Self {
            width: r.u32()?,
            height: r.u32()?,
            scaling: r.bool()?,
            av_bound: r.opt_u64()?.map(|n| n as usize),
            liveness: if r.bool()? {
                Some(LivenessConfig {
                    timeout: SimDuration(r.u64()?),
                    ping_interval: SimDuration(r.u64()?),
                })
            } else {
                None
            },
            degradation: if r.bool()? {
                Some(DegradationConfig {
                    degrade_after: r.u32()?,
                    promote_after: r.u32()?,
                    pressure_fraction: r.f64()?,
                    max_level: level_from_u8(r.u8()?)?,
                })
            } else {
                None
            },
        })
    }
}

/// Decodes a degradation-ladder level from its checkpoint byte.
fn level_from_u8(b: u8) -> Result<DegradationLevel, CheckpointError> {
    DegradationLevel::ALL
        .get(b as usize)
        .copied()
        .ok_or(CheckpointError::Malformed("degradation level"))
}

/// The screen contents of `rect` as an uncompressed RAW, or `None`
/// when `rect` misses the screen.
pub(crate) fn raw_of(screen: &Framebuffer, rect: &Rect) -> Option<DisplayCommand> {
    let (clip, data) = screen.get_raw(rect);
    (!clip.is_empty()).then(|| DisplayCommand::Raw {
        rect: clip,
        encoding: RawEncoding::None,
        data: data.into(),
    })
}

/// Whether `cmd` is a screen-to-screen COPY — the one command that is
/// not idempotent over a snapshot already holding its effect.
pub(crate) fn is_copy(cmd: &DisplayCommand) -> bool {
    matches!(cmd, DisplayCommand::Copy { .. })
}

/// How one client's commands are rendered: its scale policy, and
/// whether server-side scaling applies. Clients with equal renderers
/// receive identical command streams, which is what lets a shared
/// session render once per class of clients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Renderer {
    /// The client's scale policy (viewport and zoom view).
    pub scale: ScalePolicy,
    /// Whether commands are resampled for the viewport.
    pub active: bool,
}

impl Renderer {
    /// `cmd` as this client receives it (`None` when scaled away).
    pub(crate) fn render(&self, cmd: DisplayCommand, screen: &Framebuffer) -> Option<DisplayCommand> {
        if self.active {
            self.scale.transform(&cmd, screen)
        } else {
            Some(cmd)
        }
    }

    /// The full-view refresh: the view's current screen contents,
    /// rendered for this client.
    pub(crate) fn view_refresh(&self, screen: &Framebuffer) -> Option<DisplayCommand> {
        self.render(raw_of(screen, &self.scale.view)?, screen)
    }
}

/// Everything one client owns, and the per-client half of every
/// delivery path. See the [module docs](self).
pub(crate) struct ClientPipeline {
    config: PipelineConfig,
    /// The client's command buffer (SRSF queues, byte bound, cache
    /// ledger).
    pub(crate) buffer: ClientBuffer,
    /// The viewport the client announced.
    pub(crate) viewport: (u32, u32),
    scale: ScalePolicy,
    /// Video streams, resampled for this client's viewport.
    pub(crate) video: VideoStreamManager,
    /// Audio, video, cursor and control messages awaiting flush. They
    /// go out ahead of the display queues: A/V is paced real-time.
    pub(crate) av: VecDeque<Message>,
    liveness: Option<LivenessTracker>,
    degradation: Option<DegradationController>,
    /// Session-space screen area owed a fresh-screen repaint: overflow
    /// evictions, and commands dropped by a scale change. The buffer
    /// records debt in the coordinate space of the commands it holds
    /// (viewport space while scaling is active); it is unmapped into
    /// session space the moment it is taken, so the ledger stays valid
    /// across scale changes.
    refresh_debt: Region,
    /// A full-view refresh is owed (fresh attach, resync, degradation
    /// transition, COPY over debt, unsatisfiable cache miss). Repaid
    /// by the next draw round, which has the screen in hand.
    pub(crate) refresh_owed: bool,
    /// Per-client resilience accounting; buffer evictions and cache
    /// counters merge in at read time.
    pub(crate) resilience: ResilienceMetrics,
    /// Wire accounting for the A/V FIFO (the display path's
    /// accounting lives in the buffer).
    av_metrics: ProtocolMetrics,
    /// Test/chaos hook: the next flush panics deliberately.
    pub(crate) poison_flush: bool,
}

impl ClientPipeline {
    /// A pipeline at full view for a client whose buffer the owner has
    /// already configured.
    pub(crate) fn new(config: PipelineConfig, buffer: ClientBuffer, now: SimTime) -> Self {
        let (w, h) = (config.width, config.height);
        Self {
            config,
            buffer,
            viewport: (w, h),
            scale: ScalePolicy::new(w, h, w, h),
            video: VideoStreamManager::new(),
            av: VecDeque::new(),
            liveness: config.liveness.map(|c| LivenessTracker::new(c, now)),
            degradation: config.degradation.map(DegradationController::new),
            refresh_debt: Region::new(),
            refresh_owed: false,
            resilience: ResilienceMetrics::new(),
            av_metrics: ProtocolMetrics::new(),
            poison_flush: false,
        }
    }

    /// How this client's commands are rendered right now.
    pub(crate) fn renderer(&self) -> Renderer {
        Renderer {
            scale: self.scale,
            active: self.config.scaling && !self.scale.is_identity(),
        }
    }

    /// The fidelity level the degradation ladder is at (`Full` when
    /// adaptation is off).
    pub(crate) fn level(&self) -> DegradationLevel {
        self.degradation.as_ref().map_or(DegradationLevel::Full, |c| c.level())
    }

    /// Re-aims scaling at a new viewport (handshake, resize, device
    /// switch), resetting the zoom view. Nothing is owed for the
    /// content the client already holds: at handshake nothing is
    /// pending, and a later switch is the owner's to refresh.
    pub(crate) fn set_viewport(&mut self, w: u32, h: u32) {
        let (sw, sh) = (self.config.width.max(1), self.config.height.max(1));
        self.viewport = (w.clamp(1, sw), h.clamp(1, sh));
        self.set_view(Rect::new(0, 0, self.config.width, self.config.height));
    }

    /// Maps `view` (session space) onto the effective viewport: the
    /// announced viewport shrunk by the ladder's scale divisor.
    pub(crate) fn set_view(&mut self, view: Rect) {
        let div = self.level().scale_divisor();
        let (ew, eh) = ((self.viewport.0 / div).max(1), (self.viewport.1 / div).max(1));
        let scale = ScalePolicy::new(self.config.width, self.config.height, ew, eh).with_view(view);
        if scale != self.scale {
            // Buffered commands target the outgoing coordinate space
            // (scaling may even have rewritten their overwrite class),
            // so they retire into debt under the scale that made them.
            self.retire_pending();
            self.scale = scale;
        }
        if self.config.scaling {
            self.video.set_scale(ew, self.config.width, eh, self.config.height);
        }
    }

    /// Converts everything still buffered — overflow debt and pending
    /// commands — into session-space refresh debt.
    pub(crate) fn retire_pending(&mut self) {
        self.absorb_buffer_debt();
        let dropped = self.buffer.drop_pending_for_rescale();
        self.owe_buffer_region(&dropped);
    }

    /// Moves the buffer's overflow debt into the session-space ledger.
    fn absorb_buffer_debt(&mut self) {
        if self.buffer.has_overflow_debt() {
            let debt = self.buffer.take_overflow_debt();
            self.owe_buffer_region(&debt);
        }
    }

    /// Owes `region`, given in the buffer's coordinate space.
    fn owe_buffer_region(&mut self, region: &Region) {
        let renderer = self.renderer();
        for rect in region.rects() {
            let r = if renderer.active { self.scale.unmap_rect(rect) } else { *rect };
            if !r.is_empty() {
                self.refresh_debt.union_rect(&r);
            }
        }
    }

    /// Owes a fresh-screen repaint of `region` (session space).
    pub(crate) fn owe_region(&mut self, region: &Region) {
        self.refresh_debt.union(region);
    }

    /// Whether screen regions are still owed a repaint.
    pub(crate) fn debt_outstanding(&self) -> bool {
        self.buffer.has_overflow_debt() || !self.refresh_debt.is_empty()
    }

    /// Settles the COPY guard for a draw round and reports whether the
    /// round opens with the owed full-view refresh. A COPY cannot be
    /// sent over unpaid debt: the client would copy pixels it never
    /// received, and repaying the debt repaints only the source. So
    /// the round escalates to a full-view refresh instead.
    pub(crate) fn owes_refresh(&mut self, has_copy: bool) -> bool {
        if has_copy && self.debt_outstanding() {
            self.refresh_owed = true;
        }
        self.refresh_owed
    }

    /// Delivers one draw round: the owed full-view refresh (`refresh`
    /// is this client's rendition of it), then the round's commands,
    /// then whatever debt fits. Each command comes as (whether the
    /// session-space original is a COPY, whether it is realtime input
    /// feedback, its rendition — `None` when scaled away).
    ///
    /// `screen` already reflects the round (the store is mutated
    /// before the driver call), so after a refresh the round's COPYs
    /// are skipped: on top of a snapshot holding their effect they
    /// would scroll twice wherever source and destination overlap.
    /// Idempotent repaints still flow; they keep the content cache
    /// warm.
    pub(crate) fn deliver(
        &mut self,
        refresh: Option<&DisplayCommand>,
        refresh_realtime: bool,
        cmds: impl IntoIterator<Item = (bool, bool, Option<DisplayCommand>)>,
        screen: &Framebuffer,
    ) {
        let refreshed = std::mem::take(&mut self.refresh_owed);
        if refreshed {
            // The snapshot repaints the whole view: debt inside it is
            // settled.
            self.absorb_buffer_debt();
            self.refresh_debt.subtract_rect(&self.scale.view);
            if let Some(r) = refresh {
                self.buffer.push(r.clone(), refresh_realtime);
            }
        }
        for (copy, realtime, cmd) in cmds {
            if refreshed && copy {
                continue;
            }
            if let Some(cmd) = cmd {
                self.buffer.push(cmd, realtime);
            }
        }
        self.repay_debt(screen);
    }

    /// Delivers an owed full-view refresh, if any, and repays debt:
    /// a draw round without commands.
    pub(crate) fn repay_refresh(&mut self, screen: &Framebuffer, realtime: bool) {
        let refresh = self.refresh_owed.then(|| self.renderer().view_refresh(screen));
        self.deliver(refresh.flatten().as_ref(), realtime, [], screen);
    }

    /// Resynchronizes the client: a full-view refresh, settled now.
    pub(crate) fn resync(&mut self, screen: &Framebuffer, realtime: bool) {
        self.resilience.record_resync();
        self.refresh_owed = true;
        self.repay_refresh(screen, realtime);
    }

    /// Converts refresh debt into fresh-screen RAW repaints. Evicted
    /// commands lose intermediate states, but the screen is
    /// authoritative: re-reading the debt region now yields the final
    /// content, so the client converges exactly. Each piece is read
    /// from the session-sized screen and scaled *once* for the
    /// viewport. Repaints bypass the byte bound (so repaying debt
    /// never evicts itself), but a piece is only pushed when it fits
    /// under the bound or the buffer is empty; the rest stays in the
    /// ledger until the link drains, so the bound holds while debt is
    /// repaid.
    pub(crate) fn repay_debt(&mut self, screen: &Framebuffer) {
        self.absorb_buffer_debt();
        if self.refresh_debt.is_empty() {
            return;
        }
        let renderer = self.renderer();
        let debt = std::mem::take(&mut self.refresh_debt);
        for rect in debt.rects() {
            let Some(cmd) = raw_of(screen, rect).and_then(|c| renderer.render(c, screen)) else {
                continue;
            };
            let pending = self.buffer.pending_bytes();
            let fits = match self.buffer.effective_byte_bound() {
                Some(bound) => pending == 0 || pending + cmd.wire_size() <= bound,
                None => true,
            };
            if fits {
                self.buffer.push_unbounded(cmd, false);
            } else {
                self.refresh_debt.union_rect(rect);
            }
        }
    }

    /// Handles a cache miss: queues the byte-exact payload from the
    /// ledger. When the entry was evicted on both sides the client
    /// skipped an update, so a full-view refresh is owed instead.
    pub(crate) fn cache_miss(&mut self, hash: u64) -> bool {
        let satisfied = self.buffer.satisfy_cache_miss(hash);
        self.refresh_owed |= !satisfied;
        satisfied
    }

    /// Queues A/V messages, then enforces the A/V bound.
    pub(crate) fn queue_av(&mut self, msgs: impl IntoIterator<Item = Message>) {
        self.av.extend(msgs);
        self.enforce_av_bound();
    }

    /// Shows one video frame through this client's stream manager
    /// (which resamples it for the viewport); returns the number of
    /// messages queued.
    pub(crate) fn display_video(&mut self, frame: &YuvFrame, dst: Rect, timestamp_us: u64) -> u64 {
        let msgs = self.video.display_frame(frame, dst, timestamp_us);
        let n = msgs.len() as u64;
        self.queue_av(msgs);
        n
    }

    /// Keeps the A/V FIFO under its configured depth, tightened by the
    /// degradation ladder: oldest video frames go first (a late frame
    /// is worthless — the next one supersedes it), then oldest audio;
    /// control messages (cursor, stream lifecycle, pings) are small,
    /// required for correctness, and never dropped.
    fn enforce_av_bound(&mut self) {
        let Some(bound) = self.config.av_bound else {
            return;
        };
        let bound = (bound / self.level().av_divisor()).max(1);
        while self.av.len() > bound {
            let victim = (self.av.iter())
                .position(|m| matches!(m, Message::VideoData { .. }))
                .or_else(|| self.av.iter().position(|m| matches!(m, Message::Audio { .. })));
            let Some(i) = victim else { break };
            self.av.remove(i);
            self.resilience.record_stale_video_drop();
        }
    }

    /// Records traffic from the client (anything but a pong proves
    /// the connection lives).
    pub(crate) fn note_activity(&mut self, now: SimTime) {
        if let Some(t) = self.liveness.as_mut() {
            t.note_activity(now);
        }
    }

    /// Records a pong; only one answering the latest outstanding
    /// probe counts as fresh traffic (returns `true`).
    pub(crate) fn note_pong(&mut self, seq: u32, now: SimTime) -> bool {
        self.liveness.as_mut().is_some_and(|t| t.note_pong(seq, now))
    }

    /// Evaluates liveness at `now`: a silent client gets a
    /// [`Message::Ping`] queued (at most one per interval), and silence
    /// past the timeout declares it dead. `Alive` when liveness is off.
    pub(crate) fn poll_liveness(&mut self, now: SimTime) -> LivenessVerdict {
        let Some(t) = self.liveness.as_mut() else {
            return LivenessVerdict::Alive;
        };
        let was_dead = t.is_dead();
        let verdict = t.poll(now);
        match verdict {
            LivenessVerdict::SendPing { seq } => {
                self.resilience.record_ping_sent();
                self.queue_av([Message::Ping { seq, timestamp_us: now.as_micros() }]);
            }
            LivenessVerdict::Dead if !was_dead => self.resilience.record_liveness_timeout(),
            _ => {}
        }
        verdict
    }

    /// Whether liveness tracking has declared the client dead.
    pub(crate) fn is_dead(&self) -> bool {
        self.liveness.as_ref().is_some_and(|t| t.is_dead())
    }

    /// Revives a client declared dead (it reconnected).
    pub(crate) fn revive(&mut self, now: SimTime) {
        if let Some(t) = self.liveness.as_mut() {
            t.reset(now);
        }
    }

    /// Feeds one flush epoch of fault evidence to the degradation
    /// controller and applies any level change: the transition is
    /// recorded, everything buffered retires into debt, the bound and
    /// scale move, and the client is owed the full view at the new
    /// fidelity.
    fn observe_degradation(&mut self, now: SimTime, pipe: &TcpPipe) {
        let Some(ctrl) = self.degradation.as_mut() else {
            return;
        };
        let fs = pipe.fault_stats();
        let transition = ctrl.observe(&EpochSignals {
            pending_bytes: self.buffer.pending_bytes(),
            byte_bound: self.buffer.byte_bound(),
            overflow_evictions: self.buffer.stats().overflow_evicted,
            outage_defers: fs.outage_defers,
            collapsed_rounds: fs.collapsed_rounds,
            stale_av_drops: self.resilience.stale_video_dropped(),
            corrupt_events: fs.corrupt_events,
            segments_reordered: fs.segments_reordered,
            segments_duplicated: fs.segments_duplicated,
            link_impaired: pipe.fault_window_active(now),
        });
        let Some(t) = transition else { return };
        self.resilience.record_degradation_step(t.to.index() as u64, t.is_demotion());
        self.retire_pending();
        self.buffer.set_degradation(t.to.bound_divisor(), t.to.raw_first_eviction());
        self.set_view(self.scale.view);
        self.refresh_owed = true;
    }

    /// Flushes without blocking: A/V first (paced data with
    /// deadlines; a blocked A/V message holds back the display queues
    /// too), then the SRSF display queues, against an optional
    /// encode-once `plane`. Returns `(arrival, message)` pairs.
    pub(crate) fn flush(
        &mut self,
        now: SimTime,
        pipe: &mut TcpPipe,
        trace: &mut PacketTrace,
        plane: Option<&WirePlane>,
        counters: &mut PlaneCounters,
    ) -> Vec<(SimTime, Message)> {
        if std::mem::take(&mut self.poison_flush) {
            panic!("injected poison: client flush panicked");
        }
        self.observe_degradation(now, pipe);
        self.enforce_av_bound();
        let mut out = Vec::new();
        while let Some(msg) = self.av.front() {
            let size = encoded_len(msg);
            if pipe.would_block(now, size) {
                let stale = matches!(msg, Message::VideoData { timestamp_us, .. }
                    if now.as_micros() > timestamp_us + STALE_VIDEO_US);
                if !stale {
                    return out;
                }
                self.av.pop_front();
                self.resilience.record_stale_video_drop();
                continue;
            }
            let msg = self.av.pop_front().expect("checked front");
            let tag = match &msg {
                Message::Audio { .. } => "audio",
                Message::CursorShape { .. } | Message::CursorMove { .. } => "cursor",
                Message::Ping { .. } | Message::Pong { .. } => "control",
                _ => "video",
            };
            let (_, arrival) = pipe.send(now, size);
            trace.record(now, arrival, size, Direction::Down, tag);
            thinc_protocol::telemetry::record_message(&mut self.av_metrics, &msg);
            out.push((arrival, msg));
        }
        out.extend(self.buffer.flush_shared(now, pipe, trace, plane, counters));
        out
    }

    /// Resilience counters with the buffer's overflow evictions and
    /// content-cache counters folded in.
    pub(crate) fn resilience_metrics(&self) -> ResilienceMetrics {
        let mut m = self.resilience.clone();
        m.add_overflow_evictions(self.buffer.stats().overflow_evicted);
        let (hits, misses, evictions, saved) = self.buffer.cache_counts();
        m.add_cache_counts(hits, misses, evictions, saved);
        m
    }

    /// Per-command wire accounting: the display path plus A/V.
    pub(crate) fn protocol_metrics(&self) -> ProtocolMetrics {
        let mut all = self.buffer.protocol_metrics().clone();
        all.merge(&self.av_metrics);
        all
    }

    /// Serializes the per-client section of a checkpoint image:
    /// viewport, zoom view, ladder level, owed refresh, debt ledger,
    /// the queued A/V FIFO and the buffer's raw internal state.
    pub(crate) fn encode_checkpoint(&self, w: &mut Writer) {
        w.u32(self.viewport.0);
        w.u32(self.viewport.1);
        w.rect(&self.scale.view);
        w.u8(self.degradation.as_ref().map_or(NO_LEVEL, |c| c.level().index() as u8));
        w.bool(self.refresh_owed);
        w.region(&self.refresh_debt);
        // Liveness probes are incarnation-local and never
        // checkpointed: the restored standby's fresh tracker issues its
        // own pings, and a carried-over probe would draw a pong the
        // standby's reset telemetry never accounted for (breaking
        // pong<=ping conservation).
        let av: Vec<&Message> = (self.av.iter())
            .filter(|m| !matches!(m, Message::Ping { .. }))
            .collect();
        w.u32(av.len() as u32);
        for msg in av {
            w.bytes(&encode_message(msg));
        }
        self.buffer.encode_checkpoint(w);
    }

    /// Rebuilds a pipeline from [`encode_checkpoint`]
    /// (Self::encode_checkpoint) output. Liveness restarts from
    /// `config` at `now`; video streams and telemetry start fresh.
    pub(crate) fn decode_checkpoint(
        r: &mut Reader<'_>,
        config: PipelineConfig,
        now: SimTime,
    ) -> Result<Self, CheckpointError> {
        let vw = r.u32()?;
        let vh = r.u32()?;
        let view = r.rect()?;
        let degradation = match (config.degradation, r.u8()?) {
            (Some(_), NO_LEVEL) => {
                return Err(CheckpointError::Malformed("missing degradation level"))
            }
            (Some(cfg), b) => Some(DegradationController::restore(cfg, level_from_u8(b)?)),
            (None, NO_LEVEL) => None,
            (None, _) => return Err(CheckpointError::Malformed("orphan degradation level")),
        };
        let refresh_owed = r.bool()?;
        let refresh_debt = r.region()?;
        let mut av = VecDeque::new();
        for _ in 0..r.u32()? {
            av.push_back(decode_checkpoint_message(r.bytes()?)?);
        }
        let buffer = ClientBuffer::decode_checkpoint(r)?;
        let mut p = Self {
            degradation,
            ..Self::new(config, ClientBuffer::new(), now)
        };
        p.set_viewport(vw, vh);
        p.set_view(view);
        p.buffer = buffer;
        p.refresh_owed = refresh_owed;
        p.refresh_debt = refresh_debt;
        p.av = av;
        Ok(p)
    }
}

/// Implements [`VideoDriver`](thinc_display::driver::VideoDriver) for
/// an owner of pipelines: device operations go through the owner's
/// `translator`, and each resulting round of commands goes to
/// `self.$deliver(cmds, screen)`, where `screen` already reflects the
/// round. Video frames go to `self.$video(frame, dst)`. The expansion
/// names the driver-interface types, which the owner's module imports.
macro_rules! translating_driver {
    ($owner:ty, $deliver:ident, $video:ident) => {
        impl VideoDriver for $owner {
            fn create_pixmap(&mut self, _: &DrawableStore, id: DrawableId, w: u32, h: u32) {
                self.translator.create_pixmap(id, w, h);
            }

            fn free_pixmap(&mut self, _: &DrawableStore, id: DrawableId) {
                self.translator.free_pixmap(id);
            }

            fn solid_fill(&mut self, store: &DrawableStore, target: DrawableId, rect: Rect, color: Color) {
                let cmds = self.translator.solid_fill(store, target, rect, color);
                self.$deliver(cmds, store.screen());
            }

            fn pattern_fill(
                &mut self,
                store: &DrawableStore,
                target: DrawableId,
                rect: Rect,
                tile: &Framebuffer,
            ) {
                let cmds = self.translator.pattern_fill(store, target, rect, tile);
                self.$deliver(cmds, store.screen());
            }

            fn stipple_fill(
                &mut self,
                store: &DrawableStore,
                target: DrawableId,
                rect: Rect,
                bits: &[u8],
                fg: Color,
                bg: Option<Color>,
            ) {
                let cmds = self.translator.stipple_fill(store, target, rect, bits, fg, bg);
                self.$deliver(cmds, store.screen());
            }

            fn copy_area(
                &mut self,
                store: &DrawableStore,
                src: DrawableId,
                dst: DrawableId,
                src_rect: Rect,
                dst_x: i32,
                dst_y: i32,
            ) {
                let cmds = self.translator.copy_area(store, src, dst, src_rect, dst_x, dst_y);
                self.$deliver(cmds, store.screen());
            }

            fn put_image(&mut self, store: &DrawableStore, target: DrawableId, rect: Rect, data: &[u8]) {
                let cmds = self.translator.put_image(store, target, rect, data);
                self.$deliver(cmds, store.screen());
            }

            fn video_display(&mut self, _: &DrawableStore, frame: &YuvFrame, dst: Rect) {
                self.$video(frame, dst);
            }

            fn composite(
                &mut self,
                store: &DrawableStore,
                target: DrawableId,
                rect: Rect,
                _data: &[u8],
                _op: thinc_raster::CompositeOp,
            ) {
                let cmds = self.translator.composite(store, target, rect);
                self.$deliver(cmds, store.screen());
            }
        }
    };
}
pub(crate) use translating_driver;
