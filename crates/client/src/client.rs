//! The THINC client.
//!
//! Executes protocol messages against a local framebuffer. The client
//! holds only transient soft state: everything it knows arrived over
//! the wire, so after any message sequence its framebuffer must be
//! byte-identical to the server's screen (modulo in-flight updates) —
//! the property the integration tests verify.
//!
//! Every received message takes one path, [`ThincClient::apply`],
//! whether a harness delivers it whole or [`crate::StreamClient`]
//! decodes it from the wire.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};

use thinc_protocol::cache::{cache_key, cacheable_kind, CacheLru};
use thinc_protocol::commands::{DisplayCommand, RawEncoding};
use thinc_protocol::message::Message;
use thinc_protocol::telemetry::command_kind;
use thinc_protocol::wire::with_encoded;
use thinc_protocol::DEFAULT_CACHE_BUDGET;
use thinc_raster::{Framebuffer, PixelFormat, Rect, YuvFormat, YuvFrame};
use thinc_telemetry::{ClientMetrics, ResilienceMetrics};

use crate::hardware::{ClientHardware, HardwareCaps};

/// Largest width or height the client will honor for wire-controlled
/// geometry (video destinations, pattern tiles). These dimensions
/// drive local allocations, so a corrupted or hostile message must not
/// be able to request gigabytes; anything past an 8K screen is bogus.
const MAX_WIRE_DIM: u32 = 8_192;

/// Whether wire-supplied dimensions are usable for allocation.
fn sane_dims(w: u32, h: u32) -> bool {
    (1..=MAX_WIRE_DIM).contains(&w) && (1..=MAX_WIRE_DIM).contains(&h)
}

/// A video overlay the client is currently showing.
#[derive(Debug, Clone, Copy)]
struct Overlay {
    format: YuvFormat,
    src_width: u32,
    src_height: u32,
    dst: Rect,
}

/// Client execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Messages applied.
    pub messages: u64,
    /// Display commands executed, by type.
    pub raw: u64,
    /// `COPY` commands executed.
    pub copy: u64,
    /// `SFILL` commands executed.
    pub sfill: u64,
    /// `PFILL` commands executed.
    pub pfill: u64,
    /// `BITMAP` commands executed.
    pub bitmap: u64,
    /// Video frames displayed.
    pub video_frames: u64,
    /// Audio bytes received.
    pub audio_bytes: u64,
    /// Commands rejected as malformed.
    pub errors: u64,
}

/// A THINC client with a local framebuffer.
#[derive(Debug)]
pub struct ThincClient {
    fb: Framebuffer,
    hw: ClientHardware,
    overlays: HashMap<u32, Overlay>,
    stats: ClientStats,
    audio_timestamps: Vec<u64>,
    cursor: crate::cursor::CursorState,
    pending_pong: Option<Message>,
    /// Content-addressed store (protocol revision 3): every cacheable
    /// full payload received, so a later [`Message::CacheRef`]
    /// resolves locally. Mirrors the server's per-client ledger (same
    /// budget, same sizes, same order) and survives a reconnect, so a
    /// resync can repay refresh debt out of the cache.
    pub(crate) store: CacheLru<Message>,
    /// Cache misses owed to the server, oldest first.
    pending_cache_miss: VecDeque<Message>,
    metrics: ClientMetrics,
    /// Cache hits, misses and evictions; a [`crate::StreamClient`]
    /// adds its wire-level counters here.
    pub(crate) resilience: ResilienceMetrics,
}

impl ThincClient {
    /// Creates a client whose framebuffer is `width`×`height` in
    /// `format` (the viewport geometry it announced to the server).
    pub fn new(width: u32, height: u32, format: PixelFormat) -> Self {
        Self::with_hardware(width, height, format, HardwareCaps::commodity())
    }

    /// Creates a client with explicit hardware capabilities.
    pub fn with_hardware(width: u32, height: u32, format: PixelFormat, caps: HardwareCaps) -> Self {
        Self {
            fb: Framebuffer::new(width, height, format),
            hw: ClientHardware::new(caps),
            overlays: HashMap::new(),
            stats: ClientStats::default(),
            audio_timestamps: Vec::new(),
            cursor: crate::cursor::CursorState::new(),
            pending_pong: None,
            store: CacheLru::new(DEFAULT_CACHE_BUDGET),
            pending_cache_miss: VecDeque::new(),
            metrics: ClientMetrics::new(),
            resilience: ResilienceMetrics::new(),
        }
    }

    /// Sets the content store's byte budget. It must match the server
    /// ledger's (the session's cache budget) for the eviction mirror
    /// to hold, so call this before any traffic when the session runs
    /// a non-default budget. Replaces the (still empty) store.
    pub fn with_cache_budget(mut self, budget: u64) -> Self {
        self.store = CacheLru::new(budget);
        self
    }

    /// Takes the heartbeat reply owed to the server, if a
    /// [`Message::Ping`] was applied since the last call. The caller
    /// owns the uplink and sends it.
    pub fn take_pong(&mut self) -> Option<Message> {
        self.pending_pong.take()
    }

    /// The next [`Message::CacheMiss`] owed to the server, if any. An
    /// unresolved cache reference queues one; the caller forwards it
    /// upstream (like pongs) and the server answers with the full
    /// payload.
    pub fn take_cache_miss(&mut self) -> Option<Message> {
        self.pending_cache_miss.pop_front()
    }

    /// Every key in the content store, sorted ascending. For coherence
    /// checks against the server's ledger and the resume digest.
    pub fn cache_keys(&self) -> Vec<u64> {
        self.store.keys()
    }

    /// Entries currently held in the content store.
    pub fn cache_len(&self) -> usize {
        self.store.len()
    }

    /// The client's framebuffer.
    pub fn framebuffer(&self) -> &Framebuffer {
        &self.fb
    }

    /// Execution statistics.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Client-side telemetry: per-kind decode counts, decode errors
    /// and request-to-screen frame latency.
    pub fn metrics(&self) -> &ClientMetrics {
        &self.metrics
    }

    /// The telemetry, mutably: a harness that knows when an update was
    /// requested records its frame latency here.
    pub fn metrics_mut(&mut self) -> &mut ClientMetrics {
        &mut self.metrics
    }

    /// Resilience accounting: the content store's hits, misses, bytes
    /// saved and evictions, plus the wire-level counters a
    /// [`crate::StreamClient`] records.
    pub fn resilience_metrics(&self) -> &ResilienceMetrics {
        &self.resilience
    }

    /// The hardware cost model (client processing time accounting).
    pub fn hardware(&self) -> &ClientHardware {
        &self.hw
    }

    /// Timestamps of received audio packets (A/V sync verification).
    pub fn audio_timestamps(&self) -> &[u64] {
        &self.audio_timestamps
    }

    /// The cursor overlay state.
    pub fn cursor(&self) -> &crate::cursor::CursorState {
        &self.cursor
    }

    /// The image to present: framebuffer with the cursor composited
    /// over it (save-under; the base framebuffer is unmodified).
    pub fn presented(&self) -> Framebuffer {
        self.cursor.present(&self.fb)
    }

    /// Applies one protocol message and returns it as executed.
    ///
    /// A [`Message::CacheRef`] is resolved against the content store
    /// first, and the resolved payload is executed and returned. An
    /// unresolved reference executes nothing: it queues a
    /// [`Message::CacheMiss`] and returns `None`. That is not damage:
    /// the server answers with the full payload, which repaints the
    /// same rect. Every cacheable full payload enters the store, even
    /// when executing it was rejected, because the server's ledger
    /// marked it held the moment it was sent.
    pub fn apply<'m>(&mut self, msg: &'m Message) -> Option<Cow<'m, Message>> {
        let done = match msg {
            Message::CacheRef { hash } => Cow::Owned(self.resolve(*hash, msg.wire_size())?),
            full => Cow::Borrowed(full),
        };
        self.execute_message(&done);
        if let Cow::Borrowed(full) = done {
            self.store_payload(full);
        }
        Some(done)
    }

    /// Looks `hash` up in the content store, counting the hit and the
    /// bytes the `ref_size`-byte reference saved, or queueing the miss.
    fn resolve(&mut self, hash: u64, ref_size: u64) -> Option<Message> {
        let Some((size, resolved)) = self.store.get_sized(hash) else {
            self.resilience.record_cache_miss();
            self.pending_cache_miss.push_back(Message::CacheMiss { hash });
            return None;
        };
        let resolved = resolved.clone();
        self.resilience.record_cache_hit(size.saturating_sub(ref_size));
        Some(resolved)
    }

    /// Stores a cacheable payload under the key and size taken from
    /// one encode.
    fn store_payload(&mut self, msg: &Message) {
        if !cacheable_kind(msg) {
            return;
        }
        let keyed = with_encoded(msg, |bytes| Some((cache_key(msg, bytes)?, bytes.len() as u64)));
        if let Some((key, size)) = keyed {
            let evicted = self.store.insert(key, size, msg.clone());
            self.resilience.record_cache_evictions(evicted);
        }
    }

    /// Counts a message rejected as malformed.
    fn reject(&mut self) {
        self.stats.errors += 1;
        self.metrics.record_decode_error();
    }

    /// Executes one resolved message.
    fn execute_message(&mut self, msg: &Message) {
        self.stats.messages += 1;
        self.metrics.record_decoded(command_kind(msg));
        match msg {
            // Handshake traffic (including the client-originated
            // resume request) carries no drawing.
            Message::ServerHello { .. }
            | Message::ClientHello { .. }
            | Message::SessionResume { .. } => {}
            Message::Display(cmd) => self.execute(cmd),
            Message::VideoInit {
                id,
                format,
                src_width,
                src_height,
                dst,
            } => {
                // Stream geometry is wire-controlled and sizes local
                // buffers; reject corrupt values up front.
                if !sane_dims(*src_width, *src_height) || !sane_dims(dst.w, dst.h) {
                    self.reject();
                    return;
                }
                self.overlays.insert(
                    *id,
                    Overlay {
                        format: *format,
                        src_width: *src_width,
                        src_height: *src_height,
                        dst: *dst,
                    },
                );
            }
            Message::VideoData { id, data, .. } => {
                let Some(&ov) = self.overlays.get(id) else {
                    self.reject();
                    return;
                };
                if data.len() != ov.format.frame_size(ov.src_width, ov.src_height) {
                    self.reject();
                    return;
                }
                let (dst, sw, sh, fmt) = (ov.dst, ov.src_width, ov.src_height, ov.format);
                // The overlay "hardware": colorspace-convert and scale
                // to the destination rectangle.
                let frame = YuvFrame::from_data(fmt, sw, sh, data.clone());
                let rgb = frame.to_rgb_scaled(dst.w, dst.h, self.fb.format());
                let (clip, raw) = rgb.get_raw(&Rect::new(0, 0, dst.w, dst.h));
                if !clip.is_empty() {
                    self.fb.put_raw(&Rect::new(dst.x, dst.y, clip.w, clip.h), &raw);
                }
                self.hw.video(sw as u64 * sh as u64, dst.area());
                self.stats.video_frames += 1;
            }
            Message::VideoMove { id, dst } => {
                if !sane_dims(dst.w, dst.h) {
                    self.reject();
                    return;
                }
                if let Some(ov) = self.overlays.get_mut(id) {
                    ov.dst = *dst;
                } else {
                    self.reject();
                }
            }
            Message::VideoEnd { id } => {
                self.overlays.remove(id);
            }
            Message::Audio {
                timestamp_us, data, ..
            } => {
                self.stats.audio_bytes += data.len() as u64;
                self.audio_timestamps.push(*timestamp_us);
            }
            Message::CursorShape {
                width,
                height,
                hot_x,
                hot_y,
                pixels,
            } => {
                if !self.cursor.set_shape(*width, *height, *hot_x, *hot_y, pixels) {
                    self.reject();
                }
            }
            Message::CursorMove { x, y } => {
                self.cursor.move_to(*x, *y);
            }
            Message::Ping { seq, timestamp_us } => {
                self.pending_pong = Some(Message::Pong {
                    seq: *seq,
                    timestamp_us: *timestamp_us,
                });
            }
            // Client-originated, so ignored if echoed. A reference
            // never gets here: `apply` resolved it, and the store
            // holds only display payloads.
            Message::Input(_)
            | Message::Resize { .. }
            | Message::SetView { .. }
            | Message::Pong { .. }
            | Message::RefreshRequest { .. }
            | Message::CacheMiss { .. }
            | Message::CacheRef { .. } => {}
        }
    }

    /// Executes one display command on the local framebuffer.
    fn execute(&mut self, cmd: &DisplayCommand) {
        match cmd {
            DisplayCommand::Raw {
                rect,
                encoding,
                data,
            } => {
                let bpp = self.fb.format().bytes_per_pixel();
                let needed = rect.area() as usize * bpp;
                let pixels: Vec<u8> = match encoding {
                    RawEncoding::None => data.to_vec(),
                    RawEncoding::PngLike => {
                        self.hw.decompress(data.len() as u64);
                        let stride = rect.w as usize * bpp;
                        match thinc_compress::pnglike::decompress(data, bpp, stride) {
                            Some(d) => d,
                            None => {
                                self.reject();
                                return;
                            }
                        }
                    }
                };
                if pixels.len() < needed {
                    self.reject();
                    return;
                }
                self.fb.put_raw(rect, &pixels);
                self.hw.put(rect.area());
                self.stats.raw += 1;
            }
            DisplayCommand::Copy {
                src_rect,
                dst_x,
                dst_y,
            } => {
                self.fb.copy_rect(src_rect, *dst_x, *dst_y);
                self.hw.copy(src_rect.area());
                self.stats.copy += 1;
            }
            DisplayCommand::Sfill { rect, color } => {
                self.fb.fill_rect(rect, *color);
                self.hw.fill(rect.area());
                self.stats.sfill += 1;
            }
            DisplayCommand::Pfill { rect, tile } => {
                if !sane_dims(tile.width, tile.height)
                    || tile.pixels.len()
                        < tile.width as usize
                            * tile.height as usize
                            * self.fb.format().bytes_per_pixel()
                {
                    self.reject();
                    return;
                }
                let mut t = Framebuffer::new(tile.width, tile.height, self.fb.format());
                t.put_raw(&Rect::new(0, 0, tile.width, tile.height), &tile.pixels);
                self.fb.tile_rect(rect, &t);
                self.hw.pattern(rect.area());
                self.stats.pfill += 1;
            }
            DisplayCommand::Bitmap { rect, bits, fg, bg } => {
                let row_bytes = (rect.w as usize).div_ceil(8);
                if bits.len() < row_bytes * rect.h as usize {
                    self.reject();
                    return;
                }
                self.fb.bitmap_rect(rect, bits, *fg, *bg);
                self.hw.pattern(rect.area());
                self.stats.bitmap += 1;
            }
        }
    }

    /// Applies a batch of messages in order.
    pub fn apply_all<'a>(&mut self, msgs: impl IntoIterator<Item = &'a Message>) {
        for m in msgs {
            self.apply(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinc_protocol::commands::Tile;
    use thinc_raster::Color;

    fn client() -> ThincClient {
        ThincClient::new(64, 64, PixelFormat::Rgb888)
    }

    #[test]
    fn executes_sfill() {
        let mut c = client();
        c.apply(&Message::Display(DisplayCommand::Sfill {
            rect: Rect::new(0, 0, 8, 8),
            color: Color::rgb(1, 2, 3),
        }));
        assert_eq!(c.framebuffer().get_pixel(4, 4), Some(Color::rgb(1, 2, 3)));
        assert_eq!(c.stats().sfill, 1);
    }

    #[test]
    fn executes_compressed_raw() {
        let mut c = client();
        let pixels = vec![9u8; 16 * 16 * 3];
        let packed = thinc_compress::pnglike::compress(&pixels, 3, 48);
        c.apply(&Message::Display(DisplayCommand::Raw {
            rect: Rect::new(0, 0, 16, 16),
            encoding: RawEncoding::PngLike,
            data: packed.into(),
        }));
        assert_eq!(c.framebuffer().get_pixel(8, 8), Some(Color::rgb(9, 9, 9)));
        assert_eq!(c.stats().errors, 0);
    }

    #[test]
    fn corrupt_compressed_raw_counts_error() {
        let mut c = client();
        c.apply(&Message::Display(DisplayCommand::Raw {
            rect: Rect::new(0, 0, 16, 16),
            encoding: RawEncoding::PngLike,
            data: vec![0xFF, 0x22].into(),
        }));
        assert_eq!(c.stats().errors, 1);
    }

    #[test]
    fn decode_error_metric_moves_with_stats_errors() {
        let mut c = client();
        c.apply(&Message::Display(DisplayCommand::Raw {
            rect: Rect::new(0, 0, 16, 16),
            encoding: RawEncoding::PngLike,
            data: vec![0xFF, 0x22].into(),
        }));
        assert_eq!(c.stats().errors, 1);
        assert_eq!(c.metrics().decode_errors(), 1);
    }

    #[test]
    fn metrics_count_decoded_kinds() {
        use thinc_telemetry::CommandKind;
        let mut c = client();
        for x in [0, 8] {
            c.apply(&Message::Display(DisplayCommand::Sfill {
                rect: Rect::new(x, 0, 8, 8),
                color: Color::WHITE,
            }));
        }
        c.apply(&Message::CursorMove { x: 1, y: 1 });
        assert_eq!(c.metrics().decoded(CommandKind::Sfill), 2);
        assert_eq!(c.metrics().decoded(CommandKind::Cursor), 1);
        assert_eq!(c.metrics().total_decoded(), 3);
    }

    fn cacheable_raw(fill: u8) -> Message {
        Message::Display(DisplayCommand::Raw {
            rect: Rect::new(0, 0, 8, 8),
            encoding: RawEncoding::None,
            data: vec![fill; 8 * 8 * 3].into(),
        })
    }

    #[test]
    fn cache_reference_resolves_from_the_store() {
        let mut c = client();
        let raw = cacheable_raw(7);
        let hash = raw.cache_key().expect("pixel payloads over the floor cache");
        c.apply(&raw);
        assert_eq!(c.cache_keys(), vec![hash]);
        c.apply(&Message::Display(DisplayCommand::Sfill {
            rect: Rect::new(0, 0, 64, 64),
            color: Color::BLACK,
        }));
        let reference = Message::CacheRef { hash };
        let done = c.apply(&reference).expect("the reference resolves");
        assert_eq!(*done, raw, "the resolved payload is what executed");
        assert_eq!(c.framebuffer().get_pixel(2, 2), Some(Color::rgb(7, 7, 7)));
        assert_eq!(c.stats().raw, 2);
        let m = c.resilience_metrics();
        assert_eq!(m.cache_hits(), 1);
        assert_eq!(m.cache_bytes_saved(), raw.wire_size() - reference.wire_size());
        assert_eq!(c.cache_len(), 1, "a hit re-ranks, it does not re-insert");
        assert!(c.take_cache_miss().is_none());
    }

    #[test]
    fn unresolved_reference_queues_a_miss_and_applies_nothing() {
        let mut c = client();
        assert!(c.apply(&Message::CacheRef { hash: 0xDEAD }).is_none());
        assert_eq!(c.stats().messages, 0);
        assert_eq!(c.stats().errors, 0, "a miss is not damage");
        assert_eq!(c.resilience_metrics().cache_misses(), 1);
        assert_eq!(c.take_cache_miss(), Some(Message::CacheMiss { hash: 0xDEAD }));
        assert!(c.take_cache_miss().is_none());
    }

    #[test]
    fn rejected_payload_still_enters_the_store() {
        // The server's ledger holds what it sent, applied or not.
        let mut c = client();
        let bad = Message::Display(DisplayCommand::Raw {
            rect: Rect::new(0, 0, 16, 16),
            encoding: RawEncoding::None,
            data: vec![1; 100].into(),
        });
        c.apply(&bad);
        assert_eq!(c.stats().errors, 1);
        assert_eq!(c.cache_keys(), vec![bad.cache_key().unwrap()]);
    }

    #[test]
    fn store_budget_bounds_and_evicts() {
        let raw = cacheable_raw(1);
        let size = raw.wire_size();
        let mut c = client().with_cache_budget(size);
        c.apply(&raw);
        c.apply(&cacheable_raw(2));
        assert_eq!(c.cache_keys(), vec![cacheable_raw(2).cache_key().unwrap()]);
        assert_eq!(c.resilience_metrics().cache_evictions(), 1);
        // No budget, no store.
        let mut off = client().with_cache_budget(0);
        off.apply(&raw);
        assert_eq!(off.cache_len(), 0);
    }

    #[test]
    fn short_raw_rejected() {
        let mut c = client();
        c.apply(&Message::Display(DisplayCommand::Raw {
            rect: Rect::new(0, 0, 16, 16),
            encoding: RawEncoding::None,
            data: vec![0; 10].into(),
        }));
        assert_eq!(c.stats().errors, 1);
    }

    #[test]
    fn copy_scrolls_locally() {
        let mut c = client();
        c.apply(&Message::Display(DisplayCommand::Sfill {
            rect: Rect::new(0, 0, 64, 8),
            color: Color::WHITE,
        }));
        c.apply(&Message::Display(DisplayCommand::Copy {
            src_rect: Rect::new(0, 0, 64, 8),
            dst_x: 0,
            dst_y: 32,
        }));
        assert_eq!(c.framebuffer().get_pixel(10, 36), Some(Color::WHITE));
    }

    #[test]
    fn video_stream_lifecycle() {
        let mut c = client();
        let frame = YuvFrame::new(YuvFormat::Yv12, 8, 8);
        c.apply(&Message::VideoInit {
            id: 0,
            format: YuvFormat::Yv12,
            src_width: 8,
            src_height: 8,
            dst: Rect::new(0, 0, 32, 32),
        });
        c.apply(&Message::VideoData {
            id: 0,
            seq: 0,
            timestamp_us: 0,
            data: frame.data.clone(),
        });
        assert_eq!(c.stats().video_frames, 1);
        // Zeroed YV12 decodes to green-ish; just check it drew.
        assert!(c.framebuffer().get_pixel(16, 16).is_some());
        c.apply(&Message::VideoEnd { id: 0 });
        // Frames for dead streams are errors.
        c.apply(&Message::VideoData {
            id: 0,
            seq: 1,
            timestamp_us: 1,
            data: frame.data,
        });
        assert_eq!(c.stats().errors, 1);
    }

    #[test]
    fn video_wrong_size_rejected() {
        let mut c = client();
        c.apply(&Message::VideoInit {
            id: 0,
            format: YuvFormat::Yv12,
            src_width: 8,
            src_height: 8,
            dst: Rect::new(0, 0, 8, 8),
        });
        c.apply(&Message::VideoData {
            id: 0,
            seq: 0,
            timestamp_us: 0,
            data: vec![0; 5],
        });
        assert_eq!(c.stats().errors, 1);
        assert_eq!(c.stats().video_frames, 0);
    }

    #[test]
    fn audio_recorded() {
        let mut c = client();
        c.apply(&Message::Audio {
            seq: 0,
            timestamp_us: 123,
            data: vec![0; 100],
        });
        assert_eq!(c.stats().audio_bytes, 100);
        assert_eq!(c.audio_timestamps(), &[123]);
    }

    #[test]
    fn bad_pfill_rejected() {
        let mut c = client();
        c.apply(&Message::Display(DisplayCommand::Pfill {
            rect: Rect::new(0, 0, 8, 8),
            tile: Tile {
                width: 0,
                height: 0,
                pixels: vec![],
            },
        }));
        assert_eq!(c.stats().errors, 1);
    }

    #[test]
    fn absurd_wire_geometry_rejected() {
        let mut c = client();
        // A corrupted VideoInit must not size local buffers.
        c.apply(&Message::VideoInit {
            id: 0,
            format: YuvFormat::Yv12,
            src_width: u32::MAX,
            src_height: 8,
            dst: Rect::new(0, 0, 8, 8),
        });
        assert_eq!(c.stats().errors, 1);
        c.apply(&Message::VideoInit {
            id: 1,
            format: YuvFormat::Yv12,
            src_width: 8,
            src_height: 8,
            dst: Rect::new(0, 0, u32::MAX, u32::MAX),
        });
        assert_eq!(c.stats().errors, 2);
        // Same for a VideoMove onto a live stream.
        c.apply(&Message::VideoInit {
            id: 2,
            format: YuvFormat::Yv12,
            src_width: 8,
            src_height: 8,
            dst: Rect::new(0, 0, 8, 8),
        });
        c.apply(&Message::VideoMove {
            id: 2,
            dst: Rect::new(0, 0, 0, u32::MAX),
        });
        assert_eq!(c.stats().errors, 3);
        // And for an oversized pattern tile.
        c.apply(&Message::Display(DisplayCommand::Pfill {
            rect: Rect::new(0, 0, 8, 8),
            tile: Tile {
                width: u32::MAX,
                height: u32::MAX,
                pixels: vec![0; 16],
            },
        }));
        assert_eq!(c.stats().errors, 4);
    }

    #[test]
    fn ping_produces_pong() {
        let mut c = client();
        assert_eq!(c.take_pong(), None);
        c.apply(&Message::Ping {
            seq: 3,
            timestamp_us: 777,
        });
        assert_eq!(
            c.take_pong(),
            Some(Message::Pong {
                seq: 3,
                timestamp_us: 777
            })
        );
        // Consumed: a second take returns nothing.
        assert_eq!(c.take_pong(), None);
    }
}
