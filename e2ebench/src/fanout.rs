//! `fanout`: one presenter's screen broadcast to many viewers through
//! `SharedSession` under a `ShardedManager` — the session, plane and
//! shard path. Half the viewers sit on the LAN, half on the WAN. The
//! presenter browses with revisits: fresh pages alternate with returns
//! to one of the last three, so the content cache and the encode-once
//! plane both have work to save.

use thinc_baselines::framework::{raster_cost, server_time};
use thinc_client::StreamClient;
use thinc_core::session::ClientId;
use thinc_core::{Credentials, ShardedManager, SharedSession};
use thinc_display::drawable::DrawableId;
use thinc_display::request::RequestResult;
use thinc_display::server::WindowServer;
use thinc_net::link::NetworkConfig;
use thinc_net::time::SimTime;
use thinc_net::trace::PacketTrace;
use thinc_protocol::message::Message;
use thinc_protocol::wire::{encode_message, FrameEncoder};
use thinc_protocol::{DEFAULT_CACHE_BUDGET, PROTOCOL_VERSION};
use thinc_raster::PixelFormat;
use thinc_workloads::web::WebWorkload;

use crate::bench::{Bench, Counts, Shape, Update};
use crate::driver::Timed;
use crate::paper::{page_requests, FLUSH_PERIOD, THINK_TIME};
use crate::tally::Tally;
use crate::trace::Timer;

/// Shards the viewers are partitioned into.
const SHARDS: usize = 2;
/// Pages a revisit may return to.
const REVISIT_WINDOW: usize = 3;

struct Viewer {
    id: ClientId,
    client: StreamClient,
    encoder: FrameEncoder,
    decode_errors_seen: u64,
}

pub struct Fanout {
    ws: WindowServer<Timed<ShardedManager>>,
    viewers: Vec<Viewer>,
    shape: Shape,
    wl: WebWorkload,
    /// The most recent fresh pages, newest last.
    recent: Vec<usize>,
    now: SimTime,
    next_pixmap: u32,
    tally: Tally,
    backlog_sum: u64,
    shard_max_us: f64,
    shard_mean_us: f64,
    epochs: u64,
    /// Mean simulated downlink utilization over the viewers.
    utilization: f64,
}

impl Fanout {
    /// Attaches every viewer, hands each the server hello as wire
    /// bytes, and delivers the initial full-screen refresh.
    pub fn new(shape: Shape) -> Self {
        let (w, h) = (shape.width, shape.height);
        let format = PixelFormat::Rgb888;
        let mut session = SharedSession::new(w, h, format, "presenter")
            .with_workers(shape.workers)
            .with_cache(DEFAULT_CACHE_BUDGET);
        session.auth_mut().enable_sharing("pw");
        let mut m = ShardedManager::new(session, SHARDS);
        let hello = encode_message(&Message::ServerHello {
            version: PROTOCOL_VERSION,
            width: w,
            height: h,
            depth: format.depth() as u8,
        });
        let mut viewers = Vec::with_capacity(shape.viewers);
        for i in 0..shape.viewers {
            let creds = if i == 0 {
                Credentials::Owner {
                    user: "presenter".into(),
                }
            } else {
                Credentials::Peer {
                    user: format!("v{i}"),
                    password: "pw".into(),
                }
            };
            let net = if i % 2 == 0 {
                NetworkConfig::lan_desktop()
            } else {
                NetworkConfig::wan_desktop()
            };
            let id = m
                .attach(&creds, w, h, (net.connect().down, PacketTrace::new()))
                .expect("viewer attach");
            let mut client = StreamClient::new(w, h, format);
            client.feed(&hello);
            viewers.push(Viewer {
                id,
                client,
                encoder: FrameEncoder::with_revision(PROTOCOL_VERSION),
                decode_errors_seen: 0,
            });
        }
        let mut f = Self {
            ws: WindowServer::new(w, h, format, Timed(m)),
            viewers,
            shape,
            wl: WebWorkload::new(w, h, 0),
            recent: Vec::new(),
            now: SimTime::ZERO,
            next_pixmap: 1,
            tally: Tally::new(format.bytes_per_pixel()),
            backlog_sum: 0,
            shard_max_us: 0.0,
            shard_mean_us: 0.0,
            epochs: 0,
            utilization: 0.0,
        };
        let screen = f.ws.screen().clone();
        f.manager().session_mut().repay_refreshes(&screen);
        let mut u = Update::new(shape.viewers);
        let last = f.drain(SimTime::ZERO, &mut u);
        f.now = last + THINK_TIME;
        f
    }

    fn manager(&mut self) -> &mut ShardedManager {
        &mut self.ws.driver_mut().0
    }

    fn backlog(&self) -> usize {
        let s = self.ws.driver().0.session();
        self.viewers
            .iter()
            .map(|v| s.backlog(v.id))
            .max()
            .unwrap_or(0)
    }

    /// Flush epochs until every viewer's queue is empty. Returns the
    /// last arrival at any viewer (at least `from`).
    fn drain(&mut self, from: SimTime, u: &mut Update) -> SimTime {
        let mut now = from;
        let mut last = from;
        loop {
            last = last.max(self.epoch(now, u));
            if self.backlog() == 0 {
                return last;
            }
            let m = self.manager();
            let busy: Vec<ClientId> = m
                .session()
                .client_ids()
                .into_iter()
                .filter(|&id| m.session().backlog(id) > 0)
                .collect();
            let free = busy
                .into_iter()
                .filter_map(|id| m.link_mut(id).map(|(pipe, _)| pipe.tx_free_at()))
                .min()
                .unwrap_or(now);
            now = free.max(now + FLUSH_PERIOD);
        }
    }

    /// One `flush_epoch`, then each viewer's messages framed by its
    /// encoder and fed to it. Returns the last arrival.
    fn epoch(&mut self, now: SimTime, u: &mut Update) -> SimTime {
        let walls_before = self.shard_walls();
        let t = Timer::start("core.flush");
        let out = self.manager().flush_epoch(now);
        let done = t.stop();
        let raw = self.tally.messages(out.iter().flat_map(|(_, msgs)| msgs));
        u.server_ns += done.bytes(raw);
        self.note_shards(&walls_before);
        let mut last = now;
        for (id, msgs) in out {
            if msgs.is_empty() {
                continue;
            }
            let idx = self
                .viewers
                .iter()
                .position(|v| v.id == id)
                .expect("known viewer");
            let v = &mut self.viewers[idx];
            let t = Timer::start("protocol.encode");
            let frames: Vec<Vec<u8>> = msgs.iter().map(|(_, m)| v.encoder.encode(m)).collect();
            let bytes: u64 = frames.iter().map(|f| f.len() as u64).sum();
            u.server_ns += t.stop().bytes(bytes);
            let t = Timer::start("client.feed");
            for f in &frames {
                v.client.feed(f);
            }
            u.client_ns[idx] += t.stop().bytes(bytes);
            let mut misses = Vec::new();
            while let Some(Message::CacheMiss { hash }) = v.client.take_cache_miss() {
                misses.push(hash);
            }
            for f in &frames {
                self.tally.wire(f);
            }
            for hash in misses {
                let t = Timer::start("core.input");
                self.manager().session_mut().client_cache_miss(id, hash);
                u.server_ns += t.stop().ns;
            }
            last = msgs.iter().map(|(a, _)| *a).fold(last, SimTime::max);
        }
        last
    }

    fn shard_walls(&self) -> Vec<u64> {
        let m = &self.ws.driver().0;
        (0..m.shard_count())
            .map(|s| m.shard_metrics(s).flush_wall_us().sum())
            .collect()
    }

    /// Adds this epoch's slowest and mean shard flush time.
    fn note_shards(&mut self, before: &[u64]) {
        let walls: Vec<f64> = self
            .shard_walls()
            .iter()
            .zip(before)
            .map(|(a, b)| (a - b) as f64)
            .collect();
        self.shard_max_us += walls.iter().copied().fold(0.0, f64::max);
        self.shard_mean_us += walls.iter().sum::<f64>() / walls.len() as f64;
        self.epochs += 1;
    }

    fn mean_utilization(&mut self, now: SimTime) -> f64 {
        let ids: Vec<ClientId> = self.viewers.iter().map(|v| v.id).collect();
        let m = self.manager();
        let sum: f64 = ids
            .iter()
            .filter_map(|&id| m.link_mut(id).map(|(pipe, _)| pipe.utilization(now)))
            .sum();
        sum / ids.len() as f64
    }

    fn converged(&mut self) -> bool {
        let screen = self.ws.screen().data();
        let mut ok = true;
        for v in &mut self.viewers {
            let errors = v.client.resilience_metrics().decode_errors();
            ok &= errors == v.decode_errors_seen
                && !v.client.needs_refresh()
                && v.client.pending_bytes() == 0
                && v.client.client().framebuffer().data() == screen;
            v.decode_errors_seen = errors;
        }
        ok
    }
}

impl Bench for Fanout {
    fn shape(&self) -> Shape {
        self.shape
    }

    fn begin_pass(&mut self, seed: u64) {
        self.wl = WebWorkload::new(self.shape.width, self.shape.height, seed);
        self.recent.clear();
    }

    fn update(&mut self, k: usize) -> Update {
        // Even updates show page k of the sequence; odd ones go back
        // one, two, then three fresh pages, in turn.
        let page = if k.is_multiple_of(2) || self.recent.is_empty() {
            self.recent.push(k);
            if self.recent.len() > REVISIT_WINDOW {
                self.recent.remove(0);
            }
            k
        } else {
            let back = (k / 2) % REVISIT_WINDOW + 1;
            self.recent[self.recent.len().saturating_sub(back)]
        };
        let pm = DrawableId(self.next_pixmap);
        self.next_pixmap += 1;
        let reqs = page_requests(&self.wl, page, pm);
        let cpu = server_time(raster_cost(&reqs));
        let t0 = self.now;

        let mut u = Update::new(self.viewers.len());
        let root = Timer::start("update");
        let t = Timer::start("display");
        let results = self.ws.process_all(reqs);
        u.server_ns += t.stop().ns;
        self.backlog_sum += self.backlog() as u64;
        let last = self.drain(t0 + cpu, &mut u);
        u.total_ns = root.stop().ns;

        self.tally.update((last - t0).as_micros());
        self.now = last + THINK_TIME;
        self.utilization = self.mean_utilization(last);
        u.failed = results.first() != Some(&RequestResult::Created(pm)) || !self.converged();
        u
    }

    fn end_pass(&mut self) -> bool {
        true
    }

    fn counts(&self) -> Counts {
        let m = &self.ws.driver().0;
        let mut c = Counts {
            backlog_sum: self.backlog_sum,
            ..self.tally.counts()
        };
        for v in &self.viewers {
            let r = v.client.resilience_metrics();
            c.cache_hits += r.cache_hits();
            c.cache_saved_bytes += r.cache_bytes_saved();
            c.cache_ref_misses += r.cache_misses();
            c.decode_errors += r.decode_errors();
            c.net_bytes += m.session().client_sent_bytes(v.id);
        }
        for s in 0..m.shard_count() {
            c.shared_sends += m.shard_metrics(s).shared_sends();
            c.payload_encodes += m.shard_metrics(s).payload_encodes();
        }
        c
    }

    fn digest(&self) -> u64 {
        self.tally.digest
    }

    fn net_utilization(&self) -> f64 {
        self.utilization
    }

    fn shard_epochs(&self) -> (f64, f64, u64) {
        (self.shard_max_us, self.shard_mean_us, self.epochs)
    }
}
