//! Counting at the layer boundaries the benchmark sees: the messages a
//! flush emits and the wire bytes the viewers receive.

use thinc_net::time::SimTime;
use thinc_protocol::commands::{DisplayCommand, RawEncoding};
use thinc_protocol::hash::{fnv64_update, FNV64_OFFSET};
use thinc_protocol::message::Message;
use thinc_protocol::CACHE_MIN_PAYLOAD;

use crate::bench::Counts;

/// Running totals of one workload's delivered stream.
pub struct Tally {
    bytes_per_pixel: u64,
    /// FNV-1a 64 over every delivered wire byte, in delivery order.
    pub digest: u64,
    pub updates: u64,
    pub sim_us: u64,
    wire_bytes: u64,
    flush_calls: u64,
    raw_msgs: u64,
    raw_in_bytes: u64,
    raw_out_bytes: u64,
    raw_png_msgs: u64,
    cacheable_full: u64,
}

impl Tally {
    pub fn new(bytes_per_pixel: usize) -> Self {
        Self {
            bytes_per_pixel: bytes_per_pixel as u64,
            digest: FNV64_OFFSET,
            updates: 0,
            sim_us: 0,
            wire_bytes: 0,
            flush_calls: 0,
            raw_msgs: 0,
            raw_in_bytes: 0,
            raw_out_bytes: 0,
            raw_png_msgs: 0,
            cacheable_full: 0,
        }
    }

    /// Counts one flush call's output. Returns the uncompressed size
    /// of the RAW messages in it.
    pub fn messages<'a>(&mut self, batch: impl IntoIterator<Item = &'a (SimTime, Message)>) -> u64 {
        self.flush_calls += 1;
        let mut raw_in = 0;
        for (_, msg) in batch {
            let cacheable = matches!(
                msg,
                Message::Display(
                    DisplayCommand::Raw { .. }
                        | DisplayCommand::Pfill { .. }
                        | DisplayCommand::Bitmap { .. }
                )
            );
            if cacheable && msg.wire_size() >= CACHE_MIN_PAYLOAD as u64 {
                self.cacheable_full += 1;
            }
            if let Message::Display(DisplayCommand::Raw {
                rect,
                encoding,
                data,
            }) = msg
            {
                self.raw_msgs += 1;
                raw_in += rect.area() * self.bytes_per_pixel;
                self.raw_out_bytes += data.len() as u64;
                if *encoding == RawEncoding::PngLike {
                    self.raw_png_msgs += 1;
                }
            }
        }
        self.raw_in_bytes += raw_in;
        raw_in
    }

    /// Adds one delivered wire frame to the digest.
    pub fn wire(&mut self, frame: &[u8]) {
        self.wire_bytes += frame.len() as u64;
        self.digest = fnv64_update(self.digest, frame);
    }

    /// Closes an update with its virtual-time latency.
    pub fn update(&mut self, sim_us: u64) {
        self.updates += 1;
        self.sim_us += sim_us;
    }

    pub fn counts(&self) -> Counts {
        Counts {
            updates: self.updates,
            wire_bytes: self.wire_bytes,
            sim_us: self.sim_us,
            flush_calls: self.flush_calls,
            raw_msgs: self.raw_msgs,
            raw_in_bytes: self.raw_in_bytes,
            raw_out_bytes: self.raw_out_bytes,
            raw_png_msgs: self.raw_png_msgs,
            cache_misses: self.cacheable_full,
            ..Counts::default()
        }
    }
}
