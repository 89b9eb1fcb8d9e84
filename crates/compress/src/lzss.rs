//! LZSS dictionary coding with a hash-chain match finder.
//!
//! Format: groups of 8 items prefixed by a flag byte (LSB first). Flag
//! bit 0 = literal byte; flag bit 1 = match, encoded as two bytes:
//! 12-bit distance (1..=4096) and a 4-bit length code. Length codes
//! 0..=14 mean length `code + MIN_MATCH`; code 15 is followed by
//! LZ4-style extension bytes (each adds its value; a 255 byte means
//! "continue"), so long runs compress to a handful of bytes. The
//! window is 4 KiB; this is the classic LZSS layout and is
//! deliberately simple — the paper only needs "off-the-shelf
//! compression"-class behaviour, not a state-of-the-art entropy coder.

const WINDOW: usize = 4096;
const MIN_MATCH: usize = 3;
/// Longest match the encoder will emit (bounded to keep extension
/// byte chains short; 3 extension bytes at most).
const MAX_MATCH: usize = MIN_MATCH + 15 + 255 * 3;
const LEN_EXT: usize = 15;
const HASH_BITS: usize = 13;

fn hash(data: &[u8], i: usize) -> usize {
    let h = (data[i] as u32)
        .wrapping_mul(2654435761)
        .wrapping_add((data[i + 1] as u32).wrapping_mul(40503))
        .wrapping_add(data[i + 2] as u32);
    (h as usize) & ((1 << HASH_BITS) - 1)
}

/// How far past a position the encoder must see before deciding it.
///
/// A match at `i` reads at most `MAX_MATCH` bytes, and the hash
/// inserts for the positions it covers read `MIN_MATCH` more. With
/// this margin every comparison and insert sees the same bytes as a
/// whole-buffer run, so decisions made on a prefix are final.
pub const LOOKAHEAD: usize = MAX_MATCH + MIN_MATCH;

/// Compresses `data` with LZSS.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    compress_into(data, &mut out);
    out
}

/// Compresses `data` with LZSS into a caller-owned buffer (cleared
/// first) so repeated encodes reuse the allocation: an [`Encoder`]
/// run to completion.
///
/// Output bytes are identical to [`crate::reference::lzss_compress`].
pub fn compress_into(data: &[u8], out: &mut Vec<u8>) {
    out.clear();
    Encoder::new().finish(data, out);
}

/// A resumable LZSS encoder over a growing input.
///
/// The caller appends to one input buffer and calls
/// [`advance`](Encoder::advance) with the prefix so far; the encoder
/// codes every position it can decide without seeing more input (see
/// [`LOOKAHEAD`]) and remembers where it stopped.
/// [`finish`](Encoder::finish) codes the rest. However the input is
/// fed, the output is byte-identical to [`compress`] of the whole
/// input, and it only ever grows — so a caller that only wants a
/// result below some size can stop as soon as the output passes it.
///
/// Match candidates come from the hash-chain finder; candidate match
/// lengths are extended a machine word at a time (`eq_len`), which is
/// where the encoder spends most of its cycles.
#[derive(Debug)]
pub struct Encoder {
    /// `head[h]`: most recent position with hash `h`.
    head: Vec<usize>,
    /// `prev[i % WINDOW]`: the previous position in `i`'s hash chain.
    prev: Vec<usize>,
    /// Next input position to code.
    pos: usize,
    /// Output offset of the current flag byte.
    flags_pos: usize,
    /// Next bit of the current flag byte (8 = start a new group).
    flag_bit: u32,
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Encoder {
    /// An encoder at the start of an input.
    pub fn new() -> Self {
        Self {
            head: vec![usize::MAX; 1 << HASH_BITS],
            prev: vec![usize::MAX; WINDOW],
            pos: 0,
            flags_pos: usize::MAX,
            flag_bit: 8,
        }
    }

    /// Codes every position of `data` that is at least [`LOOKAHEAD`]
    /// bytes from its end, appending to `out`. `data` must extend the
    /// input of earlier calls, and `out` must hold exactly their
    /// output.
    pub fn advance(&mut self, data: &[u8], out: &mut Vec<u8>) {
        self.run(data, (data.len() + 1).saturating_sub(LOOKAHEAD), out);
    }

    /// Codes the rest of `data`, which is the whole input. Same
    /// contract as [`advance`](Self::advance).
    pub fn finish(&mut self, data: &[u8], out: &mut Vec<u8>) {
        self.run(data, data.len(), out);
    }

    fn insert(&mut self, data: &[u8], i: usize) {
        if i + MIN_MATCH <= data.len() {
            let h = hash(data, i);
            self.prev[i % WINDOW] = self.head[h];
            self.head[h] = i;
        }
    }

    fn push_item(&mut self, out: &mut Vec<u8>, is_match: bool, payload: &[u8]) {
        if self.flag_bit == 8 {
            self.flags_pos = out.len();
            out.push(0);
            self.flag_bit = 0;
        }
        if is_match {
            out[self.flags_pos] |= 1 << self.flag_bit;
        }
        self.flag_bit += 1;
        out.extend_from_slice(payload);
    }

    /// Codes positions from `self.pos` while they are below `stop`.
    fn run(&mut self, data: &[u8], stop: usize, out: &mut Vec<u8>) {
        while self.pos < stop {
            let i = self.pos;
            let mut best_len = 0;
            let mut best_dist = 0;
            if i + MIN_MATCH <= data.len() {
                let mut cand = self.head[hash(data, i)];
                let mut chain = 0;
                while cand != usize::MAX && cand + WINDOW > i && chain < 32 {
                    if cand < i {
                        let max = MAX_MATCH.min(data.len() - i);
                        let l = crate::eq_len(data, cand, i, max);
                        if l > best_len {
                            best_len = l;
                            best_dist = i - cand;
                            if l == MAX_MATCH {
                                break;
                            }
                        }
                    }
                    cand = self.prev[cand % WINDOW];
                    chain += 1;
                }
            }
            if best_len >= MIN_MATCH {
                // Two token bytes plus at most four extension bytes
                // (three 255s and a terminator).
                let mut payload = [0u8; 8];
                let mut extra = best_len - MIN_MATCH;
                let code = extra.min(LEN_EXT);
                let token = (((best_dist - 1) as u16) << 4) | (code as u16);
                payload[..2].copy_from_slice(&token.to_le_bytes());
                let mut n = 2;
                if code == LEN_EXT {
                    extra -= LEN_EXT;
                    loop {
                        let b = extra.min(255);
                        payload[n] = b as u8;
                        n += 1;
                        extra -= b;
                        if b < 255 {
                            break;
                        }
                    }
                }
                self.push_item(out, true, &payload[..n]);
                // Insert hash entries for every covered position.
                for p in i..i + best_len {
                    self.insert(data, p);
                }
                self.pos = i + best_len;
            } else {
                self.push_item(out, false, &data[i..i + 1]);
                self.insert(data, i);
                self.pos = i + 1;
            }
        }
    }
}

/// Decompresses LZSS data; returns `None` on malformed input.
pub fn decompress(data: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(data.len() * 2);
    let mut i = 0;
    while i < data.len() {
        let flags = data[i];
        i += 1;
        for bit in 0..8 {
            if i >= data.len() {
                break;
            }
            if flags & (1 << bit) != 0 {
                if i + 2 > data.len() {
                    return None;
                }
                let token = u16::from_le_bytes([data[i], data[i + 1]]);
                i += 2;
                let dist = ((token >> 4) as usize) + 1;
                let mut len = ((token & 0xF) as usize) + MIN_MATCH;
                if (token & 0xF) as usize == LEN_EXT {
                    loop {
                        let b = *data.get(i)?;
                        i += 1;
                        len += b as usize;
                        if b < 255 {
                            break;
                        }
                    }
                }
                if dist > out.len() {
                    return None;
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            } else {
                out.push(data[i]);
                i += 1;
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_text() {
        let data = b"the quick brown fox jumps over the lazy dog, the quick brown fox";
        let c = compress(data);
        assert!(c.len() < data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn round_trip_empty_and_tiny() {
        for d in [&b""[..], b"a", b"ab", b"abc"] {
            assert_eq!(decompress(&compress(d)).unwrap(), d);
        }
    }

    #[test]
    fn long_repetition_compresses_hard() {
        let data = b"abcd".repeat(1000);
        let c = compress(&data);
        assert!(c.len() < data.len() / 5, "{} bytes", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn overlapping_match_copy() {
        // "aaaa..." forces dist=1 matches that overlap their own output.
        let data = vec![b'a'; 500];
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn window_boundary_matches() {
        // Repeat a block at exactly WINDOW distance.
        let block: Vec<u8> = (0..64).map(|i| (i * 37 % 251) as u8).collect();
        let mut data = block.clone();
        data.extend(std::iter::repeat_n(0u8, WINDOW - 64));
        data.extend_from_slice(&block);
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn incompressible_random_round_trips() {
        // LCG noise; should still round trip even if it expands.
        let mut x = 123456789u64;
        let data: Vec<u8> = (0..5000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn bad_distance_rejected() {
        // Flag says match, token points before start of output.
        let bad = [0x01u8, 0xFF, 0xFF];
        assert_eq!(decompress(&bad), None);
    }

    #[test]
    fn truncated_match_rejected() {
        let bad = [0x01u8, 0x00];
        assert_eq!(decompress(&bad), None);
    }
}
