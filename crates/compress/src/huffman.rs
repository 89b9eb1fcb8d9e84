//! Canonical Huffman coding over bytes.
//!
//! Together with [`crate::lzss`] and [`crate::filter`], this
//! completes a DEFLATE-class pipeline (dictionary coder + entropy
//! coder + predictive filters) — the "better compression algorithms
//! such as used in NX" that §8.3 credits for large-image pages.
//!
//! Format: a 257-entry code-length table (for bytes 0–255 plus an
//! end-of-block symbol), 4 bits per entry, followed by the MSB-first
//! bitstream terminated by the EOB code. Code lengths are limited to
//! 15 bits by iterative frequency flattening; codes are canonical, so
//! the table fully determines them.

/// End-of-block symbol index.
const EOB: usize = 256;
/// Number of symbols (bytes + EOB).
const SYMBOLS: usize = 257;
/// Maximum code length (fits the 4-bit table entries).
const MAX_BITS: usize = 15;

/// Computes code lengths with a heap-built Huffman tree, flattening
/// frequencies until every code fits in [`MAX_BITS`].
fn code_lengths(freqs: &[u64; SYMBOLS]) -> [u8; SYMBOLS] {
    let mut f = *freqs;
    loop {
        let lens = tree_lengths(&f);
        if lens.iter().all(|&l| (l as usize) <= MAX_BITS) {
            return lens;
        }
        // Flatten: halving (and flooring at 1) reduces depth spread.
        for v in f.iter_mut() {
            if *v > 0 {
                *v = v.div_ceil(2);
            }
        }
    }
}

fn tree_lengths(freqs: &[u64; SYMBOLS]) -> [u8; SYMBOLS] {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    #[derive(Clone)]
    enum Node {
        Leaf(usize),
        Internal(Box<Node>, Box<Node>),
    }
    let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
    let mut nodes: Vec<Node> = Vec::new();
    for (sym, &fr) in freqs.iter().enumerate() {
        if fr > 0 {
            nodes.push(Node::Leaf(sym));
            heap.push(Reverse((fr, sym, nodes.len() - 1)));
        }
    }
    let mut lens = [0u8; SYMBOLS];
    match heap.len() {
        0 => return lens,
        1 => {
            let Reverse((_, sym, _)) = heap.peek().copied().expect("one element");
            lens[sym] = 1;
            return lens;
        }
        _ => {}
    }
    while heap.len() > 1 {
        let Reverse((fa, ta, ia)) = heap.pop().expect("len > 1");
        let Reverse((fb, _tb, ib)) = heap.pop().expect("len > 1");
        let merged = Node::Internal(
            Box::new(nodes[ia].clone()),
            Box::new(nodes[ib].clone()),
        );
        nodes.push(merged);
        heap.push(Reverse((fa + fb, ta, nodes.len() - 1)));
    }
    let Reverse((_, _, root)) = heap.pop().expect("root");
    // Walk the tree to assign depths.
    fn walk(node: &Node, depth: u8, lens: &mut [u8; SYMBOLS]) {
        match node {
            Node::Leaf(sym) => lens[*sym] = depth.max(1),
            Node::Internal(a, b) => {
                walk(a, depth + 1, lens);
                walk(b, depth + 1, lens);
            }
        }
    }
    walk(&nodes[root], 0, &mut lens);
    lens
}

/// Assigns canonical codes (symbol order within each length).
fn canonical_codes(lens: &[u8; SYMBOLS]) -> [u32; SYMBOLS] {
    let mut bl_count = [0u32; MAX_BITS + 1];
    for &l in lens.iter() {
        bl_count[l as usize] += 1;
    }
    bl_count[0] = 0;
    let mut next_code = [0u32; MAX_BITS + 2];
    let mut code = 0u32;
    for bits in 1..=MAX_BITS {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    let mut codes = [0u32; SYMBOLS];
    for (sym, &l) in lens.iter().enumerate() {
        if l > 0 {
            codes[sym] = next_code[l as usize];
            next_code[l as usize] += 1;
        }
    }
    codes
}

struct BitWriter {
    out: Vec<u8>,
    bit: u8,
}

impl BitWriter {
    fn new(out: Vec<u8>) -> Self {
        Self { out, bit: 0 }
    }
    fn put(&mut self, code: u32, len: u8) {
        for i in (0..len).rev() {
            if self.bit == 0 {
                self.out.push(0);
            }
            let byte = self.out.last_mut().expect("pushed above");
            if (code >> i) & 1 == 1 {
                *byte |= 0x80 >> self.bit;
            }
            self.bit = (self.bit + 1) % 8;
        }
    }
}

struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    bit: u8,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0, bit: 0 }
    }
    fn next(&mut self) -> Option<bool> {
        let byte = *self.data.get(self.pos)?;
        let v = (byte >> (7 - self.bit)) & 1 == 1;
        self.bit += 1;
        if self.bit == 8 {
            self.bit = 0;
            self.pos += 1;
        }
        Some(v)
    }
}

/// Compresses `data` with canonical Huffman coding.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut freqs = [0u64; SYMBOLS];
    for &b in data {
        freqs[b as usize] += 1;
    }
    freqs[EOB] = 1;
    let lens = code_lengths(&freqs);
    let codes = canonical_codes(&lens);
    // Header: 257 nibbles of code lengths.
    let mut out = Vec::with_capacity(SYMBOLS / 2 + data.len() / 2 + 8);
    let mut i = 0;
    while i < SYMBOLS {
        let hi = lens[i] & 0xF;
        let lo = if i + 1 < SYMBOLS { lens[i + 1] & 0xF } else { 0 };
        out.push((hi << 4) | lo);
        i += 2;
    }
    let mut w = BitWriter::new(out);
    for &b in data {
        w.put(codes[b as usize], lens[b as usize]);
    }
    w.put(codes[EOB], lens[EOB]);
    w.out
}

/// Decompresses Huffman data; returns `None` on malformed input.
pub fn decompress(data: &[u8]) -> Option<Vec<u8>> {
    let header_bytes = SYMBOLS.div_ceil(2);
    if data.len() < header_bytes {
        return None;
    }
    let mut lens = [0u8; SYMBOLS];
    for i in 0..SYMBOLS {
        let byte = data[i / 2];
        lens[i] = if i % 2 == 0 { byte >> 4 } else { byte & 0xF };
    }
    if lens[EOB] == 0 {
        return None;
    }
    let codes = canonical_codes(&lens);
    // Decode bit by bit against (code, len) pairs via a length-indexed
    // lookup: for each length, the canonical code range and the first
    // symbol index in canonical order.
    let mut by_len: Vec<Vec<(u32, usize)>> = vec![Vec::new(); MAX_BITS + 1];
    for sym in 0..SYMBOLS {
        if lens[sym] > 0 {
            by_len[lens[sym] as usize].push((codes[sym], sym));
        }
    }
    for v in by_len.iter_mut() {
        v.sort_unstable();
    }
    let mut r = BitReader::new(&data[header_bytes..]);
    let mut out = Vec::new();
    loop {
        let mut code = 0u32;
        let mut len = 0usize;
        let sym = loop {
            let bit = r.next()?;
            code = (code << 1) | bit as u32;
            len += 1;
            if len > MAX_BITS {
                return None;
            }
            if let Ok(idx) = by_len[len].binary_search_by_key(&code, |&(c, _)| c) {
                break by_len[len][idx].1;
            }
        };
        if sym == EOB {
            return Some(out);
        }
        out.push(sym as u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_text() {
        let data = b"the quick brown fox jumps over the lazy dog".repeat(10);
        let c = compress(&data);
        assert!(c.len() < data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn round_trip_empty_and_tiny() {
        for d in [&b""[..], b"a", b"ab", b"\x00\xff"] {
            assert_eq!(decompress(&compress(d)).unwrap(), d);
        }
    }

    #[test]
    fn round_trip_all_bytes() {
        let data: Vec<u8> = (0..=255u8).cycle().take(2000).collect();
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn skewed_distribution_compresses_hard() {
        // 95% zeros: entropy ~0.3 bits/byte.
        let mut data = vec![0u8; 10_000];
        for i in (0..data.len()).step_by(20) {
            data[i] = (i % 255) as u8;
        }
        let c = compress(&data);
        assert!(c.len() < data.len() / 3, "{} bytes", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn uniform_random_barely_expands() {
        let mut x = 9u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        let c = compress(&data);
        // Header (129 B) + ~8 bits/byte.
        assert!(c.len() < data.len() + 200);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn truncated_input_rejected() {
        let c = compress(b"hello world hello world");
        assert_eq!(decompress(&c[..50]), None);
        assert_eq!(decompress(&[]), None);
    }

    #[test]
    fn garbage_does_not_panic() {
        let mut x = 77u64;
        for len in [0usize, 1, 128, 129, 200, 400] {
            let garbage: Vec<u8> = (0..len)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (x >> 33) as u8
                })
                .collect();
            let _ = decompress(&garbage);
        }
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let mut freqs = [0u64; SYMBOLS];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = (i as u64 % 17) + 1;
        }
        let lens = code_lengths(&freqs);
        let codes = canonical_codes(&lens);
        for a in 0..SYMBOLS {
            for b in 0..SYMBOLS {
                if a == b || lens[a] == 0 || lens[b] == 0 || lens[a] > lens[b] {
                    continue;
                }
                let prefix = codes[b] >> (lens[b] - lens[a]);
                assert!(prefix != codes[a], "code {a} is a prefix of {b}");
            }
        }
    }
}
