//! Encoder equality: the word-scanning RLE/LZSS encoders must emit
//! **identical bytes** to the retained byte-at-a-time references in
//! `thinc_compress::reference` (not merely a stream that decodes to
//! the same input), and the scratch-buffer API must match the
//! allocating API for every codec. The size-bounded PNG-like encoder
//! and the resumable LZSS encoder must agree with the references
//! however they are stopped or fed.

use proptest::prelude::*;
use thinc_compress::lzss::{Encoder, LOOKAHEAD};
use thinc_compress::{lzss, pnglike, reference, rle, Codec, Scratch};

/// Mixed content: random runs plus literal noise, the worst case for
/// a run scanner's boundary conditions.
fn runny_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        (any::<u8>(), 1usize..40, any::<bool>()),
        0..40,
    )
    .prop_map(|chunks| {
        let mut out = Vec::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for (b, n, run) in chunks {
            if run {
                out.extend(std::iter::repeat_n(b, n));
            } else {
                for _ in 0..n {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    out.push((x >> 33) as u8);
                }
            }
        }
        out
    })
}

/// An image `(data, bpp, stride)`: 3 or 4 bytes per pixel, rows from
/// one pixel (far shorter than [`LOOKAHEAD`]) to several times
/// `LOOKAHEAD`, often a ragged last row, and noise, solid, gradient or
/// text-like content. Sizes reach a few tens of KiB so bounded encodes
/// stop partway through.
fn image() -> impl Strategy<Value = (Vec<u8>, usize, usize)> {
    (0u8..=3, 3usize..=4, 1usize..=400, 0usize..=50, any::<usize>(), any::<u64>()).prop_map(
        |(kind, bpp, width, height, trim, seed)| {
            let stride = width * bpp;
            let mut x = seed | 1;
            let mut rand = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut data: Vec<u8> = (0..stride * height)
                .map(|i| {
                    let (row, col) = (i / stride, i % stride);
                    match kind {
                        0 => rand() as u8,
                        1 => 0xC0,
                        2 => (row * 3 + col / bpp * 2 + col % bpp * 50) as u8,
                        // Dark glyph strokes on a light page.
                        _ => {
                            if rand() % 11 == 0 {
                                0x20
                            } else {
                                0xF0
                            }
                        }
                    }
                })
                .collect();
            if trim % 2 == 0 {
                data.truncate(data.len() - (trim / 2) % stride.min(data.len()).max(1));
            }
            (data, bpp, stride)
        },
    )
}

proptest! {
    #[test]
    fn bounded_pnglike_is_exact_at_every_limit(img in image()) {
        let (data, bpp, stride) = img;
        let full = pnglike::compress(&data, bpp, stride);
        prop_assert_eq!(&full, &reference::pnglike_compress(&data, bpp, stride));
        let (n, c) = (data.len(), full.len());
        let mut scratch = Scratch::new();
        for limit in [
            0,
            1,
            n / 2,
            n.saturating_sub(1),
            n,
            n + 1,
            c.saturating_sub(1),
            c,
            usize::MAX,
        ] {
            let got = pnglike::compress_bounded(&data, bpp, stride, limit, &mut scratch);
            match got {
                Some(bytes) => prop_assert_eq!(bytes, &full[..], "limit {}", limit),
                None => prop_assert!(c > limit, "gave up at limit {} for {} bytes", limit, c),
            }
            prop_assert!(scratch.consumed() <= n);
        }
    }

    #[test]
    fn lzss_encoder_resumes_at_any_split(
        img in image(),
        cuts in prop::collection::vec(any::<usize>(), 0..8)
    ) {
        let (data, _, _) = img;
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut enc = Encoder::new();
        let mut out = Vec::new();
        let mut len = 0;
        for cut in cuts {
            enc.advance(&data[..cut], &mut out);
            prop_assert!(out.len() >= len, "output shrank");
            len = out.len();
        }
        enc.finish(&data, &mut out);
        prop_assert_eq!(out, reference::lzss_compress(&data));
    }

    #[test]
    fn rle_encoder_matches_reference(data in runny_bytes()) {
        prop_assert_eq!(rle::compress(&data), reference::rle_compress(&data));
    }

    #[test]
    fn rle_encoder_matches_reference_random(data in prop::collection::vec(any::<u8>(), 0..2048)) {
        prop_assert_eq!(rle::compress(&data), reference::rle_compress(&data));
    }

    #[test]
    fn symbol_rle_encoder_matches_reference(data in runny_bytes(), sym in 1usize..6) {
        prop_assert_eq!(
            rle::compress_symbols(&data, sym),
            reference::rle_compress_symbols(&data, sym)
        );
    }

    #[test]
    fn lzss_encoder_matches_reference(data in runny_bytes()) {
        prop_assert_eq!(lzss::compress(&data), reference::lzss_compress(&data));
    }

    #[test]
    fn lzss_encoder_matches_reference_random(data in prop::collection::vec(any::<u8>(), 0..2048)) {
        prop_assert_eq!(lzss::compress(&data), reference::lzss_compress(&data));
    }

    #[test]
    fn pnglike_encoder_matches_reference(data in runny_bytes()) {
        prop_assert_eq!(
            pnglike::compress(&data, 3, 60),
            reference::pnglike_compress(&data, 3, 60)
        );
    }

    #[test]
    fn scratch_api_matches_allocating_api(data in prop::collection::vec(any::<u8>(), 0..1536)) {
        // One scratch reused across all codecs and inputs — exactly the
        // flush-path usage pattern.
        let mut scratch = Scratch::new();
        for codec in [
            Codec::None,
            Codec::Rle,
            Codec::PixelRle { bpp: 3 },
            Codec::Lzss,
            Codec::PngLike { bpp: 3, stride: 60 },
            Codec::Huffman,
            Codec::DeflateLike { bpp: 3, stride: 60 },
        ] {
            let alloc = codec.compress(&data);
            let scratched = codec.compress_with(&data, &mut scratch);
            prop_assert_eq!(&alloc[..], scratched, "{:?}", codec);
            // And the stream still round-trips.
            prop_assert_eq!(codec.decompress(&alloc).as_deref(), Some(&data[..]), "{:?}", codec);
        }
    }
}

#[test]
fn bounded_pnglike_handles_empty_and_one_byte_inputs() {
    let mut scratch = Scratch::new();
    for data in [&[][..], &[0x5A][..]] {
        let full = reference::pnglike_compress(data, 3, 9);
        for limit in [0, 1, 2, 3, usize::MAX] {
            let got = pnglike::compress_bounded(data, 3, 9, limit, &mut scratch);
            assert_eq!(got, (full.len() <= limit).then_some(&full[..]), "{data:?} limit {limit}");
        }
    }
}

#[test]
fn encoder_fed_one_byte_at_a_time_matches_whole_buffer() {
    // Solid runs make longest-possible matches end right at the end of
    // the prefix seen so far, where too short a margin would skip the
    // hash inserts for the match's last positions.
    let mut x = 0x2545F4914F6CDD1Du64;
    let mut data = vec![7u8; 3 * LOOKAHEAD];
    data.extend((0..LOOKAHEAD).map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % 3) as u8
    }));
    data.extend(std::iter::repeat_n(9u8, 2 * LOOKAHEAD + 5));
    let mut enc = Encoder::new();
    let mut out = Vec::new();
    for k in 0..=data.len() {
        enc.advance(&data[..k], &mut out);
        if k < LOOKAHEAD {
            assert!(out.is_empty(), "coded a position it could not decide yet");
        }
    }
    enc.finish(&data, &mut out);
    assert_eq!(out, reference::lzss_compress(&data));
}
