//! The "PNG-like" pipeline used for THINC `RAW` updates: PNG-style
//! predictive scanline filtering followed by LZSS dictionary coding.
//!
//! The paper's prototype uses libpng for this job (§7); the pipeline
//! here has the same structure (predict, then dictionary-code the
//! residuals) and therefore the same qualitative behaviour: synthetic
//! desktop content (fills, gradients, text) compresses very well,
//! photographic content moderately.

use crate::filter;
use crate::lzss;

/// Compresses image `data` with row geometry (`bpp` bytes per pixel,
/// `stride` bytes per row).
///
/// # Panics
///
/// Panics if `bpp` or `stride` is zero.
pub fn compress(data: &[u8], bpp: usize, stride: usize) -> Vec<u8> {
    let filtered = filter::apply(data, bpp, stride);
    lzss::compress(&filtered)
}

/// Filtered bytes between encoder advances in [`compress_bounded`]:
/// small enough that a hopeless encode stops soon after its output
/// passes the limit, large enough to amortize each advance.
const ADVANCE_EVERY: usize = 16 * 1024;

/// [`compress`] through caller-owned scratch buffers: the filtered
/// intermediate goes into the scratch, and so does the encoded stream
/// (returned as a slice). Encoding many commands with one
/// [`crate::Scratch`] reuses both buffers once they have grown to the
/// working-set size; only the LZSS hash tables are allocated per call.
///
/// # Panics
///
/// Panics if `bpp` or `stride` is zero.
pub fn compress_with<'a>(
    data: &[u8],
    bpp: usize,
    stride: usize,
    scratch: &'a mut crate::Scratch,
) -> &'a [u8] {
    compress_bounded(data, bpp, stride, usize::MAX, scratch).expect("no output limit")
}

/// [`compress_with`] that gives up once the output is known to exceed
/// `limit` bytes: returns `Some(bytes)` exactly when
/// `compress(data, bpp, stride).len() <= limit`, and then the bytes
/// are identical.
///
/// Rows are filtered lazily and the LZSS [`Encoder`](lzss::Encoder)
/// is advanced every 16 KiB of filtered bytes. Encoder output only
/// grows, so the first advance that passes `limit` decides the result
/// and the rest of the input is never read
/// ([`crate::Scratch::consumed`] reports how much was).
///
/// # Panics
///
/// Panics if `bpp` or `stride` is zero.
pub fn compress_bounded<'a>(
    data: &[u8],
    bpp: usize,
    stride: usize,
    limit: usize,
    scratch: &'a mut crate::Scratch,
) -> Option<&'a [u8]> {
    assert!(bpp > 0 && stride > 0, "bad geometry");
    let crate::Scratch {
        filtered,
        out,
        consumed,
    } = scratch;
    filtered.clear();
    filtered.reserve(data.len() + data.len() / stride + 1);
    out.clear();
    *consumed = 0;
    let mut lzss = lzss::Encoder::new();
    let mut prev: &[u8] = &[];
    let mut next_advance = ADVANCE_EVERY;
    for row in data.chunks(stride) {
        filter::filter_row_into(row, prev, bpp, filtered);
        *consumed += row.len();
        prev = row;
        if filtered.len() >= next_advance {
            lzss.advance(filtered, out);
            if out.len() > limit {
                return None;
            }
            next_advance = filtered.len() + ADVANCE_EVERY;
        }
    }
    lzss.finish(filtered, out);
    (out.len() <= limit).then_some(&out[..])
}

/// Reverses [`compress`]; returns `None` on malformed input.
pub fn decompress(data: &[u8], bpp: usize, stride: usize) -> Option<Vec<u8>> {
    let filtered = lzss::decompress(data)?;
    filter::unapply(&filtered, bpp, stride)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_desktop_like_content() {
        // Flat background + "window" + "text" speckles.
        let (w, h, bpp) = (64usize, 32usize, 3usize);
        let mut img = vec![200u8; w * h * bpp];
        for y in 4..20 {
            for x in 8..56 {
                let off = (y * w + x) * bpp;
                img[off] = 255;
                img[off + 1] = 255;
                img[off + 2] = 255;
            }
        }
        for i in (0..img.len()).step_by(97) {
            img[i] = 0;
        }
        let c = compress(&img, bpp, w * bpp);
        assert!(c.len() < img.len() / 4, "{} bytes", c.len());
        assert_eq!(decompress(&c, bpp, w * bpp).unwrap(), img);
    }

    #[test]
    fn round_trip_noise() {
        let mut x = 42u64;
        let img: Vec<u8> = (0..3000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let c = compress(&img, 3, 300);
        assert_eq!(decompress(&c, 3, 300).unwrap(), img);
    }

    #[test]
    fn gradient_beats_plain_lzss() {
        // Vertical gradient: rows differ by a constant, so Up-filtering
        // turns the image into near-zeros.
        let (w, h, bpp) = (100usize, 100usize, 3usize);
        let mut img = Vec::with_capacity(w * h * bpp);
        for y in 0..h {
            for _x in 0..w {
                img.extend_from_slice(&[(y % 256) as u8, (y * 2 % 256) as u8, 128]);
            }
        }
        let png = compress(&img, bpp, w * bpp);
        let plain = lzss::compress(&img);
        assert!(png.len() < plain.len(), "png {} vs lzss {}", png.len(), plain.len());
        assert_eq!(decompress(&png, bpp, w * bpp).unwrap(), img);
    }

    #[test]
    fn corrupt_stream_rejected_not_panicking() {
        let img = vec![1u8; 300];
        let mut c = compress(&img, 3, 30);
        // Mangle: any outcome but a panic is acceptable; usually None.
        if !c.is_empty() {
            let last = c.len() - 1;
            c[last] ^= 0xFF;
            c.truncate(c.len().saturating_sub(3));
        }
        let _ = decompress(&c, 3, 30);
    }
}
