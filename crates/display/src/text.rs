//! Text layout: turning strings into device-level stipple operations.
//!
//! X core text reaches the driver as stipple fills (a 1-bit glyph
//! bitmap applied with a foreground color). THINC's `BITMAP` protocol
//! command exists precisely to carry these efficiently (§3). The
//! window server uses this module to expand [`DrawRequest::Text`]
//! requests into per-string stipple fills.
//!
//! [`DrawRequest::Text`]: crate::request::DrawRequest::Text

use thinc_raster::Rect;

use crate::font;

/// The stipple operation a text run expands to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextRun {
    /// Destination rectangle of the whole run.
    pub rect: Rect,
    /// 1-bit glyph bitmap covering the run, rows padded to bytes.
    pub bits: Vec<u8>,
}

/// Lays out `text` at `(x, y)` (top-left), producing one stipple run
/// per line (newlines split runs).
pub fn layout(text: &str, x: i32, y: i32) -> Vec<TextRun> {
    let mut runs = Vec::new();
    for (li, line) in text.split('\n').enumerate() {
        if line.is_empty() {
            continue;
        }
        let (bits, w, h) = font::render_string(line);
        if w == 0 {
            continue;
        }
        runs.push(TextRun {
            rect: Rect::new(x, y + li as i32 * font::GLYPH_H as i32, w, h),
            bits,
        });
    }
    runs
}

/// The pixel width of `text`'s longest line under the built-in font.
pub fn text_width(text: &str) -> u32 {
    text.split('\n')
        .map(|l| l.chars().count() as u32 * font::GLYPH_W)
        .max()
        .unwrap_or(0)
}

/// The pixel height of `text` (number of lines × glyph height).
pub fn text_height(text: &str) -> u32 {
    text.split('\n').count() as u32 * font::GLYPH_H
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_line_single_run() {
        let runs = layout("abc", 10, 20);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].rect, Rect::new(10, 20, 24, 8));
    }

    #[test]
    fn multi_line_splits_runs() {
        let runs = layout("ab\ncdef", 0, 0);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].rect, Rect::new(0, 0, 16, 8));
        assert_eq!(runs[1].rect, Rect::new(0, 8, 32, 8));
    }

    #[test]
    fn empty_lines_skipped() {
        let runs = layout("a\n\nb", 0, 0);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].rect.y, 16); // Blank line still advances y.
    }

    #[test]
    fn measurements() {
        assert_eq!(text_width("hello"), 40);
        assert_eq!(text_width("hi\nlonger"), 48);
        assert_eq!(text_height("a\nb\nc"), 24);
        assert_eq!(text_width(""), 0);
    }

    #[test]
    fn run_bits_sized_for_rect() {
        let runs = layout("xyz", 0, 0);
        let r = &runs[0];
        let row_bytes = (r.rect.w as usize).div_ceil(8);
        assert_eq!(r.bits.len(), row_bytes * r.rect.h as usize);
    }
}
