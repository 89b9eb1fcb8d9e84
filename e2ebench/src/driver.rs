//! A forwarding `VideoDriver` that times every call into the THINC
//! translation layer (`core.translate`) when spans are recorded.
//!
//! `VideoDriver` gives every hook an empty default body, so a hook
//! this wrapper failed to forward would be swallowed silently. The
//! tests below check that every hook reaches the wrapped driver and
//! that wire bytes are identical with and without the wrapper.

use thinc_core::{ShardedManager, SharedSession, ThincServer};
use thinc_display::drawable::{DrawableId, DrawableStore};
use thinc_display::driver::VideoDriver;
use thinc_raster::{Color, CompositeOp, Framebuffer, Rect, YuvFrame};

use crate::trace::Timer;

/// Something that owns the driver the window server should call.
pub trait Host {
    type Driver: VideoDriver;
    fn driver(&mut self) -> &mut Self::Driver;
}

impl Host for ThincServer {
    type Driver = ThincServer;
    fn driver(&mut self) -> &mut ThincServer {
        self
    }
}

impl Host for ShardedManager {
    type Driver = SharedSession;
    fn driver(&mut self) -> &mut SharedSession {
        self.session_mut()
    }
}

/// Times each driver call as a `core.translate` span.
pub struct Timed<H>(pub H);

const SPAN: &str = "core.translate";

impl<H: Host> VideoDriver for Timed<H> {
    fn create_pixmap(&mut self, store: &DrawableStore, id: DrawableId, w: u32, h: u32) {
        let t = Timer::traced(SPAN);
        self.0.driver().create_pixmap(store, id, w, h);
        t.stop();
    }

    fn free_pixmap(&mut self, store: &DrawableStore, id: DrawableId) {
        let t = Timer::traced(SPAN);
        self.0.driver().free_pixmap(store, id);
        t.stop();
    }

    fn solid_fill(&mut self, store: &DrawableStore, target: DrawableId, rect: Rect, color: Color) {
        let t = Timer::traced(SPAN);
        self.0.driver().solid_fill(store, target, rect, color);
        t.stop();
    }

    fn pattern_fill(
        &mut self,
        store: &DrawableStore,
        target: DrawableId,
        rect: Rect,
        tile: &Framebuffer,
    ) {
        let t = Timer::traced(SPAN);
        self.0.driver().pattern_fill(store, target, rect, tile);
        t.stop();
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
        let t = Timer::traced(SPAN);
        self.0
            .driver()
            .stipple_fill(store, target, rect, bits, fg, bg);
        t.stop().bytes(bits.len() as u64);
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
        let t = Timer::traced(SPAN);
        self.0
            .driver()
            .copy_area(store, src, dst, src_rect, dst_x, dst_y);
        t.stop();
    }

    fn put_image(&mut self, store: &DrawableStore, target: DrawableId, rect: Rect, data: &[u8]) {
        let t = Timer::traced(SPAN);
        self.0.driver().put_image(store, target, rect, data);
        t.stop().bytes(data.len() as u64);
    }

    fn video_display(&mut self, store: &DrawableStore, frame: &YuvFrame, dst: Rect) {
        let t = Timer::traced(SPAN);
        self.0.driver().video_display(store, frame, dst);
        t.stop().bytes(frame.data.len() as u64);
    }

    fn composite(
        &mut self,
        store: &DrawableStore,
        target: DrawableId,
        rect: Rect,
        data: &[u8],
        op: CompositeOp,
    ) {
        let t = Timer::traced(SPAN);
        self.0.driver().composite(store, target, rect, data, op);
        t.stop().bytes(data.len() as u64);
    }
}

/// Access to the single-client server behind a window server's driver,
/// wrapped or not.
pub trait Paper: VideoDriver {
    fn server(&mut self) -> &mut ThincServer;
    fn server_ref(&self) -> &ThincServer;
}

impl Paper for ThincServer {
    fn server(&mut self) -> &mut ThincServer {
        self
    }
    fn server_ref(&self) -> &ThincServer {
        self
    }
}

impl Paper for Timed<ThincServer> {
    fn server(&mut self) -> &mut ThincServer {
        &mut self.0
    }
    fn server_ref(&self) -> &ThincServer {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinc_display::driver::RecordingDriver;
    use thinc_display::request::DrawRequest;
    use thinc_display::server::WindowServer;
    use thinc_display::SCREEN;
    use thinc_raster::{PixelFormat, YuvFormat};

    impl Host for RecordingDriver {
        type Driver = RecordingDriver;
        fn driver(&mut self) -> &mut RecordingDriver {
            self
        }
    }

    /// One request of every kind, so every driver hook fires.
    fn every_request() -> Vec<DrawRequest> {
        let pm = DrawableId(1);
        vec![
            DrawRequest::CreatePixmap {
                width: 32,
                height: 32,
            },
            DrawRequest::FillRect {
                target: pm,
                rect: Rect::new(0, 0, 32, 32),
                color: Color::WHITE,
            },
            DrawRequest::TileRect {
                target: SCREEN,
                rect: Rect::new(0, 0, 16, 16),
                tile: pm,
            },
            DrawRequest::StippleRect {
                target: SCREEN,
                rect: Rect::new(0, 0, 8, 8),
                bits: vec![0xAA; 8],
                fg: Color::BLACK,
                bg: Some(Color::WHITE),
            },
            DrawRequest::CopyArea {
                src: pm,
                dst: SCREEN,
                src_rect: Rect::new(0, 0, 8, 8),
                dst_x: 4,
                dst_y: 4,
            },
            DrawRequest::PutImage {
                target: SCREEN,
                rect: Rect::new(1, 1, 2, 2),
                data: vec![7; 12],
            },
            DrawRequest::Text {
                target: SCREEN,
                x: 2,
                y: 2,
                text: "hi".into(),
                fg: Color::BLACK,
            },
            DrawRequest::VideoPut {
                frame: YuvFrame::new(YuvFormat::Yv12, 8, 8),
                dst: Rect::new(0, 0, 16, 16),
            },
            DrawRequest::Composite {
                target: SCREEN,
                rect: Rect::new(0, 0, 2, 2),
                data: vec![200; 16],
                op: CompositeOp::Over,
            },
            DrawRequest::FreePixmap { id: pm },
        ]
    }

    #[test]
    fn every_hook_reaches_the_wrapped_driver() {
        for traced in [false, true] {
            crate::trace::set_enabled(traced);
            let mut plain =
                WindowServer::new(64, 64, PixelFormat::Rgb888, RecordingDriver::default());
            let mut timed = WindowServer::new(
                64,
                64,
                PixelFormat::Rgb888,
                Timed(RecordingDriver::default()),
            );
            plain.process_all(every_request());
            timed.process_all(every_request());
            crate::trace::set_enabled(false);
            let spans = crate::trace::take();
            let ops = &plain.driver().ops;
            let kinds: std::collections::HashSet<_> =
                ops.iter().map(std::mem::discriminant).collect();
            assert_eq!(kinds.len(), 9, "every hook fires: {ops:?}");
            assert_eq!(ops, &timed.driver().0.ops);
            assert_eq!(spans.len(), if traced { ops.len() } else { 0 });
        }
    }
}
