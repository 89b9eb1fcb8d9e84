#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
//! THINC clients.
//!
//! The THINC client is a simple input/output device: it keeps a local
//! framebuffer, executes the five protocol commands (all of which map
//! directly onto commodity 2D hardware), hands YUV video data to the
//! "hardware" overlay for colorspace conversion and scaling, and
//! plays timestamped audio. The paper implemented several clients
//! (X, Java, Windows, PDA) plus an instrumented headless client used
//! for the PlanetLab experiments. Here there is one client, and the
//! headless one is that client with nobody looking at its
//! framebuffer. This crate provides:
//!
//! - [`client`]: the client ([`ThincClient`]). It keeps the
//!   framebuffer (byte-comparable against the server's screen), the
//!   revision-3 content store that resolves cache references, and
//!   the decode telemetry; every received message goes through
//!   [`ThincClient::apply`],
//! - [`stream`]: the wire-facing layer ([`StreamClient`]) that feeds
//!   raw connection bytes through the frame reader into that client,
//!   with decode-error recovery (skip damage, request a server
//!   resync, count it), the framing-stall watchdog and warm resume,
//! - [`hardware`]: the client hardware model (acceleration
//!   capabilities and per-operation cost accounting, used for the
//!   client-processing-time measurements of §8.2),
//! - [`reconnect`]: the client-driven reconnection policy
//!   ([`ReconnectPolicy`]) that turns a stale display into
//!   refresh requests on a seeded-jitter exponential backoff.

pub mod client;
pub mod cursor;
pub mod hardware;
pub mod reconnect;
pub mod stream;
pub mod zoom;

pub use client::ThincClient;
pub use hardware::{ClientHardware, HardwareCaps};
pub use reconnect::{ReconnectConfig, ReconnectPolicy};
pub use stream::StreamClient;
pub use zoom::ZoomController;
