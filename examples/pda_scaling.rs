//! Server-side screen scaling for small displays (§6).
//!
//! Renders a web page at the 1024×768 session size while the client
//! views it through a 320×240 PDA viewport. With server-side scaling
//! the server resizes every update with the anti-aliased Fant
//! resampler before transmission, cutting bandwidth; the per-command
//! policy (RAW resampled, BITMAP→RAW, SFILL coordinates-only) is
//! visible in the statistics. Both the full-size server screen and
//! the client's scaled view are written out as PPM images so the
//! anti-aliased downscale can be inspected.
//!
//! Run with: `cargo run --release --example pda_scaling`

use std::io::Write;

use thinc::baselines::RemoteDisplay;
use thinc::bench::thinc_system::ThincSystem;
use thinc::bench::webbench::run_web;
use thinc::net::link::NetworkConfig;
use thinc::net::trace::Direction;
use thinc::raster::Framebuffer;
use thinc::workloads::web::WebWorkload;

const W: u32 = 1024;
const H: u32 = 768;
const PDA_W: u32 = 320;
const PDA_H: u32 = 240;
const PAGES: usize = 4;

fn write_ppm(path: &str, fb: &Framebuffer) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "P6\n{} {}\n255", fb.width(), fb.height())?;
    // The framebuffer is RGB888 row-major: exactly PPM's body.
    f.write_all(fb.data())?;
    Ok(())
}

fn main() -> std::io::Result<()> {
    let net = NetworkConfig::pda_802_11g();
    let wl = WebWorkload::standard();

    println!("rendering {PAGES} pages at {W}x{H}, viewport {PDA_W}x{PDA_H} (802.11g PDA)...");
    let mut full = ThincSystem::new(&net, W, H);
    let full_res = run_web(&mut full, &wl, PAGES);
    let mut pda = ThincSystem::with_viewport(&net, W, H, PDA_W, PDA_H);
    let pda_res = run_web(&mut pda, &wl, PAGES);

    let full_down = full.trace().bytes(Direction::Down);
    let pda_down = pda.trace().bytes(Direction::Down);
    println!("\nfull viewport : {:>8.1} KB/page, latency {:.3}s",
        full_res.avg_page_kb, full_res.avg_latency_s);
    println!("PDA viewport  : {:>8.1} KB/page, latency {:.3}s",
        pda_res.avg_page_kb, pda_res.avg_latency_s);
    println!("server-side scaling cut downlink bytes by {:.1}x ({} -> {})",
        full_down as f64 / pda_down.max(1) as f64, full_down, pda_down);

    write_ppm("target/pda_server_screen.ppm", pda.server_screen())?;
    write_ppm("target/pda_client_view.ppm", pda.client().framebuffer())?;
    println!("\nwrote target/pda_server_screen.ppm ({W}x{H}) and");
    println!("      target/pda_client_view.ppm  ({PDA_W}x{PDA_H}, Fant anti-aliased)");
    Ok(())
}
