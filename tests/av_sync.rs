//! Audio/video synchronization integration (§4.2): "THINC timestamps
//! both audio and video data at the server to ensure they are
//! delivered to the client with the same synchronization
//! characteristics present at the server."

use thinc::bench::thinc_system::ThincSystem;
use thinc::baselines::RemoteDisplay;
use thinc::net::link::NetworkConfig;
use thinc::net::time::{SimDuration, SimTime};
use thinc::raster::Rect;
use thinc::workloads::video::{AudioTrack, VideoClip};

#[test]
fn timestamps_are_monotonic_and_span_the_clip() {
    let net = NetworkConfig::lan_desktop();
    let mut sys = ThincSystem::new(&net, 512, 384);
    let clip = VideoClip::short(1_500);
    let track = AudioTrack {
        duration_ms: 1_500,
        ..AudioTrack::benchmark()
    };
    let start = SimTime(10_000);
    let mut next_audio = start;
    for i in 0..clip.frame_count() {
        let t = start + SimDuration::from_micros(clip.pts_us(i));
        while next_audio <= t {
            let off = (next_audio - start).as_micros() / 1000;
            if off >= track.duration_ms {
                break;
            }
            sys.audio(next_audio, &track.pcm(off, 100));
            next_audio += SimDuration::from_millis(100);
        }
        sys.video_frame(t, &clip.frame(i), Rect::new(0, 0, 512, 384));
    }
    sys.drain(start + SimDuration::from_millis(1_500));

    // Audio timestamps at the client are strictly increasing and
    // anchored at the device-open time.
    let ts = sys.client().audio_timestamps();
    assert!(ts.len() >= 10, "{} audio packets", ts.len());
    for w in ts.windows(2) {
        assert!(w[1] > w[0], "audio timestamps not monotonic: {w:?}");
    }
    let span_us = ts.last().unwrap() - ts.first().unwrap();
    assert!(
        span_us >= 1_200_000,
        "audio timestamps span only {span_us} us of a 1.5 s clip"
    );
    // Video arrived in full.
    assert_eq!(sys.av_stats().frames_delivered, clip.frame_count());
}

#[test]
fn audio_clock_matches_pcm_rate() {
    // Timestamps must advance at exactly the PCM byte rate: packet k
    // starts at (bytes before k) / bytes_per_sec.
    let net = NetworkConfig::lan_desktop();
    let mut sys = ThincSystem::new(&net, 64, 64);
    let track = AudioTrack::benchmark();
    let start = SimTime::ZERO;
    // Feed exactly 0.5 s of PCM in one write.
    sys.audio(start, &track.pcm(0, 500));
    sys.drain(SimTime(600_000));
    let ts = sys.client().audio_timestamps();
    assert!(!ts.is_empty());
    // Packets are DEFAULT_PACKET_BYTES (4096) apart: 4096 bytes at
    // 176400 B/s = 23219 us.
    let expect_step = 4096 * 1_000_000 / track.bytes_per_sec();
    for w in ts.windows(2) {
        let step = w[1] - w[0];
        assert!(
            (step as i64 - expect_step as i64).abs() <= 1,
            "step {step} vs expected {expect_step}"
        );
    }
}
