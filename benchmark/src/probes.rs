//! Reference probes that involve no program state.
//!
//! `Reference` is the block whose sort time says how fast the box is;
//! the harness samples it between rounds and reports times at reference
//! speed. The two other `host.*` probes, a fixed arithmetic spin and a
//! condvar ping-pong, run between rounds of the traced run. All three
//! are benchmark-local: they measure the box, not the program.
//! `net.stream_rtt_ns` is the floor of one hop pair through `sm-net`.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use spawn_merge::net::Network;

use crate::harness::Layers;
use crate::stats;

/// The reference block: 64 Ki scattered `u64`s (half a megabyte, so the
/// sort runs out of the core's own cache) and the buffer they are sorted
/// in. Both are allocated once, before the first round: a sample touches
/// neither the allocator nor any memory the program has used, and it is
/// taken while no thread of the program has work, so nothing the program
/// does or leaves behind can move it. What moves it is what moves every
/// user-mode instruction on this box: the clock of the core and what the
/// neighbours do to it.
pub struct Reference {
    scattered: Vec<u64>,
    block: Vec<u64>,
}

impl Reference {
    const LEN: u64 = 1 << 16;
    const SORTS: usize = 5;

    pub fn new() -> Self {
        let scattered: Vec<u64> = (0..Self::LEN)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        Reference {
            block: scattered.clone(),
            scattered,
        }
    }

    fn sort_once(&mut self) -> u64 {
        self.block.copy_from_slice(&self.scattered);
        let t0 = Instant::now();
        self.block.sort_unstable();
        std::hint::black_box(&self.block);
        t0.elapsed().as_nanos() as u64
    }

    /// Median of five sorts of the block, in microseconds, after one
    /// untimed sort that brings the block into the cache.
    pub fn sort_us(&mut self) -> f64 {
        self.sort_once();
        let sorts: Vec<u64> = (0..Self::SORTS).map(|_| self.sort_once()).collect();
        stats::median_ns(&sorts) / 1e3
    }
}

/// A million dependent multiply-adds, in microseconds.
fn spin_ref_us() -> f64 {
    let t0 = Instant::now();
    let mut x = std::hint::black_box(0x2545_f491_4f6c_dd1du64);
    for _ in 0..1_000_000 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    std::hint::black_box(x);
    t0.elapsed().as_nanos() as f64 / 1e3
}

/// Median round trip of a two-thread condvar ping-pong, in microseconds:
/// what it costs this box to wake a parked thread, twice.
fn wake_ref_us() -> f64 {
    const TRIPS: usize = 200;
    let ball = Arc::new((Mutex::new(0usize), Condvar::new()));
    let trips = std::thread::scope(|scope| {
        let peer = Arc::clone(&ball);
        // The peer returns every odd count as the next even one.
        scope.spawn(move || {
            let (lock, cv) = &*peer;
            let mut n = lock.lock().expect("probe mutex");
            while *n < 2 * TRIPS {
                if *n % 2 == 1 {
                    *n += 1;
                    cv.notify_one();
                } else {
                    n = cv.wait(n).expect("probe mutex");
                }
            }
        });
        let (lock, cv) = &*ball;
        let mut trips = Vec::with_capacity(TRIPS);
        for _ in 0..TRIPS {
            let t0 = Instant::now();
            let mut n = lock.lock().expect("probe mutex");
            *n += 1;
            cv.notify_one();
            while *n % 2 == 1 {
                n = cv.wait(n).expect("probe mutex");
            }
            drop(n);
            trips.push(t0.elapsed().as_nanos() as u64);
        }
        trips
    });
    stats::median_ns(&trips) / 1e3
}

pub fn host(layers: &mut Layers) {
    layers.sample("host.spin_ref_us", spin_ref_us());
    layers.sample("host.wake_ref_us", wake_ref_us());
}

/// Raw `Stream` ping-pong against an echo thread: two hops, no frames,
/// no codec, no server.
pub fn stream_rtt(layers: &mut Layers) {
    const TRIPS: usize = 2_000;
    let net = Network::new();
    let Ok(listener) = net.listen(1) else {
        return;
    };
    let trips = std::thread::scope(|scope| {
        scope.spawn(move || {
            if let Ok(stream) = listener.accept() {
                while let Ok(msg) = stream.recv() {
                    if stream.send(&msg).is_err() {
                        break;
                    }
                }
            }
        });
        let mut trips = Vec::with_capacity(TRIPS);
        if let Ok(stream) = net.connect(1) {
            let payload = [0u8; 64];
            for _ in 0..TRIPS {
                let t0 = Instant::now();
                if stream.send(&payload).is_err() || stream.recv().is_err() {
                    break;
                }
                trips.push(t0.elapsed().as_nanos() as u64);
            }
        }
        // Dropping the stream here closes it and ends the echo thread.
        trips
    });
    layers.sample_median_ns("net.stream_rtt_ns", &trips);
}
