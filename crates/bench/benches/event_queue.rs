//! **`event_queue`** — the serving loop's future-event list
//! (`simkit::EventQueue`), at the depths the loop keeps:
//!
//! * `schedule_pop/<depth>` — one `schedule` plus one `pop` at a steady
//!   depth: 32, the tens of live boundaries, grants, transitions and ticks
//!   the serving loop's heap holds, and 13,000, about one `churn_chaos`
//!   shard's arrival count, the depth a heap holding every arrival starts
//!   at;
//! * `arrivals_prescheduled/13000` — one shard's 13,000 arrivals scheduled
//!   up front into a heap beside 32 live events, then drained: the serving
//!   loop before arrivals streamed;
//! * `arrivals_streamed/13000` — the same arrivals fired beside the heap:
//!   `reserve` holds their scheduling positions and each step merges the
//!   next arrival with the heap top through `precedes`, which is what
//!   `ServingSystem::run_counted` runs.
//!
//! In both replays each popped live event reschedules itself within the
//! next 71 seconds, so the heap keeps 32 live entries throughout and they
//! fire about as often as the 0.9 req/s arrivals, as on `churn_chaos`
//! (311 k pops beside 313 k arrivals per repeat at seed 1). One
//! iteration fires every arrival.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use simkit::{EventQueue, SimDuration, SimRng, SimTime};

/// One `churn_chaos` shard's arrival count, to the nearest thousand.
const ARRIVALS: usize = 13_000;
/// Live events the serving loop's heap holds beside the arrivals.
const LIVE: u64 = 32;

/// Arrival instants at 0.9 req/s on average, in arrival order.
fn arrival_times() -> Vec<SimTime> {
    let mut rng = SimRng::new(1).stream("arrivals");
    let mut t = SimTime::ZERO;
    (0..ARRIVALS)
        .map(|_| {
            t += SimDuration::from_secs_f64(rng.exp(0.9));
            t
        })
        .collect()
}

/// A live event's next firing: within 71 seconds of `now`, drawn from
/// `draw` (the count of live firings so far, so both replays schedule
/// identical instants).
fn reschedule(now: SimTime, draw: u64) -> SimTime {
    now + SimDuration::from_micros(1 + draw.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 71_000_000)
}

/// Labels at or above this are arrivals; below, live events.
const ARRIVAL_BASE: u64 = 1 << 32;

fn prescheduled(times: &[SimTime]) -> u64 {
    let mut q = EventQueue::new();
    for (i, &t) in times.iter().enumerate() {
        q.schedule(t, ARRIVAL_BASE + i as u64);
    }
    for label in 0..LIVE {
        q.schedule(reschedule(SimTime::ZERO, label), label);
    }
    let (mut fired, mut live, mut order) = (0, 0, 0u64);
    while fired < times.len() {
        let (now, label) = q.pop().expect("arrivals remain");
        order = order.wrapping_mul(31).wrapping_add(label);
        if label >= ARRIVAL_BASE {
            fired += 1;
        } else {
            live += 1;
            q.schedule(reschedule(now, live), label);
        }
    }
    order
}

fn streamed(times: &[SimTime]) -> u64 {
    let mut q = EventQueue::new();
    let slots = q.reserve(times.len());
    for label in 0..LIVE {
        q.schedule(reschedule(SimTime::ZERO, label), label);
    }
    let (mut fired, mut live, mut order) = (0, 0, 0u64);
    while fired < times.len() {
        if q.precedes(slots, fired, times[fired]) {
            order = order
                .wrapping_mul(31)
                .wrapping_add(ARRIVAL_BASE + fired as u64);
            fired += 1;
        } else {
            let (now, label) = q.pop().expect("live events remain");
            order = order.wrapping_mul(31).wrapping_add(label);
            live += 1;
            q.schedule(reschedule(now, live), label);
        }
    }
    order
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    for depth in [LIVE as usize, ARRIVALS] {
        g.bench_function(BenchmarkId::new("schedule_pop", depth), |b| {
            let mut q = EventQueue::new();
            for label in 0..depth as u64 {
                q.schedule(reschedule(SimTime::ZERO, label), label);
            }
            let mut draw = depth as u64;
            b.iter(|| {
                let (now, label) = q.pop().expect("steady depth");
                draw += 1;
                q.schedule(reschedule(now, draw), label);
                black_box(now)
            })
        });
    }
    let times = arrival_times();
    // Both replays fire the same events in the same order (a checksum
    // over the firing order).
    assert_eq!(prescheduled(&times), streamed(&times));
    g.bench_function(BenchmarkId::new("arrivals_prescheduled", ARRIVALS), |b| {
        b.iter(|| prescheduled(black_box(&times)))
    });
    g.bench_function(BenchmarkId::new("arrivals_streamed", ARRIVALS), |b| {
        b.iter(|| streamed(black_box(&times)))
    });
    g.finish();
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);
