//! Deterministic future-event list.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A deterministic priority queue of timed events.
///
/// Events pop in non-decreasing time order; events scheduled for the same
/// instant pop in the order they were scheduled (FIFO). This tie-break rule
/// is what makes whole-simulation determinism possible — two events at the
/// same timestamp must never race on heap internals.
///
/// Entries can be cancelled lazily via the [`EventKey`] returned by
/// [`EventQueue::schedule`].
///
/// Events known up front need not sit in the heap at all:
/// [`EventQueue::reserve`] holds scheduling positions for them, and
/// [`EventQueue::precedes`] tells the caller when the next one is due
/// ahead of every queued event, so the heap keeps only live events and
/// every tie resolves as if the stream had been scheduled when reserved.
///
/// # Example
///
/// ```
/// use simkit::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let t = SimTime::from_secs(1);
/// q.schedule(t, 'a');
/// let key = q.schedule(t, 'b');
/// q.schedule(t, 'c');
/// q.cancel(key);
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// Every seq below this is dead and its tombstone has been compacted
    /// away. Advanced whenever the heap is observed empty (at that point all
    /// previously issued seqs have fired or been cancelled).
    base_seq: u64,
    /// Tombstone bitmap, one bit per seq at or above `base_seq`: set once the
    /// event has fired or been cancelled. Indexed by `seq - base_seq`.
    dead: Vec<u64>,
    /// Number of scheduled events that have neither fired nor been cancelled.
    live: usize,
}

/// Handle identifying a scheduled event, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey(u64);

/// A block of consecutive scheduling positions held by
/// [`EventQueue::reserve`] for events the caller keeps outside the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    first: u64,
    len: usize,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (time, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            base_seq: 0,
            dead: Vec::new(),
            live: 0,
        }
    }

    fn is_dead(&self, seq: u64) -> bool {
        if seq < self.base_seq {
            return true;
        }
        let idx = (seq - self.base_seq) as usize;
        self.dead
            .get(idx / 64)
            .is_some_and(|w| w >> (idx % 64) & 1 == 1)
    }

    fn mark_dead(&mut self, seq: u64) {
        let idx = (seq - self.base_seq) as usize;
        let word = idx / 64;
        if word >= self.dead.len() {
            self.dead.resize(word + 1, 0);
        }
        self.dead[word] |= 1u64 << (idx % 64);
    }

    /// Drops all tombstones once the heap is empty (every issued seq is then
    /// dead), so bitmap memory tracks the heap's high-water mark per drain
    /// cycle instead of growing with total events scheduled.
    fn compact(&mut self) {
        debug_assert_eq!(self.live, 0);
        self.base_seq = self.next_seq;
        self.dead.clear();
    }

    /// Schedules `event` to fire at `time`, returning a cancellation key.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventKey {
        if self.heap.is_empty() && self.base_seq != self.next_seq {
            self.compact();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        self.live += 1;
        EventKey(seq)
    }

    /// Reserves the next `n` scheduling positions for events the caller
    /// keeps outside the heap: a stream known up front, such as a
    /// workload's arrivals, which would otherwise sit in the heap and
    /// deepen every pop.
    ///
    /// Slot `i` orders against queued events exactly as the `i`-th of `n`
    /// events scheduled now would: after every event already scheduled,
    /// before every event scheduled later, and at one instant in slot
    /// order. The positions never pop, never count as live, and cannot be
    /// cancelled; the caller fires a slot itself once
    /// [`EventQueue::precedes`] says it is due first.
    pub fn reserve(&mut self, n: usize) -> Reservation {
        let first = self.next_seq;
        self.next_seq += n as u64;
        if self.heap.is_empty() {
            // Nothing queued: the tombstones may start past the block.
            self.compact();
        } else {
            for seq in first..self.next_seq {
                self.mark_dead(seq);
            }
        }
        Reservation { first, len: n }
    }

    /// Whether slot `slot` of `reserved`, due at `time`, comes before the
    /// earliest live queued event: whether it would pop next had it been
    /// scheduled when reserved. True when nothing is queued.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is outside the reservation.
    pub fn precedes(&mut self, reserved: Reservation, slot: usize, time: SimTime) -> bool {
        assert!(slot < reserved.len, "slot {slot} outside the reservation");
        let seq = reserved.first + slot as u64;
        self.peek_live()
            .is_none_or(|top| (time, seq) < (top.time, top.seq))
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired or been cancelled;
    /// cancelling an already-fired event is a safe no-op. Cancellation is
    /// lazy: the entry is dropped when it reaches the front.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        if key.0 >= self.next_seq || self.is_dead(key.0) {
            return false;
        }
        self.mark_dead(key.0);
        self.live -= 1;
        true
    }

    /// Removes and returns the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.is_dead(entry.seq) {
                continue;
            }
            self.mark_dead(entry.seq);
            self.live -= 1;
            if self.heap.is_empty() {
                self.compact();
            }
            return Some((entry.time, entry.event));
        }
        self.compact();
        None
    }

    /// The timestamp of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_live().map(|entry| entry.time)
    }

    /// The earliest live entry, dropping cancelled ones off the top.
    fn peek_live(&mut self) -> Option<&Entry<E>> {
        while let Some(entry) = self.heap.peek() {
            if self.is_dead(entry.seq) {
                self.heap.pop();
            } else {
                break;
            }
        }
        self.heap.peek()
    }

    /// Number of live (scheduled, not fired, not cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether there are no live events.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3), 3);
        q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        let out: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(7), i);
        }
        let out: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(5), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(5)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        assert!(!q.cancel(EventKey(42)), "unknown key is a no-op");
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(1), 1);
        q.schedule(t(10), 10);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(t(5), 5);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 10);
    }

    #[test]
    fn tombstones_compact_across_drain_cycles() {
        let mut q = EventQueue::new();
        let mut stale = Vec::new();
        for cycle in 0..10u64 {
            let keep = q.schedule(t(cycle + 1), cycle);
            let drop = q.schedule(t(cycle + 2), cycle + 100);
            assert!(q.cancel(drop));
            stale.push(keep);
            assert_eq!(q.pop(), Some((t(cycle + 1), cycle)));
            assert!(q.is_empty(), "each cycle fully drains");
            assert_eq!(q.pop(), None, "draining discards the cancelled entry");
            assert_eq!(q.dead.len(), 0, "tombstones dropped once drained");
        }
        for key in stale {
            assert!(!q.cancel(key), "fired keys stay dead after compaction");
        }
        // Interleave a cancel with a live residual event across a cycle.
        let a = q.schedule(t(100), 1);
        q.schedule(t(101), 2);
        assert!(q.cancel(a));
        assert_eq!(q.peek_time(), Some(t(101)));
        assert_eq!(q.pop(), Some((t(101), 2)));
        assert_eq!(q.pop(), None);
    }

    /// Drains `q` merged with a reserved stream whose slot `i` is due at
    /// `due[i]` (firing in stable time order, labelled `1000 + i`), the
    /// way a caller firing a stream beside the heap does. `react` sees
    /// every firing and may schedule more events.
    fn drain_merged(
        q: &mut EventQueue<u32>,
        r: Reservation,
        due: &[SimTime],
        mut react: impl FnMut(&mut EventQueue<u32>, SimTime, u32),
    ) -> Vec<(SimTime, u32)> {
        let mut order: Vec<usize> = (0..due.len()).collect();
        order.sort_by_key(|&i| due[i]);
        let mut next = order.into_iter().peekable();
        let mut out = Vec::new();
        loop {
            let fired = match next.peek() {
                Some(&i) if q.precedes(r, i, due[i]) => {
                    next.next();
                    (due[i], 1000 + i as u32)
                }
                _ => match q.pop() {
                    Some(ev) => ev,
                    None => break,
                },
            };
            react(q, fired.0, fired.1);
            out.push(fired);
        }
        assert!(next.peek().is_none(), "an empty queue lets every slot fire");
        out
    }

    /// The same drain with the stream scheduled into the heap when the
    /// reservation was made: the order a reservation must reproduce.
    fn drain_scheduled(
        q: &mut EventQueue<u32>,
        mut react: impl FnMut(&mut EventQueue<u32>, SimTime, u32),
    ) -> Vec<(SimTime, u32)> {
        let mut out = Vec::new();
        while let Some(fired) = q.pop() {
            react(q, fired.0, fired.1);
            out.push(fired);
        }
        out
    }

    /// A follow-up rule both drains share: every third firing schedules
    /// an event at its own instant (a tie with whatever is still due
    /// then) and every fifth one a second later.
    fn follow_up(q: &mut EventQueue<u32>, at: SimTime, label: u32) {
        if label < 5000 && label.is_multiple_of(3) {
            q.schedule(at, 5000 + label);
        }
        if label < 5000 && label.is_multiple_of(5) {
            q.schedule(at + SimDuration::from_secs(1), 6000 + label);
        }
    }

    #[test]
    fn reserved_slots_order_exactly_as_if_scheduled_when_reserved() {
        // Instants drawn from three seconds, so slots tie with events
        // scheduled before the reservation (those pop first) and after it
        // (those pop later), and with each other (slot order).
        let mut rng = crate::SimRng::new(7).stream("reserve");
        for _ in 0..200 {
            let mut draw = || t(1 + rng.below(3));
            let before: Vec<SimTime> = (0..4).map(|_| draw()).collect();
            let due: Vec<SimTime> = (0..6).map(|_| draw()).collect();
            let after: Vec<SimTime> = (0..4).map(|_| draw()).collect();
            let (mut merged, mut reference) = (EventQueue::new(), EventQueue::new());
            for (i, &at) in before.iter().enumerate() {
                merged.schedule(at, i as u32);
                reference.schedule(at, i as u32);
            }
            let cancelled = [merged.schedule(t(2), 4000), reference.schedule(t(2), 4000)];
            let r = merged.reserve(due.len());
            for (i, &at) in due.iter().enumerate() {
                reference.schedule(at, 1000 + i as u32);
            }
            for (i, &at) in after.iter().enumerate() {
                merged.schedule(at, 100 + i as u32);
                reference.schedule(at, 100 + i as u32);
            }
            assert!(merged.cancel(cancelled[0]) && reference.cancel(cancelled[1]));
            assert_eq!(
                drain_merged(&mut merged, r, &due, follow_up),
                drain_scheduled(&mut reference, follow_up)
            );
        }
    }

    #[test]
    fn reserved_slots_keep_their_order_across_compaction() {
        let mut merged = EventQueue::new();
        let mut reference = EventQueue::new();
        // Drain once so both queues have compacted their tombstones.
        for q in [&mut merged, &mut reference] {
            q.schedule(t(1), 0);
            assert_eq!(q.pop(), Some((t(1), 0)));
        }
        // Reserved on an empty heap, then tied from both sides.
        let due = [t(3), t(2), t(3), t(4)];
        let r = merged.reserve(due.len());
        for (i, &at) in due.iter().enumerate() {
            reference.schedule(at, 1000 + i as u32);
        }
        for q in [&mut merged, &mut reference] {
            q.schedule(t(2), 1);
            q.schedule(t(3), 2);
        }
        // Event 2 empties the merged heap, which compacts its tombstones
        // while slot 3 is still due; the event it schedules ties with
        // slot 3 and, scheduled later, fires after it.
        let follow = |q: &mut EventQueue<u32>, _: SimTime, label: u32| {
            if label == 2 {
                q.schedule(t(4), 3);
            }
        };
        let got = drain_merged(&mut merged, r, &due, |q, at, label| {
            if label == 2 {
                assert!(q.is_empty() && q.dead.is_empty(), "drained and compacted");
            }
            follow(q, at, label);
        });
        assert_eq!(got, drain_scheduled(&mut reference, follow));
        assert_eq!(
            got.iter().map(|&(_, l)| l).collect::<Vec<_>>(),
            vec![1001, 1, 1000, 1002, 2, 1003, 3]
        );
    }

    #[test]
    fn reserved_positions_never_pop_and_cannot_be_cancelled() {
        let mut q = EventQueue::new();
        q.schedule(t(1), 'a');
        let busy = q.reserve(3); // reserved beside a queued event
        q.schedule(t(2), 'b');
        for slot in 0..3 {
            assert!(!q.cancel(EventKey(busy.first + slot)), "slot {slot}");
        }
        assert_eq!(q.len(), 2, "reserved positions are not live events");
        assert_eq!(q.pop(), Some((t(1), 'a')));
        assert_eq!(q.pop(), Some((t(2), 'b')));
        assert_eq!(q.pop(), None);
        let idle = q.reserve(2); // reserved on an empty heap
        assert!(!q.cancel(EventKey(idle.first)));
        assert!(!q.cancel(EventKey(idle.first + 1)));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert!(q.precedes(idle, 1, t(9)), "nothing queued: the slot is due");
        q.schedule(t(9), 'c');
        assert!(!q.precedes(busy, 0, t(10)));
        assert!(
            q.precedes(idle, 0, t(9)),
            "reserved before 'c' was scheduled"
        );
        assert_eq!((busy.len, idle.len), (3, 2));
    }

    #[test]
    #[should_panic(expected = "outside the reservation")]
    fn precedes_rejects_a_slot_past_the_reservation() {
        let mut q: EventQueue<()> = EventQueue::new();
        let r = q.reserve(2);
        q.precedes(r, 2, t(1));
    }

    #[test]
    fn same_time_after_pop_still_fifo() {
        let mut q = EventQueue::new();
        let time = SimTime::ZERO + SimDuration::from_millis(1);
        q.schedule(time, 'x');
        assert_eq!(q.pop().unwrap().1, 'x');
        q.schedule(time, 'y');
        q.schedule(time, 'z');
        assert_eq!(q.pop().unwrap().1, 'y');
        assert_eq!(q.pop().unwrap().1, 'z');
    }
}
