//! The calendar/ladder event queue behind the engine's hot loop.
//!
//! [`CalendarQueue`] replaces the engine's former single global
//! `BinaryHeap` with a ring of fixed-width time buckets plus an overflow
//! ladder:
//!
//! - **ring** — `num_slots` buckets of `2^WIDTH_BITS` ns (1024 ns ≈ the
//!   serialization time of an MTU packet at 10 Gbps, the link-latency
//!   horizon most events land in). A bucket is an unsorted `Vec`; pushing
//!   a near-future event is an O(1) append plus one bit in an occupancy
//!   bitset.
//! - **current bucket** — when the cursor reaches an occupied bucket its
//!   events are scattered into `2^SUB_BITS` *sub-buckets* (32 ns each).
//!   Each sub-bucket is sorted once when the sub-cursor reaches it
//!   (descending, so popping is `Vec::pop` off the back) and drained in
//!   exact `(t, seq)` order. Sub-bucketing matters because nearly half of
//!   all events are scheduled *into* the bucket being drained (an ACK's
//!   serialization time is ~50 ns): with sub-buckets those pushes are O(1)
//!   appends to a later sub-bucket instead of binary-heap churn. Only
//!   pushes into the *active* (already-sorted) sub-bucket — i.e. less than
//!   32 ns ahead, which essentially never happens — take a side heap, and
//!   each pop takes the smaller of the two fronts.
//! - **overflow ladder** — events beyond the ring horizon (RTO timers at
//!   ≥1 ms, far-future flow starts, fault events) sit in a conventional
//!   binary heap and migrate into ring buckets as the cursor advances.
//!
//! # Why determinism survives
//!
//! Pop order is **exactly** the `(t, seq)`-lexicographic order a global
//! `BinaryHeap` produces. Buckets partition events by `t >> WIDTH_BITS`,
//! so strictly increasing bucket index implies strictly increasing `t`;
//! within the current bucket a min-heap on `(t, seq)` serves ties in
//! insertion (`seq`) order, which is the tiebreak the old heap used. The
//! ladder only ever holds events *beyond* the ring horizon, and every
//! cursor advance first migrates newly-in-horizon ladder events into
//! their buckets, so nothing can be popped late. `seq` assignment itself
//! is untouched — one increment per push, in push order — so traces and
//! flow records stay byte-identical.
//!
//! # Ladder spill and migration invariants
//!
//! With `nb = num_slots` buckets and the cursor at absolute bucket
//! `cur_abs`:
//!
//! - the current bucket holds events with `abs == cur_abs`,
//! - ring slot `abs % nb` holds events with `abs ∈ (cur_abs, cur_abs + nb]`
//!   (each such `abs` maps to a distinct slot),
//! - the ladder holds events with `abs > cur_abs + nb`.
//!
//! An advance moves `cur_abs` to the next occupied slot (a cyclic bitset
//! scan) or, when the ring is empty, jumps straight to the ladder's
//! earliest bucket; it then drains every ladder event with
//! `abs <= cur_abs + nb` into the ring. Slots skipped by the advance are
//! empty by construction, so migrated events can never collide with
//! stale ones.
//!
//! The ring doubles (up to [`MAX_SLOTS`]) whenever the ladder outgrows
//! `4 × num_slots`, amortizing redistribution; [`CalendarQueue::from_items`]
//! sizes the ring from a restored checkpoint's event population up front
//! so a big snapshot never degrades into an all-ladder queue.

use crate::engine::Ev;
use crate::types::Ns;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bucket width exponent: buckets are `2^WIDTH_BITS` ns wide.
const WIDTH_BITS: u32 = 10;
/// Initial (and minimum) ring size: 1024 buckets ≈ 1.05 ms of horizon,
/// just under the 1 ms minimum RTO so timer events take the ladder.
const MIN_SLOTS: usize = 1 << 10;
/// Growth cap: 4096 buckets ≈ 4.2 ms of horizon — wide enough that
/// steady-state RTO timers (≈2 ms out) land in the ring, small enough
/// that the slot headers stay cache-resident (wider rings measured
/// slower: far pushes miss on a big header array).
const MAX_SLOTS: usize = 1 << 12;
/// Sub-bucket split of the active bucket: `2^SUB_BITS` sub-buckets of
/// `2^(WIDTH_BITS - SUB_BITS)` ns (32 × 32 ns).
const SUB_BITS: u32 = 5;
const SUB_COUNT: usize = 1 << SUB_BITS;
/// log2 of the sub-bucket width in ns.
const SUB_SHIFT: u32 = WIDTH_BITS - SUB_BITS;
/// Sentinel for "no sub-bucket active" (freshly advanced bucket).
const NO_SUB: u32 = u32::MAX;

/// One scheduled event: fires at `t`, with `seq` breaking same-`t` ties
/// in schedule order.
#[derive(Clone, Copy)]
pub(crate) struct CalEntry {
    pub(crate) t: Ns,
    pub(crate) seq: u64,
    pub(crate) ev: Ev,
}

impl PartialEq for CalEntry {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for CalEntry {}
impl PartialOrd for CalEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CalEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first.
        Reverse((self.t, self.seq)).cmp(&Reverse((other.t, other.seq)))
    }
}

impl CalEntry {
    /// The pop-order key: earliest `t` first, lowest `seq` breaking ties.
    #[inline]
    fn key(&self) -> (Ns, u64) {
        (self.t, self.seq)
    }
}

/// The event queue: earliest timestamp first, insertion order (`seq`)
/// breaking ties, so identical schedules replay identically. See the
/// module docs for the bucket/ladder layout.
pub(crate) struct CalendarQueue {
    /// log2 of the bucket width in ns.
    shift: u32,
    /// `num_slots - 1` (num_slots is a power of two).
    mask: u64,
    /// Ring buckets, unsorted; slot `s` holds the single in-horizon
    /// absolute bucket with `abs % num_slots == s`.
    slots: Vec<Vec<CalEntry>>,
    /// One bit per slot: slot is non-empty.
    occupied: Vec<u64>,
    /// The activated sub-bucket, sorted descending by `(t, seq)` so the
    /// next event to pop sits at the back.
    cur: Vec<CalEntry>,
    /// Events scheduled into the *active* sub-bucket after it was sorted
    /// (< 32 ns ahead — vanishingly rare); kept in a tiny min-heap rather
    /// than memmoved into `cur`'s sorted order.
    incoming: BinaryHeap<CalEntry>,
    /// The current bucket's not-yet-activated sub-buckets (persistent
    /// buffers, unsorted).
    subs: Vec<Vec<CalEntry>>,
    /// One bit per sub-bucket: sub-bucket is non-empty.
    sub_occ: u32,
    /// Index of the active sub-bucket, or [`NO_SUB`].
    sub_cur: u32,
    /// Events in `subs` (excludes `cur`, `incoming`, ring, and ladder).
    bucket_len: usize,
    /// Scratch buffer for the counting scatter in
    /// [`CalendarQueue::sort_cur_descending`].
    scratch: Vec<CalEntry>,
    /// Absolute index (`t >> shift`) of the current bucket.
    cur_abs: u64,
    /// Events in ring slots (excludes `cur` and the ladder).
    ring_len: usize,
    /// The overflow ladder: events beyond the ring horizon.
    overflow: BinaryHeap<CalEntry>,
    /// Total pending events.
    len: usize,
    /// Monotone push counter; the tiebreak half of every event's key.
    pub(crate) seq: u64,
    /// High-water mark of [`CalendarQueue::len`] — a memory-footprint
    /// proxy that run manifests report.
    pub(crate) peak: usize,
    /// Ladder→ring migrations performed by cursor advances — a pure
    /// function of the push/pop sequence (reported by the engine's
    /// deterministic counter set).
    pub(crate) ladder_spills: u64,
    /// Sub-bucket sorts that fell back from the counting scatter to a
    /// comparison sort (per-`t` seq monotonicity broken by a ladder
    /// migration); also deterministic.
    pub(crate) scatter_fallbacks: u64,
}

impl CalendarQueue {
    pub(crate) fn new() -> Self {
        Self::with_slots(MIN_SLOTS, 0)
    }

    fn with_slots(num_slots: usize, now: Ns) -> Self {
        debug_assert!(num_slots.is_power_of_two() && num_slots >= 64);
        CalendarQueue {
            shift: WIDTH_BITS,
            mask: num_slots as u64 - 1,
            slots: (0..num_slots).map(|_| Vec::new()).collect(),
            occupied: vec![0u64; num_slots / 64],
            cur: Vec::new(),
            incoming: BinaryHeap::new(),
            subs: (0..SUB_COUNT).map(|_| Vec::new()).collect(),
            sub_occ: 0,
            sub_cur: NO_SUB,
            bucket_len: 0,
            scratch: Vec::new(),
            cur_abs: now >> WIDTH_BITS,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            seq: 0,
            peak: 0,
            ladder_spills: 0,
            scatter_fallbacks: 0,
        }
    }

    /// Rebuilds a queue from a checkpoint's event population: `items`
    /// carry their original `seq`s (in arbitrary order), and the ring is
    /// sized to the population so restoring a large snapshot into the
    /// default ring cannot degrade into an all-ladder queue. `min_slots`
    /// floors the sizing (checkpoints record the organic ring size so a
    /// restore never lands on a smaller ring than the run had grown);
    /// pass 0 for population-derived sizing alone.
    pub(crate) fn from_items(
        seq: u64,
        peak: usize,
        items: Vec<CalEntry>,
        now: Ns,
        min_slots: usize,
    ) -> Self {
        let num_slots = (items.len() / 4)
            .next_power_of_two()
            .max(min_slots.next_power_of_two())
            .clamp(MIN_SLOTS, MAX_SLOTS);
        let mut q = Self::with_slots(num_slots, now);
        q.seq = seq;
        q.peak = peak;
        for e in items {
            q.len += 1;
            q.insert(e);
        }
        q
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Ring size (checkpoints record it so restores keep the organic
    /// sizing; sizing tests read it too).
    pub(crate) fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Every pending event, in arbitrary order (checkpoint serialization
    /// and in-flight accounting; pop order is derived from `(t, seq)`, not
    /// from this iteration).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &CalEntry> {
        self.cur
            .iter()
            .chain(self.incoming.iter())
            .chain(self.subs.iter().flatten())
            .chain(self.slots.iter().flatten())
            .chain(self.overflow.iter())
    }

    pub(crate) fn push(&mut self, t: Ns, ev: Ev) {
        self.seq += 1;
        let seq = self.seq;
        self.len += 1;
        self.peak = self.peak.max(self.len);
        self.insert(CalEntry { t, seq, ev });
    }

    fn insert(&mut self, e: CalEntry) {
        let abs = (e.t >> self.shift).max(self.cur_abs);
        if abs == self.cur_abs {
            self.file_current(e);
        } else {
            self.place(e, abs);
            if self.overflow.len() > self.slots.len() * 4 && self.slots.len() < MAX_SLOTS {
                self.grow();
            }
        }
    }

    /// Files an entry belonging to the current bucket: O(1) append to a
    /// later sub-bucket, or the side heap if it lands in the active one.
    fn file_current(&mut self, e: CalEntry) {
        let base = self.cur_abs << SUB_BITS;
        let mut abs_sub = (e.t >> SUB_SHIFT).max(base);
        if self.sub_cur != NO_SUB {
            abs_sub = abs_sub.max(base + self.sub_cur as u64);
        }
        let rel = (abs_sub - base) as usize;
        debug_assert!(rel < SUB_COUNT);
        if rel as u32 == self.sub_cur {
            self.incoming.push(e);
        } else {
            self.subs[rel].push(e);
            self.sub_occ |= 1 << rel;
            self.bucket_len += 1;
        }
    }

    /// Files an entry with `abs > cur_abs` into its ring slot or the
    /// ladder.
    fn place(&mut self, e: CalEntry, abs: u64) {
        if abs - self.cur_abs <= self.slots.len() as u64 {
            let s = (abs & self.mask) as usize;
            self.slots[s].push(e);
            self.occupied[s >> 6] |= 1 << (s & 63);
            self.ring_len += 1;
        } else {
            self.overflow.push(e);
        }
    }

    /// Doubles the ring and re-files every non-current event under the new
    /// horizon. `cur`, `cur_abs`, `seq`, and `len` are untouched, so pop
    /// order is unaffected.
    fn grow(&mut self) {
        let new_slots = (self.slots.len() * 2).min(MAX_SLOTS);
        if new_slots == self.slots.len() {
            return;
        }
        let mut all: Vec<CalEntry> = Vec::with_capacity(self.ring_len + self.overflow.len());
        for s in self.slots.iter_mut() {
            all.append(s);
        }
        all.extend(std::mem::take(&mut self.overflow).into_vec());
        self.slots = (0..new_slots).map(|_| Vec::new()).collect();
        self.occupied = vec![0u64; new_slots / 64];
        self.mask = new_slots as u64 - 1;
        self.ring_len = 0;
        for e in all {
            let abs = e.t >> self.shift;
            debug_assert!(abs > self.cur_abs);
            self.place(e, abs);
        }
    }

    /// Readies the next event and says where it sits: `Some(true)` at
    /// the back of the sorted sub-bucket, `Some(false)` atop the side
    /// heap, `None` when the queue is empty.
    #[inline]
    fn front(&mut self) -> Option<bool> {
        if self.cur.is_empty() && self.incoming.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.refill();
        }
        // The next event is the smaller of the sorted sub-bucket's back
        // and the side heap's top. `<=` favors the sub-bucket, but keys
        // are unique (`seq` is a fresh counter per push) so either bias
        // is correct.
        Some(match (self.cur.last(), self.incoming.peek()) {
            (Some(v), Some(h)) => v.key() <= h.key(),
            (Some(_), None) => true,
            _ => false,
        })
    }

    /// The event [`CalendarQueue::front`] located.
    #[inline]
    fn front_entry(&self, in_cur: bool) -> &CalEntry {
        let e = if in_cur {
            self.cur.last()
        } else {
            self.incoming.peek()
        };
        e.expect("front() located an event")
    }

    #[inline]
    fn take(&mut self, in_cur: bool) -> Option<CalEntry> {
        self.len -= 1;
        if in_cur {
            self.cur.pop()
        } else {
            self.incoming.pop()
        }
    }

    /// Pops the next event unconditionally (the engine bounds its pops
    /// with [`CalendarQueue::pop_before`]).
    #[cfg(test)]
    pub(crate) fn pop(&mut self) -> Option<CalEntry> {
        let in_cur = self.front()?;
        self.take(in_cur)
    }

    /// Pops the next event if it fires strictly before `limit`.
    #[inline]
    pub(crate) fn pop_before(&mut self, limit: Ns) -> Option<CalEntry> {
        let in_cur = self.front()?;
        if self.front_entry(in_cur).t >= limit {
            return None;
        }
        self.take(in_cur)
    }

    /// Timestamp of the next event to pop. `&mut` because reaching the
    /// next event may require activating its bucket.
    pub(crate) fn peek_t(&mut self) -> Option<Ns> {
        let in_cur = self.front()?;
        Some(self.front_entry(in_cur).t)
    }

    /// Makes the next event poppable: advances to the next ring bucket if
    /// the current one is exhausted, then activates its next occupied
    /// sub-bucket. Guaranteed to leave `cur` non-empty (caller checked
    /// `len > 0`).
    fn refill(&mut self) {
        if self.bucket_len == 0 {
            self.advance();
        }
        debug_assert!(self.bucket_len > 0);
        // Activate the next occupied sub-bucket: swap its buffer with the
        // drained `cur` (so steady state allocates nothing) and sort it
        // once, descending, so pops walk backward off the end.
        let from = self.sub_cur.wrapping_add(1); // NO_SUB wraps to 0
                                                 // Occupied bits only exist above `sub_cur` (pushes at or below it
                                                 // take the side heap), so `bucket_len > 0` implies `from` is a
                                                 // valid shift.
        debug_assert!(from < SUB_COUNT as u32);
        let m = self.sub_occ & (!0u32 << from);
        debug_assert!(m != 0, "bucket_len > 0 but no occupied sub-bucket");
        let s = m.trailing_zeros();
        self.sub_occ &= !(1 << s);
        self.sub_cur = s;
        std::mem::swap(&mut self.subs[s as usize], &mut self.cur);
        self.bucket_len -= self.cur.len();
        self.sort_cur_descending();
        debug_assert!(!self.cur.is_empty());
    }

    /// Sorts the freshly activated sub-bucket descending by `(t, seq)`.
    ///
    /// The fast path is a comparison-free counting scatter: a sub-bucket
    /// spans only `2^SUB_SHIFT` distinct `t` values, and appends arrive in
    /// ascending `seq` order per `t` (direct pushes are globally
    /// `seq`-monotone, and bucket distribution preserves slot order, which
    /// is push order). Group by `t` descending, reverse each group, done —
    /// one move per entry. Ladder migrations can break per-`t` monotonicity
    /// (a timer pushed long ago has a small `seq`), so the counting pass
    /// verifies it and falls back to a comparison sort when violated.
    fn sort_cur_descending(&mut self) {
        const NVALS: usize = 1 << SUB_SHIFT;
        let low = (1u64 << SUB_SHIFT) - 1;
        let k = self.cur.len();
        if k < 12 {
            // Too small for the counting passes to pay off; only the low
            // SUB_SHIFT bits of `t` differ here, so (t, seq) collapses
            // into one u64: t's low bits above 59 bits of seq (a push
            // counter can't plausibly reach 2^59).
            debug_assert!(self.seq < 1 << 59);
            self.cur
                .sort_unstable_by_key(|e| Reverse(((e.t & low) << 59) | e.seq));
            return;
        }
        let mut counts = [0u32; NVALS];
        let mut last = [0u64; NVALS];
        let mut ordered = true;
        for e in &self.cur {
            let g = (e.t & low) as usize;
            counts[g] += 1;
            ordered &= e.seq >= last[g];
            last[g] = e.seq;
        }
        if !ordered {
            self.scatter_fallbacks += 1;
            debug_assert!(self.seq < 1 << 59);
            self.cur
                .sort_unstable_by_key(|e| Reverse(((e.t & low) << 59) | e.seq));
            return;
        }
        // Descending layout: largest `t` group first. `next[g]` starts one
        // past group `g`'s end; placing each (seq-ascending) arrival at
        // `--next[g]` reverses the group into seq-descending order.
        let mut next = [0u32; NVALS];
        let mut acc = 0u32;
        for g in (0..NVALS).rev() {
            acc += counts[g];
            next[g] = acc;
        }
        let dummy = self.cur[0];
        self.scratch.clear();
        self.scratch.resize(k, dummy);
        for e in self.cur.drain(..) {
            let g = (e.t & low) as usize;
            next[g] -= 1;
            self.scratch[next[g] as usize] = e;
        }
        std::mem::swap(&mut self.cur, &mut self.scratch);
    }

    /// Moves the cursor to the next non-empty bucket and scatters its
    /// events into sub-buckets. Guaranteed to leave `bucket_len > 0`
    /// (caller checked `len > 0`).
    fn advance(&mut self) {
        debug_assert!(self.cur.is_empty() && self.incoming.is_empty() && self.len > 0);
        debug_assert!(self.bucket_len == 0 && self.sub_occ == 0);
        self.sub_cur = NO_SUB;
        if self.ring_len == 0 {
            // Everything pending sits in the ladder: jump the cursor
            // straight to its earliest bucket. The migration below then
            // moves at least that event into the current bucket.
            let top = self.overflow.peek().expect("len > 0 with empty ring");
            self.cur_abs = top.t >> self.shift;
        } else {
            self.cur_abs += self.next_occupied_offset();
            let s = (self.cur_abs & self.mask) as usize;
            self.occupied[s >> 6] &= !(1 << (s & 63));
            // Drain the slot into sub-buckets, recycling its buffer so
            // steady state allocates nothing. Every entry here shares
            // `abs == cur_abs` (a slot is drained exactly when the cursor
            // reaches it, and `place` admits at most one ring-turn ahead),
            // and no sub-bucket is active yet, so the scatter is just the
            // sub-bucket bits of `t` — no clamping needed.
            let mut bucket = std::mem::take(&mut self.slots[s]);
            self.ring_len -= bucket.len();
            self.bucket_len += bucket.len();
            for e in bucket.drain(..) {
                debug_assert_eq!(e.t >> self.shift, self.cur_abs);
                let rel = (e.t >> SUB_SHIFT) as usize & (SUB_COUNT - 1);
                self.subs[rel].push(e);
                self.sub_occ |= 1 << rel;
            }
            self.slots[s] = bucket;
        }
        // Ladder spill: everything now within the ring horizon files into
        // its bucket (or a sub-bucket after a jump). Slots passed over by
        // the advance are empty, so no slot ever mixes two `abs` values.
        let horizon = self.cur_abs + self.slots.len() as u64;
        while let Some(top) = self.overflow.peek() {
            let abs = top.t >> self.shift;
            if abs > horizon {
                break;
            }
            let e = self.overflow.pop().expect("peeked ladder entry");
            self.ladder_spills += 1;
            if abs == self.cur_abs {
                self.file_current(e);
            } else {
                let s = (abs & self.mask) as usize;
                self.slots[s].push(e);
                self.occupied[s >> 6] |= 1 << (s & 63);
                self.ring_len += 1;
            }
        }
        debug_assert!(self.bucket_len > 0);
    }

    /// Cyclic distance from `cur_abs` to the next occupied slot, found by
    /// scanning the occupancy bitset a word at a time.
    fn next_occupied_offset(&self) -> u64 {
        let start = ((self.cur_abs + 1) & self.mask) as usize;
        // Tail of the word holding `start`.
        let first = self.occupied[start >> 6] & (!0u64 << (start & 63));
        if first != 0 {
            let s = (start & !63) + first.trailing_zeros() as usize;
            return self.slot_distance(s);
        }
        let words = self.occupied.len();
        for i in 1..=words {
            let w = ((start >> 6) + i) % words;
            if self.occupied[w] != 0 {
                let s = w * 64 + self.occupied[w].trailing_zeros() as usize;
                return self.slot_distance(s);
            }
        }
        unreachable!("ring_len > 0 but occupancy bitset is empty")
    }

    fn slot_distance(&self, slot: usize) -> u64 {
        let cur_slot = (self.cur_abs & self.mask) as usize;
        let nb = self.slots.len();
        let d = (slot + nb - cur_slot) % nb;
        // Distance 0 means the slot exactly one full ring ahead
        // (`abs == cur_abs + nb` maps to the cursor's own slot index).
        if d == 0 {
            nb as u64
        } else {
            d as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_rng::Rng;

    fn id_of(ev: &Ev) -> u32 {
        match ev {
            Ev::FlowStart(i) => *i,
            _ => panic!("test events are FlowStart-tagged"),
        }
    }

    /// Reference model: the exact `BinaryHeap` the engine used to run on.
    struct HeapModel {
        heap: BinaryHeap<CalEntry>,
        seq: u64,
    }

    impl HeapModel {
        fn new() -> Self {
            HeapModel {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }

        fn push(&mut self, t: Ns, ev: Ev) {
            self.seq += 1;
            let seq = self.seq;
            self.heap.push(CalEntry { t, seq, ev });
        }

        fn pop(&mut self) -> Option<(Ns, u64, u32)> {
            self.heap.pop().map(|e| (e.t, e.seq, id_of(&e.ev)))
        }

        fn pop_before(&mut self, limit: Ns) -> Option<(Ns, u64, u32)> {
            match self.heap.peek() {
                Some(e) if e.t < limit => self.pop(),
                _ => None,
            }
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(500, Ev::FlowStart(0)); // current bucket
        q.push(500, Ev::FlowStart(1)); // same t: seq breaks the tie
        q.push(2_000_000, Ev::FlowStart(2)); // beyond the ring: ladder
        q.push(5_000, Ev::FlowStart(3)); // a later ring bucket
        q.push(100, Ev::FlowStart(4)); // current bucket, earlier t
        let got: Vec<(Ns, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.t, id_of(&e.ev)))
            .collect();
        assert_eq!(
            got,
            vec![(100, 4), (500, 0), (500, 1), (5_000, 3), (2_000_000, 2)]
        );
        assert_eq!(q.len(), 0);
        assert_eq!(q.peak, 5);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        q.push(3_000_000, Ev::FlowStart(0));
        q.push(10, Ev::FlowStart(1));
        assert_eq!(q.peek_t(), Some(10));
        assert!(q.pop_before(10).is_none(), "the limit is exclusive");
        assert_eq!(q.pop_before(11).unwrap().t, 10);
        assert!(q.pop_before(3_000_000).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_t(), Some(3_000_000));
        assert_eq!(q.pop().unwrap().t, 3_000_000);
        assert_eq!(q.peek_t(), None);
        assert!(q.pop().is_none());
    }

    /// Satellite: across randomized insert/pop interleavings — with heavy
    /// same-timestamp ties, in-bucket inserts, ring-horizon events, and
    /// far-future ladder events — the calendar pops the exact `(t, seq)`
    /// sequence the old `BinaryHeap` produced.
    #[test]
    fn matches_binary_heap_order_under_random_interleaving() {
        let mut rng = Rng::seed_from_u64(0xCA1E_7DA2);
        for round in 0..30 {
            let mut cal = CalendarQueue::new();
            let mut model = HeapModel::new();
            let mut now: Ns = 0;
            let mut next_id = 0u32;
            for _ in 0..2_000 {
                if rng.gen_range(0.0..1.0) < 0.6 {
                    // Mix of horizons: in-bucket, ring, ladder; 25% exact
                    // ties on `now` to stress the seq tiebreak.
                    let dt = match rng.gen_range(0u64..4) {
                        0 => 0,
                        1 => rng.gen_range(0u64..2_000),
                        2 => rng.gen_range(0u64..1_000_000),
                        _ => rng.gen_range(1_000_000u64..50_000_000),
                    };
                    cal.push(now + dt, Ev::FlowStart(next_id));
                    model.push(now + dt, Ev::FlowStart(next_id));
                    next_id += 1;
                } else {
                    // Half the pops are bounded, the way the engine pops
                    // up to its next control/telemetry deadline.
                    let limit = match rng.gen_range(0u32..2) {
                        0 => Ns::MAX,
                        _ => now + rng.gen_range(0u64..3_000_000),
                    };
                    let want = model.pop_before(limit);
                    let got = cal.pop_before(limit).map(|e| (e.t, e.seq, id_of(&e.ev)));
                    assert_eq!(got, want, "round {round}: pop diverged");
                    if let Some((t, _, _)) = want {
                        now = t; // future pushes respect the clock
                    }
                }
            }
            // Drain: the tails must agree too.
            loop {
                let want = model.pop();
                let got = cal.pop().map(|e| (e.t, e.seq, id_of(&e.ev)));
                assert_eq!(got, want, "round {round}: drain diverged");
                if want.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn ladder_spills_are_counted() {
        let mut q = CalendarQueue::new();
        // One near event and one far beyond the ring horizon: draining
        // past the first advances the cursor and migrates the second.
        q.push(100, Ev::FlowStart(0));
        q.push(20_000_000, Ev::FlowStart(1));
        assert_eq!(q.ladder_spills, 0);
        assert_eq!(q.pop().unwrap().t, 100);
        assert_eq!(q.pop().unwrap().t, 20_000_000);
        assert_eq!(q.ladder_spills, 1, "the far event must migrate once");
        assert_eq!(q.scatter_fallbacks, 0);
    }

    #[test]
    fn from_items_respects_min_slots_floor() {
        let q = CalendarQueue::from_items(0, 0, Vec::new(), 0, MAX_SLOTS);
        assert_eq!(q.num_slots(), MAX_SLOTS);
        let q = CalendarQueue::from_items(0, 0, Vec::new(), 0, 0);
        assert_eq!(q.num_slots(), MIN_SLOTS);
    }

    #[test]
    fn ladder_pressure_grows_the_ring() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.num_slots(), MIN_SLOTS);
        // Far-future events spread over ~50 ms swamp the default ladder.
        for i in 0..10_000u32 {
            q.push(2_000_000 + i as Ns * 5_000, Ev::FlowStart(i));
        }
        assert!(q.num_slots() > MIN_SLOTS, "ring should have grown");
        // Order is still exact after redistribution.
        let mut last = (0, 0);
        while let Some(e) = q.pop() {
            assert!((e.t, e.seq) > last);
            last = (e.t, e.seq);
        }
    }

    #[test]
    fn from_items_sizes_ring_to_population() {
        let mut model = HeapModel::new();
        let mut items = Vec::new();
        let mut seq = 0u64;
        for i in 0..40_000u32 {
            seq += 1;
            let t = 7_000_000 + (i as Ns * 37) % 90_000_000;
            items.push(CalEntry {
                t,
                seq,
                ev: Ev::FlowStart(i),
            });
            model.heap.push(CalEntry {
                t,
                seq,
                ev: Ev::FlowStart(i),
            });
        }
        model.seq = seq;
        let mut q = CalendarQueue::from_items(seq, 123, items, 5_000_000, 0);
        assert!(
            q.num_slots() == MAX_SLOTS,
            "40k events must size the ring up to the cap, got {}",
            q.num_slots()
        );
        assert_eq!(q.peak, 123);
        assert_eq!(q.len(), 40_000);
        loop {
            let want = model.pop();
            let got = q.pop().map(|e| (e.t, e.seq, id_of(&e.ev)));
            assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
    }
}
