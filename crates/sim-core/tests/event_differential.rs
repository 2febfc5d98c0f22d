//! Differential property test: the timer-wheel [`EventQueue`] must produce
//! *exactly* the event stream of the retained heap implementation
//! ([`ReferenceQueue`]) under arbitrary interleavings of schedule, cancel,
//! pop, and batched `pop_run_first`/`run_next` dispatch (whose run order
//! must equal the heap's `(at, seq)` order, including when staged events
//! are cancelled mid-run, and when a `pop` leaves a run's tail staged).
//!
//! This is the executable form of the wheel's determinism contract: FIFO
//! within a timestamp, ascending time across timestamps, cancel semantics
//! (including cancel-after-fire and stale tokens), and identical `len`/
//! `now`/`peek_time` observations at every step. The generated workloads
//! deliberately cover the wheel's structural edge cases: equal-timestamp
//! bursts, far-future times past the 2^36 ns wheel horizon (overflow list),
//! and token reuse through recycled slab cells.

use proptest::prelude::*;
use sim_core::event::reference::ReferenceQueue;
use sim_core::event::EventQueue;
use sim_core::time::SimDuration;

/// One step of the generated workload.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + delay_ns` (relative keeps ops valid after pops).
    Schedule { delay_ns: u64, payload: u32 },
    /// Cancel the `k`-th token ever issued (mod issued count): hits live,
    /// already-fired, and already-cancelled tokens alike.
    Cancel { k: usize },
    /// Pop one event.
    Pop,
    /// Pop a whole same-timestamp run via `pop_run_first`, cancelling the
    /// `k`-th token ever issued *mid-run* (between the head and the
    /// `run_next` calls) — the cancel may hit a staged event of the very
    /// run being drained, which must be skipped exactly as the heap skips
    /// its cancelled copy.
    PopRun { cancel_k: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Delay mix: dense near-term ties, mid-range (exercises cascades
        // across levels), and far-future beyond the 68.7 s wheel horizon
        // (exercises the overflow list).
        4 => (0u64..200, any::<u32>())
            .prop_map(|(d, p)| Op::Schedule { delay_ns: d, payload: p })
            .boxed(),
        3 => (0u64..100_000_000_000, any::<u32>())
            .prop_map(|(d, p)| Op::Schedule { delay_ns: d, payload: p })
            .boxed(),
        1 => (60_000_000_000u64..200_000_000_000, any::<u32>())
            .prop_map(|(d, p)| Op::Schedule { delay_ns: d, payload: p })
            .boxed(),
        3 => (0usize..512).prop_map(|k| Op::Cancel { k }).boxed(),
        3 => Just(Op::Pop).boxed(),
        2 => (0usize..512).prop_map(|k| Op::PopRun { cancel_k: k }).boxed(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Wheel and heap observe identical streams under any workload.
    #[test]
    fn wheel_matches_heap_reference(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let mut heap: ReferenceQueue<u32> = ReferenceQueue::new();
        let mut wheel_tokens = Vec::new();
        let mut heap_tokens = Vec::new();
        for op in &ops {
            match *op {
                Op::Schedule { delay_ns, payload } => {
                    let at = wheel.now() + SimDuration::from_nanos(delay_ns);
                    wheel_tokens.push(wheel.schedule_at(at, payload));
                    heap_tokens.push(heap.schedule_at(at, payload));
                }
                Op::Cancel { k } => {
                    if !wheel_tokens.is_empty() {
                        let k = k % wheel_tokens.len();
                        let w = wheel.cancel(wheel_tokens[k]);
                        let h = heap.cancel(heap_tokens[k]);
                        prop_assert_eq!(w, h, "cancel liveness diverged at token {}", k);
                    }
                }
                Op::Pop => {
                    let w = wheel.pop().map(|e| (e.at, e.event));
                    let h = heap.pop().map(|e| (e.at, e.event));
                    prop_assert_eq!(w, h, "pop diverged");
                }
                Op::PopRun { cancel_k } => {
                    // An earlier `Pop` may have left its run's tail staged:
                    // that is the rest of the heap's same-timestamp prefix.
                    while let Some(we) = wheel.run_next() {
                        let h = heap.pop().map(|e| (e.at, e.event));
                        prop_assert_eq!(Some((we.at, we.event)), h, "staged tail diverged");
                    }
                    let first = wheel.pop_run_first().map(|e| (e.at, e.event));
                    prop_assert_eq!(first, heap.pop().map(|e| (e.at, e.event)), "run head diverged");
                    let run_at = first.map(|(at, _)| at);
                    // Mid-run cancel: may hit a *staged* event of this run.
                    if !wheel_tokens.is_empty() {
                        let k = cancel_k % wheel_tokens.len();
                        let w = wheel.cancel(wheel_tokens[k]);
                        let h = heap.cancel(heap_tokens[k]);
                        prop_assert_eq!(w, h, "mid-run cancel diverged at token {}", k);
                    }
                    // The run must deliver exactly the heap's (at, seq)
                    // prefix at this timestamp, in order.
                    while let Some(we) = wheel.run_next() {
                        prop_assert_eq!(Some(we.at), run_at, "run event off-timestamp");
                        let h = heap.pop().map(|e| (e.at, e.event));
                        prop_assert_eq!(Some((we.at, we.event)), h, "run order diverged");
                    }
                    if let Some(t) = run_at {
                        prop_assert!(
                            heap.peek_time() != Some(t),
                            "wheel run ended before the heap's same-timestamp prefix"
                        );
                    }
                }
            }
            // Observable state must agree after every step (the clocks
            // included: both advance only when an event is delivered).
            prop_assert_eq!(wheel.len(), heap.len(), "len diverged");
            prop_assert_eq!(wheel.now(), heap.now(), "now diverged");
            prop_assert_eq!(wheel.peek_time(), heap.peek_time(), "peek diverged");
            prop_assert_eq!(wheel.popped(), heap.popped(), "popped diverged");
        }

        // Drain both: the remaining streams must match event-for-event.
        loop {
            let w = wheel.pop().map(|e| (e.at, e.event));
            let h = heap.pop().map(|e| (e.at, e.event));
            prop_assert_eq!(w, h, "drain diverged");
            if w.is_none() {
                break;
            }
        }
    }

    /// Focused generation-reuse torture: constant churn forces every slab
    /// cell through many free/alloc cycles while stale tokens from each
    /// generation are replayed against the queue. The reference (which never
    /// reuses token values) is the oracle for what each cancel must return.
    #[test]
    fn stale_tokens_stay_inert_across_cell_reuse(
        seed_delays in proptest::collection::vec(1u64..50, 20..60),
        stale_picks in proptest::collection::vec(0usize..1024, 40),
    ) {
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let mut heap: ReferenceQueue<u32> = ReferenceQueue::new();
        let mut wheel_tokens = Vec::new();
        let mut heap_tokens = Vec::new();

        for (round, &d) in seed_delays.iter().enumerate() {
            // Schedule a pair, fire one, cancel one: maximal cell churn.
            let d = SimDuration::from_nanos(d);
            wheel_tokens.push(wheel.schedule_after(d, round as u32));
            heap_tokens.push(heap.schedule_after(d, round as u32));
            wheel_tokens.push(wheel.schedule_after(d + SimDuration::from_nanos(1), round as u32));
            heap_tokens.push(heap.schedule_after(d + SimDuration::from_nanos(1), round as u32));
            let (w, h) = (wheel.pop(), heap.pop());
            prop_assert_eq!(w.map(|e| (e.at, e.event)), h.map(|e| (e.at, e.event)));
            // Replay an arbitrary historical token (usually stale).
            let k = stale_picks[round % stale_picks.len()] % wheel_tokens.len();
            prop_assert_eq!(
                wheel.cancel(wheel_tokens[k]),
                heap.cancel(heap_tokens[k]),
                "stale-token cancel diverged at round {}", round
            );
            prop_assert_eq!(wheel.len(), heap.len());
        }
        while let Some(he) = heap.pop() {
            let we = wheel.pop();
            prop_assert_eq!(we.map(|e| (e.at, e.event)), Some((he.at, he.event)));
        }
        prop_assert!(wheel.pop().is_none());
    }
}
