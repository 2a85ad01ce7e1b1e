//! Pins of the executor's observable behaviour: for a handful of scripted
//! scenarios, the exact `Sim::stats()` / `Sim::profile()` counters and the
//! `(sim-time, label)` order in which tasks were polled.
//!
//! These are the things a rewrite of the task representation, the timer
//! slab or the link's completion timer could change without any digest
//! noticing: how many polls a wake buys, whether a stale wake costs an
//! event, who goes first when a link completion and an unrelated sleep
//! land on the same nanosecond. Every value below was recorded on the
//! slab-of-boxed-futures executor and the one-callback-per-change link
//! (the link churn's timer counts have since fallen, see there); a change
//! that moves one has changed the engine's event order or event count and
//! must say so here.

use std::cell::RefCell;
use std::future::poll_fn;
use std::rc::Rc;
use std::task::{Poll, Waker};

use faasim_simcore::{mbps, FairShareLink, Sim, SimDuration, SimRng, SimTime};

/// The `(sim-time ns, label)` log every scenario writes its polls into.
#[derive(Clone)]
struct Log {
    sim: Sim,
    entries: Rc<RefCell<Vec<(u64, String)>>>,
}

impl Log {
    fn new(sim: &Sim) -> Log {
        Log {
            sim: sim.clone(),
            entries: Rc::default(),
        }
    }

    fn push(&self, label: impl Into<String>) {
        self.entries
            .borrow_mut()
            .push((self.sim.now().as_nanos(), label.into()));
    }

    fn take(&self) -> Vec<(u64, String)> {
        std::mem::take(&mut self.entries.borrow_mut())
    }
}

fn entries(raw: &[(u64, &str)]) -> Vec<(u64, String)> {
    raw.iter().map(|&(t, l)| (t, l.to_owned())).collect()
}

/// Every engine counter in one comparable line.
fn counters(sim: &Sim) -> String {
    let (s, p) = (sim.stats(), sim.profile());
    assert_eq!(s.tasks_spawned, p.tasks_spawned);
    format!(
        "events {} alive {} | polls {} spawns {} peak_live {} | pushes {} fires {} cancels {} cascades {} overflow {} peak_pending {}",
        s.events_processed,
        s.tasks_alive,
        p.task_polls,
        p.tasks_spawned,
        p.peak_live_tasks,
        p.timer_pushes,
        p.timer_fires,
        p.timer_cancels,
        p.timer_cascades,
        p.timer_overflow,
        p.peak_pending_timers,
    )
}

fn at(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

type WakerSlot = Rc<RefCell<Option<Waker>>>;

/// A task that logs `label` on every poll, leaves its latest waker in
/// `slot`, and finishes on its `finish_on`-th poll.
fn spawn_probe(sim: &Sim, log: &Log, label: &'static str, slot: &WakerSlot, finish_on: u32) {
    let (log, slot) = (log.clone(), slot.clone());
    let mut polls = 0;
    sim.spawn_detached(poll_fn(move |cx| {
        log.push(label);
        polls += 1;
        *slot.borrow_mut() = Some(cx.waker().clone());
        if polls == finish_on {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }));
}

#[test]
fn two_wakes_before_a_poll_buy_two_polls() {
    let sim = Sim::new(1);
    let log = Log::new(&sim);
    let slot = WakerSlot::default();
    spawn_probe(&sim, &log, "a", &slot, 3);
    let s = slot.clone();
    sim.call_at(at(10), move || {
        let waker = s.borrow().clone().expect("polled once");
        waker.wake_by_ref();
        waker.wake();
    });
    sim.run();
    assert_eq!(log.take(), entries(&[(0, "a"), (10, "a"), (10, "a")]));
    assert_eq!(
        counters(&sim),
        "events 4 alive 0 | polls 3 spawns 1 peak_live 1 | pushes 1 fires 1 cancels 0 cascades 0 overflow 0 peak_pending 1"
    );
}

#[test]
// The second self-wake goes through the by-value `wake` on purpose.
#[allow(clippy::waker_clone_wake)]
fn a_wake_from_inside_the_poll_buys_one_repoll() {
    let sim = Sim::new(1);
    let log = Log::new(&sim);
    let l = log.clone();
    let mut polls = 0;
    sim.spawn_detached(poll_fn(move |cx| {
        l.push("a");
        polls += 1;
        match polls {
            1 => cx.waker().wake_by_ref(),
            2 => cx.waker().clone().wake(),
            _ => return Poll::Ready(()),
        }
        Poll::Pending
    }));
    sim.run();
    assert_eq!(log.take(), entries(&[(0, "a"), (0, "a"), (0, "a")]));
    assert_eq!(
        counters(&sim),
        "events 3 alive 0 | polls 3 spawns 1 peak_live 1 | pushes 0 fires 0 cancels 0 cascades 0 overflow 0 peak_pending 0"
    );
}

/// A waker that outlives its task wakes nothing — not the finished task,
/// and not the task that has since been spawned into its place.
#[test]
fn a_wake_after_the_task_finished_is_no_event() {
    let sim = Sim::new(1);
    let log = Log::new(&sim);
    let (slot_a, slot_b) = (WakerSlot::default(), WakerSlot::default());
    spawn_probe(&sim, &log, "a", &slot_a, 2);
    let s = slot_a.clone();
    sim.call_at(at(5), move || s.borrow().as_ref().expect("polled").wake_by_ref());
    // `a` finished at 5; `b` is the next task spawned and never finishes.
    let (s, l, b) = (sim.clone(), log.clone(), slot_b.clone());
    sim.call_at(at(7), move || spawn_probe(&s, &l, "b", &b, u32::MAX));
    let s = slot_a.clone();
    sim.call_at(at(10), move || {
        let stale = s.borrow().clone().expect("polled");
        stale.wake_by_ref();
        stale.wake();
    });
    let s = slot_a.clone();
    sim.call_at(at(12), move || drop(s.borrow_mut().take()));
    sim.run();
    assert_eq!(log.take(), entries(&[(0, "a"), (5, "a"), (7, "b")]));
    assert_eq!(
        counters(&sim),
        "events 7 alive 1 | polls 3 spawns 2 peak_live 1 | pushes 4 fires 4 cancels 0 cascades 0 overflow 0 peak_pending 4"
    );
    assert!(slot_b.borrow().is_some());
    sim.shutdown();
    assert_eq!(sim.stats().tasks_alive, 0);
}

#[test]
fn yield_now_interleaves_in_spawn_order() {
    let sim = Sim::new(1);
    let log = Log::new(&sim);
    for name in ["a", "b", "c"] {
        let (s, l) = (sim.clone(), log.clone());
        sim.spawn_detached(async move {
            for step in 0..3 {
                l.push(format!("{name}{step}"));
                s.yield_now().await;
            }
        });
    }
    sim.run();
    assert_eq!(
        log.take(),
        entries(&[
            (0, "a0"), (0, "b0"), (0, "c0"),
            (0, "a1"), (0, "b1"), (0, "c1"),
            (0, "a2"), (0, "b2"), (0, "c2"),
        ])
    );
    assert_eq!(
        counters(&sim),
        "events 12 alive 0 | polls 12 spawns 3 peak_live 3 | pushes 0 fires 0 cancels 0 cascades 0 overflow 0 peak_pending 0"
    );
}

/// The per-invocation shape of a replay: a long timeout around a short
/// wait. The timeout's timer is canceled, never fires, and must not drag
/// the clock to its deadline.
#[test]
fn a_timeout_whose_inner_future_wins_cancels_its_timer() {
    let sim = Sim::new(1);
    let log = Log::new(&sim);
    for (name, ms) in [("a", 10), ("b", 30), ("c", 20)] {
        let (s, l) = (sim.clone(), log.clone());
        sim.spawn_detached(async move {
            let inner = s.sleep(SimDuration::from_millis(ms));
            let won = s.timeout(SimDuration::from_secs(120), inner).await.is_some();
            l.push(format!("{name} {won}"));
            // The same instant the timer fires at: the sleep wins the tie.
            let inner = s.sleep(SimDuration::from_millis(5));
            let won = s.timeout(SimDuration::from_millis(5), inner).await.is_some();
            l.push(format!("{name} tie {won}"));
        });
    }
    sim.run();
    assert_eq!(
        log.take(),
        entries(&[
            (10_000_000, "a true"),
            (15_000_000, "a tie true"),
            (20_000_000, "c true"),
            (25_000_000, "c tie true"),
            (30_000_000, "b true"),
            (35_000_000, "b tie true"),
        ])
    );
    assert_eq!(sim.now(), at(35_000_000));
    // A canceled timeout leaves the wheel at once: `a`'s 120 s timer is
    // gone before `c` arms its tie timeout (pending peak 7 → 6).
    assert_eq!(
        counters(&sim),
        "events 18 alive 0 | polls 9 spawns 3 peak_live 3 | pushes 12 fires 9 cancels 3 cascades 10 overflow 0 peak_pending 6"
    );
}

#[test]
fn shutdown_from_inside_a_task_spares_only_the_caller() {
    let sim = Sim::new(1);
    let log = Log::new(&sim);
    for name in ["sleeper", "parked"] {
        let (s, l) = (sim.clone(), log.clone());
        sim.spawn_detached(async move {
            l.push(format!("{name} start"));
            if name == "sleeper" {
                s.sleep(SimDuration::from_secs(60)).await;
            } else {
                std::future::pending::<()>().await;
            }
            l.push(format!("{name} end"));
        });
    }
    let l = log.clone();
    sim.call_at(at(90_000_000_000), move || l.push("callback"));
    let (s, l) = (sim.clone(), log.clone());
    sim.spawn_detached(async move {
        s.sleep(SimDuration::from_secs(1)).await;
        s.shutdown();
        l.push(format!("caller alive={}", s.stats().tasks_alive));
        s.sleep(SimDuration::from_secs(1)).await;
        l.push("caller end");
    });
    sim.run();
    assert_eq!(
        log.take(),
        entries(&[
            (0, "sleeper start"),
            (0, "parked start"),
            (1_000_000_000, "caller alive=1"),
            (2_000_000_000, "caller end"),
        ])
    );
    assert_eq!(sim.now(), at(2_000_000_000));
    assert_eq!(
        counters(&sim),
        "events 7 alive 0 | polls 5 spawns 3 peak_live 3 | pushes 4 fires 2 cancels 0 cascades 7 overflow 0 peak_pending 3"
    );
}

/// One flow of the link churn.
struct ChurnFlow {
    join_ns: u64,
    bytes: u64,
    cap: Option<f64>,
    give_up_after_ns: Option<u64>,
}

const CHURN_FLOWS: u64 = 2_000;

/// 2 000 flows join a 1 Gb/s link 3 µs apart: sizes from 2 KB to 400 KB so
/// completions and joins interleave, a quarter capped well below the fair
/// share, a seventh capped near it (their class crosses the water level
/// back and forth), a fifth abandoned mid-flight.
fn churn_flows() -> Vec<ChurnFlow> {
    let mut rng = SimRng::stream(17, "engine_pins.churn");
    (0..CHURN_FLOWS)
        .map(|i| ChurnFlow {
            join_ns: i * 3_000,
            bytes: rng.range_u64(2_000..400_000),
            cap: if i % 4 == 0 {
                Some(mbps(0.2))
            } else if i % 7 == 0 {
                Some(mbps(1.5))
            } else {
                None
            },
            give_up_after_ns: (i % 5 == 0).then(|| rng.range_u64(50_000..2_000_000_000)),
        })
        .collect()
}

/// Run the churn; `bystanders` are `(register_at, wake_at)` pairs: a task
/// that sleeps until `register_at` and only then registers the sleep that
/// wakes it at `wake_at`, so its timer's sequence number falls between the
/// link's own.
fn run_churn(bystanders: &[(u64, u64)]) -> (Sim, Vec<(u64, String)>) {
    let sim = Sim::new(17);
    let link = FairShareLink::new(&sim, mbps(1000.0));
    let log = Log::new(&sim);
    for (i, flow) in churn_flows().into_iter().enumerate() {
        let (s, l, link) = (sim.clone(), log.clone(), link.clone());
        sim.spawn_detached(async move {
            s.sleep_until(at(flow.join_ns)).await;
            let transfer = link.transfer(flow.bytes, flow.cap);
            let done = match flow.give_up_after_ns {
                Some(ns) => s.timeout(SimDuration::from_nanos(ns), transfer).await.is_some(),
                None => {
                    transfer.await;
                    true
                }
            };
            l.push(format!("{}{i}", if done { "f" } else { "x" }));
        });
    }
    for (k, &(register_at, wake_at)) in bystanders.iter().enumerate() {
        let (s, l) = (sim.clone(), log.clone());
        sim.spawn_detached(async move {
            s.sleep_until(at(register_at)).await;
            s.sleep_until(at(wake_at)).await;
            l.push(format!("b{k}"));
        });
    }
    sim.run();
    assert_eq!(link.active_flows(), 0);
    let entries = log.take();
    (sim, entries)
}

fn fnv1a(log: &[(u64, String)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (t, label) in log {
        for b in format!("{t}:{label}\n").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Link churn with bystander sleeps registered at the very nanoseconds
/// flows finish on: the order of the wake-ups at each shared instant is
/// the order of the `(at, seq)` keys of the link's completion callback and
/// the bystanders' timers, which is what the link's timer discipline must
/// not disturb.
#[test]
fn link_churn_with_bystanders_at_completion_instants() {
    // Pass 1, no bystanders: where do the flows finish?
    let (_, alone) = run_churn(&[]);
    let finishes: Vec<u64> = alone
        .iter()
        .filter(|(_, label)| label.starts_with('f'))
        .map(|&(t, _)| t)
        .collect();
    // One bystander per finished flow, registering its final sleep a
    // little before the instant — from the same nanosecond to 3 ms out —
    // or at time zero.
    let leads = [0, 1, 700, 40_000, 3_000_000, u64::MAX];
    let bystanders: Vec<(u64, u64)> = finishes
        .iter()
        .enumerate()
        .map(|(k, &t)| (t.saturating_sub(leads[k % leads.len()]), t))
        .collect();
    let (sim, log) = run_churn(&bystanders);

    // The bystanders never touch the link: every flow ends where it did.
    let flows_only: Vec<_> = log.iter().filter(|(_, l)| !l.starts_with('b')).cloned().collect();
    assert_eq!(flows_only, alone);
    let shared_instants = log
        .windows(2)
        .filter(|w| w[0].0 == w[1].0 && w[0].1.starts_with('b') != w[1].1.starts_with('b'))
        .count();

    // The wake log: may not move.
    assert_eq!(
        (log.len(), finishes.len(), shared_instants, fnv1a(&log)),
        (3_685, 1_685, 1_685, 15_686_270_314_208_401_126)
    );
    assert_eq!(
        &log[..3],
        &entries(&[(7_990_274, "x1820"), (12_904_077, "x20"), (13_521_818, "x1130")])[..]
    );
    assert_eq!(
        &log[log.len() - 3..],
        &entries(&[
            (15_811_936_000, "b1683"),
            (15_940_816_000, "f1192"),
            (15_940_816_000, "b1684"),
        ])[..]
    );
    assert_eq!(sim.now(), at(15_940_816_000));

    // The engine counters. With the link's one armed timer: 2 003 superseded
    // callbacks are no longer pushed, fired or cascaded (events 19 615 →
    // 17 612, pushes 9 207 → 7 204, fires 9 122 → 7 119, cascades 15 301 →
    // 11 355, pending peak 3 985 → 3 686); polls, spawns and cancels as before.
    assert_eq!(
        counters(&sim),
        "events 17612 alive 0 | polls 10493 spawns 3685 peak_live 3685 | pushes 7204 fires 7119 cancels 85 cascades 11355 overflow 0 peak_pending 3686"
    );
}
