//! Differential test for the platform's container table.
//!
//! The platform keeps containers in a slab addressed by slot and
//! functions in a `Vec` addressed by `FunctionId`. [`reference`] is the
//! table as it was before that: containers in a `Vec` sorted by id and
//! found by binary search, functions and warm sets in maps keyed by name.
//! Both are driven through the same random script — overlapping
//! invocations (by name and by id), timeouts, mid-flight kills, reaps,
//! evictions, provisioned-concurrency changes, billing finalisation and
//! re-registration — on the same seed, and must agree on every outcome,
//! every `PackingStats` bit, every count and the final bill.

use std::cell::RefCell;
use std::rc::Rc;

use faasim_faas::{FaasFaults, FaasPlatform, FaasProfile, FnError, FunctionSpec};
use faasim_net::{Fabric, NetProfile};
use faasim_payload::Payload;
use faasim_pricing::{Ledger, PriceBook};
use faasim_simcore::{LocalBoxFuture, Recorder, Sim, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

/// The pre-slab platform, cut down to what the table decides: placement,
/// warm selection, release, crash, reap, evict, provisioned concurrency,
/// residency accounting and billing. The logic is the old code's, line
/// for line; recorder series, triggers and async invocation are gone.
mod reference {
    use std::cell::RefCell;
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, HashMap};
    use std::rc::Rc;

    use faasim_faas::FaasProfile;
    use faasim_net::{Fabric, Host, HostId};
    use faasim_pricing::{ItemId, Ledger, PriceBook, Service};
    use faasim_simcore::{Semaphore, Sim, SimDuration, SimRng, SimTime};

    use super::Outcome;

    struct Container {
        id: u64,
        func: String,
        host_idx: usize,
        host: Host,
        mem_mb: u64,
        busy: bool,
        idle_since: SimTime,
        created: SimTime,
        provisioned: bool,
    }

    type WarmKey = (bool, SimTime, Reverse<u64>);

    #[derive(Default)]
    struct WarmSet(Vec<WarmKey>);

    impl WarmSet {
        fn insert(&mut self, key: WarmKey) {
            match self.0.last() {
                Some(last) if *last > key => {
                    let pos = self.0.partition_point(|k| *k < key);
                    self.0.insert(pos, key);
                }
                _ => self.0.push(key),
            }
        }
    }

    struct FnHost {
        host: Host,
        containers: usize,
        mem_used_mb: u64,
    }

    #[derive(Clone, Copy)]
    struct Spec {
        memory_mb: u64,
        timeout: SimDuration,
    }

    struct State {
        functions: HashMap<String, Spec>,
        /// Sorted by id: ids are allocated monotonically and removals
        /// preserve order.
        containers: Vec<Container>,
        hosts: Vec<FnHost>,
        warm_idle: HashMap<String, WarmSet>,
        retired_gb_s: f64,
        busy_gb_s: f64,
        next_container: u64,
        rng: SimRng,
        /// By name, so finalisation walks reservations in a fixed order
        /// (the script registers names in sorted order, which makes this
        /// the platform's registration order too).
        provisioned: BTreeMap<String, (usize, SimTime, f64)>,
        kill_prob: f64,
    }

    #[derive(Clone)]
    pub struct RefPlatform {
        sim: Sim,
        fabric: Fabric,
        profile: Rc<FaasProfile>,
        prices: Rc<PriceBook>,
        ledger: Ledger,
        concurrency: Semaphore,
        bill_requests: ItemId,
        bill_gb_seconds: ItemId,
        state: Rc<RefCell<State>>,
    }

    fn residency_gb_s(c: &Container, now: SimTime) -> f64 {
        c.mem_mb as f64 / 1024.0 * now.duration_since(c.created).as_secs_f64()
    }

    impl RefPlatform {
        pub fn new(
            sim: &Sim,
            fabric: &Fabric,
            profile: FaasProfile,
            prices: Rc<PriceBook>,
            ledger: Ledger,
        ) -> RefPlatform {
            RefPlatform {
                sim: sim.clone(),
                fabric: fabric.clone(),
                concurrency: Semaphore::new(profile.account_concurrency),
                profile: Rc::new(profile),
                prices,
                bill_requests: ledger.item_id(Service::Faas, "requests"),
                bill_gb_seconds: ledger.item_id(Service::Faas, "gb-seconds"),
                ledger,
                state: Rc::new(RefCell::new(State {
                    functions: HashMap::new(),
                    containers: Vec::new(),
                    hosts: Vec::new(),
                    warm_idle: HashMap::new(),
                    retired_gb_s: 0.0,
                    busy_gb_s: 0.0,
                    next_container: 0,
                    rng: sim.rng("faas.platform"),
                    provisioned: BTreeMap::new(),
                    kill_prob: 0.0,
                })),
            }
        }

        pub fn register(&self, name: &str, memory_mb: u64, timeout: SimDuration) {
            self.state
                .borrow_mut()
                .functions
                .insert(name.to_owned(), Spec { memory_mb, timeout });
        }

        pub fn container_count(&self) -> usize {
            self.state.borrow().containers.len()
        }

        pub fn host_count(&self) -> usize {
            let st = self.state.borrow();
            st.hosts.iter().filter(|h| h.containers > 0).count()
        }

        pub fn set_kill_prob(&self, p: f64) {
            self.state.borrow_mut().kill_prob = p;
        }

        pub fn evict_warm(&self) -> usize {
            let now = self.sim.now();
            let mut st = self.state.borrow_mut();
            let mut removed: Vec<(usize, u64)> = Vec::new();
            let mut retired = 0.0;
            st.containers.retain(|c| {
                if c.busy {
                    return true;
                }
                removed.push((c.host_idx, c.mem_mb));
                retired += residency_gb_s(c, now);
                false
            });
            st.retired_gb_s += retired;
            for &(host_idx, mem_mb) in &removed {
                let h = &mut st.hosts[host_idx];
                h.containers -= 1;
                h.mem_used_mb -= mem_mb;
            }
            removed.len()
        }

        pub fn reap_idle(&self) {
            let now = self.sim.now();
            let timeout = self.profile.container_idle_timeout;
            let mut st = self.state.borrow_mut();
            let mut removed: Vec<(usize, u64)> = Vec::new();
            let mut retired = 0.0;
            st.containers.retain(|c| {
                let keep = c.provisioned || c.busy || now.duration_since(c.idle_since) < timeout;
                if !keep {
                    removed.push((c.host_idx, c.mem_mb));
                    retired += residency_gb_s(c, now);
                }
                keep
            });
            st.retired_gb_s += retired;
            for (host_idx, mem_mb) in removed {
                let h = &mut st.hosts[host_idx];
                h.containers -= 1;
                h.mem_used_mb -= mem_mb;
            }
        }

        fn take_warm(&self, func: &str) -> Option<usize> {
            let now = self.sim.now();
            let timeout = self.profile.container_idle_timeout;
            let mut st = self.state.borrow_mut();
            let st = &mut *st;
            let set = st.warm_idle.get_mut(func)?;
            loop {
                let (provisioned, idle_since, Reverse(id)) = set.0.pop()?;
                let Ok(pos) = st.containers.binary_search_by_key(&id, |c| c.id) else {
                    continue;
                };
                let c = &mut st.containers[pos];
                if c.busy {
                    continue;
                }
                if c.provisioned != provisioned || c.idle_since != idle_since {
                    set.insert((c.provisioned, c.idle_since, Reverse(id)));
                    continue;
                }
                if !c.provisioned && now.duration_since(c.idle_since) >= timeout {
                    continue;
                }
                c.busy = true;
                return Some(pos);
            }
        }

        /// (packing busy GB·s, packing resident GB·s)
        pub fn packing(&self) -> (f64, f64) {
            let now = self.sim.now();
            let st = self.state.borrow();
            let live: f64 = st.containers.iter().map(|c| residency_gb_s(c, now)).sum();
            (st.busy_gb_s, st.retired_gb_s + live)
        }

        fn place_container(&self, func: &str, memory_mb: u64, provisioned: bool) -> usize {
            let mut st = self.state.borrow_mut();
            let host_idx = st
                .hosts
                .iter()
                .position(|h| {
                    h.containers < self.profile.max_containers_per_host
                        && h.mem_used_mb + memory_mb <= self.profile.host_mem_mb
                })
                .unwrap_or_else(|| {
                    let host = self.fabric.add_host(0, self.profile.host_nic);
                    st.hosts.push(FnHost {
                        host,
                        containers: 0,
                        mem_used_mb: 0,
                    });
                    st.hosts.len() - 1
                });
            st.hosts[host_idx].containers += 1;
            st.hosts[host_idx].mem_used_mb += memory_mb;
            let id = st.next_container;
            st.next_container += 1;
            let host = st.hosts[host_idx].host.clone();
            let now = self.sim.now();
            st.containers.push(Container {
                id,
                func: func.to_owned(),
                host_idx,
                host,
                mem_mb: memory_mb,
                busy: !provisioned,
                idle_since: now,
                created: now,
                provisioned,
            });
            if provisioned {
                st.warm_idle
                    .entry(func.to_owned())
                    .or_default()
                    .insert((true, now, Reverse(id)));
            }
            st.containers.len() - 1
        }

        pub fn set_provisioned_concurrency(&self, func: &str, n: usize) {
            let spec = self.state.borrow().functions[func];
            self.release_provisioned_concurrency(func);
            for _ in 0..n {
                self.place_container(func, spec.memory_mb, true);
            }
            let gb = n as f64 * spec.memory_mb as f64 / 1024.0;
            self.state
                .borrow_mut()
                .provisioned
                .insert(func.to_owned(), (n, self.sim.now(), gb));
        }

        pub fn release_provisioned_concurrency(&self, func: &str) {
            let reservation = self.state.borrow_mut().provisioned.remove(func);
            let Some((_, since, gb)) = reservation else {
                return;
            };
            let gb_s = gb * self.sim.now().duration_since(since).as_secs_f64();
            self.ledger.charge(
                Service::Faas,
                "provisioned-gb-seconds",
                gb_s,
                gb_s * self.prices.lambda_provisioned_per_gb_second,
            );
            let now = self.sim.now();
            let mut st = self.state.borrow_mut();
            for c in st.containers.iter_mut() {
                if c.func == func && c.provisioned {
                    c.provisioned = false;
                    if !c.busy {
                        c.idle_since = now;
                    }
                }
            }
        }

        pub fn finalize_provisioned_billing(&self) {
            let funcs: Vec<String> = self.state.borrow().provisioned.keys().cloned().collect();
            for func in funcs {
                let (n, _, _) = self.state.borrow().provisioned[&func];
                self.release_provisioned_concurrency(&func);
                let mut st = self.state.borrow_mut();
                let mut count = 0usize;
                for c in st.containers.iter_mut() {
                    if c.func == func && count < n {
                        c.provisioned = true;
                        count += 1;
                    }
                }
                let gb = n as f64 * st.functions[&func].memory_mb as f64 / 1024.0;
                st.provisioned.insert(func.clone(), (n, self.sim.now(), gb));
            }
        }

        /// The handler sleeps for `work`.
        pub async fn invoke(&self, func: &str, work: SimDuration) -> Outcome {
            let t0 = self.sim.now();
            let Some(spec) = self.state.borrow().functions.get(func).copied() else {
                return Outcome {
                    result: "not-found",
                    exec: SimDuration::ZERO,
                    billed: SimDuration::ZERO,
                    total: SimDuration::ZERO,
                    cold: false,
                    host: HostId(u64::MAX),
                    container: u64::MAX,
                };
            };
            let _permit = self.concurrency.acquire(1).await;
            let overhead = {
                let mut st = self.state.borrow_mut();
                self.profile.invoke_overhead.sample(&mut st.rng)
            };
            self.sim.sleep(overhead).await;

            let (idx, cold) = match self.take_warm(func) {
                Some(idx) => (idx, false),
                None => {
                    let cold_extra = {
                        let mut st = self.state.borrow_mut();
                        self.profile.cold_start_extra.sample(&mut st.rng)
                    };
                    self.sim.sleep(cold_extra).await;
                    (self.place_container(func, spec.memory_mb, false), true)
                }
            };
            let (container_id, host) = {
                let st = self.state.borrow();
                let c = &st.containers[idx];
                (c.id, c.host.clone())
            };

            let exec_start = self.sim.now();
            let limit = spec.timeout.min(self.profile.max_lifetime);
            let kill_after = {
                let mut st = self.state.borrow_mut();
                let p = st.kill_prob;
                if p > 0.0 && st.rng.chance(p) {
                    Some(SimDuration::from_secs_f64(
                        limit.as_secs_f64() * st.rng.unit_f64(),
                    ))
                } else {
                    None
                }
            };
            let effective_limit = kill_after.map(|k| k.min(limit)).unwrap_or(limit);
            let (crashed, result) =
                match self.sim.timeout(effective_limit, self.sim.sleep(work)).await {
                    Some(()) => (false, "ok"),
                    None if kill_after.is_some() => (true, "crashed"),
                    None => (false, "timed-out"),
                };
            let exec = self.sim.now() - exec_start;

            {
                let now = self.sim.now();
                let mut st = self.state.borrow_mut();
                let st = &mut *st;
                st.busy_gb_s += spec.memory_mb as f64 / 1024.0 * exec.as_secs_f64();
                if crashed {
                    if let Ok(pos) = st.containers.binary_search_by_key(&container_id, |c| c.id) {
                        let c = st.containers.remove(pos);
                        st.retired_gb_s += residency_gb_s(&c, now);
                        let h = &mut st.hosts[c.host_idx];
                        h.containers -= 1;
                        h.mem_used_mb -= c.mem_mb;
                    }
                } else if let Ok(pos) =
                    st.containers.binary_search_by_key(&container_id, |c| c.id)
                {
                    let c = &mut st.containers[pos];
                    c.busy = false;
                    c.idle_since = now;
                    let key = (c.provisioned, now, Reverse(c.id));
                    st.warm_idle.entry(func.to_owned()).or_default().insert(key);
                }
            }

            let inc = self.profile.billing_increment.as_nanos().max(1);
            let billed_ns = exec.as_nanos().div_ceil(inc) * inc;
            let billed = SimDuration::from_nanos(billed_ns.max(inc));
            let gb_s = spec.memory_mb as f64 / 1024.0 * billed.as_secs_f64();
            self.ledger
                .charge_id(self.bill_requests, 1.0, self.prices.lambda_per_request);
            self.ledger.charge_id(
                self.bill_gb_seconds,
                gb_s,
                gb_s * self.prices.lambda_per_gb_second,
            );
            Outcome {
                result,
                exec,
                billed,
                total: self.sim.now() - t0,
                cold,
                host: host.id(),
                container: container_id,
            }
        }
    }
}

/// What one invocation did, in the terms both platforms share.
#[derive(Debug, PartialEq)]
pub struct Outcome {
    result: &'static str,
    exec: SimDuration,
    billed: SimDuration,
    total: SimDuration,
    cold: bool,
    host: faasim_net::HostId,
    container: u64,
}

/// The operations of a script, as both platforms offer them.
trait Subject: Clone + 'static {
    fn register(&self, name: &str, memory_mb: u64);
    fn invoke(&self, name: &'static str, work: SimDuration, by_id: bool) -> LocalBoxFuture<'static, Outcome>;
    fn reap_idle(&self);
    fn evict_warm(&self) -> usize;
    fn set_kill_prob(&self, p: f64);
    fn set_provisioned(&self, name: &str, n: usize);
    fn release_provisioned(&self, name: &str);
    fn finalize(&self);
    /// `(container_count, host_count, busy GB·s bits, resident GB·s bits)`
    fn census(&self) -> (usize, usize, u64, u64);
}

/// Every function's configured timeout: short enough that the longest
/// scripted handlers run into it.
const FUNC_TIMEOUT: SimDuration = SimDuration::from_secs(20);

impl Subject for FaasPlatform {
    fn register(&self, name: &str, memory_mb: u64) {
        FaasPlatform::register(
            self,
            FunctionSpec::new(name, memory_mb, FUNC_TIMEOUT, |ctx, work: Payload| async move {
                let nanos = u64::from_le_bytes(work.bytes()[..8].try_into().unwrap());
                ctx.sim().sleep(SimDuration::from_nanos(nanos)).await;
                Ok(Payload::new())
            }),
        );
    }

    fn invoke(&self, name: &'static str, work: SimDuration, by_id: bool) -> LocalBoxFuture<'static, Outcome> {
        let this = self.clone();
        Box::pin(async move {
            let body = work.as_nanos().to_le_bytes().to_vec();
            let out = match this.function_id(name).filter(|_| by_id) {
                Some(id) => this.invoke_id(id, body).await,
                None => FaasPlatform::invoke(&this, name, body).await,
            };
            Outcome {
                result: match out.result {
                    Ok(_) => "ok",
                    Err(FnError::NotFound(_)) => "not-found",
                    Err(FnError::Crashed { .. }) => "crashed",
                    Err(FnError::TimedOut { .. }) => "timed-out",
                    Err(FnError::Handler(_)) => "handler",
                },
                exec: out.exec,
                billed: out.billed,
                total: out.total,
                cold: out.cold,
                host: out.host,
                container: out.container,
            }
        })
    }

    fn reap_idle(&self) {
        FaasPlatform::reap_idle(self)
    }

    fn evict_warm(&self) -> usize {
        FaasPlatform::evict_warm(self)
    }

    fn set_kill_prob(&self, kill_prob: f64) {
        self.set_faults(FaasFaults { kill_prob })
    }

    fn set_provisioned(&self, name: &str, n: usize) {
        self.set_provisioned_concurrency(name, n)
    }

    fn release_provisioned(&self, name: &str) {
        self.release_provisioned_concurrency(name)
    }

    fn finalize(&self) {
        self.finalize_provisioned_billing()
    }

    fn census(&self) -> (usize, usize, u64, u64) {
        let p = self.packing_stats();
        (
            self.container_count(),
            self.host_count(),
            p.busy_gb_seconds.to_bits(),
            p.resident_gb_seconds.to_bits(),
        )
    }
}

impl Subject for reference::RefPlatform {
    fn register(&self, name: &str, memory_mb: u64) {
        reference::RefPlatform::register(self, name, memory_mb, FUNC_TIMEOUT)
    }

    fn invoke(&self, name: &'static str, work: SimDuration, _by_id: bool) -> LocalBoxFuture<'static, Outcome> {
        let this = self.clone();
        Box::pin(async move { reference::RefPlatform::invoke(&this, name, work).await })
    }

    fn reap_idle(&self) {
        reference::RefPlatform::reap_idle(self)
    }

    fn evict_warm(&self) -> usize {
        reference::RefPlatform::evict_warm(self)
    }

    fn set_kill_prob(&self, p: f64) {
        reference::RefPlatform::set_kill_prob(self, p)
    }

    fn set_provisioned(&self, name: &str, n: usize) {
        self.set_provisioned_concurrency(name, n)
    }

    fn release_provisioned(&self, name: &str) {
        self.release_provisioned_concurrency(name)
    }

    fn finalize(&self) {
        self.finalize_provisioned_billing()
    }

    fn census(&self) -> (usize, usize, u64, u64) {
        let (busy, resident) = self.packing();
        (
            self.container_count(),
            self.host_count(),
            busy.to_bits(),
            resident.to_bits(),
        )
    }
}

/// Registered in this (sorted) order up front; "ghost" never is.
const FUNCTIONS: [&str; 5] = ["f0", "f1", "f2", "f3", "f4"];
const MEMORIES_MB: [u64; 4] = [128, 512, 1024, 3008];

#[derive(Clone, Debug)]
enum Op {
    Invoke { func: &'static str, work: SimDuration, by_id: bool },
    Reap,
    Evict,
    KillProb(f64),
    Provision { func: &'static str, n: usize },
    Release { func: &'static str },
    Finalize,
    Reregister { func: &'static str, memory_mb: u64 },
    Census,
}

/// A random script: `n` operations at random instants over `span`.
fn script(seed: u64, n: usize, span: SimDuration) -> Vec<(SimTime, Op)> {
    let mut rng = SimRng::stream(seed, "table.diff");
    let mut ops: Vec<(SimTime, Op)> = (0..n)
        .map(|_| {
            let at = SimTime::ZERO + span.mul_f64(rng.unit_f64());
            let func = FUNCTIONS[rng.zipf(FUNCTIONS.len(), 1.0)];
            let op = match rng.range_u64(0..100) {
                0..=64 => Op::Invoke {
                    func: if rng.chance(0.02) { "ghost" } else { func },
                    // Mostly short; one in eight outlives FUNC_TIMEOUT.
                    work: if rng.chance(0.125) {
                        SimDuration::from_secs(25)
                    } else {
                        SimDuration::from_secs_f64(rng.uniform(0.01, 8.0))
                    },
                    by_id: rng.chance(0.5),
                },
                65..=76 => Op::Reap,
                77..=79 => Op::Evict,
                80..=82 => Op::KillProb(if rng.chance(0.5) { 0.0 } else { 0.25 }),
                83..=86 => Op::Provision { func, n: rng.range_usize(0..4) },
                87..=88 => Op::Release { func },
                89..=90 => Op::Finalize,
                91..=93 => Op::Reregister {
                    func,
                    memory_mb: *rng.choose(&MEMORIES_MB).unwrap(),
                },
                _ => Op::Census,
            };
            (at, op)
        })
        .collect();
    ops.sort_by_key(|&(at, _)| at);
    ops
}

/// Run `ops` against `subject` and return the log of everything observed,
/// in the order it was observed.
fn drive<S: Subject>(sim: &Sim, subject: &S, ops: &[(SimTime, Op)]) -> Vec<String> {
    for (i, name) in FUNCTIONS.iter().enumerate() {
        subject.register(name, MEMORIES_MB[i % MEMORIES_MB.len()]);
    }
    let log = Rc::new(RefCell::new(Vec::new()));
    for (i, (at, op)) in ops.iter().cloned().enumerate() {
        let (s, subject, log) = (sim.clone(), subject.clone(), log.clone());
        sim.spawn_detached(async move {
            s.sleep_until(at).await;
            let seen = match op {
                Op::Invoke { func, work, by_id } => {
                    format!("{:?}", subject.invoke(func, work, by_id).await)
                }
                Op::Reap => {
                    subject.reap_idle();
                    format!("reap -> {:?}", subject.census())
                }
                Op::Evict => format!("evict {} -> {:?}", subject.evict_warm(), subject.census()),
                Op::KillProb(p) => {
                    subject.set_kill_prob(p);
                    format!("kill_prob {p}")
                }
                Op::Provision { func, n } => {
                    subject.set_provisioned(func, n);
                    format!("provision {func} {n} -> {:?}", subject.census())
                }
                Op::Release { func } => {
                    subject.release_provisioned(func);
                    format!("release {func}")
                }
                Op::Finalize => {
                    subject.finalize();
                    "finalize".to_owned()
                }
                Op::Reregister { func, memory_mb } => {
                    subject.register(func, memory_mb);
                    format!("reregister {func} {memory_mb}")
                }
                Op::Census => format!("census {:?}", subject.census()),
            };
            log.borrow_mut().push(format!("#{i} @{:?}: {seen}", s.now()));
        });
    }
    sim.run();
    subject.finalize();
    log.borrow_mut().push(format!("end @{:?}: {:?}", sim.now(), subject.census()));
    let log = log.borrow().clone();
    log
}

/// A lognormal (not `exact`) profile, so both platforms also have to draw
/// from the platform RNG stream in the same order; a one-minute keep-alive
/// so reaps bite, slots free up and get new tenants within the script.
fn profile() -> FaasProfile {
    let mut profile = FaasProfile::aws_2018();
    profile.container_idle_timeout = SimDuration::from_secs(60);
    profile.account_concurrency = 24;
    profile.max_containers_per_host = 4;
    profile
}

fn run_both(seed: u64, n: usize, span: SimDuration) {
    let ops = script(seed, n, span);
    let prices = Rc::new(PriceBook::aws_2018());

    let sim = Sim::new(seed);
    let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), Recorder::new());
    let ledger = Ledger::new();
    let slab = FaasPlatform::new(&sim, &fabric, profile(), prices.clone(), ledger.clone(), Recorder::new());
    let slab_log = drive(&sim, &slab, &ops);

    let ref_sim = Sim::new(seed);
    let ref_fabric = Fabric::new(&ref_sim, NetProfile::aws_2018().exact(), Recorder::new());
    let ref_ledger = Ledger::new();
    let sorted = reference::RefPlatform::new(&ref_sim, &ref_fabric, profile(), prices, ref_ledger.clone());
    let ref_log = drive(&ref_sim, &sorted, &ops);

    for (got, want) in slab_log.iter().zip(&ref_log) {
        assert_eq!(got, want, "seed {seed}: first divergence");
    }
    assert_eq!(slab_log.len(), ref_log.len());
    assert_eq!(ledger.report(), ref_ledger.report(), "seed {seed}: bills differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn slab_table_matches_the_sorted_vec_table(
        seed in 0u64..1_000_000,
        n in 1usize..400,
        span_secs in 30u64..900,
    ) {
        run_both(seed, n, SimDuration::from_secs(span_secs));
    }
}

/// The script must reach the cases the slab exists for, or the property
/// above proves little: containers destroyed every way, slots reused by
/// other functions, stale warm entries popped.
#[test]
fn scripts_exercise_slot_reuse_and_every_destruction_path() {
    let ops = script(2019, 400, SimDuration::from_secs(600));
    let sim = Sim::new(2019);
    let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), Recorder::new());
    let recorder = Recorder::new();
    let platform = FaasPlatform::new(
        &sim,
        &fabric,
        profile(),
        Rc::new(PriceBook::aws_2018()),
        Ledger::new(),
        recorder.clone(),
    );
    let log = drive(&sim, &platform, &ops);
    let count = |needle: &str| log.iter().filter(|l| l.contains(needle)).count();
    assert!(count("result: \"crashed\"") > 0, "no mid-flight kill");
    assert!(count("result: \"timed-out\"") > 0, "no timeout");
    assert!(count("result: \"not-found\"") > 0, "no unknown function");
    assert!(count("cold: false") > 20, "warm index barely used");
    assert!(recorder.counter("faas.chaos_evicted") > 0, "evictions found nothing idle");
    // Far more containers were created than were ever alive at once, so
    // slots changed tenants many times over.
    let created = recorder.counter("faas.invoke.cold") + recorder.counter("faas.provisioned_containers");
    let peak_alive = log
        .iter()
        .filter_map(|l| l.split("-> (").nth(1)?.split(',').next()?.parse::<u64>().ok())
        .max()
        .expect("censuses in the log");
    assert!(created > 3 * peak_alive, "{created} created vs {peak_alive} alive at peak");
}
