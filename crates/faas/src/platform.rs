//! The FaaS control plane: function registry, container lifecycle,
//! placement/packing, invocation, and billing.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::future::Future;
use std::rc::Rc;

use faasim_net::{Fabric, Host, HostId, NicStats};
use faasim_payload::Payload;
use faasim_pricing::{ItemId, Ledger, PriceBook, Service};
use faasim_simcore::{
    FxHashMap, LatencyModel, LazyCounter, LazyHist, LocalBoxFuture, Recorder, SemPermit, Semaphore,
    Sim, SimDuration, SimRng, SimTime,
};

use crate::config::FaasProfile;

/// Errors surfaced by function invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FnError {
    /// No function registered under this name.
    NotFound(String),
    /// The invocation exceeded its timeout (or the 15-minute platform cap)
    /// and was killed.
    TimedOut {
        /// How long it ran before being killed.
        after: SimDuration,
    },
    /// The handler returned an application error.
    Handler(String),
    /// The container died mid-invocation (chaos-injected platform
    /// failure; see [`FaasPlatform::set_faults`]). The paper's point:
    /// functions must assume they can be killed at any moment.
    Crashed {
        /// How long the handler ran before the container died.
        after: SimDuration,
    },
}

impl FnError {
    /// Whether a retry of the same invocation may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, FnError::Crashed { .. } | FnError::TimedOut { .. })
    }
}

impl fmt::Display for FnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FnError::NotFound(n) => write!(f, "no such function: {n}"),
            FnError::TimedOut { after } => write!(f, "function timed out after {after}"),
            FnError::Handler(e) => write!(f, "handler error: {e}"),
            FnError::Crashed { after } => write!(f, "container crashed after {after}"),
        }
    }
}

impl std::error::Error for FnError {}

/// Handler output.
pub type HandlerResult = Result<Payload, FnError>;

/// Dense handle for a registered function: what [`FaasPlatform::register`]
/// returns and [`FaasPlatform::invoke_id`] takes. Ids are per platform,
/// assigned in registration order, and survive re-registration of the
/// same name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunctionId(u32);

impl FunctionId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

type Handler = Rc<dyn Fn(FnCtx, Payload) -> LocalBoxFuture<'static, HandlerResult>>;

/// A registered function: name, resources, and handler code.
#[derive(Clone)]
pub struct FunctionSpec {
    /// Function name (invocation key).
    pub name: String,
    /// Allocated memory in MB; also determines the CPU share.
    pub memory_mb: u64,
    /// User-configured timeout (clamped to the platform's 15-minute cap).
    pub timeout: SimDuration,
    handler: Handler,
}

impl fmt::Debug for FunctionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FunctionSpec")
            .field("name", &self.name)
            .field("memory_mb", &self.memory_mb)
            .field("timeout", &self.timeout)
            .finish()
    }
}

impl FunctionSpec {
    /// Define a function from an async closure. The handler may return any
    /// body type convertible into [`Payload`] (`Payload`, `Vec<u8>`, `String`,
    /// static slices/strings), so plain byte-producing handlers compile
    /// unchanged while data-plane-aware ones stay symbolic.
    pub fn new<F, Fut, R>(
        name: impl Into<String>,
        memory_mb: u64,
        timeout: SimDuration,
        handler: F,
    ) -> FunctionSpec
    where
        F: Fn(FnCtx, Payload) -> Fut + 'static,
        Fut: Future<Output = Result<R, FnError>> + 'static,
        R: Into<Payload> + 'static,
    {
        FunctionSpec {
            name: name.into(),
            memory_mb,
            timeout,
            handler: Rc::new(move |ctx, payload| {
                let fut = handler(ctx, payload);
                Box::pin(async move { fut.await.map(Into::into) })
            }),
        }
    }
}

/// Per-invocation context handed to handlers.
#[derive(Clone)]
pub struct FnCtx {
    sim: Sim,
    host: Host,
    container_id: u64,
    cache: Rc<RefCell<HashMap<String, Payload>>>,
    deadline: SimTime,
    cpu_fraction: f64,
    memory_mb: u64,
}

impl FnCtx {
    /// The simulation clock.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The container's host — pass this to storage/queue/network calls so
    /// I/O pays this host's (shared!) NIC.
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// Identifier of the container running this invocation.
    pub fn container_id(&self) -> u64 {
        self.container_id
    }

    /// Allocated memory.
    pub fn memory_mb(&self) -> u64 {
        self.memory_mb
    }

    /// Time left before the platform kills this invocation.
    pub fn remaining(&self) -> SimDuration {
        self.deadline.duration_since(self.sim.now())
    }

    /// Burn `reference_work` of CPU (time on a dedicated reference core),
    /// scaled by this function's memory-proportional CPU share.
    pub async fn cpu(&self, reference_work: SimDuration) {
        let scaled = reference_work.mul_f64(1.0 / self.cpu_fraction);
        self.sim.sleep(scaled).await;
    }

    /// The container's warm cache: survives across invocations on the
    /// same container, is lost on cold start — exactly the caching
    /// behaviour §3 constraint (1) describes ("no way to ensure that
    /// subsequent invocations are run on the same VM").
    pub fn container_cache(&self) -> Rc<RefCell<HashMap<String, Payload>>> {
        self.cache.clone()
    }
}

/// What an invocation returned, plus its accounting.
#[derive(Clone, Debug)]
pub struct InvokeOutcome {
    /// Handler result (or platform error).
    pub result: HandlerResult,
    /// Handler execution time (excludes invocation-path overhead).
    pub exec: SimDuration,
    /// Billed duration (rounded up to the billing increment).
    pub billed: SimDuration,
    /// Client-observed latency including the invocation path.
    pub total: SimDuration,
    /// Whether a new container had to be started.
    pub cold: bool,
    /// Host the invocation ran on.
    pub host: HostId,
    /// Container id the invocation ran in.
    pub container: u64,
}

impl InvokeOutcome {
    /// The outcome of invoking a function the platform does not know.
    fn not_found(func: String) -> InvokeOutcome {
        InvokeOutcome {
            result: Err(FnError::NotFound(func)),
            exec: SimDuration::ZERO,
            billed: SimDuration::ZERO,
            total: SimDuration::ZERO,
            cold: false,
            host: HostId(u64::MAX),
            container: u64::MAX,
        }
    }
}

struct Container {
    id: u64,
    func: FunctionId,
    host_idx: usize,
    host: Host,
    mem_mb: u64,
    cache: Rc<RefCell<HashMap<String, Payload>>>,
    busy: bool,
    idle_since: SimTime,
    /// When the container was placed — the start of its residency window
    /// for [`PackingStats`] accounting.
    created: SimTime,
    /// Kept warm by provisioned concurrency: exempt from idle reaping and
    /// billed per GB-second while reserved.
    provisioned: bool,
}

/// Ordering key for the per-function idle-container index: the maximum
/// element is exactly the container the MRU policy prefers — provisioned
/// first, then latest `idle_since`, then lowest id (ties resolve to the
/// earliest-placed container, matching the original linear scan). The
/// trailing [`ContainerTable`] slot is where to find the container; ids
/// are unique, so it never decides the order.
type WarmKey = (bool, SimTime, Reverse<u64>, u32);

/// Per-function idle-container index: a `Vec` kept sorted ascending by
/// [`WarmKey`], so the MRU pick ([`WarmSet::pop_max`]) is a pop from the
/// tail. Containers are released at the current instant, which is `>=`
/// every `idle_since` already indexed, so inserts land at (or within a
/// few same-instant or stale-hint entries of) the tail — amortized O(1)
/// where a `BTreeSet` walks ~12 node levels per take/release at replay
/// concurrency. Selection is unchanged: keys are unique (they end in the
/// container id) and `pop_max` yields the same maximum a `BTreeSet`
/// would.
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

    fn pop_max(&mut self) -> Option<WarmKey> {
        self.0.pop()
    }
}

/// The live containers, in a slab: a container keeps its slot from
/// placement to destruction, so a [`WarmKey`] or an in-flight invocation
/// reaches it by index, and freed slots are reused. A slot number alone
/// is only a hint — its tenant may have been destroyed and replaced — so
/// lookups also take the container id and miss when it differs.
///
/// Slot order is placement history, not id order. Anything observable
/// that folds over several containers (`f64` residency sums) sorts by id
/// first, so bills and
/// [`PackingStats`] do not depend on which slots happened to be free.
#[derive(Default)]
struct ContainerTable {
    slots: Vec<Option<Container>>,
    free: Vec<u32>,
    live: usize,
}

impl ContainerTable {
    fn insert(&mut self, c: Container) -> u32 {
        self.live += 1;
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(c);
                slot
            }
            None => {
                self.slots.push(Some(c));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// The container in `slot`, if it is still the one with this `id`.
    fn get_mut(&mut self, slot: u32, id: u64) -> Option<&mut Container> {
        self.slots
            .get_mut(slot as usize)?
            .as_mut()
            .filter(|c| c.id == id)
    }

    /// The container in `slot`, for a caller that holds it busy (nothing
    /// destroys a busy container but its own invocation).
    fn occupant(&self, slot: u32) -> &Container {
        self.slots[slot as usize]
            .as_ref()
            .expect("a busy container is never destroyed")
    }

    fn remove(&mut self, slot: u32, id: u64) -> Option<Container> {
        self.get_mut(slot, id)?;
        self.free.push(slot);
        self.live -= 1;
        self.slots[slot as usize].take()
    }

    /// Every live container with its slot, in slot order.
    fn iter_slots(&self) -> impl Iterator<Item = (u32, &Container)> {
        (0..).zip(&self.slots).filter_map(|(slot, c)| Some((slot, c.as_ref()?)))
    }

    fn iter(&self) -> impl Iterator<Item = &Container> {
        self.slots.iter().flatten()
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Container> {
        self.slots.iter_mut().flatten()
    }
}

/// Container-packing integrals, the raw material for a packing-density
/// metric: `resident_gb_seconds` is how much memory-time the platform has
/// kept containers alive for (warm *and* busy), `busy_gb_seconds` is the
/// share actually spent executing handlers. Their ratio is the density —
/// low density means the keep-alive pool is mostly paying for idle memory.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PackingStats {
    /// GB·seconds of handler execution time.
    pub busy_gb_seconds: f64,
    /// GB·seconds of container residency (from placement to destruction,
    /// live containers counted up to now).
    pub resident_gb_seconds: f64,
}

impl PackingStats {
    /// Fraction of container residency spent executing handlers
    /// (`0.0` when nothing has been resident).
    pub fn density(&self) -> f64 {
        if self.resident_gb_seconds <= 0.0 {
            0.0
        } else {
            self.busy_gb_seconds / self.resident_gb_seconds
        }
    }
}

impl fmt::Display for PackingStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} busy GB·s / {:.1} resident GB·s = {:.1}% density",
            self.busy_gb_seconds,
            self.resident_gb_seconds,
            self.density() * 100.0
        )
    }
}

struct FnHost {
    host: Host,
    containers: usize,
    mem_used_mb: u64,
}

impl FnHost {
    /// Give back the room a destroyed container took.
    fn vacate(&mut self, mem_mb: u64) {
        self.containers = self.containers.saturating_sub(1);
        self.mem_used_mb = self.mem_used_mb.saturating_sub(mem_mb);
    }
}

/// Deterministic fault knobs for the FaaS platform. Zero by default; no
/// RNG draws are consumed while every probability is zero, so enabling
/// chaos never perturbs a fault-free run at the same seed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaasFaults {
    /// Probability that an invocation's container is killed partway
    /// through the handler ([`FnError::Crashed`]). The kill instant is
    /// uniform over the invocation's time limit.
    pub kill_prob: f64,
}

/// Everything the platform keeps per registered function, indexed by
/// [`FunctionId`].
struct Function {
    spec: Rc<FunctionSpec>,
    /// Index of this function's idle containers, keyed so the set maximum
    /// is the container `take_warm` must hand out. Entries are *hints*:
    /// they are validated (and lazily corrected or discarded) when popped,
    /// so eviction, reaping, crashes, and provisioned-concurrency changes
    /// never have to maintain the index.
    warm_idle: WarmSet,
    /// Active provisioned-concurrency reservation: (reserved-at, GB
    /// reserved).
    reservation: Option<(SimTime, f64)>,
}

struct PlatformState {
    /// Name → id, consulted once per by-name call and never on the
    /// [`FaasPlatform::invoke_id`] path.
    names: FxHashMap<String, FunctionId>,
    functions: Vec<Function>,
    containers: ContainerTable,
    hosts: Vec<FnHost>,
    /// GB·seconds of residency credited for already-destroyed containers.
    retired_gb_s: f64,
    /// GB·seconds spent executing handlers.
    busy_gb_s: f64,
    next_container: u64,
    rng: SimRng,
    /// Chaos knobs (all zero by default).
    faults: FaasFaults,
}

/// Pre-resolved recorder/ledger handles for the per-invocation path: at
/// trace scale every string hash or allocation per invoke is real
/// wall-clock. Recorder handles resolve lazily (see [`LazyCounter`] —
/// eager interning would leak zero-valued series into determinism
/// digests); ledger ids are interned eagerly, which is safe because
/// never-charged slots are invisible on the bill.
struct HotIds {
    invoke_cold: LazyCounter,
    invoke_warm: LazyCounter,
    throttled_waits: LazyCounter,
    chaos_kills: LazyCounter,
    invoke_total: LazyHist,
    invoke_exec: LazyHist,
    bill_requests: ItemId,
    bill_gb_seconds: ItemId,
}

/// The FaaS platform handle. Cheap to clone.
#[derive(Clone)]
pub struct FaasPlatform {
    sim: Sim,
    fabric: Fabric,
    profile: Rc<FaasProfile>,
    prices: Rc<PriceBook>,
    ledger: Ledger,
    recorder: Recorder,
    concurrency: Semaphore,
    hot: Rc<HotIds>,
    state: Rc<RefCell<PlatformState>>,
}

impl FaasPlatform {
    /// Create the platform.
    pub fn new(
        sim: &Sim,
        fabric: &Fabric,
        profile: FaasProfile,
        prices: Rc<PriceBook>,
        ledger: Ledger,
        recorder: Recorder,
    ) -> FaasPlatform {
        let hot = Rc::new(HotIds {
            invoke_cold: LazyCounter::new("faas.invoke.cold"),
            invoke_warm: LazyCounter::new("faas.invoke.warm"),
            throttled_waits: LazyCounter::new("faas.throttled_waits"),
            chaos_kills: LazyCounter::new("faas.chaos_kills"),
            invoke_total: LazyHist::new("faas.invoke.total"),
            invoke_exec: LazyHist::new("faas.invoke.exec"),
            bill_requests: ledger.item_id(Service::Faas, "requests"),
            bill_gb_seconds: ledger.item_id(Service::Faas, "gb-seconds"),
        });
        FaasPlatform {
            sim: sim.clone(),
            fabric: fabric.clone(),
            concurrency: Semaphore::new(profile.account_concurrency),
            profile: Rc::new(profile),
            prices,
            ledger,
            recorder,
            hot,
            state: Rc::new(RefCell::new(PlatformState {
                names: FxHashMap::default(),
                functions: Vec::new(),
                containers: ContainerTable::default(),
                hosts: Vec::new(),
                retired_gb_s: 0.0,
                busy_gb_s: 0.0,
                next_container: 0,
                rng: sim.rng("faas.platform"),
                faults: FaasFaults::default(),
            })),
        }
    }

    /// The platform profile in force.
    pub fn profile(&self) -> &FaasProfile {
        &self.profile
    }

    /// The simulation this platform runs on.
    pub fn sim_handle(&self) -> Sim {
        self.sim.clone()
    }

    /// Register (or replace) a function and return its id. Re-registering
    /// a name swaps the spec in place: the id, the warm containers and any
    /// provisioned reservation carry over.
    ///
    /// # Panics
    /// Panics if the spec exceeds the platform's memory ceiling — a
    /// deployment-time error in the real service too.
    pub fn register(&self, spec: FunctionSpec) -> FunctionId {
        assert!(
            spec.memory_mb <= self.profile.max_memory_mb,
            "function {} requests {} MB > platform max {} MB",
            spec.name,
            spec.memory_mb,
            self.profile.max_memory_mb
        );
        assert!(spec.memory_mb > 0, "zero-memory function");
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        match st.names.entry(spec.name.clone()) {
            Entry::Occupied(known) => {
                let id = *known.get();
                st.functions[id.index()].spec = Rc::new(spec);
                id
            }
            Entry::Vacant(new) => {
                let id = *new.insert(FunctionId(st.functions.len() as u32));
                st.functions.push(Function {
                    spec: Rc::new(spec),
                    warm_idle: WarmSet::default(),
                    reservation: None,
                });
                id
            }
        }
    }

    /// The id `name` was registered under, if it was.
    pub fn function_id(&self, name: &str) -> Option<FunctionId> {
        self.state.borrow().names.get(name).copied()
    }

    /// Number of live (warm or busy) containers.
    pub fn container_count(&self) -> usize {
        self.state.borrow().containers.live
    }

    /// Number of function-host VMs currently in use.
    pub fn host_count(&self) -> usize {
        self.state
            .borrow()
            .hosts
            .iter()
            .filter(|h| h.containers > 0)
            .count()
    }

    /// Draw from one of the profile's latency models on the platform's
    /// own RNG stream.
    fn sample(&self, model: &LatencyModel) -> SimDuration {
        model.sample(&mut self.state.borrow_mut().rng)
    }

    /// Install chaos knobs; pass `FaasFaults::default()` to disable.
    pub fn set_faults(&self, faults: FaasFaults) {
        self.state.borrow_mut().faults = faults;
    }

    /// Chaos cold-start storm: evict every idle container (provisioned
    /// ones included — the storm models correlated platform churn), so
    /// the next wave of invocations all pay cold starts. Busy containers
    /// are untouched; in-flight kills are [`FaasFaults::kill_prob`]'s
    /// job. Returns the number of containers evicted.
    pub fn evict_warm(&self) -> usize {
        let n = self.destroy_idle(|_| true);
        self.recorder.add("faas.chaos_evicted", n as u64);
        n
    }

    /// Reclaim containers idle longer than the keep-alive window.
    pub fn reap_idle(&self) {
        let now = self.sim.now();
        let timeout = self.profile.container_idle_timeout;
        self.destroy_idle(|c| !c.provisioned && now.duration_since(c.idle_since) >= timeout);
    }

    /// Destroy every idle container `doomed` selects, crediting their
    /// residency in id order; returns how many went.
    fn destroy_idle(&self, doomed: impl Fn(&Container) -> bool) -> usize {
        let now = self.sim.now();
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        let mut going: Vec<(u64, u32)> = st
            .containers
            .iter_slots()
            .filter(|(_, c)| !c.busy && doomed(c))
            .map(|(slot, c)| (c.id, slot))
            .collect();
        going.sort_unstable();
        let mut retired = 0.0;
        for &(id, slot) in &going {
            let c = st.containers.remove(slot, id).expect("selected above");
            retired += residency_gb_s(&c, now);
            st.hosts[c.host_idx].vacate(c.mem_mb);
        }
        st.retired_gb_s += retired;
        going.len()
    }

    /// Take an idle warm container for `func`, if any (provisioned first,
    /// then most recently used, matching observed Lambda behaviour).
    ///
    /// Selection is a pop from the function's own [`WarmSet`] plus one
    /// indexed load from the container table — no search and no string on
    /// the way — the difference between a toy run and streaming a
    /// million-invocation trace over 10k+ functions. Popped entries are
    /// validated against the table: dangling entries (evicted, reaped or
    /// crashed containers, whose slot may already have a new tenant) are
    /// discarded, stale keys (provisioned-concurrency changes) are
    /// corrected and re-queued, and expired keep-alives are dropped for
    /// `reap_idle` to collect. Returns the container's slot.
    fn take_warm(&self, func: FunctionId) -> Option<u32> {
        let now = self.sim.now();
        let timeout = self.profile.container_idle_timeout;
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        let set = &mut st.functions[func.index()].warm_idle;
        loop {
            let (provisioned, idle_since, Reverse(id), slot) = set.pop_max()?;
            let Some(c) = st.containers.get_mut(slot, id) else {
                continue; // container destroyed since the entry was made
            };
            if c.busy {
                continue;
            }
            if c.provisioned != provisioned || c.idle_since != idle_since {
                // Stale hint (e.g. demoted or re-promoted reservation):
                // re-queue under its true key and look again.
                set.insert((c.provisioned, c.idle_since, Reverse(id), slot));
                continue;
            }
            if !c.provisioned && now.duration_since(c.idle_since) >= timeout {
                continue; // past keep-alive: never hand out, reap later
            }
            c.busy = true;
            return Some(slot);
        }
    }

    /// Snapshot the busy-vs-resident GB·second integrals (see
    /// [`PackingStats`]); live containers are counted up to now.
    pub fn packing_stats(&self) -> PackingStats {
        let now = self.sim.now();
        let st = self.state.borrow();
        let mut live: Vec<(u64, f64)> = st
            .containers
            .iter()
            .map(|c| (c.id, residency_gb_s(c, now)))
            .collect();
        live.sort_unstable_by_key(|&(id, _)| id);
        let live: f64 = live.iter().map(|&(_, gb_s)| gb_s).sum();
        PackingStats {
            busy_gb_seconds: st.busy_gb_s,
            resident_gb_seconds: st.retired_gb_s + live,
        }
    }

    /// Aggregate NIC fan-in statistics across every function host (see
    /// [`NicStats`]): `peak_flows` is the worst concurrent fan-in any one
    /// NIC saw, `min_fair_share` the lowest per-flow bandwidth estimate at
    /// any transfer start — the §3(2) bandwidth collapse, measured.
    pub fn nic_stats(&self) -> NicStats {
        let st = self.state.borrow();
        let mut agg = NicStats::default();
        for h in &st.hosts {
            let s = h.host.nic_stats();
            agg.transfers += s.transfers;
            agg.concurrency_sum += s.concurrency_sum;
            agg.peak_flows = agg.peak_flows.max(s.peak_flows);
            agg.min_fair_share = agg.min_fair_share.min(s.min_fair_share);
        }
        agg
    }

    /// Place a new container for `func`, packing onto existing hosts
    /// fill-first (the behaviour behind §3(2)'s bandwidth collapse).
    /// Returns the new container's slot.
    fn place_container(&self, func: FunctionId, memory_mb: u64, provisioned: bool) -> u32 {
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
        let slot = st.containers.insert(Container {
            id,
            func,
            host_idx,
            host,
            mem_mb: memory_mb,
            cache: Rc::new(RefCell::new(HashMap::new())),
            busy: !provisioned,
            idle_since: now,
            created: now,
            provisioned,
        });
        if provisioned {
            // Provisioned containers are born idle: index them so
            // `take_warm` can find them.
            st.functions[func.index()]
                .warm_idle
                .insert((true, now, Reverse(id), slot));
        }
        slot
    }

    /// Reserve `n` always-warm containers for `func` — the paper's §4
    /// "service-level objectives" knob, as AWS later shipped it
    /// (provisioned concurrency). Containers start asynchronously (the
    /// one-time start is the platform's problem, not an invocation's) and
    /// are billed per GB-second until released.
    ///
    /// # Panics
    /// Panics if the function is not registered.
    pub fn set_provisioned_concurrency(&self, func: &str, n: usize) {
        let id = self
            .function_id(func)
            .unwrap_or_else(|| panic!("no such function: {func}"));
        self.release_reservation(id);
        let memory_mb = self.state.borrow().functions[id.index()].spec.memory_mb;
        for _ in 0..n {
            self.place_container(id, memory_mb, true);
        }
        let gb = n as f64 * memory_mb as f64 / 1024.0;
        self.state.borrow_mut().functions[id.index()].reservation = Some((self.sim.now(), gb));
        self.recorder.add("faas.provisioned_containers", n as u64);
    }

    /// Release a provisioned-concurrency reservation, charging for the
    /// reserved GB-seconds. Containers stay warm only for the ordinary
    /// keep-alive window afterwards. No-op when nothing is reserved.
    pub fn release_provisioned_concurrency(&self, func: &str) {
        if let Some(id) = self.function_id(func) {
            self.release_reservation(id);
        }
    }

    fn release_reservation(&self, func: FunctionId) {
        let reservation = self.state.borrow_mut().functions[func.index()]
            .reservation
            .take();
        let Some((since, gb)) = reservation else {
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

    /// Invoke `func` synchronously and await its outcome.
    pub async fn invoke(&self, func: &str, payload: impl Into<Payload>) -> InvokeOutcome {
        self.invoke_named(func, payload.into(), false).await
    }

    /// [`invoke`](Self::invoke) by the id [`register`](Self::register)
    /// returned: the same invocation without the name lookup. An id this
    /// platform never issued is [`FnError::NotFound`].
    pub async fn invoke_id(&self, func: FunctionId, payload: impl Into<Payload>) -> InvokeOutcome {
        self.invoke_inner(func, payload.into(), false).await
    }

    /// Invoke via the queue-trigger path (adds the event-source dispatch
    /// overhead). Used by [`crate::add_queue_trigger`]'s pollers.
    pub async fn invoke_triggered(&self, func: &str, payload: impl Into<Payload>) -> InvokeOutcome {
        self.invoke_named(func, payload.into(), true).await
    }

    /// Resolve `func` once, then run the id path.
    async fn invoke_named(&self, func: &str, payload: Payload, triggered: bool) -> InvokeOutcome {
        match self.function_id(func) {
            Some(id) => self.invoke_inner(id, payload, triggered).await,
            None => InvokeOutcome::not_found(func.to_owned()),
        }
    }

    async fn invoke_inner(
        &self,
        func: FunctionId,
        payload: Payload,
        triggered: bool,
    ) -> InvokeOutcome {
        let t0 = self.sim.now();
        let spec = match self.state.borrow().functions.get(func.index()) {
            Some(f) => f.spec.clone(),
            None => return InvokeOutcome::not_found(func.to_string()),
        };

        // Account-level concurrency gate.
        let had_to_wait = self.concurrency.available() == 0;
        let _permit: SemPermit = self.concurrency.acquire(1).await;
        if had_to_wait {
            self.hot.throttled_waits.incr(&self.recorder);
        }

        // Invocation-path overhead.
        if triggered {
            let d = self.sample(&self.profile.queue_trigger_overhead);
            self.sim.sleep(d).await;
        }
        let overhead = self.sample(&self.profile.invoke_overhead);
        self.sim.sleep(overhead).await;

        // Container acquisition.
        let (slot, cold) = match self.take_warm(func) {
            Some(slot) => (slot, false),
            None => {
                let cold_extra = self.sample(&self.profile.cold_start_extra);
                self.sim.sleep(cold_extra).await;
                (self.place_container(func, spec.memory_mb, false), true)
            }
        };
        let (container_id, host, cache) = {
            let st = self.state.borrow();
            let c = st.containers.occupant(slot);
            (c.id, c.host.clone(), c.cache.clone())
        };
        if cold {
            self.hot.invoke_cold.incr(&self.recorder);
        } else {
            self.hot.invoke_warm.incr(&self.recorder);
        }

        // Run the handler under the lifetime cap.
        let exec_start = self.sim.now();
        let limit = spec.timeout.min(self.profile.max_lifetime);
        let deadline = exec_start + limit;
        let ctx = FnCtx {
            sim: self.sim.clone(),
            host: host.clone(),
            container_id,
            cache,
            deadline,
            cpu_fraction: self.profile.cpu_fraction(spec.memory_mb),
            memory_mb: spec.memory_mb,
        };
        // Chaos: decide up front whether (and when) this invocation's
        // container dies mid-flight. The kill instant is uniform over the
        // time limit, so long handlers are proportionally more exposed —
        // the paper's 15-minute-lifetime hazard in miniature.
        let kill_after = {
            let mut st = self.state.borrow_mut();
            let p = st.faults.kill_prob;
            if p > 0.0 && st.rng.chance(p) {
                Some(SimDuration::from_secs_f64(
                    limit.as_secs_f64() * st.rng.unit_f64(),
                ))
            } else {
                None
            }
        };
        let effective_limit = kill_after.map(|k| k.min(limit)).unwrap_or(limit);
        let fut = (spec.handler)(ctx, payload);
        let crashed;
        let result = match self.sim.timeout(effective_limit, fut).await {
            Some(r) => {
                crashed = false;
                r
            }
            None if kill_after.is_some() => {
                crashed = true;
                self.hot.chaos_kills.incr(&self.recorder);
                Err(FnError::Crashed {
                    after: effective_limit,
                })
            }
            None => {
                crashed = false;
                Err(FnError::TimedOut { after: limit })
            }
        };
        let exec = self.sim.now() - exec_start;

        // Release the container back to its function's warm pool. A
        // crashed container is destroyed instead.
        {
            let now = self.sim.now();
            let mut st = self.state.borrow_mut();
            let st = &mut *st;
            st.busy_gb_s += spec.memory_mb as f64 / 1024.0 * exec.as_secs_f64();
            if crashed {
                if let Some(c) = st.containers.remove(slot, container_id) {
                    st.retired_gb_s += residency_gb_s(&c, now);
                    st.hosts[c.host_idx].vacate(c.mem_mb);
                }
            } else if let Some(c) = st.containers.get_mut(slot, container_id) {
                c.busy = false;
                c.idle_since = now;
                st.functions[func.index()]
                    .warm_idle
                    .insert((c.provisioned, now, Reverse(container_id), slot));
            }
        }

        // Billing: per-request + GB-seconds rounded up to the increment.
        let inc = self.profile.billing_increment.as_nanos().max(1);
        let billed_ns = exec.as_nanos().div_ceil(inc) * inc;
        let billed = SimDuration::from_nanos(billed_ns.max(inc));
        let gb = spec.memory_mb as f64 / 1024.0;
        let gb_s = gb * billed.as_secs_f64();
        self.ledger
            .charge_id(self.hot.bill_requests, 1.0, self.prices.lambda_per_request);
        self.ledger.charge_id(
            self.hot.bill_gb_seconds,
            gb_s,
            gb_s * self.prices.lambda_per_gb_second,
        );
        let total = self.sim.now() - t0;
        self.hot.invoke_total.record_duration(&self.recorder, total);
        self.hot.invoke_exec.record_duration(&self.recorder, exec);
        InvokeOutcome {
            result,
            exec,
            billed,
            total,
            cold,
            host: host.id(),
            container: container_id,
        }
    }
}

/// GB·seconds a container has been resident, from placement to `now`.
fn residency_gb_s(c: &Container, now: SimTime) -> f64 {
    c.mem_mb as f64 / 1024.0 * now.duration_since(c.created).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasim_net::NetProfile;
    use faasim_simcore::join_all;

    fn setup() -> (Sim, FaasPlatform, Ledger, Recorder) {
        let sim = Sim::new(51);
        let recorder = Recorder::new();
        let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), recorder.clone());
        let ledger = Ledger::new();
        let platform = FaasPlatform::new(
            &sim,
            &fabric,
            crate::config::FaasProfile::aws_2018().exact(),
            Rc::new(PriceBook::aws_2018()),
            ledger.clone(),
            recorder.clone(),
        );
        (sim, platform, ledger, recorder)
    }

    fn noop_spec(name: &str) -> FunctionSpec {
        FunctionSpec::new(
            name,
            128,
            SimDuration::from_secs(60),
            |_ctx, payload| async move { Ok(payload) },
        )
    }

    #[test]
    fn warm_noop_invocation_matches_table1() {
        // Table 1: a no-op invocation on a 1 KB argument = 303 ms.
        let (sim, platform, _, _) = setup();
        platform.register(noop_spec("noop"));
        let p = platform.clone();
        let (first, second) = sim.block_on(async move {
            let a = p.invoke("noop", Payload::from(vec![0u8; 1024])).await;
            let b = p.invoke("noop", Payload::from(vec![0u8; 1024])).await;
            (a, b)
        });
        assert!(first.cold);
        assert!(!second.cold);
        let warm_ms = second.total.as_secs_f64() * 1e3;
        assert!((warm_ms - 302.0).abs() < 3.0, "warm invoke {warm_ms} ms");
        // Cold adds the 5 s sandbox start.
        let cold_ms = first.total.as_secs_f64() * 1e3;
        assert!((cold_ms - 5302.0).abs() < 10.0, "cold invoke {cold_ms} ms");
    }

    /// The per-invocation copy of a spec is a refcount bump on the
    /// registry's `Rc`, never a clone of the spec and its name: while a
    /// handler runs, the registered spec has exactly one extra owner.
    #[test]
    fn invocations_share_the_registered_spec() {
        let (sim, platform, _, _) = setup();
        let owners = Rc::new(std::cell::Cell::new(0));
        let (p, seen) = (platform.clone(), owners.clone());
        let id = platform.register(FunctionSpec::new(
            "shared",
            128,
            SimDuration::from_secs(60),
            move |_ctx, payload| {
                seen.set(Rc::strong_count(&p.state.borrow().functions[0].spec));
                async move { Ok(payload) }
            },
        ));
        let p = platform.clone();
        sim.block_on(async move { p.invoke("shared", Payload::new()).await });
        assert_eq!(owners.get(), 2);
        assert_eq!(Rc::strong_count(&platform.state.borrow().functions[id.index()].spec), 1);
    }

    #[test]
    fn unknown_function_errors() {
        let (sim, platform, _, _) = setup();
        let p = platform.clone();
        let out = sim.block_on(async move { p.invoke("ghost", Payload::new()).await });
        assert!(matches!(out.result, Err(FnError::NotFound(_))));
    }

    #[test]
    fn unissued_function_id_is_not_found() {
        // An id from a platform with more functions than this one.
        let (_other_sim, other, _, _) = setup();
        other.register(noop_spec("a"));
        let foreign = other.register(noop_spec("b"));
        let (sim, platform, ledger, _) = setup();
        assert_eq!(platform.function_id("b"), None);
        let p = platform.clone();
        let out = sim.block_on(async move { p.invoke_id(foreign, Payload::new()).await });
        assert_eq!(out.result, Err(FnError::NotFound("fn#1".into())));
        assert_eq!(platform.container_count(), 0);
        assert_eq!(ledger.total(), 0.0);
    }

    #[test]
    fn reregistering_keeps_the_id_and_the_warm_containers() {
        let (sim, platform, _, _) = setup();
        let id = platform.register(noop_spec("f"));
        platform.register(noop_spec("other"));
        let p = platform.clone();
        let first = sim.block_on(async move { p.invoke_id(id, Payload::new()).await });
        assert!(first.cold);
        // The replacement answers differently but inherits id and pool.
        let again = platform.register(FunctionSpec::new(
            "f",
            128,
            SimDuration::from_secs(60),
            |_ctx, _| async move { Ok(Payload::from_static(b"v2")) },
        ));
        assert_eq!(again, id);
        assert_eq!(platform.function_id("f"), Some(id));
        let p = platform.clone();
        let second = sim.block_on(async move { p.invoke("f", Payload::new()).await });
        assert!(!second.cold, "re-registering dropped the warm pool");
        assert_eq!(second.container, first.container);
        assert_eq!(second.result.unwrap(), Payload::from_static(b"v2"));
    }

    #[test]
    fn by_name_and_by_id_are_the_same_invocation() {
        fn run(by_id: bool) -> (String, String) {
            let (sim, platform, ledger, recorder) = setup();
            platform.set_faults(FaasFaults { kill_prob: 0.3 });
            let ids: Vec<FunctionId> = ["a", "b", "c"]
                .iter()
                .map(|name| platform.register(noop_spec(name)))
                .collect();
            let p = platform.clone();
            sim.block_on(async move {
                let futs: Vec<_> = (0..60usize)
                    .map(|i| {
                        let p = p.clone();
                        let id = ids[i % 3];
                        async move {
                            if by_id {
                                p.invoke_id(id, Payload::new()).await
                            } else {
                                p.invoke(["a", "b", "c"][i % 3], Payload::new()).await
                            }
                        }
                    })
                    .collect();
                join_all(futs).await
            });
            (recorder.digest(), ledger.report())
        }
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stale_warm_entry_never_claims_the_slots_next_tenant() {
        let (sim, platform, _, _) = setup();
        let a = platform.register(noop_spec("a"));
        let b = platform.register(noop_spec("b"));
        let (p, s) = (platform.clone(), sim.clone());
        sim.block_on(async move {
            let first_a = p.invoke_id(a, Payload::new()).await;
            // Reap `a`'s container; its warm entry still names the slot.
            s.sleep(SimDuration::from_mins(11)).await;
            p.reap_idle();
            assert_eq!(p.container_count(), 0);
            // `b` cold-starts into the freed slot and goes idle there.
            let first_b = p.invoke_id(b, Payload::new()).await;
            assert!(first_b.cold);
            assert_eq!(p.state.borrow().containers.slots.len(), 1, "slot was not reused");
            // `a` must not be handed `b`'s container through the old hint.
            let second_a = p.invoke_id(a, Payload::new()).await;
            assert!(second_a.cold);
            assert_ne!(second_a.container, first_b.container);
            assert_ne!(second_a.container, first_a.container);
            let second_b = p.invoke_id(b, Payload::new()).await;
            assert!(!second_b.cold);
            assert_eq!(second_b.container, first_b.container);
            assert_eq!(p.container_count(), 2);
        });
    }

    #[test]
    fn lifetime_cap_kills_long_invocations() {
        // §3 constraint (1): killed after 15 minutes even if the user asks
        // for more.
        let (sim, platform, _, _) = setup();
        platform.register(FunctionSpec::new(
            "long",
            1024,
            SimDuration::from_hours(5), // user asks for 5 h; platform caps
            |ctx, _| async move {
                ctx.sim().sleep(SimDuration::from_hours(1)).await;
                Ok(Payload::new())
            },
        ));
        let p = platform.clone();
        let out = sim.block_on(async move { p.invoke("long", Payload::new()).await });
        match out.result {
            Err(FnError::TimedOut { after }) => {
                assert_eq!(after, SimDuration::from_secs(900));
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(out.billed, SimDuration::from_secs(900));
    }

    #[test]
    fn container_cache_survives_warm_but_not_cold() {
        let (sim, platform, _, _) = setup();
        platform.register(FunctionSpec::new(
            "stateful",
            512,
            SimDuration::from_secs(30),
            |ctx, _| async move {
                let cache = ctx.container_cache();
                let mut cache = cache.borrow_mut();
                let hits = cache.get("count").map(|b| b.bytes()[0]).unwrap_or(0);
                cache.insert("count".into(), Payload::from(vec![hits + 1]));
                Ok(Payload::from(vec![hits + 1]))
            },
        ));
        let p = platform.clone();
        let counts = sim.block_on(async move {
            let mut counts = Vec::new();
            for _ in 0..3 {
                let out = p.invoke("stateful", Payload::new()).await;
                counts.push(out.result.unwrap().bytes()[0]);
            }
            counts
        });
        // Same warm container: the counter accumulates.
        assert_eq!(counts, vec![1, 2, 3]);
    }

    #[test]
    fn cpu_scales_with_memory() {
        // CS-1 calibration: 0.2 reference-core-seconds at 640 MB ≈ 0.59 s.
        let (sim, platform, _, _) = setup();
        platform.register(FunctionSpec::new(
            "train-iter",
            640,
            SimDuration::from_secs(900),
            |ctx, _| async move {
                ctx.cpu(SimDuration::from_millis(200)).await;
                Ok(Payload::new())
            },
        ));
        let p = platform.clone();
        let out = sim.block_on(async move {
            let _warm = p.invoke("train-iter", Payload::new()).await;
            p.invoke("train-iter", Payload::new()).await
        });
        let exec_s = out.exec.as_secs_f64();
        assert!((exec_s - 0.59).abs() < 0.01, "exec {exec_s}");
    }

    #[test]
    fn packing_shares_host_nic() {
        // §3(2): twenty concurrent functions land on one host VM and share
        // its NIC: per-function bandwidth collapses to ~28.7 Mbps.
        let (sim, platform, _, _) = setup();
        platform.register(FunctionSpec::new(
            "download",
            640,
            SimDuration::from_secs(900),
            |ctx, _| async move {
                let t0 = ctx.sim().now();
                // 35.875 Mbit so that at 28.7 Mbps it takes 1.25 s.
                ctx.host().nic_transfer(4_484_375).await;
                let took = ctx.sim().now() - t0;
                Ok(Payload::from(took.as_nanos().to_le_bytes().to_vec()))
            },
        ));
        let p = platform.clone();
        let outs = sim.block_on(async move {
            let futs: Vec<_> = (0..20)
                .map(|_| {
                    let p = p.clone();
                    async move { p.invoke("download", Payload::new()).await }
                })
                .collect();
            join_all(futs).await
        });
        assert_eq!(platform.host_count(), 1, "all containers on one host");
        for out in &outs {
            let ns = u64::from_le_bytes(
                out.result.as_ref().unwrap().bytes()[..8].try_into().unwrap(),
            );
            let secs = ns as f64 / 1e9;
            assert!((secs - 1.25).abs() < 0.05, "transfer took {secs}");
        }
    }

    #[test]
    fn twenty_first_container_spills_to_new_host() {
        let (sim, platform, _, _) = setup();
        platform.register(FunctionSpec::new(
            "hold",
            128,
            SimDuration::from_secs(900),
            |ctx, _| async move {
                ctx.sim().sleep(SimDuration::from_secs(10)).await;
                Ok(Payload::new())
            },
        ));
        let p = platform.clone();
        sim.block_on(async move {
            let futs: Vec<_> = (0..21)
                .map(|_| {
                    let p = p.clone();
                    async move { p.invoke("hold", Payload::new()).await }
                })
                .collect();
            join_all(futs).await
        });
        assert_eq!(platform.host_count(), 2);
    }

    #[test]
    fn billing_rounds_up_to_100ms() {
        let (sim, platform, ledger, _) = setup();
        platform.register(FunctionSpec::new(
            "quick",
            1024, // 1 GB: makes GB-s arithmetic exact
            SimDuration::from_secs(60),
            |ctx, _| async move {
                ctx.sim().sleep(SimDuration::from_millis(130)).await;
                Ok(Payload::new())
            },
        ));
        let p = platform.clone();
        let out = sim.block_on(async move { p.invoke("quick", Payload::new()).await });
        assert_eq!(out.billed, SimDuration::from_millis(200));
        let gb_s = ledger.item_quantity(Service::Faas, "gb-seconds");
        assert!((gb_s - 0.2).abs() < 1e-9, "gb-s {gb_s}");
        assert_eq!(ledger.item_quantity(Service::Faas, "requests"), 1.0);
    }

    #[test]
    fn concurrency_limit_queues_excess() {
        let sim = Sim::new(52);
        let recorder = Recorder::new();
        let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), recorder.clone());
        let mut profile = crate::config::FaasProfile::aws_2018().exact();
        profile.account_concurrency = 2;
        let platform = FaasPlatform::new(
            &sim,
            &fabric,
            profile,
            Rc::new(PriceBook::aws_2018()),
            Ledger::new(),
            recorder.clone(),
        );
        platform.register(FunctionSpec::new(
            "slow",
            128,
            SimDuration::from_secs(60),
            |ctx, _| async move {
                ctx.sim().sleep(SimDuration::from_secs(10)).await;
                Ok(Payload::new())
            },
        ));
        let p = platform.clone();
        sim.block_on(async move {
            let futs: Vec<_> = (0..4)
                .map(|_| {
                    let p = p.clone();
                    async move { p.invoke("slow", Payload::new()).await }
                })
                .collect();
            join_all(futs).await
        });
        // 4 invocations, 2 at a time, ~10 s each (plus overheads) => >20 s.
        assert!(sim.now().as_secs_f64() >= 20.0);
        assert!(recorder.counter("faas.throttled_waits") >= 1);
    }

    #[test]
    fn reap_idle_removes_expired_containers() {
        let (sim, platform, _, _) = setup();
        platform.register(noop_spec("noop"));
        let p = platform.clone();
        let s = sim.clone();
        sim.block_on(async move {
            p.invoke("noop", Payload::new()).await;
            assert_eq!(p.container_count(), 1);
            // Within keep-alive: still warm.
            s.sleep(SimDuration::from_mins(5)).await;
            p.reap_idle();
            assert_eq!(p.container_count(), 1);
            // Past keep-alive: reclaimed.
            s.sleep(SimDuration::from_mins(6)).await;
            p.reap_idle();
            assert_eq!(p.container_count(), 0);
        });
    }

    #[test]
    fn reap_and_evict_mid_flight_never_strand_busy_containers() {
        // A 12-minute invocation outlives the 10-minute keep-alive while a
        // janitor storm reaps and evicts every 30 s. The busy container
        // must survive every pass, release back to warm, and serve the
        // next request without a second cold start; once it later expires
        // or is evicted, its stale warm-index entry must be skipped, not
        // served.
        let (sim, platform, _, recorder) = setup();
        platform.register(FunctionSpec::new(
            "slow",
            128,
            SimDuration::from_secs(900),
            |ctx, _| async move {
                ctx.sim().sleep(SimDuration::from_mins(12)).await;
                Ok(Payload::new())
            },
        ));
        let (p2, s2) = (platform.clone(), sim.clone());
        sim.spawn(async move {
            for _ in 0..26 {
                s2.sleep(SimDuration::from_secs(30)).await;
                p2.reap_idle();
                p2.evict_warm();
                assert!(p2.container_count() <= 1, "container invented mid-storm");
            }
        });
        let p = platform.clone();
        let (first, second) = sim.block_on(async move {
            let a = p.invoke("slow", Payload::new()).await;
            // Released this instant: must be reused warm despite the storm.
            let b = p.invoke("slow", Payload::new()).await;
            (a, b)
        });
        assert!(first.result.is_ok(), "storm killed a busy container");
        assert!(second.result.is_ok());
        assert!(first.cold);
        assert!(!second.cold, "warm release was stranded by the janitor");
        assert_eq!(recorder.counter("faas.invoke.cold"), 1);

        // Expire the container for real; the dangling warm-index entry
        // must be dropped and the next invoke must cold-start cleanly.
        let (p, s) = (platform.clone(), sim.clone());
        let third = sim.block_on(async move {
            s.sleep(SimDuration::from_mins(11)).await;
            p.reap_idle();
            assert_eq!(p.container_count(), 0);
            p.invoke("slow", Payload::new()).await
        });
        assert!(third.cold);
        assert_eq!(recorder.counter("faas.invoke.cold"), 2);

        // Same for a chaos eviction: stale entry, clean cold start.
        let p = platform.clone();
        let fourth = sim.block_on(async move {
            assert_eq!(p.evict_warm(), 1);
            p.invoke("slow", Payload::new()).await
        });
        assert!(fourth.cold);
        assert_eq!(recorder.counter("faas.invoke.cold"), 3);
    }

    #[test]
    fn expired_container_cold_starts_again() {
        let (sim, platform, _, _) = setup();
        platform.register(noop_spec("noop"));
        let p = platform.clone();
        let s = sim.clone();
        let (a, b, c) = sim.block_on(async move {
            let a = p.invoke("noop", Payload::new()).await;
            let b = p.invoke("noop", Payload::new()).await;
            s.sleep(SimDuration::from_mins(11)).await;
            let c = p.invoke("noop", Payload::new()).await;
            (a, b, c)
        });
        assert!(a.cold);
        assert!(!b.cold);
        assert!(c.cold, "expired container must not serve warm starts");
    }

    #[test]
    fn provisioned_concurrency_eliminates_cold_starts() {
        let (sim, platform, ledger, _) = setup();
        platform.register(noop_spec("noop"));
        platform.set_provisioned_concurrency("noop", 2);
        let p = platform.clone();
        let s = sim.clone();
        let outcomes = sim.block_on(async move {
            let mut outs = Vec::new();
            for _ in 0..3 {
                // Arrivals far sparser than the keep-alive window...
                s.sleep(SimDuration::from_mins(30)).await;
                p.reap_idle();
                outs.push(p.invoke("noop", Payload::new()).await);
            }
            outs
        });
        // ...yet no invocation cold-starts: the reserved containers held.
        for out in &outcomes {
            assert!(!out.cold, "provisioned invocation cold-started");
        }
        platform.release_provisioned_concurrency("noop");
        // 2 x 128 MB reserved for 90 min => 1350 GB-s at the launch rate.
        let gb_s = ledger.item_quantity(Service::Faas, "provisioned-gb-seconds");
        assert!((gb_s - 1350.0).abs() < 2.0, "gb-s {gb_s}");
        // Released containers now age out normally.
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep(SimDuration::from_mins(30)).await;
        });
        platform.reap_idle();
        assert_eq!(platform.container_count(), 0);
    }

    #[test]
    fn provisioned_billing_is_time_proportional() {
        let (sim, platform, ledger, _) = setup();
        platform.register(FunctionSpec::new(
            "big",
            1024,
            SimDuration::from_secs(30),
            |_ctx, p| async move { Ok(p) },
        ));
        platform.set_provisioned_concurrency("big", 4);
        let s = sim.clone();
        sim.block_on(async move { s.sleep(SimDuration::from_hours(1)).await });
        platform.release_provisioned_concurrency("big");
        // 4 GB reserved for one hour = 14,400 GB-s at $0.000004167.
        let dollars = ledger.item_dollars(Service::Faas, "provisioned-gb-seconds");
        assert!((dollars - 14_400.0 * 0.000_004_167).abs() < 1e-6, "{dollars}");
    }

    #[test]
    #[should_panic(expected = "no such function")]
    fn provisioning_unknown_function_panics() {
        let (_sim, platform, _, _) = setup();
        platform.set_provisioned_concurrency("ghost", 1);
    }

    #[test]
    #[should_panic(expected = "platform max")]
    fn oversized_function_rejected() {
        let (_sim, platform, _, _) = setup();
        platform.register(FunctionSpec::new(
            "huge",
            4096,
            SimDuration::from_secs(60),
            |_ctx, p| async move { Ok(p) },
        ));
    }
}
