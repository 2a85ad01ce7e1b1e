//! # faasim-agents
//!
//! A prototype of the paper's §4 proposal: **long-running, addressable
//! virtual agents** — "nameable endpoints in the network ... addressable
//! with performance comparable to standard networks", yet *virtual*, so
//! the platform can remap them across physical resources (migration).
//!
//! Agents are named actors. A directory service maps names to current
//! physical addresses; senders cache resolutions and transparently
//! re-resolve when an agent has migrated. Migration pays an explicit
//! state-transfer cost, after which the platform has "recouped the cost
//! of creating an affinity" across subsequent requests — the economics §4
//! describes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use faasim_net::{Addr, Fabric, Host, Message, NetError, Socket};
use faasim_simcore::{LatencyModel, LazyCounter, Recorder, Sim, SimDuration};

/// Errors from agent operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AgentError {
    /// No agent registered under this name.
    UnknownAgent(String),
    /// The peer did not answer (dead, or migrated twice mid-request).
    NoReply(String),
    /// Name already taken.
    NameTaken(String),
}

impl fmt::Display for AgentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentError::UnknownAgent(n) => write!(f, "unknown agent: {n}"),
            AgentError::NoReply(n) => write!(f, "no reply from agent: {n}"),
            AgentError::NameTaken(n) => write!(f, "agent name taken: {n}"),
        }
    }
}

impl std::error::Error for AgentError {}

/// Directory entry: where an agent currently lives, with a version that
/// bumps on every migration (lets caches detect staleness cheaply).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct DirEntry {
    addr: Addr,
    version: u64,
}

struct RuntimeState {
    directory: HashMap<String, DirEntry>,
    next_port: u16,
}

/// Recorder handles, resolved on first use (see [`LazyCounter`]): a
/// message indexes its counters instead of hashing their names. Each
/// counter is `agents.<field>`.
struct Counters {
    spawned: LazyCounter,
    directory_lookups: LazyCounter,
    messages_sent: LazyCounter,
    requests_ok: LazyCounter,
    request_retries: LazyCounter,
    migrations: LazyCounter,
}

/// The agent runtime: naming, placement, migration.
#[derive(Clone)]
pub struct AgentRuntime {
    sim: Sim,
    fabric: Fabric,
    recorder: Recorder,
    counters: Rc<Counters>,
    /// Latency of an (uncached) directory lookup — an autoscaling
    /// metadata service, KV-class.
    pub lookup_latency: LatencyModel,
    state: Rc<RefCell<RuntimeState>>,
}

impl AgentRuntime {
    /// Create a runtime on the fabric.
    pub fn new(sim: &Sim, fabric: &Fabric, recorder: Recorder) -> AgentRuntime {
        AgentRuntime {
            sim: sim.clone(),
            fabric: fabric.clone(),
            recorder,
            counters: Rc::new(Counters {
                spawned: LazyCounter::new("agents.spawned"),
                directory_lookups: LazyCounter::new("agents.directory_lookups"),
                messages_sent: LazyCounter::new("agents.messages_sent"),
                requests_ok: LazyCounter::new("agents.requests_ok"),
                request_retries: LazyCounter::new("agents.request_retries"),
                migrations: LazyCounter::new("agents.migrations"),
            }),
            lookup_latency: LatencyModel::Constant(SimDuration::from_millis(1)),
            state: Rc::new(RefCell::new(RuntimeState {
                directory: HashMap::new(),
                next_port: 9000,
            })),
        }
    }

    /// Spawn a named agent on `host`.
    pub fn spawn(&self, host: &Host, name: &str) -> Result<Agent, AgentError> {
        let mut st = self.state.borrow_mut();
        if st.directory.contains_key(name) {
            return Err(AgentError::NameTaken(name.to_owned()));
        }
        let port = st.next_port;
        st.next_port += 1;
        drop(st);
        let socket = self
            .fabric
            .bind(host, port)
            .expect("fresh port must be free");
        let addr = socket.addr();
        self.state
            .borrow_mut()
            .directory
            .insert(name.to_owned(), DirEntry { addr, version: 0 });
        self.counters.spawned.incr(&self.recorder);
        Ok(Agent {
            runtime: self.clone(),
            name: name.to_owned(),
            host: host.clone(),
            socket,
            cache: Rc::new(RefCell::new(HashMap::new())),
        })
    }

    /// Authoritative (slow-path) lookup, paying the directory latency.
    async fn lookup(&self, name: &str) -> Result<DirEntry, AgentError> {
        let latency = {
            let mut rng = self.sim.rng("agents.directory");
            self.lookup_latency.sample(&mut rng)
        };
        self.sim.sleep(latency).await;
        self.counters.directory_lookups.incr(&self.recorder);
        self.state
            .borrow()
            .directory
            .get(name)
            .copied()
            .ok_or_else(|| AgentError::UnknownAgent(name.to_owned()))
    }

    /// Number of registered agents.
    pub fn agent_count(&self) -> usize {
        self.state.borrow().directory.len()
    }

    fn update_directory(&self, name: &str, addr: Addr) {
        let mut st = self.state.borrow_mut();
        if let Some(entry) = st.directory.get_mut(name) {
            entry.addr = addr;
            entry.version += 1;
        }
    }

    fn unregister(&self, name: &str) {
        self.state.borrow_mut().directory.remove(name);
    }
}

/// A long-running, nameable, migratable endpoint.
pub struct Agent {
    runtime: AgentRuntime,
    name: String,
    host: Host,
    socket: Socket,
    /// Local resolution cache: name → directory entry.
    cache: Rc<RefCell<HashMap<String, DirEntry>>>,
}

impl fmt::Debug for Agent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Agent")
            .field("name", &self.name)
            .field("addr", &self.socket.addr())
            .finish()
    }
}

impl Agent {
    /// The agent's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The agent's current physical address (changes on migration).
    pub fn addr(&self) -> Addr {
        self.socket.addr()
    }

    /// The host the agent currently runs on.
    pub fn host(&self) -> &Host {
        &self.host
    }

    async fn resolve(&self, name: &str) -> Result<DirEntry, AgentError> {
        if let Some(&entry) = self.cache.borrow().get(name) {
            return Ok(entry);
        }
        let entry = self.runtime.lookup(name).await?;
        self.cache.borrow_mut().insert(name.to_owned(), entry);
        Ok(entry)
    }

    fn invalidate(&self, name: &str) {
        self.cache.borrow_mut().remove(name);
    }

    /// Fire-and-forget message to a named agent. Resolution is cached; a
    /// message sent on a stale cache entry is silently lost (use
    /// [`Agent::request`] when delivery must be confirmed).
    pub async fn send(&self, to: &str, payload: impl Into<faasim_payload::Payload>) -> Result<(), AgentError> {
        let entry = self.resolve(to).await?;
        self.socket.send(entry.addr, payload).await;
        self.runtime
            .counters
            .messages_sent
            .incr(&self.runtime.recorder);
        Ok(())
    }

    /// Request/reply to a named agent. On timeout, re-resolves once (the
    /// peer may have migrated) and retries.
    pub async fn request(&self, to: &str, payload: impl Into<faasim_payload::Payload>) -> Result<Message, AgentError> {
        let payload = payload.into();
        let attempt_timeout = SimDuration::from_millis(50);
        for attempt in 0..2 {
            let entry = self.resolve(to).await?;
            match self
                .runtime
                .sim
                .timeout(attempt_timeout, self.socket.request(entry.addr, payload.clone()))
                .await
            {
                Some(Ok(reply)) => {
                    self.runtime
                        .counters
                        .requests_ok
                        .incr(&self.runtime.recorder);
                    return Ok(reply);
                }
                Some(Err(NetError::Canceled)) | None => {
                    self.invalidate(to);
                    if attempt == 1 {
                        break;
                    }
                    self.runtime
                        .counters
                        .request_retries
                        .incr(&self.runtime.recorder);
                }
                Some(Err(_)) => break,
            }
        }
        Err(AgentError::NoReply(to.to_owned()))
    }

    /// Await the next inbound message.
    pub async fn recv(&self) -> Message {
        self.socket.recv().await
    }

    /// Reply to a request received via [`Agent::recv`].
    pub async fn reply(&self, req: &Message, payload: impl Into<faasim_payload::Payload>) {
        self.socket.reply(req, payload).await;
    }

    /// Move this agent to `new_host`, shipping `state_bytes` of state.
    /// The name keeps working: the directory is updated, and senders with
    /// stale caches recover via [`Agent::request`]'s retry path.
    pub async fn migrate(&mut self, new_host: &Host, state_bytes: u64) {
        // Ship state out of the old host and into the new one.
        self.host.nic_transfer(state_bytes).await;
        let latency = self
            .runtime
            .fabric
            .one_way_latency(&self.host, new_host.id());
        self.runtime.sim.sleep(latency).await;
        new_host.nic_transfer(state_bytes).await;
        // Rebind on the new host under a fresh port.
        let port = {
            let mut st = self.runtime.state.borrow_mut();
            let p = st.next_port;
            st.next_port += 1;
            p
        };
        let new_socket = self
            .runtime
            .fabric
            .bind(new_host, port)
            .expect("fresh port must be free");
        self.runtime.update_directory(&self.name, new_socket.addr());
        self.socket = new_socket;
        self.host = new_host.clone();
        self.runtime
            .counters
            .migrations
            .incr(&self.runtime.recorder);
    }
}

impl Drop for Agent {
    fn drop(&mut self) {
        self.runtime.unregister(&self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use faasim_net::{NetProfile, NicConfig};
    use faasim_simcore::{mbps, SimTime};

    fn world(seed: u64) -> (Sim, Fabric, AgentRuntime) {
        let sim = Sim::new(seed);
        let recorder = Recorder::new();
        let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), recorder.clone());
        let runtime = AgentRuntime::new(&sim, &fabric, recorder);
        (sim, fabric, runtime)
    }

    fn host(fabric: &Fabric) -> Host {
        fabric.add_host(0, NicConfig::simple(mbps(10_000.0)))
    }

    #[test]
    fn handles_resolve_on_first_use() {
        let (_sim, fabric, rt) = world(1);
        assert!(rt.recorder.counter_names().is_empty());
        assert!(rt.recorder.histogram_names().is_empty());
        let host = fabric.add_host(0, NicConfig::simple(mbps(1000.0)));
        let _agent = rt.spawn(&host, "a").unwrap();
        assert_eq!(rt.recorder.counter_names(), ["agents.spawned"]);
        assert!(rt.recorder.histogram_names().is_empty());
    }

    #[test]
    fn named_request_reply() {
        let (sim, fabric, rt) = world(91);
        let client = rt.spawn(&host(&fabric), "client").unwrap();
        let server = rt.spawn(&host(&fabric), "server").unwrap();
        sim.spawn(async move {
            loop {
                let req = server.recv().await;
                server.reply(&req, Bytes::from_static(b"pong")).await;
            }
        });
        let reply = sim.block_on(async move {
            client
                .request("server", Bytes::from_static(b"ping"))
                .await
                .unwrap()
        });
        assert!(reply.payload.eq_bytes(b"pong"));
        // First request pays one directory lookup plus ~one RTT: ~1.3 ms.
        assert!(sim.now() < SimTime::ZERO + SimDuration::from_millis(3));
    }

    #[test]
    fn cached_resolution_reaches_network_speed() {
        let (sim, fabric, rt) = world(92);
        let client = rt.spawn(&host(&fabric), "client").unwrap();
        let server = rt.spawn(&host(&fabric), "server").unwrap();
        sim.spawn(async move {
            loop {
                let req = server.recv().await;
                server.reply(&req, req.payload.clone()).await;
            }
        });
        let (t_first, t_second) = sim.block_on({
            let sim = sim.clone();
            async move {
                let t0 = sim.now();
                client.request("server", Bytes::new()).await.unwrap();
                let t1 = sim.now();
                client.request("server", Bytes::new()).await.unwrap();
                let t2 = sim.now();
                (t1 - t0, t2 - t1)
            }
        });
        // Cached path drops the 1 ms lookup: close to the raw 290 µs RTT.
        assert!(t_second < t_first, "{t_second} !< {t_first}");
        assert!(
            t_second < SimDuration::from_micros(400),
            "cached request took {t_second}"
        );
        assert_eq!(rt.recorder.counter("agents.directory_lookups"), 1);
    }

    #[test]
    fn unknown_and_duplicate_names() {
        let (sim, fabric, rt) = world(93);
        let a = rt.spawn(&host(&fabric), "solo").unwrap();
        assert!(matches!(
            rt.spawn(&host(&fabric), "solo"),
            Err(AgentError::NameTaken(_))
        ));
        let err = sim.block_on(async move { a.send("ghost", Bytes::new()).await });
        assert_eq!(err, Err(AgentError::UnknownAgent("ghost".into())));
    }

    #[test]
    fn migration_keeps_name_working() {
        let (sim, fabric, rt) = world(94);
        let client = rt.spawn(&host(&fabric), "client").unwrap();
        let mut server = rt.spawn(&host(&fabric), "server").unwrap();
        let new_home = fabric.add_host(3, NicConfig::simple(mbps(10_000.0)));
        let rt2 = rt.clone();
        sim.spawn(async move {
            // Serve one request, migrate with 10 MB of state, keep serving.
            let req = server.recv().await;
            server.reply(&req, Bytes::from_static(b"before")).await;
            server.migrate(&new_home, 10_000_000).await;
            loop {
                let req = server.recv().await;
                server.reply(&req, Bytes::from_static(b"after")).await;
            }
        });
        let (a, b) = sim.block_on({
            let sim = sim.clone();
            async move {
                let a = client.request("server", Bytes::new()).await.unwrap();
                // Give the migration time to finish.
                sim.sleep(SimDuration::from_secs(1)).await;
                let b = client.request("server", Bytes::new()).await.unwrap();
                (a, b)
            }
        });
        assert!(a.payload.eq_bytes(b"before"));
        assert!(b.payload.eq_bytes(b"after"));
        // The second request needed the stale-cache retry path.
        assert_eq!(rt2.recorder.counter("agents.request_retries"), 1);
        assert_eq!(rt2.recorder.counter("agents.migrations"), 1);
    }

    #[test]
    fn dead_agent_yields_no_reply() {
        let (sim, fabric, rt) = world(95);
        let client = rt.spawn(&host(&fabric), "client").unwrap();
        let server = rt.spawn(&host(&fabric), "server").unwrap();
        // Drop the server after registration: requests must fail cleanly.
        let name = server.name().to_owned();
        drop(server);
        let err = sim.block_on(async move { client.request(&name, Bytes::new()).await });
        assert!(matches!(err, Err(AgentError::UnknownAgent(_))));
    }

    #[test]
    fn agent_count_tracks_lifecycle() {
        let (_sim, fabric, rt) = world(96);
        let a = rt.spawn(&host(&fabric), "a").unwrap();
        let b = rt.spawn(&host(&fabric), "b").unwrap();
        assert_eq!(rt.agent_count(), 2);
        drop(a);
        assert_eq!(rt.agent_count(), 1);
        drop(b);
        assert_eq!(rt.agent_count(), 0);
    }
}
