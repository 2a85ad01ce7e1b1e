//! Directly addressable messaging — the thing the paper points out FaaS
//! lacks.
//!
//! A [`Socket`] binds a `(host, port)` address and exchanges datagrams with
//! other sockets at network latency, paying NIC serialization on both ends.
//! Semantics are UDP-like (no delivery guarantee to dead/unbound peers; no
//! backpressure) plus a request/reply convenience built on correlation ids
//! — enough to model the paper's ZeroMQ baseline and to build the bully
//! election protocol on.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::task::Waker;

use faasim_payload::Payload;
use faasim_simcore::{oneshot, OneshotSender};

use crate::fabric::{Fabric, Host, HostId};

/// A network address: host plus port.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Addr {
    /// The host part.
    pub host: HostId,
    /// The port part.
    pub port: u16,
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.host, self.port)
    }
}

/// How a message participates in request/reply correlation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Fire-and-forget datagram.
    Oneway,
    /// A request carrying a correlation id the receiver should echo.
    Request(u64),
    /// A reply to the request with this correlation id.
    Reply(u64),
}

/// A delivered message.
#[derive(Clone, Debug)]
pub struct Message {
    /// Sender's address (usable as a reply target).
    pub from: Addr,
    /// Correlation kind.
    pub kind: Kind,
    /// Payload bytes.
    pub payload: Payload,
}

/// Errors from socket operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The local port was already bound.
    PortInUse(Addr),
    /// A reply will never arrive (peer socket dropped while request pending).
    Canceled,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::PortInUse(a) => write!(f, "port in use: {a}"),
            NetError::Canceled => write!(f, "request canceled"),
        }
    }
}

impl std::error::Error for NetError {}

struct SockState {
    queue: VecDeque<Message>,
    recv_waker: Option<Waker>,
    pending: HashMap<u64, OneshotSender<Message>>,
    closed: bool,
}

/// Shared delivery target registered in the fabric's socket table.
#[derive(Clone)]
pub(crate) struct SocketHandle {
    st: Rc<RefCell<SockState>>,
}

impl SocketHandle {
    fn deliver(&self, msg: Message) -> bool {
        let mut st = self.st.borrow_mut();
        if st.closed {
            return false;
        }
        if let Kind::Reply(corr) = msg.kind {
            if let Some(tx) = st.pending.remove(&corr) {
                drop(st);
                tx.send(msg);
                return true;
            }
        }
        st.queue.push_back(msg);
        if let Some(w) = st.recv_waker.take() {
            drop(st);
            w.wake();
        }
        true
    }
}

/// A bound socket. Dropping it unbinds the port; messages in flight toward
/// it are then dropped.
pub struct Socket {
    fabric: Fabric,
    host: Host,
    addr: Addr,
    st: Rc<RefCell<SockState>>,
    next_corr: RefCell<u64>,
}

impl fmt::Debug for Socket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Socket").field("addr", &self.addr).finish()
    }
}

impl Fabric {
    /// Bind a socket on `host` at `port`.
    pub fn bind(&self, host: &Host, port: u16) -> Result<Socket, NetError> {
        let addr = Addr {
            host: host.id(),
            port,
        };
        let mut sockets = self.inner.sockets.borrow_mut();
        if sockets.contains_key(&addr) {
            return Err(NetError::PortInUse(addr));
        }
        let st = Rc::new(RefCell::new(SockState {
            queue: VecDeque::new(),
            recv_waker: None,
            pending: HashMap::new(),
            closed: false,
        }));
        sockets.insert(addr, SocketHandle { st: st.clone() });
        Ok(Socket {
            fabric: self.clone(),
            host: host.clone(),
            addr,
            st,
            next_corr: RefCell::new(0),
        })
    }
}

impl Socket {
    /// This socket's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// The host the socket is bound on.
    pub fn host(&self) -> &Host {
        &self.host
    }

    async fn transmit(&self, to: Addr, kind: Kind, payload: Payload) {
        let size = payload.len() as u64 + WIRE_OVERHEAD_BYTES;
        let net = &self.fabric.inner;
        net.counters.messages_sent.incr(&net.recorder);
        net.counters.bytes_sent.add(&net.recorder, size);
        // Serialize out of the sender's NIC.
        self.host.nic_transfer(size).await;
        // Partitioned paths silently eat the message (like the real
        // network: the sender cannot tell).
        if self.fabric.is_blocked(self.host.id(), to.host) {
            net.counters.messages_partitioned.incr(&net.recorder);
            return;
        }
        // Chaos-injected packet loss, equally silent to the sender.
        if self.fabric.chaos_drop() {
            net.counters.messages_lost.incr(&net.recorder);
            return;
        }
        let latency = self.fabric.one_way_latency(&self.host, to.host);
        let fabric = self.fabric.clone();
        let from = self.addr;
        // Propagation and remote delivery proceed without blocking the
        // sender (the paper's ZeroMQ-style asynchronous send).
        let sim = fabric.sim().clone();
        sim.clone().spawn(async move {
            sim.sleep(latency).await;
            let net = &fabric.inner;
            // Pay serialization into the receiver's NIC, if the host exists.
            let Some(h) = fabric.host_state(to.host) else {
                net.counters.messages_dropped.incr(&net.recorder);
                return;
            };
            h.nic().transfer(size, h.flow_cap()).await;
            let handle = net.sockets.borrow().get(&to).cloned();
            let delivered = handle.is_some_and(|handle| {
                handle.deliver(Message {
                    from,
                    kind,
                    payload,
                })
            });
            if delivered {
                net.counters.messages_delivered.incr(&net.recorder);
            } else {
                net.counters.messages_dropped.incr(&net.recorder);
            }
        });
    }

    /// Send a one-way datagram. Completes when the message is on the wire
    /// (after paying the local NIC); delivery continues asynchronously.
    pub async fn send(&self, to: Addr, payload: impl Into<Payload>) {
        self.transmit(to, Kind::Oneway, payload.into()).await;
    }

    /// Send a request and await its reply. Callers should wrap this in
    /// [`faasim_simcore::Sim::timeout`] when the peer may be gone.
    pub async fn request(&self, to: Addr, payload: impl Into<Payload>) -> Result<Message, NetError> {
        let corr = {
            let mut c = self.next_corr.borrow_mut();
            *c += 1;
            *c
        };
        let (tx, rx) = oneshot();
        self.st.borrow_mut().pending.insert(corr, tx);
        self.transmit(to, Kind::Request(corr), payload.into()).await;
        match rx.await {
            Ok(msg) => Ok(msg),
            Err(_) => Err(NetError::Canceled),
        }
    }

    /// Reply to a request message.
    ///
    /// # Panics
    /// Panics when `req` is not a [`Kind::Request`] — replying to a reply
    /// is always a protocol bug.
    pub async fn reply(&self, req: &Message, payload: impl Into<Payload>) {
        let Kind::Request(corr) = req.kind else {
            panic!("reply() to a non-request message: {:?}", req.kind);
        };
        self.transmit(req.from, Kind::Reply(corr), payload.into()).await;
    }

    /// Await the next inbound request/one-way message.
    pub fn recv(&self) -> RecvFut<'_> {
        RecvFut { socket: self }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        self.st.borrow_mut().queue.pop_front()
    }
}

/// Bytes of protocol overhead added to each datagram (headers/framing).
pub const WIRE_OVERHEAD_BYTES: u64 = 66;

/// Future returned by [`Socket::recv`].
pub struct RecvFut<'a> {
    socket: &'a Socket,
}

impl std::future::Future for RecvFut<'_> {
    type Output = Message;

    fn poll(
        self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<Message> {
        let mut st = self.socket.st.borrow_mut();
        if let Some(msg) = st.queue.pop_front() {
            return std::task::Poll::Ready(msg);
        }
        st.recv_waker = Some(cx.waker().clone());
        std::task::Poll::Pending
    }
}

impl Drop for Socket {
    fn drop(&mut self) {
        self.st.borrow_mut().closed = true;
        self.st.borrow_mut().pending.clear();
        self.fabric.inner.sockets.borrow_mut().remove(&self.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{NetProfile, NicConfig};
    use faasim_simcore::{mbps, Recorder, Sim, SimDuration};

    fn setup(seed: u64) -> (Sim, Fabric, Host, Host) {
        let sim = Sim::new(seed);
        let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), Recorder::new());
        let a = fabric.add_host(0, NicConfig::simple(mbps(10_000.0)));
        let b = fabric.add_host(0, NicConfig::simple(mbps(10_000.0)));
        (sim, fabric, a, b)
    }

    #[test]
    fn handles_resolve_on_first_use() {
        let (sim, fabric, a, b) = setup(1);
        let sa = fabric.bind(&a, 5000).unwrap();
        let sb = fabric.bind(&b, 5000).unwrap();
        let rec = fabric.recorder().clone();
        assert!(rec.counter_names().is_empty());
        assert!(rec.histogram_names().is_empty());
        let to = sb.addr();
        sim.spawn(async move {
            sa.send(to, Payload::from_static(b"hello")).await;
            fabric_sleep(&sa).await;
        });
        sim.block_on(async move { sb.recv().await });
        assert_eq!(
            rec.counter_names(),
            [
                "net.bytes_sent",
                "net.messages_delivered",
                "net.messages_sent"
            ]
        );
        assert!(rec.histogram_names().is_empty());
    }

    #[test]
    fn send_and_recv() {
        let (sim, fabric, a, b) = setup(1);
        let sa = fabric.bind(&a, 5000).unwrap();
        let sb = fabric.bind(&b, 5000).unwrap();
        let to = sb.addr();
        sim.spawn(async move {
            sa.send(to, Payload::from_static(b"hello")).await;
            // Keep the socket alive until delivery.
            fabric_sleep(&sa).await;
        });
        let got = sim.block_on(async move { sb.recv().await });
        assert!(got.payload.eq_bytes(b"hello"));
        assert_eq!(got.kind, Kind::Oneway);
    }

    async fn fabric_sleep(s: &Socket) {
        let sim = s.host().fabric().sim().clone();
        sim.sleep(SimDuration::from_secs(1)).await;
    }

    #[test]
    fn request_reply_roundtrip_matches_paper_rtt() {
        // Table 1: 1KB ZeroMQ roundtrip between two EC2 instances = 290 µs.
        let (sim, fabric, a, b) = setup(2);
        let client = fabric.bind(&a, 1).unwrap();
        let server = fabric.bind(&b, 2).unwrap();
        let server_addr = server.addr();
        sim.spawn(async move {
            loop {
                let req = server.recv().await;
                server.reply(&req, req.payload.clone()).await;
            }
        });
        sim.block_on(async move {
            let payload = Payload::from(vec![0u8; 1024]);
            client.request(server_addr, payload).await.unwrap()
        });
        // Two one-way hops at 145 µs each plus NIC serialization of ~1 KB
        // at 10 Gbps (sub-µs): ~290 µs.
        let us = sim.now().as_secs_f64() * 1e6;
        assert!((us - 290.0).abs() < 5.0, "rtt {us} µs");
    }

    #[test]
    fn port_collision_rejected() {
        let (_sim, fabric, a, _b) = setup(3);
        let _s1 = fabric.bind(&a, 80).unwrap();
        let err = fabric.bind(&a, 80).unwrap_err();
        assert!(matches!(err, NetError::PortInUse(_)));
    }

    #[test]
    fn rebind_after_drop() {
        let (_sim, fabric, a, _b) = setup(4);
        let s1 = fabric.bind(&a, 80).unwrap();
        assert!(fabric.bind(&a, 80).is_err());
        drop(s1);
        let _s2 = fabric.bind(&a, 80).unwrap();
    }

    #[test]
    fn message_to_unbound_port_is_dropped() {
        let (sim, fabric, a, b) = setup(5);
        let sa = fabric.bind(&a, 1).unwrap();
        let ghost = Addr {
            host: b.id(),
            port: 9999,
        };
        let rec = fabric.recorder().clone();
        sim.block_on(async move {
            sa.send(ghost, Payload::from_static(b"void")).await;
            fabric_sleep(&sa).await;
        });
        assert_eq!(rec.counter("net.messages_dropped"), 1);
        assert_eq!(rec.counter("net.messages_delivered"), 0);
    }

    #[test]
    fn request_to_dead_peer_times_out() {
        let (sim, fabric, a, b) = setup(6);
        let sa = fabric.bind(&a, 1).unwrap();
        let ghost = Addr {
            host: b.id(),
            port: 9999,
        };
        let s = sim.clone();
        let out = sim.block_on(async move {
            s.timeout(
                SimDuration::from_millis(100),
                sa.request(ghost, Payload::new()),
            )
            .await
        });
        assert!(out.is_none());
    }

    #[test]
    fn partition_blocks_both_directions_until_healed() {
        let (sim, fabric, a, b) = setup(10);
        let sa = fabric.bind(&a, 1).unwrap();
        let sb = fabric.bind(&b, 1).unwrap();
        let (to_a, to_b) = (sa.addr(), sb.addr());
        fabric.partition(&[a.id()], &[b.id()]);
        assert!(fabric.is_blocked(a.id(), b.id()));
        assert!(fabric.is_blocked(b.id(), a.id()));
        let rec = fabric.recorder().clone();
        sim.block_on({
            let sim = sim.clone();
            async move {
                sa.send(to_b, Payload::from_static(b"x")).await;
                sb.send(to_a, Payload::from_static(b"y")).await;
                sim.sleep(SimDuration::from_millis(10)).await;
                assert!(sa.try_recv().is_none());
                assert!(sb.try_recv().is_none());
                // Heal: traffic flows again.
                sa.host().fabric().heal_partition();
                sa.send(to_b, Payload::from_static(b"z")).await;
                sim.sleep(SimDuration::from_millis(10)).await;
                assert!(sb.try_recv().is_some());
            }
        });
        assert_eq!(rec.counter("net.messages_partitioned"), 2);
    }

    #[test]
    fn concurrent_requests_correlate_correctly() {
        let (sim, fabric, a, b) = setup(8);
        let client = Rc::new(fabric.bind(&a, 1).unwrap());
        let server = fabric.bind(&b, 2).unwrap();
        let server_addr = server.addr();
        let srv_sim = sim.clone();
        sim.spawn(async move {
            // Collect two requests, answer in reverse order.
            let r1 = server.recv().await;
            let r2 = server.recv().await;
            srv_sim.sleep(SimDuration::from_millis(1)).await;
            server.reply(&r2, r2.payload.clone()).await;
            server.reply(&r1, r1.payload.clone()).await;
        });
        let (x, y) = sim.block_on({
            let client = client.clone();
            async move {
                let c2 = client.clone();
                faasim_simcore::join2(
                    async move { client.request(server_addr, Payload::from_static(b"one")).await },
                    async move { c2.request(server_addr, Payload::from_static(b"two")).await },
                )
                .await
            }
        });
        // Each requester gets *its own* payload back despite reversed replies.
        assert!(x.unwrap().payload.eq_bytes(b"one"));
        assert!(y.unwrap().payload.eq_bytes(b"two"));
    }

    use std::rc::Rc;

    #[test]
    fn cross_rack_latency_is_higher() {
        let sim = Sim::new(9);
        let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), Recorder::new());
        let a = fabric.add_host(0, NicConfig::simple(mbps(10_000.0)));
        let c = fabric.add_host(7, NicConfig::simple(mbps(10_000.0)));
        let sa = fabric.bind(&a, 1).unwrap();
        let sc = fabric.bind(&c, 1).unwrap();
        let to = sc.addr();
        sim.spawn(async move {
            loop {
                let req = sc.recv().await;
                sc.reply(&req, Payload::new()).await;
            }
        });
        sim.block_on(async move { sa.request(to, Payload::new()).await.unwrap() });
        // Two 630 µs hops ≈ 1.26 ms (the Pingmesh figure from the paper).
        let ms = sim.now().as_secs_f64() * 1e3;
        assert!((ms - 1.26).abs() < 0.05, "rtt {ms} ms");
    }
}
