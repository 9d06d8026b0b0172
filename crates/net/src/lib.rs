//! # mtsim-net — contention-aware interconnection networks
//!
//! The paper models the network as a constant 200-cycle, contention-free
//! pipe (DESIGN.md §2). This crate replaces that stub with a
//! store-and-forward queueing model over pluggable topologies:
//!
//! * [`Topology::Constant`] — the paper's model, kept as the default.
//!   The network object is inert and round trips cost exactly the
//!   configured constant.
//! * [`Topology::Crossbar`] — private injection links, but requests to
//!   one memory module serialize on that module's output port.
//! * [`Topology::Mesh`] — 2D mesh, dimension-order routing; latency
//!   grows with distance and every grid link is a contention point.
//! * [`Topology::Butterfly`] — log₂P-stage indirect network; traffic to
//!   one module funnels through a shared tree of late-stage links, so
//!   hot spots saturate first (the Ultracomputer/RP3 shape).
//!
//! A message of `bits` bits crossing a link with bandwidth `link_bw`
//! bits/cycle occupies it for `ceil(bits / link_bw)` cycles; later
//! messages wait for the link to drain (per-hop queueing delay). Memory
//! modules add a fixed service occupancy. In combining mode, a
//! fetch-and-add that reaches the network while an earlier F&A to the
//! same address is still on its forward flight merges with it in the
//! switches — one request, one reply time, no extra link traffic —
//! making the paper's hot-spot combining assumption explicit.
//!
//! Timing only: the engine executes shared accesses in global time
//! order and applies memory effects at issue time, so the network
//! shifts *when* replies arrive, never *what* they carry. The
//! differential oracle therefore stays byte-equivalent across
//! topologies.

mod topology;

pub use topology::Topology;

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by a word or line address, hashed by [`AddrHasher`].
pub type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// A multiplicative hasher for integer keys such as word and line
/// addresses: one multiply per key instead of SipHash's rounds. The
/// simulator's address maps are only probed, never iterated, so the hash
/// cannot change a result. Their size is bounded by the machine (one
/// entry per resident cache line or open combining window); a program
/// that picks colliding addresses costs itself time, not correctness.
#[derive(Debug, Clone, Copy, Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // Fibonacci hashing: the odd multiplier spreads sequential
        // addresses over the high bits the table's control bytes use.
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Configuration for the interconnection network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Which topology connects processors to memory modules.
    pub topology: Topology,
    /// Link bandwidth in bits per cycle (≥ 1).
    pub link_bw: u64,
    /// Fixed propagation latency added per link crossed.
    pub hop_latency: u64,
    /// Memory-module service occupancy per request, in cycles.
    pub mem_service: u64,
    /// Merge concurrent fetch-and-adds to one address in the switches.
    pub combining: bool,
    /// Number of memory modules; 0 means one per processor.
    pub modules: usize,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            topology: Topology::Constant,
            link_bw: 16,
            hop_latency: 4,
            mem_service: 4,
            combining: false,
            modules: 0,
        }
    }
}

impl NetworkConfig {
    /// A constant-latency (paper-model) network; the simulator stays
    /// inert and `MachineConfig::latency` applies unchanged.
    pub fn constant() -> Self {
        NetworkConfig::default()
    }

    /// Starts from defaults with the given topology.
    pub fn new(topology: Topology) -> Self {
        NetworkConfig { topology, ..NetworkConfig::default() }
    }

    /// Sets the link bandwidth in bits per cycle.
    pub fn with_link_bw(mut self, bits_per_cycle: u64) -> Self {
        self.link_bw = bits_per_cycle;
        self
    }

    /// Enables or disables in-network fetch-and-add combining.
    pub fn with_combining(mut self, on: bool) -> Self {
        self.combining = on;
        self
    }

    /// True when the machine must simulate the network (anything beyond
    /// the paper's constant-latency model).
    pub fn is_active(&self) -> bool {
        self.topology != Topology::Constant || self.combining
    }

    /// Validates the configuration, returning a description of the
    /// first problem found.
    pub fn check(&self) -> Result<(), String> {
        if self.link_bw == 0 {
            return Err("network link bandwidth must be at least 1 bit/cycle".to_string());
        }
        Ok(())
    }
}

/// Aggregate network statistics for one run.
///
/// All fields are exact integer counts so `RunStats`-style equality
/// checks (determinism tests, oracle comparisons) stay bit-exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Round trips carried (loads, stores, fetch-and-adds; combined
    /// F&As count here too — they still receive a reply).
    pub requests: u64,
    /// Sum of round-trip latencies, for mean latency.
    pub latency_sum: u64,
    /// Largest single round-trip latency observed.
    pub latency_max: u64,
    /// Total cycles messages spent waiting for busy links or modules.
    pub queue_cycles: u64,
    /// Fetch-and-add requests presented to the network.
    pub fa_requests: u64,
    /// Fetch-and-adds merged into an in-flight request by combining.
    pub fa_combined: u64,
}

impl NetStats {
    /// Mean round-trip latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.requests as f64
        }
    }
}

/// An in-flight fetch-and-add eligible for combining: later F&As to the
/// same address merge with it while it has not yet reached memory.
#[derive(Debug, Clone, Copy)]
struct CombineSlot {
    /// Cycle the request arrives at the memory module; the combining
    /// window closes here — a merge must catch the request in flight.
    forward: u64,
    /// Cycle the (combined) reply arrives back at the sources.
    reply: u64,
}

/// A divisor whose power-of-two case divides by shifting and masking.
#[derive(Debug, Clone, Copy)]
struct Divisor {
    d: u64,
    pow2: bool,
}

impl Divisor {
    fn new(d: u64) -> Divisor {
        Divisor { d, pow2: d.is_power_of_two() }
    }

    #[inline]
    fn rem(self, x: u64) -> u64 {
        if self.pow2 {
            x & (self.d - 1)
        } else {
            x % self.d
        }
    }

    #[inline]
    fn div_ceil(self, x: u64) -> u64 {
        if self.pow2 {
            (x >> self.d.trailing_zeros()) + u64::from(x & (self.d - 1) != 0)
        } else {
            x.div_ceil(self.d)
        }
    }
}

/// One message's progress along its path: the time it reaches the next
/// link and the cycles it has queued so far.
struct Leg {
    t: u64,
    queued: u64,
    /// Serialization cycles per link.
    ser: u64,
    hop_latency: u64,
}

impl Leg {
    /// Crosses `link`, waiting for it to drain first.
    #[inline]
    fn cross(&mut self, links: &mut [u64], link: usize) {
        let begin = self.t.max(links[link]);
        self.queued += begin - self.t;
        links[link] = begin + self.ser;
        self.t = begin + self.ser + self.hop_latency;
    }
}

/// The simulated interconnection network.
///
/// The engine issues shared accesses in global time order, so calls
/// arrive with non-decreasing `t0`; link and module busy times advance
/// monotonically and the whole structure is deterministic.
#[derive(Debug, Clone)]
pub struct Network {
    cfg: NetworkConfig,
    /// Constant round-trip latency used by the `Constant` topology.
    const_latency: u64,
    /// Memory modules; addresses interleave across them word by word.
    modules: Divisor,
    /// Link bandwidth in bits per cycle.
    link_bw: Divisor,
    layout: topology::Layout,
    /// Per-link cycle at which the link next becomes free.
    links: Vec<u64>,
    /// Per-module cycle at which the module next becomes free.
    module_busy: Vec<u64>,
    /// Open combining windows by address.
    combine: AddrMap<CombineSlot>,
    stats: NetStats,
}

impl Network {
    /// Builds the network for `procs` processors. `const_latency` is the
    /// round-trip cost under the `Constant` topology (the machine's
    /// configured memory latency).
    pub fn new(cfg: NetworkConfig, procs: usize, const_latency: u64) -> Network {
        let modules = if cfg.modules == 0 { procs.max(1) } else { cfg.modules };
        let layout = topology::Layout::new(cfg.topology, procs.max(1), modules);
        let links = vec![0u64; layout.link_count()];
        Network {
            cfg,
            const_latency,
            modules: Divisor::new(modules as u64),
            link_bw: Divisor::new(cfg.link_bw),
            layout,
            links,
            module_busy: vec![0u64; modules],
            combine: AddrMap::default(),
            stats: NetStats::default(),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Memory module serving `addr` (word-interleaved).
    #[inline]
    fn module_of(&self, addr: u64) -> usize {
        self.modules.rem(addr) as usize
    }

    /// A message of `bits` bits leaving at `t`, before its first link.
    #[inline]
    fn leg(&self, t: u64, bits: u64) -> Leg {
        let ser = self.link_bw.div_ceil(bits).max(1);
        Leg { t, queued: 0, ser, hop_latency: self.cfg.hop_latency }
    }

    /// One full round trip: forward request, module service, reply.
    /// Returns `(reply_arrival, forward_arrival, queue_cycles)`.
    fn trip(
        &mut self,
        t0: u64,
        src: usize,
        addr: u64,
        req_bits: u64,
        reply_bits: u64,
    ) -> (u64, u64, u64) {
        if matches!(self.layout, topology::Layout::Constant) {
            // Contention-free constant pipe; split the round trip evenly
            // so the combining window still has a forward leg.
            return (t0 + self.const_latency, t0 + self.const_latency / 2, 0);
        }
        let module = self.module_of(addr);

        let mut fwd = self.leg(t0, req_bits);
        self.layout.forward(src, module, |link| fwd.cross(&mut self.links, link));
        let arrival = fwd.t;

        let begin = arrival.max(self.module_busy[module]);
        let q_mem = begin - arrival;
        self.module_busy[module] = begin + self.cfg.mem_service;
        let depart = begin + self.cfg.mem_service;

        let mut ret = self.leg(depart, reply_bits);
        self.layout.back(src, module, |link| ret.cross(&mut self.links, link));

        (ret.t, arrival, fwd.queued + q_mem + ret.queued)
    }

    /// Records one completed round trip in the statistics.
    fn note(&mut self, t0: u64, reply: u64, queued: u64) {
        self.stats.requests += 1;
        let lat = reply - t0;
        self.stats.latency_sum += lat;
        self.stats.latency_max = self.stats.latency_max.max(lat);
        self.stats.queue_cycles += queued;
    }

    /// A shared load or store round trip issued by processor `src` at
    /// cycle `t0`. Returns the cycle the reply (or acknowledgement)
    /// reaches the processor.
    pub fn round_trip(
        &mut self,
        t0: u64,
        src: usize,
        addr: u64,
        req_bits: u64,
        reply_bits: u64,
    ) -> u64 {
        let (reply, _, queued) = self.trip(t0, src, addr, req_bits, reply_bits);
        self.note(t0, reply, queued);
        reply
    }

    /// A fetch-and-add round trip. With combining enabled, a request
    /// that catches an earlier same-address F&A still on its forward
    /// flight merges with it: it consumes no link or module time and
    /// completes when the combined reply fans back out.
    pub fn fetch_add(
        &mut self,
        t0: u64,
        src: usize,
        addr: u64,
        req_bits: u64,
        reply_bits: u64,
    ) -> u64 {
        self.stats.fa_requests += 1;
        if self.cfg.combining {
            if let Some(slot) = self.combine.get(&addr) {
                if t0 <= slot.forward {
                    let reply = slot.reply.max(t0);
                    self.stats.fa_combined += 1;
                    self.note(t0, reply, 0);
                    return reply;
                }
            }
        }
        let (reply, forward, queued) = self.trip(t0, src, addr, req_bits, reply_bits);
        if self.cfg.combining {
            self.combine.insert(addr, CombineSlot { forward, reply });
        }
        self.note(t0, reply, queued);
        reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REQ: u64 = 64; // header + address
    const REPLY: u64 = 96; // header + one word

    fn net(topology: Topology, procs: usize) -> Network {
        Network::new(NetworkConfig::new(topology), procs, 200)
    }

    #[test]
    fn constant_topology_costs_exactly_the_configured_latency() {
        let mut n = net(Topology::Constant, 4);
        assert_eq!(n.round_trip(100, 0, 7, REQ, REPLY), 300);
        assert_eq!(n.round_trip(100, 3, 7, REQ, REPLY), 300, "no contention");
        let s = n.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.latency_sum, 400);
        assert_eq!(s.latency_max, 200);
        assert_eq!(s.queue_cycles, 0);
    }

    #[test]
    fn crossbar_single_message_is_base_latency() {
        // 4 hops round trip; each: serialization + hop latency. No
        // queueing on an idle network.
        let mut n = net(Topology::Crossbar, 4);
        let cfg = NetworkConfig::default();
        let ser_req = REQ.div_ceil(cfg.link_bw);
        let ser_reply = REPLY.div_ceil(cfg.link_bw);
        let expect =
            2 * (ser_req + cfg.hop_latency) + cfg.mem_service + 2 * (ser_reply + cfg.hop_latency);
        assert_eq!(n.round_trip(0, 0, 5, REQ, REPLY), expect);
        assert_eq!(n.stats().queue_cycles, 0);
        // A later, temporally separated message sees the same latency.
        assert_eq!(n.round_trip(1000, 1, 6, REQ, REPLY), 1000 + expect);
    }

    #[test]
    fn saturated_output_port_queues_the_second_message() {
        // Two processors hit the same module in the same cycle: the
        // second serializes behind the first on the module's port.
        let mut n = net(Topology::Crossbar, 4);
        let first = n.round_trip(0, 0, 4, REQ, REPLY);
        let second = n.round_trip(0, 1, 4, REQ, REPLY);
        assert!(second > first, "contended message must finish later");
        assert!(n.stats().queue_cycles > 0, "queueing must be visible in stats");
        assert_eq!(n.stats().latency_max, second);
    }

    #[test]
    fn mesh_latency_grows_with_distance() {
        let mut n = net(Topology::Mesh, 16); // 4x4 grid
        let near = n.round_trip(0, 0, 0, REQ, REPLY); // same node
        let mut n2 = net(Topology::Mesh, 16);
        let far = n2.round_trip(0, 0, 15, REQ, REPLY); // opposite corner
        assert!(far > near, "corner-to-corner must beat same-node: {far} vs {near}");
    }

    #[test]
    fn butterfly_hot_module_contends_in_the_tree() {
        let mut n = net(Topology::Butterfly, 8);
        let solo = n.round_trip(0, 0, 3, REQ, REPLY);
        // Burst from every processor to the same module.
        let mut hot = net(Topology::Butterfly, 8);
        let worst = (0..8).map(|p| hot.round_trip(0, p, 3, REQ, REPLY)).max().unwrap();
        assert!(worst > solo, "hot-spot burst must queue: {worst} vs {solo}");
        assert!(hot.stats().queue_cycles > 0);
    }

    #[test]
    fn combining_merges_concurrent_fetch_adds() {
        let mut n =
            Network::new(NetworkConfig::new(Topology::Butterfly).with_combining(true), 8, 200);
        let first = n.fetch_add(0, 0, 42, 128, 96);
        let mut replies = vec![first];
        for p in 1..8 {
            replies.push(n.fetch_add(0, p, 42, 128, 96));
        }
        let s = n.stats();
        assert_eq!(s.fa_requests, 8);
        assert_eq!(s.fa_combined, 7, "all later F&As merge with the first");
        assert!(replies.iter().all(|&r| r == first), "merged F&As share the reply");
        // An F&A to a different address does not combine.
        n.fetch_add(0, 0, 43, 128, 96);
        assert_eq!(n.stats().fa_combined, 7);
    }

    #[test]
    fn combining_window_closes_when_request_reaches_memory() {
        let mut n =
            Network::new(NetworkConfig::new(Topology::Crossbar).with_combining(true), 4, 200);
        let first = n.fetch_add(0, 0, 42, 128, 96);
        // Issue long after the first request reached the module: no merge.
        let late = n.fetch_add(first + 100, 1, 42, 128, 96);
        assert_eq!(n.stats().fa_combined, 0);
        assert!(late > first);
    }

    #[test]
    fn without_combining_hot_fetch_adds_serialize() {
        let mut n = net(Topology::Butterfly, 8);
        let first = n.fetch_add(0, 0, 42, 128, 96);
        let second = n.fetch_add(0, 1, 42, 128, 96);
        assert!(second > first);
        assert_eq!(n.stats().fa_combined, 0);
        assert_eq!(n.stats().fa_requests, 2);
    }

    #[test]
    fn same_sequence_is_deterministic() {
        let run = || {
            let mut n =
                Network::new(NetworkConfig::new(Topology::Mesh).with_combining(true), 8, 200);
            let mut out = Vec::new();
            for i in 0..64u64 {
                let t0 = i * 3;
                let p = (i % 8) as usize;
                if i % 4 == 0 {
                    out.push(n.fetch_add(t0, p, i % 5, 128, 96));
                } else {
                    out.push(n.round_trip(t0, p, i * 17 % 11, REQ, REPLY));
                }
            }
            (out, n.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn config_check_rejects_zero_bandwidth() {
        assert!(NetworkConfig::default().check().is_ok());
        assert!(NetworkConfig::default().with_link_bw(0).check().is_err());
        assert!(!NetworkConfig::constant().is_active());
        assert!(NetworkConfig::new(Topology::Mesh).is_active());
        assert!(NetworkConfig::constant().with_combining(true).is_active());
    }

    #[test]
    fn divisor_matches_plain_division() {
        let xs = (0..200u64).chain([u64::MAX / 7, u64::MAX - 1, u64::MAX]);
        for d in (1..=40u64).chain([64, 96, 128, 1 << 20, 1 << 63]) {
            let div = Divisor::new(d);
            for x in xs.clone() {
                assert_eq!(div.rem(x), x % d, "{x} % {d}");
                assert_eq!(div.div_ceil(x), x.div_ceil(d), "{x} /^ {d}");
            }
        }
    }

    #[test]
    fn address_maps_hash_like_any_map() {
        let mut m = AddrMap::default();
        for a in (0..1000u64).map(|a| a * 4) {
            *m.entry(a).or_insert(0u64) += a;
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&400), Some(&400));
        assert!(m.remove(&8).is_some() && !m.contains_key(&8));
    }

    #[test]
    fn mean_latency_is_sum_over_requests() {
        let mut s = NetStats::default();
        assert_eq!(s.mean_latency(), 0.0);
        s.requests = 4;
        s.latency_sum = 1000;
        assert_eq!(s.mean_latency(), 250.0);
    }
}
