//! Behavioral tests of the engine under modeled interconnection networks:
//! topologies change timing, never results, and the default `constant`
//! topology is bit-identical to a machine with no network at all.

use mtsim_asm::Program;
use mtsim_asm::ProgramBuilder;
use mtsim_core::{Machine, MachineConfig, NetworkConfig, SwitchModel, Topology};
use mtsim_mem::SharedMemory;

fn memory_image(shared: &SharedMemory) -> Vec<u64> {
    (0..shared.len()).map(|a| shared.read(a)).collect()
}

/// Threads hammer a shared counter with fetch-and-adds and read a few
/// read-only shared words — a hot-spot kernel whose final memory is
/// order-insensitive, so every topology must agree on it. (The *observed*
/// F&A old values are interleaving-dependent, under a network exactly as
/// under a different constant latency, so they stay thread-private here.)
fn hotspot_kernel(iters: i64) -> Program {
    let mut b = ProgramBuilder::new("hot");
    let acc = b.def_i("acc", 0);
    b.for_range("i", 0, iters, |b, i| {
        let _old = b.def_i("old", b.fetch_add(b.const_i(0), 1));
        let v = b.def_i("v", b.load_shared((i.get() & 7) + 8));
        b.assign(acc, acc.get() + v.get());
    });
    b.store_shared(b.tid() + 16, acc.get());
    b.finish()
}

fn run_with(net: NetworkConfig, procs: usize, threads: usize) -> mtsim_core::FinishedRun {
    let cfg = MachineConfig::new(SwitchModel::SwitchOnLoad, procs, threads).with_net(net);
    let mut shared = SharedMemory::new(64);
    for a in 8..16 {
        shared.write(a, a * 3);
    }
    Machine::new(cfg, &hotspot_kernel(20), shared).run().expect("run")
}

#[test]
fn all_topologies_agree_on_results() {
    let reference = run_with(NetworkConfig::constant(), 4, 2);
    assert_eq!(reference.shared.read(0), 4 * 2 * 20, "every F&A must land exactly once");
    for topology in Topology::ALL {
        for combining in [false, true] {
            let run = run_with(NetworkConfig::new(topology).with_combining(combining), 4, 2);
            assert_eq!(
                memory_image(&run.shared),
                memory_image(&reference.shared),
                "final memory diverged under {topology} (combining={combining})"
            );
        }
    }
}

#[test]
fn constant_topology_is_bit_identical_to_no_network() {
    // NetworkConfig::constant() must not even build a Network: stats and
    // timing match the paper-model machine exactly.
    let a = run_with(NetworkConfig::constant(), 2, 4);
    let cfg = MachineConfig::new(SwitchModel::SwitchOnLoad, 2, 4);
    let b = Machine::new(cfg, &hotspot_kernel(20), SharedMemory::new(64)).run().expect("run");
    assert_eq!(a.result.stats(), b.result.stats());
    assert!(a.result.net.is_none(), "constant topology must not simulate a network");
}

#[test]
fn contention_topologies_report_network_stats() {
    for topology in [Topology::Crossbar, Topology::Mesh, Topology::Butterfly] {
        let run = run_with(NetworkConfig::new(topology), 4, 4);
        let net = run.result.net.expect("net stats present");
        assert!(net.requests > 0, "{topology} carried no traffic");
        assert!(net.latency_sum > 0);
        assert!(run.result.stats().net_requests > 0);
    }
}

#[test]
fn combining_merges_hot_fetch_adds_and_helps_latency() {
    let plain = run_with(NetworkConfig::new(Topology::Butterfly), 8, 2);
    let combined = run_with(NetworkConfig::new(Topology::Butterfly).with_combining(true), 8, 2);
    let p = plain.result.net.expect("net stats");
    let c = combined.result.net.expect("net stats");
    assert_eq!(p.fa_combined, 0);
    assert!(c.fa_combined > 0, "hot-spot F&As must merge under combining");
    assert!(
        c.queue_cycles <= p.queue_cycles,
        "combining must not increase queueing ({} > {})",
        c.queue_cycles,
        p.queue_cycles
    );
    // Results still agree (checked exhaustively above), and the network
    // carried the same number of F&A requests either way.
    assert_eq!(c.fa_requests, p.fa_requests);
}

#[test]
fn offered_load_raises_modeled_latency() {
    // More threads per processor = more concurrent requests = queueing.
    let light = run_with(NetworkConfig::new(Topology::Mesh), 4, 1);
    let heavy = run_with(NetworkConfig::new(Topology::Mesh), 4, 8);
    let l = light.result.net.expect("net stats");
    let h = heavy.result.net.expect("net stats");
    assert!(
        h.mean_latency() > l.mean_latency(),
        "mean latency should rise with load: {} vs {}",
        h.mean_latency(),
        l.mean_latency()
    );
}

#[test]
fn max_size_networks_build_and_route() {
    use mtsim_core::{Network, MAX_TOTAL_THREADS};
    let last = MAX_TOTAL_THREADS - 1;
    for t in [Topology::Mesh, Topology::Crossbar, Topology::Butterfly] {
        let mut n = Network::new(NetworkConfig::new(t), MAX_TOTAL_THREADS, 200);
        // From the last processor to module 0: corner to corner on the mesh.
        let reply = n.round_trip(0, last, 0, 64, 96);
        assert!(reply > 0, "{t}");
        assert_eq!(n.stats().requests, 1, "{t}");
    }
    // A whole machine at the cap, one thread per processor, builds too.
    for t in [Topology::Mesh, Topology::Crossbar] {
        let cfg = MachineConfig::new(SwitchModel::SwitchOnLoad, MAX_TOTAL_THREADS, 1)
            .with_net(NetworkConfig::new(t));
        let prog = hotspot_kernel(1);
        assert!(Machine::try_new(cfg, &prog, SharedMemory::new(64)).is_ok(), "{t}");
    }
}
