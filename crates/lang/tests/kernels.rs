//! End-to-end kernel-language tests: compile, run on the machine (under
//! several switch models, grouped and ungrouped), verify results on the
//! host.

use mtsim_core::{Machine, MachineConfig, SwitchModel};
use mtsim_lang::compile;
use mtsim_mem::SharedMemory;
use mtsim_opt::group_shared_loads;

fn run(
    src: &str,
    procs: usize,
    threads: usize,
    model: SwitchModel,
    init: &[(u64, i64)],
) -> SharedMemory {
    let unit = compile("kernel", src, procs * threads).expect("compile");
    let program = if model.uses_explicit_switch() {
        group_shared_loads(&unit.program).program
    } else {
        unit.program.clone()
    };
    let mut mem = SharedMemory::new(unit.shared_words());
    for &(a, v) in init {
        mem.write_i64(a, v);
    }
    let mut cfg = MachineConfig::new(model, procs, threads);
    cfg.max_cycles = 100_000_000;
    Machine::new(cfg, &program, mem).run().expect("run").shared
}

#[test]
fn histogram_kernel_counts_correctly() {
    let src = r#"
        shared int items[64];
        shared int bins[8];
        fn main() {
            int i = tid;
            while (i < 64) {
                int v = items[i];
                faa(bins[v & 7], 1);
                i = i + nthreads;
            }
        }
    "#;
    let unit = compile("hist", src, 4).unwrap();
    let items_base = unit.layout.base("items").unwrap();
    let bins_base = unit.layout.base("bins").unwrap();

    let init: Vec<(u64, i64)> = (0..64).map(|k| (items_base + k, (k * k % 23) as i64)).collect();
    let mem = run(src, 2, 2, SwitchModel::SwitchOnLoad, &init);

    let mut want = [0i64; 8];
    for k in 0..64u64 {
        want[((k * k % 23) & 7) as usize] += 1;
    }
    for (k, &w) in want.iter().enumerate() {
        assert_eq!(mem.read_i64(bins_base + k as u64), w, "bin {k}");
    }
}

#[test]
fn barrier_and_reduction_kernel() {
    let src = r#"
        shared int partial[16];
        shared int total;
        barrier phase;
        fn main() {
            partial[tid] = tid * 10;
            barrier(phase);
            if (tid == 0) {
                int s = 0;
                for (int k = 0; k < nthreads; k = k + 1) {
                    s = s + partial[k];
                }
                total = s;
            }
        }
    "#;
    for model in [SwitchModel::SwitchOnLoad, SwitchModel::ExplicitSwitch] {
        let unit = compile("red", src, 8).unwrap();
        let total = unit.layout.base("total").unwrap();
        let mem = run(src, 4, 2, model, &[]);
        assert_eq!(mem.read_i64(total), (0..8).map(|t| t * 10).sum::<i64>(), "{model}");
    }
}

#[test]
fn lock_kernel_serializes() {
    let src = r#"
        shared int counter;
        lock l;
        fn main() {
            for (int i = 0; i < 5; i = i + 1) {
                acquire(l);
                counter = counter + 1;
                release(l);
            }
        }
    "#;
    let unit = compile("lk", src, 6).unwrap();
    let counter = unit.layout.base("counter").unwrap();
    for model in [SwitchModel::SwitchOnLoad, SwitchModel::ConditionalSwitch] {
        let mem = run(src, 3, 2, model, &[]);
        assert_eq!(mem.read_i64(counter), 6 * 5, "{model}");
    }
}

#[test]
fn float_kernel_with_sqrt_and_conversions() {
    let src = r#"
        shared float xs[32];
        shared float norms[32];
        fn main() {
            int i = tid;
            while (i < 32) {
                float v = xs[i];
                norms[i] = sqrt(v * v + 1.0);
                i = i + nthreads;
            }
        }
    "#;
    let unit = compile("fk", src, 4).unwrap();
    let xs = unit.layout.base("xs").unwrap();
    let norms = unit.layout.base("norms").unwrap();

    let mut mem = SharedMemory::new(unit.shared_words());
    for k in 0..32u64 {
        mem.write_f64(xs + k, k as f64 * 0.5 - 4.0);
    }
    let mut cfg = MachineConfig::new(SwitchModel::SwitchOnUse, 2, 2);
    cfg.max_cycles = 100_000_000;
    let out = Machine::new(cfg, &unit.program, mem).run().unwrap().shared;
    for k in 0..32u64 {
        let v = k as f64 * 0.5 - 4.0;
        assert_eq!(out.read_f64(norms + k), (v * v + 1.0).sqrt(), "norm {k}");
    }
}

#[test]
fn local_arrays_give_private_scratch() {
    // Each thread builds a private table, then publishes one entry.
    let src = r#"
        shared int out[8];
        fn main() {
            local int scratch[16];
            for (int i = 0; i < 16; i = i + 1) {
                scratch[i] = i * (tid + 1);
            }
            out[tid] = scratch[10];
        }
    "#;
    let unit = compile("loc", src, 8).unwrap();
    let out_base = unit.layout.base("out").unwrap();
    let mem = run(src, 4, 2, SwitchModel::SwitchOnLoad, &[]);
    for t in 0..8 {
        assert_eq!(mem.read_i64(out_base + t), 10 * (t as i64 + 1), "thread {t}");
    }
}

#[test]
fn compiled_kernels_group_like_handwritten_code() {
    // A 4-load stencil written in the language should group under the
    // explicit-switch pass just like builder-emitted code.
    let src = r#"
        shared float a[64];
        shared float b[64];
        fn main() {
            for (int i = 1; i < 63; i = i + 1) {
                b[i] = (a[i - 1] + a[i + 1]) + (a[i] * 2.0);
            }
        }
    "#;
    let unit = compile("stencil", src, 1).unwrap();
    let g = group_shared_loads(&unit.program);
    assert!(g.stats.max_group() >= 3, "{:?}", g.stats);
}

#[test]
fn type_errors_are_caught() {
    let cases = [
        ("fn main() { int x = 1.5; }", "type"),
        ("fn main() { float y = 1; }", "type"),
        ("fn main() { int x = 1 + 1.0; }", "differ"),
        ("shared int a[4]; fn main() { float z = a[0]; }", "type"),
        ("fn main() { int x = sqrt(4); }", "float"),
        ("fn main() { barrier(nope); }", "barrier"),
        ("fn main() { acquire(nope); }", "lock"),
        ("fn main() { int x = y; }", "unknown"),
        ("fn main() { int x = 0; int x = 1; }", "already declared"),
        ("shared float f; fn main() { faa(f, 1); }", "shared int"),
    ];
    for (src, needle) in cases {
        let e = compile("bad", src, 2).unwrap_err();
        assert!(e.message.contains(needle), "source: {src}\nexpected '{needle}' in: {e}");
    }
}

#[test]
fn scoping_isolates_blocks() {
    let src = r#"
        shared int out;
        fn main() {
            int x = 1;
            { int y = 2; x = x + y; }
            { int y = 3; x = x + y; }
            if (tid == 0) { out = x; }
        }
    "#;
    let unit = compile("scope", src, 2).unwrap();
    let out = unit.layout.base("out").unwrap();
    let mem = run(src, 1, 2, SwitchModel::SwitchOnLoad, &[]);
    assert_eq!(mem.read_i64(out), 6);
}

#[test]
fn use_out_of_scope_is_an_error() {
    let e = compile("oos", "fn main() { { int y = 2; } int z = y; }", 1).unwrap_err();
    assert!(e.message.contains("unknown name 'y'"), "{e}");
}

#[test]
fn constant_indices_are_bounds_checked() {
    let e = compile("oob", "shared int a[4]; fn main() { a[4] = 1; }", 1).unwrap_err();
    assert!(e.message.contains("out of bounds"), "{e}");
    let e = compile("oob", "shared int a[4]; fn main() { int x = a[9]; }", 1).unwrap_err();
    assert!(e.message.contains("out of bounds"), "{e}");
    let e = compile("oob", "fn main() { local int s[2]; s[2] = 0; }", 1).unwrap_err();
    assert!(e.message.contains("out of bounds"), "{e}");
}

/// Array sizes are summed with checked arithmetic and capped, so a unit
/// never asks for a wrapped or unbounded memory: three arrays of 9e18
/// words used to wrap and place the third at a small base.
#[test]
fn array_sizes_past_the_caps_are_errors_at_the_array() {
    use mtsim_lang::{MAX_LOCAL_WORDS, MAX_SHARED_WORDS};
    let huge = "9000000000000000000";
    let src = format!(
        "shared int a[{huge}];\nshared int b[{huge}];\nshared int c[{huge}];\nfn main() {{ }}"
    );
    let e = compile("wrap", &src, 1).unwrap_err();
    assert_eq!((e.line, e.col), (1, 12), "{e}");
    assert!(e.message.contains(&format!("cap of {MAX_SHARED_WORDS} words")), "{e}");

    // The cap itself fits; one word more is refused at the array that
    // crosses it, counting the lock declared before it.
    let half = MAX_SHARED_WORDS / 2;
    let fits = format!("shared int a[{half}];\nshared float b[{}];\nfn main() {{ }}", half);
    assert_eq!(compile("fits", &fits, 1).unwrap().shared_words(), MAX_SHARED_WORDS);
    let over = format!("lock l;\nshared int a[{half}];\n  shared int b[{half}];\nfn main() {{ }}");
    let e = compile("over", &over, 1).unwrap_err();
    assert_eq!((e.line, e.col), (3, 14), "{e}");

    let local = |n: u64| format!("fn main() {{\n    local int s[{n}];\n    local float t[1];\n}}");
    let unit = compile("local", &local(MAX_LOCAL_WORDS - 1), 1).unwrap();
    assert_eq!(unit.program.local_words(), MAX_LOCAL_WORDS);
    let e = compile("local", &local(MAX_LOCAL_WORDS), 1).unwrap_err();
    assert_eq!((e.line, e.col), (3, 17), "{e}");
    assert!(e.message.starts_with("local memory"), "{e}");
    let e = compile("local", &local(u64::MAX >> 1), 1).unwrap_err();
    assert_eq!((e.line, e.col), (2, 15), "{e}");
}
