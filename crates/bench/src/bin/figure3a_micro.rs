//! **Figure 3(a), bottom** — index-design microbenchmark:
//! VS-kNN vs VMIS-kNN-no-opt vs VMIS-kNN.
//!
//! The paper asks each variant to compute the `k = 100` closest sessions for
//! the test sessions of the ecom-1m dataset, for
//! `m ∈ {100, 250, 500, 1000}`, with six threads and ten repetitions, and
//! reports mean runtimes. Expected shape: both VMIS variants beat the scan
//! baseline 3–5×, and the micro-optimisations (early stopping + octonary
//! heaps) win another 6–12%. Our no-opt variant differs from VMIS-kNN only
//! in early stopping (the kernel's heap has one fixed arity, DESIGN.md §3),
//! so "opt gain" here is early stopping's alone.
//!
//! Run: `cargo run -p serenade-bench --release --bin figure3a_micro [--quick]`

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serenade_baselines::{vmis_noopt, VsKnnBaseline};
use serenade_bench::{prepare, print_table, BenchArgs};
use serenade_core::{SessionIndex, VmisConfig, VmisKnn};
use serenade_dataset::{Session, SyntheticConfig};

/// Computes neighbourhoods for all test sessions on `threads` threads and
/// returns the mean wall time per session in microseconds.
fn run_vmis(vmis: &VmisKnn, sessions: &[Session], threads: usize) -> f64 {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = vmis.scratch();
                loop {
                    // ORDERING: work-stealing ticket counter, partner: none.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(s) = sessions.get(i) else { break };
                    std::hint::black_box(vmis.neighbors_with_scratch(&s.items, &mut scratch));
                }
            });
        }
    });
    t0.elapsed().as_micros() as f64 / sessions.len() as f64
}

fn run_vsknn(vs: &VsKnnBaseline, sessions: &[Session], threads: usize) -> f64 {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // ORDERING: work-stealing ticket counter, partner: none.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(s) = sessions.get(i) else { break };
                std::hint::black_box(vs.neighbors(&s.items));
            });
        }
    });
    t0.elapsed().as_micros() as f64 / sessions.len() as f64
}

fn main() {
    let args = BenchArgs::from_env();
    let repetitions = if args.quick { 2 } else { 10 };
    let threads = 6;
    let config = SyntheticConfig::ecom_1m().scaled(0.5 * args.scale);
    let (_, split) = prepare(&config);
    let sessions: Vec<Session> =
        split.test.iter().take(args.max_events).cloned().collect();
    let index = Arc::new(SessionIndex::build(&split.train, 1_000).unwrap());
    println!(
        "Figure 3(a) bottom: {} sessions, k=100, {threads} threads, {repetitions} repetitions\n",
        sessions.len()
    );

    let mut rows = Vec::new();
    for m in [100usize, 250, 500, 1_000] {
        let mut cfg = VmisConfig::default();
        cfg.m = m;
        cfg.k = 100;
        let vs = VsKnnBaseline::new(Arc::clone(&index), cfg.clone()).unwrap();
        let noopt = vmis_noopt(Arc::clone(&index), cfg.clone()).unwrap();
        let vmis = VmisKnn::new(Arc::clone(&index), cfg).unwrap();

        let mut t_vs = 0.0;
        let mut t_noopt = 0.0;
        let mut t_vmis = 0.0;
        for _ in 0..repetitions {
            t_vs += run_vsknn(&vs, &sessions, threads);
            t_noopt += run_vmis(&noopt, &sessions, threads);
            t_vmis += run_vmis(&vmis, &sessions, threads);
        }
        let n = repetitions as f64;
        let (t_vs, t_noopt, t_vmis) = (t_vs / n, t_noopt / n, t_vmis / n);
        rows.push(vec![
            format!("m={m}"),
            format!("{t_vs:.1}"),
            format!("{t_noopt:.1}"),
            format!("{t_vmis:.1}"),
            format!("{:.1}x", t_vs / t_vmis),
            format!("{:.1}%", (t_noopt / t_vmis - 1.0) * 100.0),
        ]);
        eprintln!("m={m} done");
    }
    print_table(
        &[
            "sample size",
            "VS-kNN (us)",
            "VMIS-no-opt (us)",
            "VMIS-kNN (us)",
            "speedup vs VS",
            "opt gain",
        ],
        &rows,
    );
    println!(
        "\nPaper (Fig. 3a bottom): VMIS variants beat VS-kNN 3-5x at every m;\n\
         early stopping + octonary heaps add another 6-12% over no-opt.\n\
         Here no-opt only turns early stopping off: \"opt gain\" is early stopping's alone."
    );
}
