//! End-to-end results-invariance guard for the data path.
//!
//! The free-space / GC subsystem is a pure data-structure speedup: under the
//! default `FirstFree` placement policy the simulated physics — allocation
//! order, page addresses, command timing — must be exactly what the
//! scan-era code produced. This test pins a small campaign's rendered
//! report, byte for byte, against a golden file generated before the
//! refactor, and additionally checks that the rendering is identical when
//! the campaign is fanned across worker threads. A third test pins the
//! exact outputs of an overwrite churn with watermark GC, which the
//! campaign never reaches.
//!
//! Regenerate the golden file (only when an *intentional* physics change
//! lands) with:
//! ```text
//! FA_BLESS_GOLDEN=1 cargo test --test results_golden
//! ```

use fa_bench::report::Table;
use fa_bench::runner::{
    homogeneous_workload, run_pairs_with_threads, ExperimentScale, UnifiedOutcome,
};
use fa_kernel::model::Application;
use fa_platform::mem::Scratchpad;
use fa_platform::PlatformSpec;
use fa_sim::time::SimTime;
use fa_workloads::polybench::PolyBench;
use flashabacus::config::FlashAbacusConfig;
use flashabacus::scheduler::SchedulerPolicy;
use flashabacus::storengine::Storengine;
use flashabacus::Flashvisor;
use std::path::PathBuf;

/// The pinned campaign: two homogeneous PolyBench workloads, every system,
/// at a fixed explicit scale (never read from the environment, so the test
/// result does not depend on `FA_DATA_SCALE`).
fn workloads() -> Vec<(String, Vec<Application>)> {
    let scale = ExperimentScale { data_scale: 512 };
    vec![
        (
            "GEMM".to_string(),
            homogeneous_workload(PolyBench::Gemm, scale),
        ),
        (
            "ATAX".to_string(),
            homogeneous_workload(PolyBench::Atax, scale),
        ),
    ]
}

/// Renders the campaign with enough digits that any drift in simulated
/// physics — an allocation handed out in a different order, a page landing
/// on a different die, a GC pass running at a different instant — shows up
/// as a byte difference.
fn render(outcomes: &[UnifiedOutcome]) -> String {
    let mut table = Table::new(
        "Golden campaign: homogeneous GEMM + ATAX at 1/512 scale",
        &[
            "Workload",
            "System",
            "total_s",
            "throughput_mb_s",
            "energy_j",
            "latency_avg_s",
            "completions",
        ],
    );
    for out in outcomes {
        table.row(vec![
            out.workload.clone(),
            out.system.label().to_string(),
            format!("{:.9}", out.total_seconds),
            format!("{:.6}", out.throughput_mb_s),
            format!("{:.6}", out.total_energy_j()),
            format!("{:.9}", out.latency_min_avg_max.1),
            format!("{}", out.completion_times.len()),
        ]);
    }
    table.render()
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("small_campaign.txt")
}

#[test]
fn default_policy_report_is_byte_identical_to_golden() {
    let rendered = render(&run_pairs_with_threads(&workloads(), 1));
    let path = golden_path();
    if std::env::var("FA_BLESS_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless it first",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "campaign report drifted from the golden bytes — the default \
         FirstFree data path is no longer reproducing the recorded physics"
    );
}

#[test]
fn report_is_deterministic_across_thread_counts() {
    let w = workloads();
    let serial = render(&run_pairs_with_threads(&w, 1));
    let parallel = render(&run_pairs_with_threads(&w, 4));
    assert_eq!(serial, parallel, "FA_THREADS=1 vs 4 rendering diverged");
}

/// One churn round on a small device, driven straight through Flashvisor
/// and Storengine: 300 overwrite sections of a narrow logical window (with
/// hot/cold separation live) interleaved with watermark-triggered GC
/// passes. The golden campaign never trips the GC watermark, so this is
/// the test that pins the write and erase side of the data path (every
/// reclaimed row here is pure garbage, so nothing migrates). The digest
/// records every completion instant plus the final bookkeeping totals,
/// so a single reordered effect changes it.
fn churn_digest() -> String {
    let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
    config.gc_low_watermark = 0.88;
    config.hot_overwrite_threshold = Some(3);
    let mut v = Flashvisor::new(config);
    let mut s = Storengine::new(config);
    let mut sp = Scratchpad::new(&PlatformSpec::paper_prototype());
    let group_bytes = config.page_group_bytes;
    let mut now_us = 1u64;
    let mut digest = String::new();
    for round in 0..300u64 {
        let lg = round % 14;
        let groups = 1 + round % 3;
        now_us += 53;
        let c = v
            .write_section(
                SimTime::from_us(now_us),
                lg * group_bytes,
                groups * group_bytes,
                &mut sp,
            )
            .unwrap_or_else(|e| panic!("churn write round {round}: {e:?}"));
        digest.push_str(&format!("w {lg} {groups} {}\n", c.finished.as_ns()));
        while s.gc_needed(&v) {
            now_us += 211;
            let out = s
                .collect_garbage(SimTime::from_us(now_us), &mut v)
                .expect("churn gc");
            digest.push_str(&format!(
                "gc {} {} {}\n",
                out.groups_reclaimed,
                out.pages_migrated,
                out.finished.as_ns()
            ));
        }
    }
    let fv = v.stats();
    let se = s.stats();
    digest.push_str(&format!(
        "stats {} {} {} {} {} {} {} {}\n",
        fv.group_writes,
        fv.overwritten_groups,
        fv.hot_group_writes,
        fv.cold_group_writes,
        fv.hot_steered_writes,
        se.erases,
        se.groups_reclaimed,
        se.pages_migrated,
    ));
    digest.push_str(&format!(
        "valid {} free {}\n",
        v.backbone().total_valid_pages(),
        v.free_physical_groups()
    ));
    digest
}

/// FNV-1a over the digest bytes: the pinned value stays one line.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn churn_round_digest_is_pinned() {
    let digest = churn_digest();
    let tail: Vec<&str> = digest.lines().rev().take(2).collect();
    assert_eq!(
        tail,
        ["valid 32 free 3616", "stats 600 584 552 48 552 10 160 0"],
        "churn totals drifted"
    );
    assert!(
        digest.lines().any(|l| l.starts_with("gc ")),
        "the churn never ran a GC pass"
    );
    assert_eq!(
        format!("{:016x}", fnv1a(digest.as_bytes())),
        "22be7f8de97c605a",
        "churn completion instants drifted from the recorded write/GC physics"
    );
}
