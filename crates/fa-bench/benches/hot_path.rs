//! Criterion benchmark of the data-path hot loop: per-command cost of
//! `submit_batch` with the full campaign feature set live — per-owner QoS
//! tag admission, dense owner accounting, and valid-page group tracking.
//! The per-command `submit_tagged` sweep rides along as the baseline the
//! batched accounting is priced against, and the group-read and
//! group-program sweeps price the serial `submit_group` section loop;
//! `perfstat` records the same numbers into `BENCH_PR10.json`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fa_bench::perf::{
    group_program_sweep, group_read_sweep, hot_path_backbone, hot_path_sweep,
    hot_path_sweep_tagged, preloaded_hot_path_backbone,
};
use fa_sim::time::SimTime;

fn bench_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_path");
    // One sweep programs, reads, and erases the whole device; report
    // per-sweep time so the two paths are directly comparable.
    group.bench_function("submit_batch/device_sweep", |b| {
        b.iter_batched(
            hot_path_backbone,
            |mut backbone| criterion::black_box(hot_path_sweep(&mut backbone, SimTime::ZERO)),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("submit_tagged/device_sweep", |b| {
        b.iter_batched(
            hot_path_backbone,
            |mut backbone| {
                criterion::black_box(hot_path_sweep_tagged(&mut backbone, SimTime::ZERO))
            },
            BatchSize::LargeInput,
        )
    });
    // Section reads over a preloaded device, then section programs over
    // a freshly erased one, through the serial per-group loop.
    group.bench_function("group_read_sweep/serial_loop", |b| {
        b.iter_batched(
            preloaded_hot_path_backbone,
            |mut backbone| {
                criterion::black_box(group_read_sweep(&mut backbone, None, SimTime::ZERO))
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("group_program_sweep/serial_loop", |b| {
        b.iter_batched(
            hot_path_backbone,
            |mut backbone| {
                criterion::black_box(group_program_sweep(&mut backbone, None, SimTime::ZERO))
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_hot_path);
criterion_main!(benches);
