//! Criterion microbenchmarks of the workspace's own hot paths: QARMA
//! throughput, simulator instruction rate, and end-to-end oracle latency.

use criterion::{criterion_group, Criterion};
use pacman_core::oracle::{DataPacOracle, PacOracle};
use pacman_core::parallel::{oracle_distribution, Channel};
use pacman_core::telemetry::{recorded_test_pac, TrialLog};
use pacman_core::{System, SystemConfig};
use pacman_isa::{Asm, Inst, Reg};
use pacman_qarma::{PacComputer, Qarma64, QarmaKey};
use pacman_uarch::{Cache, CacheParams, Machine, MachineConfig, Perms, Tlb, TlbEntry, TlbParams};

fn bench_qarma(c: &mut Criterion) {
    let cipher = Qarma64::new(QarmaKey::new(0x0123456789abcdef, 0xfedcba9876543210));
    c.bench_function("qarma64_encrypt", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = cipher.encrypt(std::hint::black_box(x), 0x42);
            x
        })
    });
    let pacs = PacComputer::new(QarmaKey::new(1, 2), 48);
    c.bench_function("pac_compute", |b| {
        let mut p = 0u64;
        b.iter(|| {
            p = pacs.pac(std::hint::black_box(p | 0x4000), 7);
            p
        })
    });
}

fn bench_simulator(c: &mut Criterion) {
    c.bench_function("simulator_1k_insts", |b| {
        let cfg = MachineConfig { os_noise: 0.0, ..MachineConfig::default() };
        let mut m = Machine::new(cfg);
        let code = 0x40_0000u64;
        m.map_region(code, 4096, Perms::user_rwx());
        let mut a = Asm::new();
        let top = a.new_label();
        a.mov_imm64(Reg::X0, 250);
        a.bind(top);
        a.push(Inst::AddImm { rd: Reg::X1, rn: Reg::X1, imm: 1 });
        a.push(Inst::SubImm { rd: Reg::X0, rn: Reg::X0, imm: 1 });
        a.cbnz(Reg::X0, top);
        a.push(Inst::Hlt);
        m.load_program(code, &a.assemble().unwrap());
        b.iter(|| {
            m.cpu.pc = code;
            m.run(2_000).expect("program runs")
        })
    });
}

fn bench_oracle(c: &mut Criterion) {
    let mut cfg = SystemConfig::default();
    cfg.machine.os_noise = 0.0;
    let mut sys = System::boot(cfg);
    let set = sys.pick_quiet_dtlb_set();
    let target = sys.alloc_target(set);
    let true_pac = sys.true_pac(target);
    let mut oracle = DataPacOracle::new(&mut sys).expect("oracle");
    c.bench_function("pac_oracle_single_guess", |b| {
        b.iter(|| oracle.trial(&mut sys, target, std::hint::black_box(true_pac)).expect("trial"))
    });
}

/// The same oracle hot path through [`recorded_test_pac`], with telemetry
/// off (disabled log + registry: the one-branch fast path) and on
/// (enabled registry + per-trial records). The off variant must track
/// `pac_oracle_single_guess` — that is the "disabled path costs nothing"
/// claim, measured.
fn bench_oracle_telemetry(c: &mut Criterion) {
    let mut cfg = SystemConfig::default();
    cfg.machine.os_noise = 0.0;
    let mut sys = System::boot(cfg);
    let set = sys.pick_quiet_dtlb_set();
    let target = sys.alloc_target(set);
    let true_pac = sys.true_pac(target);
    let mut oracle = DataPacOracle::new(&mut sys).expect("oracle");

    let mut off_log = TrialLog::disabled();
    c.bench_function("pac_oracle_single_guess_telemetry_off", |b| {
        b.iter(|| {
            recorded_test_pac(
                &mut oracle,
                &mut sys,
                &mut off_log,
                target,
                std::hint::black_box(true_pac),
                Some(true_pac),
            )
            .expect("trial")
        })
    });

    sys.telemetry.set_enabled(true);
    let mut on_log = TrialLog::new();
    c.bench_function("pac_oracle_single_guess_telemetry_on", |b| {
        b.iter(|| {
            let v = recorded_test_pac(
                &mut oracle,
                &mut sys,
                &mut on_log,
                target,
                std::hint::black_box(true_pac),
                Some(true_pac),
            )
            .expect("trial");
            // Drain per iteration so memory stays bounded; the take is
            // part of the telemetry-on cost being measured.
            std::hint::black_box(on_log.take());
            v
        })
    });
}

criterion_group! {
    name = perf;
    config = Criterion::default().sample_size(20);
    targets = bench_qarma, bench_simulator, bench_oracle, bench_oracle_telemetry
}

/// Mean ns/iteration of `f` over a fixed batch (the artefact's own
/// quick measurement — the criterion report stays the reference
/// numbers; these mirror them machine-readably).
fn time_ns<O>(iters: u32, mut f: impl FnMut() -> O) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn write_artifact() {
    let cipher = Qarma64::new(QarmaKey::new(0x0123456789abcdef, 0xfedcba9876543210));
    let mut x = 0u64;
    let qarma_ns = time_ns(200_000, || {
        x = cipher.encrypt(std::hint::black_box(x), 0x42);
        x
    });

    let mut cfg = SystemConfig::default();
    cfg.machine.os_noise = 0.0;
    let mut sys = System::boot(cfg);
    let set = sys.pick_quiet_dtlb_set();
    let target = sys.alloc_target(set);
    let true_pac = sys.true_pac(target);
    let mut oracle = DataPacOracle::new(&mut sys).expect("oracle");
    let oracle_ns = time_ns(50, || oracle.trial(&mut sys, target, true_pac).expect("trial"));

    let mut off_log = TrialLog::disabled();
    let off_ns = time_ns(50, || {
        recorded_test_pac(&mut oracle, &mut sys, &mut off_log, target, true_pac, Some(true_pac))
            .expect("trial")
    });
    sys.telemetry.set_enabled(true);
    let mut on_log = TrialLog::new();
    let on_ns = time_ns(50, || {
        let v =
            recorded_test_pac(&mut oracle, &mut sys, &mut on_log, target, true_pac, Some(true_pac))
                .expect("trial");
        std::hint::black_box(on_log.take());
        v
    });

    let mut art = pacman_bench::Artifact::new("perf_micro", "workspace hot-path wall-clock");
    art.float("qarma_encrypt_ns", qarma_ns)
        .float("oracle_guess_ns", oracle_ns)
        .float("oracle_guess_telemetry_off_ns", off_ns)
        .float("oracle_guess_telemetry_on_ns", on_ns);
    art.write();
}

/// Trial pairs for the serial-vs-parallel throughput comparison: enough
/// work per shard that thread startup is amortised, small enough to stay
/// seconds-long on one core.
const PARALLEL_TRIALS: usize = 240;

/// Wrong-guess schedule shared by both timed runs (and thus by every
/// shard): a pure function of the global trial index.
fn wrong_guess(i: usize, true_pac: u16) -> u16 {
    true_pac ^ (1 + i as u16)
}

/// One timed `oracle_distribution` run; returns (seconds, trials/sec).
fn timed_distribution(cfg: &SystemConfig, jobs: usize) -> (f64, f64) {
    let start = std::time::Instant::now();
    let tol = pacman_core::fault::Tolerance::from_env();
    let out =
        oracle_distribution(cfg, Channel::Data, 1, PARALLEL_TRIALS, jobs, false, &tol, wrong_guess)
            .expect("distribution");
    assert_eq!(out.trials as usize, PARALLEL_TRIALS);
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (secs, PARALLEL_TRIALS as f64 / secs)
}

/// Hot-loop ns/access of the flat-storage TLB (insert+lookup over a
/// working set that spans every set and overflows the ways, so the
/// rotation/eviction paths are exercised, not just the MRU hit).
fn tlb_access_ns() -> f64 {
    let mut tlb = Tlb::new(TlbParams { ways: 12, sets: 256 });
    let perms = Perms::user_rwx();
    let span = 256 * 16; // 16 conflicting entries per set
    let mut vpn = 0u64;
    time_ns(400_000, || {
        vpn = (vpn + 257) % span;
        tlb.insert(TlbEntry { vpn, pfn: vpn ^ 0x5a5a, perms });
        tlb.lookup(vpn.wrapping_mul(0x9e37) % span)
    })
}

/// Hot-loop ns/access of the flat-storage L1D model (same mixed
/// fill/probe pattern over a conflict-heavy footprint).
fn cache_access_ns() -> f64 {
    let mut cache = Cache::new(CacheParams { ways: 8, sets: 128, line: 64 }, Some(4));
    let span = 128u64 * 64 * 16;
    let mut pa = 0u64;
    time_ns(400_000, || {
        pa = (pa + 64 * 129) % span;
        cache.access(pa)
    })
}

/// The PR's headline measurement: serial vs sharded trial throughput
/// plus the allocation-free set-storage access latencies, written as the
/// `perf_parallel` artifact. With one resolved worker the parallel run
/// *is* the serial run (jobs=1), so the speedup is reported as exactly
/// 1.0; real scaling needs real cores.
fn write_parallel_artifact() {
    let jobs = pacman_bench::jobs();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut cfg = SystemConfig::default();
    cfg.machine.os_noise = 0.0;

    let (serial_secs, serial_tps) = timed_distribution(&cfg, 1);
    let (parallel_tps, speedup) = if jobs <= 1 {
        (serial_tps, 1.0)
    } else {
        let (par_secs, par_tps) = timed_distribution(&cfg, jobs);
        // On a single core, extra workers can only measure scheduler
        // contention, not scaling — the speedup attributable to
        // parallelism is 1.0 by definition there (the raw throughputs
        // above still expose the contention).
        (par_tps, if cores < 2 { 1.0 } else { serial_secs / par_secs })
    };
    let tlb_ns = tlb_access_ns();
    let cache_ns = cache_access_ns();

    println!("serial:   {serial_tps:8.1} trial pairs/sec (jobs=1)");
    println!("parallel: {parallel_tps:8.1} trial pairs/sec (jobs={jobs}, {cores} cores)");
    println!("speedup:  {speedup:.2}x");
    println!("tlb access:   {tlb_ns:.1} ns  |  cache access: {cache_ns:.1} ns");

    let mut art =
        pacman_bench::Artifact::new("perf_parallel", "parallel runner + flat set storage");
    art.num("jobs", jobs as u64)
        .num("cores", cores as u64)
        .num("trials", PARALLEL_TRIALS as u64)
        .float("trials_per_sec_serial", serial_tps)
        .float("trials_per_sec_parallel", parallel_tps)
        .float("speedup", speedup)
        .float("tlb_access_ns", tlb_ns)
        .float("cache_access_ns", cache_ns);
    art.write();

    // The CI gate: with real parallelism available, sharding must never
    // be a slowdown.
    assert!(
        jobs < 2 || cores < 2 || speedup >= 1.0,
        "parallel execution slower than serial: {speedup:.2}x at jobs={jobs} on {cores} cores"
    );
}

fn main() {
    perf();
    write_artifact();
    write_parallel_artifact();
}
