//! Cross-crate integration: the full attack pipeline, end to end.

#![allow(clippy::field_reassign_with_default)] // building configs by mutation is the intended style

use pacman::attack::fault::Tolerance;
use pacman::isa::PacKey;
use pacman::kernel::kext::cpp::WIN_MAGIC;
use pacman::prelude::*;

fn quiet() -> SystemConfig {
    let mut cfg = SystemConfig::default();
    cfg.machine.os_noise = 0.0;
    cfg
}

#[test]
fn oracle_brute_force_recovers_a_pac_without_crashes() {
    let mut sys = System::boot(quiet());
    let set = sys.pick_quiet_dtlb_set();
    let target = sys.alloc_target(set);
    let true_pac = sys.true_pac(target);

    let oracle = DataPacOracle::new(&mut sys).expect("oracle setup").with_samples(3);
    let mut bf = BruteForcer::new(oracle);
    let window_start = true_pac.wrapping_sub(16);
    let outcome = bf
        .brute(&mut sys, target, (0..64u16).map(|i| window_start.wrapping_add(i)))
        .expect("brute force runs");
    assert_eq!(outcome.found, Some(true_pac));
    assert_eq!(outcome.crashes, 0);
    assert_eq!(
        BruteForcer::<DataPacOracle>::classify(&outcome, true_pac),
        BruteVerdict::TruePositive
    );
}

#[test]
fn instruction_oracle_brute_force_also_works() {
    let mut sys = System::boot(quiet());
    let set = sys.pick_quiet_dtlb_set();
    let target = sys.alloc_target(set);
    let true_pac = sys.true_pac(target);

    let oracle = InstrPacOracle::new(&mut sys).expect("oracle setup").with_samples(3);
    let mut bf = BruteForcer::new(oracle);
    let outcome = bf
        .brute(&mut sys, target, (0..16u16).map(|i| true_pac.wrapping_sub(4).wrapping_add(i)))
        .expect("brute force runs");
    assert_eq!(outcome.found, Some(true_pac));
    assert_eq!(outcome.crashes, 0);
}

#[test]
fn jump2win_hijacks_the_kernel_without_a_single_crash() {
    let sys = System::boot(quiet());
    let t_ia = sys.true_pac_with_salt(PacKey::Ia, sys.cpp.win_fn);
    let t_da = sys.true_pac_with_salt(PacKey::Da, sys.cpp.obj1);

    let windows = [(t_ia.wrapping_sub(5), 16), (t_da.wrapping_sub(5), 16)];
    let (report, _) = parallel_jump2win(&quiet(), windows, 1, false, &Tolerance::default())
        .expect("attack succeeds");

    assert!(report.hijacked, "win() must have executed at EL1");
    assert_eq!(report.crashes, 0, "PACMAN must be crash-free");
    assert_eq!(report.pac_win, t_ia);
    assert_eq!(report.pac_vtable, t_da);
}

#[test]
fn naive_brute_force_crashes_and_never_wins() {
    // The security-by-crash baseline PACMAN defeats: guessing PACs
    // architecturally panics the kernel on every wrong guess, and each
    // reboot renews the keys, so progress is impossible.
    let mut sys = System::boot(quiet());
    let target = sys.cpp.win_fn;
    let mut crashes = 0;
    for guess in 0..8u16 {
        // Overflow object2's vtable pointer with an unauthenticated
        // fake, then dispatch — the paper's "simple bruteforcing".
        let fake = pacman::isa::ptr::with_pac_field(target, guess);
        let mut payload = vec![0u8; 56];
        payload[0..8].copy_from_slice(&fake.to_le_bytes());
        payload[48..56]
            .copy_from_slice(&pacman::isa::ptr::with_pac_field(sys.cpp.obj1, guess).to_le_bytes());
        let buf = sys.write_payload(&payload);
        sys.kernel
            .syscall(&mut sys.machine, sys.cpp.overflow, &[buf, 56])
            .expect("overflow syscall itself is fine");
        if sys.kernel.syscall(&mut sys.machine, sys.cpp.dispatch, &[0, 0]).is_err() {
            crashes += 1;
            // A reboot invalidated every PAC; re-construct the victim
            // object graph (as the restarted service would).
            sys.cpp.initialize_objects(&mut sys.kernel, &mut sys.machine);
        }
    }
    assert_eq!(crashes, 8, "every architectural wrong guess must panic the kernel");
    assert_eq!(sys.kernel.crash_count(), 8);
    assert_ne!(sys.cpp.flag_value(&sys.machine), WIN_MAGIC);
}

#[test]
fn oracle_verdicts_survive_os_noise_with_sampling() {
    // §8.2 protocol under noise: median-of-5, no false positives across a
    // spread of wrong guesses.
    let mut sys = System::boot(SystemConfig::default()); // noise on
    let set = sys.pick_quiet_dtlb_set();
    let target = sys.alloc_target(set);
    let true_pac = sys.true_pac(target);
    let mut oracle = DataPacOracle::new(&mut sys).expect("oracle").with_samples(5);

    assert!(oracle.test_pac(&mut sys, target, true_pac).expect("trial").is_correct());
    for i in 1..=10u16 {
        let wrong = true_pac ^ (i * 257);
        let v = oracle.test_pac(&mut sys, target, wrong).expect("trial");
        assert!(!v.is_correct(), "false positive at {wrong:#x}: {v:?}");
    }
    assert_eq!(sys.kernel.crash_count(), 0);
}

#[test]
fn keys_change_across_boots_and_so_do_pacs() {
    let mut cfg1 = quiet();
    cfg1.kernel_seed = 1;
    let mut cfg2 = quiet();
    cfg2.kernel_seed = 2;
    let mut sys1 = System::boot(cfg1);
    let mut sys2 = System::boot(cfg2);
    let t1 = sys1.alloc_target(9);
    let t2 = sys2.alloc_target(9);
    assert_eq!(t1, t2, "same layout across boots");
    assert_ne!(sys1.true_pac(t1), sys2.true_pac(t2), "per-boot keys must change PACs");
}

#[test]
fn deterministic_given_seeds() {
    let run = || {
        let mut sys = System::boot(quiet());
        let set = sys.pick_quiet_dtlb_set();
        let target = sys.alloc_target(set);
        let true_pac = sys.true_pac(target);
        let mut oracle = DataPacOracle::new(&mut sys).expect("oracle");
        let v1 = oracle.test_pac(&mut sys, target, true_pac).expect("trial");
        let v2 = oracle.test_pac(&mut sys, target, true_pac ^ 1).expect("trial");
        (true_pac, v1.median_misses, v2.median_misses, sys.machine.cycles)
    };
    assert_eq!(run(), run(), "identical seeds must give identical runs");
}
