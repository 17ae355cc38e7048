//! The DynUnlock reproduction table (paper Tables II/III shape).
//!
//! Locks each [`duharness::HarnessConfig::full`] profile with a random
//! EFF-Dyn instance and times the full attack: DIP loop, linear seed
//! recovery, and verification probes. Prints one row per attack and
//! writes no file.

fn main() {
    let cfg = duharness::HarnessConfig::full();
    println!(
        "dynunlock reproduction: {} profiles, scale {}, key width {} (sweep {:?})",
        cfg.profiles.len(),
        cfg.scale,
        cfg.key_width,
        cfg.width_sweep
    );
    let rows = duharness::run_profiles(&cfg);
    duharness::print_table(&rows);
    let total_dips: usize = rows.iter().map(|r| r.unlock.dip_iterations).sum();
    println!(
        "all {} profiles unlocked ({} DIPs total)",
        rows.len(),
        total_dips
    );
}
