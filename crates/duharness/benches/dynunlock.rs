//! The DynUnlock reproduction table (paper Tables II/III shape).
//!
//! Locks each configured benchmark profile with a random EFF-Dyn instance
//! and times the full attack: DIP loop, linear seed recovery, and
//! verification probes. Emits `BENCH_dynunlock.json` with per-row
//! `dip_iterations` / `solve_ns` / `oracle_queries` metrics.
//!
//! `BENCH_SMOKE=1` runs the reduced CI configuration.

fn main() {
    let cfg = duharness::HarnessConfig::from_env();
    println!(
        "dynunlock reproduction: {} profiles, scale {}, key width {} (sweep {:?})",
        cfg.profiles.len(),
        cfg.scale,
        cfg.key_width,
        cfg.width_sweep
    );
    let rows = duharness::run_profiles(&cfg);
    print_rows(&rows);
    let mut reporter = bench::Reporter::new("dynunlock");
    duharness::record(&rows, &mut reporter);
    reporter.finish();
}

fn print_rows(rows: &[duharness::AttackRow]) {
    duharness::print_table(rows);
    let total_dips: usize = rows.iter().map(|r| r.unlock.dip_iterations).sum();
    println!(
        "all {} profiles unlocked ({} DIPs total)",
        rows.len(),
        total_dips
    );
}
