//! Golden-master regression tests: exact cycle counts for fixed
//! (benchmark, architecture, seed) triples.
//!
//! The simulator is fully deterministic, so any change to these numbers
//! means the *timing model changed* — which must be a conscious decision
//! (update the constants in the same commit and record why), never an
//! accident of refactoring. IPC-level tests elsewhere tolerate drift;
//! these do not.

use rfcache_core::{RegFileCacheConfig, RegFileConfig, SingleBankConfig};
use rfcache_sim::RunSpec;

struct Golden {
    bench: &'static str,
    rf: RegFileConfig,
    cycles: u64,
    committed: u64,
    mispredicted: u64,
}

fn goldens() -> Vec<Golden> {
    // Regenerated when the workspace switched to the vendored offline
    // `rand` shim (vendor/rand): the workload RNG stream changed from
    // crates.io SmallRng to xoshiro256++, which shifts every trace and
    // therefore every count. The timing model itself did not change.
    vec![
        Golden {
            bench: "li",
            rf: RegFileConfig::Single(SingleBankConfig::one_cycle()),
            cycles: 10_142,
            committed: 20_003,
            mispredicted: 725,
        },
        Golden {
            bench: "li",
            rf: RegFileConfig::Cache(RegFileCacheConfig::paper_default()),
            cycles: 11_133,
            committed: 20_003,
            mispredicted: 725,
        },
        Golden {
            bench: "swim",
            rf: RegFileConfig::Single(SingleBankConfig::two_cycle_single_bypass()),
            cycles: 10_920,
            committed: 20_000,
            mispredicted: 130,
        },
        Golden {
            bench: "go",
            rf: RegFileConfig::Cache(RegFileCacheConfig::paper_default()),
            cycles: 15_726,
            committed: 20_001,
            mispredicted: 1_268,
        },
    ]
}

#[test]
fn timing_model_is_frozen() {
    for g in goldens() {
        let m = RunSpec::known(g.bench, g.rf).insts(20_000).warmup(5_000).seed(7).run().metrics;
        assert_eq!(
            (m.cycles, m.committed, m.mispredicted),
            (g.cycles, g.committed, g.mispredicted),
            "{} on {}: timing model changed — if intentional, update this golden",
            g.bench,
            g.rf,
        );
    }
}

#[test]
fn misprediction_counts_are_architecture_independent() {
    // The front end sees the same trace whatever the register file is;
    // only the *penalty* differs. Same seed ⇒ same mispredict count.
    let a = RunSpec::known("li", RegFileConfig::Single(SingleBankConfig::one_cycle()))
        .insts(20_000)
        .warmup(5_000)
        .seed(7)
        .run();
    let b = RunSpec::known("li", RegFileConfig::Cache(RegFileCacheConfig::paper_default()))
        .insts(20_000)
        .warmup(5_000)
        .seed(7)
        .run();
    assert_eq!(a.metrics.mispredicted, b.metrics.mispredicted);
    assert!(a.metrics.cycles < b.metrics.cycles, "rfc pays for transfers");
}

/// FNV-1a of a value's `Debug` text: pins every field of a
/// [`SimMetrics`](rfcache_repro::prelude::SimMetrics) or a trace
/// instruction, not just the counts the table above selects.
fn debug_fnv(value: &impl std::fmt::Debug) -> u64 {
    rfcache_sim::fnv1a_64(format!("{value:?}").bytes())
}

/// Full-metrics goldens for the register-file kinds the table above does
/// not cover, on load/store-heavy FP profiles as well as integer ones.
/// Each value is the FNV-1a of the whole `{metrics:?}` rendering, so a
/// drift in any counter — port stalls, transfers, occupancy histograms —
/// fails here.
#[test]
fn full_metrics_are_frozen_for_every_register_file_kind() {
    use rfcache_core::{OneLevelBankedConfig, ReplicatedBankConfig};
    let goldens: [(&str, RegFileConfig, u64); 6] = [
        ("applu", RegFileConfig::OneLevel(OneLevelBankedConfig::wallace(8)), 0x6013_4f9d_4f48_7374),
        ("gcc", RegFileConfig::OneLevel(OneLevelBankedConfig::wallace(8)), 0x45fd_1376_4bb5_35de),
        (
            "mgrid",
            RegFileConfig::Replicated(ReplicatedBankConfig::default()),
            0x743f_bebb_3118_e66d,
        ),
        (
            "mgrid",
            RegFileConfig::Cache(RegFileCacheConfig::paper_default().with_ports(4, 2, 2, 1)),
            0x16f8_de5c_5cf4_a7e6,
        ),
        (
            "go",
            RegFileConfig::Cache(RegFileCacheConfig::paper_default().with_ports(4, 2, 2, 1)),
            0x63d2_7d72_cae9_7bee,
        ),
        (
            "applu",
            RegFileConfig::Single(SingleBankConfig::two_cycle_single_bypass()),
            0x7f4a_82f7_4428_90c1,
        ),
    ];
    let mut drifted = Vec::new();
    for (bench, rf, want) in goldens {
        let m = RunSpec::known(bench, rf).insts(20_000).warmup(5_000).seed(7).run().metrics;
        let got = debug_fnv(&m);
        if got != want {
            drifted.push(format!("{bench} on {rf}: {got:#018x} (golden {want:#018x})"));
        }
    }
    assert!(
        drifted.is_empty(),
        "timing model changed — if intentional, update these goldens:\n{}",
        drifted.join("\n")
    );
}

/// Every synthetic trace stream is pinned: FNV-1a over the `Debug` text
/// of the first 50k instructions of each profile, plus one family
/// member, at seed 1. A generator rewrite must leave all of them intact.
#[test]
fn trace_streams_are_frozen() {
    use rfcache_workload::{family_member, suite_all, BenchProfile, TraceGenerator};
    const N: usize = 50_000;
    let goldens: [(&str, u64); 19] = [
        ("compress", 0x2ab9_be9e_c2b9_bc2b),
        ("gcc", 0x09be_9ad8_cd54_95c6),
        ("go", 0xe816_618a_1207_0f71),
        ("ijpeg", 0x1186_b2b8_dc29_acdc),
        ("li", 0xd931_343f_462f_03b5),
        ("m88ksim", 0x8a72_0710_ee88_8000),
        ("perl", 0x8207_e871_7730_e74e),
        ("vortex", 0xed10_e111_52f2_95e8),
        ("applu", 0x6af9_232c_d735_8a80),
        ("apsi", 0xdc0d_955c_d14f_7ddf),
        ("fpppp", 0xea37_9dc2_4cc0_bc37),
        ("hydro2d", 0x9246_1e1f_aa2e_33a2),
        ("mgrid", 0x5ac6_aae0_e41f_6ab3),
        ("su2cor", 0x383d_c07c_01a6_629b),
        ("swim", 0x1a81_7e67_96a3_e4bc),
        ("tomcatv", 0x786d_ceb5_d7a0_eed4),
        ("turb3d", 0xa5e2_5aa6_f8d4_35a4),
        ("wave5", 0x8dbd_ca2e_a51f_164f),
        ("gcc~3", 0x3a57_d9a0_a300_1a9a),
    ];
    let stream_fnv = |p: BenchProfile| {
        rfcache_sim::fnv1a_64(
            TraceGenerator::new(p, 1).take(N).flat_map(|inst| format!("{inst:?}").into_bytes()),
        )
    };
    let mut profiles: Vec<(String, BenchProfile)> =
        suite_all().into_iter().map(|p| (p.name.to_string(), p)).collect();
    let gcc = BenchProfile::by_name("gcc").unwrap();
    profiles.push(("gcc~3".to_string(), family_member(&gcc, 3)));
    assert_eq!(profiles.len(), goldens.len(), "every profile has a golden");
    let mut drifted = Vec::new();
    for ((name, p), (golden_name, want)) in profiles.into_iter().zip(goldens) {
        assert_eq!(name, golden_name);
        let got = stream_fnv(p);
        if got != want {
            drifted.push(format!("{name}: {got:#018x} (golden {want:#018x})"));
        }
    }
    assert!(
        drifted.is_empty(),
        "trace stream changed — if intentional, update these goldens:\n{}",
        drifted.join("\n")
    );
}
