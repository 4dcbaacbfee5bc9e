//! The synthetic dynamic-trace generator.
//!
//! A [`TraceGenerator`] builds a static control-flow graph (basic blocks
//! ending in [`BranchSite`]s) from a [`BenchProfile`] and then walks it,
//! emitting an infinite, deterministic instruction stream whose mix,
//! dependence distances, branch behaviour, and memory access pattern match
//! the profile.

use crate::branches::{BranchBehavior, BranchSite};
use crate::memgen::AddressGenerator;
use crate::profile::BenchProfile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rfcache_isa::{ArchReg, OpClass, RegClass, TraceInst};

/// How many not-yet-consumed producers are eligible as dependence sources.
/// Kept below the destination round-robin period so entries rarely alias a
/// newer definition of the same architectural register.
const FRESH_WINDOW: usize = 16;
/// How many already-consumed values remain available for re-reads.
const REUSE_WINDOW: usize = 12;
/// Larger of the two pool capacities (scratch sizing in `pick_from_pool`).
const POOL_MAX: usize = if FRESH_WINDOW > REUSE_WINDOW { FRESH_WINDOW } else { REUSE_WINDOW };

/// Integer registers reserved as long-lived "globals" (stack pointer, base
/// pointers): r26..r31.
const INT_GLOBALS: std::ops::Range<u8> = 26..32;
/// FP globals (loop-invariant constants): f28..f31.
const FP_GLOBALS: std::ops::Range<u8> = 28..32;

/// A fixed-capacity pool of produced values with their chain depths,
/// oldest first. Each register occurs in it at most once: a value enters
/// only after every older entry for its register was purged.
#[derive(Debug, Clone, Copy)]
struct Pool<const N: usize> {
    items: [(ArchReg, u8); N],
    len: usize,
}

impl<const N: usize> Pool<N> {
    fn new() -> Self {
        Pool { items: [(ArchReg::int(0), 0); N], len: 0 }
    }

    fn as_slice(&self) -> &[(ArchReg, u8)] {
        &self.items[..self.len]
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes and returns entry `i`, keeping the rest in order.
    fn remove(&mut self, i: usize) -> (ArchReg, u8) {
        let entry = self.items[i];
        self.items.copy_within(i + 1..self.len, i);
        self.len -= 1;
        entry
    }

    /// Appends `entry` as the newest; when full, the oldest falls out.
    fn push(&mut self, entry: (ArchReg, u8)) {
        debug_assert!(
            self.as_slice().iter().all(|&(r, _)| r != entry.0),
            "{} is already pooled",
            entry.0
        );
        if self.len == N {
            self.remove(0);
        }
        self.items[self.len] = entry;
        self.len += 1;
    }

    /// Removes the entry for `reg`, if there is one.
    fn purge(&mut self, reg: ArchReg) {
        if let Some(i) = self.as_slice().iter().position(|&(r, _)| r == reg) {
            self.remove(i);
        }
    }
}

#[derive(Debug, Clone)]
struct Block {
    start_pc: u64,
    body_len: usize,
    site: BranchSite,
}

/// Deterministic synthetic instruction stream for one benchmark profile.
///
/// Implements `Iterator<Item = TraceInst>` and never terminates; callers
/// bound it with `take(n)` or by simulated instruction budget.
///
/// # Examples
///
/// ```
/// use rfcache_workload::{BenchProfile, TraceGenerator};
///
/// let p = BenchProfile::by_name("compress").unwrap();
/// let insts: Vec<_> = TraceGenerator::new(p, 1).take(1000).collect();
/// assert_eq!(insts.len(), 1000);
/// // Determinism: same seed, same trace.
/// let again: Vec<_> = TraceGenerator::new(p, 1).take(1000).collect();
/// assert_eq!(insts, again);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: BenchProfile,
    rng: SmallRng,
    blocks: Vec<Block>,
    current_block: usize,
    pos: usize, // 0..=body_len; == body_len means "emit the branch"
    /// Produced values not yet consumed, per class, with their dataflow
    /// chain depth (consume-once pool).
    fresh: [Pool<FRESH_WINDOW>; 2],
    /// Recently consumed values, per class (re-read pool).
    reusable: [Pool<REUSE_WINDOW>; 2],
    next_dst: [u8; 2],
    addresses: AddressGenerator,
    /// Cumulative weights for sampling non-branch op classes.
    body_cdf: Vec<(f64, OpClass)>,
    /// `ln(1 - p)` for the dependence-distance geometric, precomputed
    /// (the clamped `p` is fixed per profile).
    dep_geom_ln: f64,
}

impl TraceGenerator {
    /// Creates a generator for `profile` with the given seed.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`BenchProfile::validate`].
    pub fn new(profile: BenchProfile, seed: u64) -> Self {
        profile.validate();
        let mut rng = SmallRng::seed_from_u64(seed ^ hash_name(profile.name));

        // Mean basic-block body length implied by the branch fraction.
        let bf = profile.mix.branch_fraction().clamp(0.005, 0.5);
        // +1 compensates the floor() in the geometric sampler so that the
        // realized mean matches the target.
        let mean_body = (1.0 / bf).max(2.0);

        // Lay the blocks over the code footprint.
        let n = profile.branch_sites;
        let stride = (profile.code_footprint / n as u64).max(8) & !3;
        let blocks = (0..n)
            .map(|i| {
                let body_len = sample_geometric_len(&mut rng, mean_body);
                let behavior = {
                    let u: f64 = rng.gen();
                    if u < profile.loop_site_frac {
                        let trip = (profile.mean_trip as f64 * rng.gen_range(0.5..1.5))
                            .round()
                            .max(2.0) as u64;
                        BranchBehavior::Loop { trip, count: 0 }
                    } else if u < profile.loop_site_frac + profile.random_site_frac {
                        BranchBehavior::Random
                    } else {
                        BranchBehavior::Biased { bias: profile.taken_bias }
                    }
                };
                // Loop sites branch back to their own block. Other sites
                // mostly make short forward jumps (if/else diamonds that
                // rejoin), with occasional far jumps (calls/returns), so
                // the walk keeps progressing around the ring instead of
                // being captured by a few attractor cycles.
                let taken_target_block = match behavior {
                    BranchBehavior::Loop { .. } => i,
                    _ if rng.gen_bool(0.15) => rng.gen_range(0..n),
                    _ => (i + rng.gen_range(1..=4)) % n,
                };
                Block {
                    start_pc: profile.code_base() + i as u64 * stride,
                    body_len,
                    site: BranchSite { behavior, taken_target_block },
                }
            })
            .collect();

        let addresses = AddressGenerator::new(
            profile.data_base(),
            profile.data_working_set,
            profile.hot_bytes,
            profile.hot_frac,
            profile.stride_frac,
            profile.stream_count,
            &mut rng,
        );

        let m = &profile.mix;
        let mut body_cdf = Vec::new();
        let mut acc = 0.0;
        for (w, op) in [
            (m.int_alu, OpClass::IntAlu),
            (m.int_mul, OpClass::IntMul),
            (m.int_div, OpClass::IntDiv),
            (m.fp_alu, OpClass::FpAlu),
            (m.fp_div, OpClass::FpDiv),
            (m.load, OpClass::Load),
            (m.store, OpClass::Store),
        ] {
            if w > 0.0 {
                acc += w;
                body_cdf.push((acc, op));
            }
        }
        // Normalize.
        for entry in &mut body_cdf {
            entry.0 /= acc;
        }

        let dep_geom_ln = (1.0 - profile.dep_geom_p.clamp(0.02, 0.98)).ln();
        TraceGenerator {
            profile,
            rng,
            blocks,
            current_block: 0,
            pos: 0,
            fresh: [Pool::new(); 2],
            reusable: [Pool::new(); 2],
            next_dst: [1, 0],
            addresses,
            body_cdf,
            dep_geom_ln,
        }
    }

    /// The profile this generator reproduces.
    pub fn profile(&self) -> &BenchProfile {
        &self.profile
    }

    fn sample_body_op(&mut self) -> OpClass {
        let u: f64 = self.rng.gen();
        self.body_cdf.iter().find(|(c, _)| u <= *c).map(|(_, op)| *op).unwrap_or(OpClass::IntAlu)
    }

    /// Picks a source register of `class` honouring the dependence-distance
    /// distribution, the consume-once statistics (most values are read
    /// exactly once; a profile-controlled fraction are re-read), and the
    /// chain-depth bound. `producer` is true when the consuming
    /// instruction produces a register value itself (ALU); sinks (stores,
    /// branches, address bases) may consume values of any depth, while
    /// producers only extend chains below `max_chain_depth`.
    ///
    /// Returns the register and the depth of the value read.
    fn pick_source(&mut self, class: RegClass, producer: bool) -> (ArchReg, u8) {
        let globals = match class {
            RegClass::Int => INT_GLOBALS,
            RegClass::Fp => FP_GLOBALS,
        };
        let ci = class.index();
        if self.rng.gen_bool(self.profile.global_src_frac)
            || (self.fresh[ci].is_empty() && self.reusable[ci].is_empty())
        {
            let idx = self.rng.gen_range(globals.start..globals.end);
            return (ArchReg::new(class, idx), 0);
        }
        let depth_limit = if producer { self.profile.max_chain_depth } else { u8::MAX };

        // Re-read an already-consumed value.
        if self.rng.gen_bool(self.profile.reuse_frac) {
            if let Some(pick) = self.pick_from_pool(ci, depth_limit, false) {
                return pick;
            }
        }
        // First read: consume from the fresh pool.
        if let Some(pick) = self.pick_from_pool(ci, depth_limit, true) {
            return pick;
        }
        // Nothing eligible (all chains at the depth bound): start a new
        // chain from a long-lived value.
        let idx = self.rng.gen_range(globals.start..globals.end);
        (ArchReg::new(class, idx), 0)
    }

    /// Geometric pick (newest first) among pool entries shallower than
    /// `depth_limit`. `consume` selects the fresh pool and removes the
    /// pick, moving it to the reusable pool.
    fn pick_from_pool(
        &mut self,
        ci: usize,
        depth_limit: u8,
        consume: bool,
    ) -> Option<(ArchReg, u8)> {
        // Collect the eligible indices, newest first, in one scan. The
        // RNG below must only be drawn when at least one exists — draw
        // order is part of the deterministic trace contract.
        let pool = if consume { self.fresh[ci].as_slice() } else { self.reusable[ci].as_slice() };
        debug_assert!(pool.len() <= POOL_MAX);
        let mut eligible = [0u32; POOL_MAX];
        let mut n = 0;
        for i in (0..pool.len()).rev() {
            if pool[i].1 < depth_limit {
                eligible[n] = i as u32;
                n += 1;
            }
        }
        if n == 0 {
            return None;
        }
        let d = self.geometric_distance().min(n - 1);
        // The d-th eligible index, newest first.
        let idx = eligible[d] as usize;
        if consume {
            let entry = self.fresh[ci].remove(idx);
            self.reusable[ci].push(entry);
            Some(entry)
        } else {
            Some(self.reusable[ci].as_slice()[idx])
        }
    }

    /// Geometric dependence distance: 0 = the most recent eligible value.
    fn geometric_distance(&mut self) -> usize {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        ((1.0 - u).ln() / self.dep_geom_ln) as usize
    }

    /// Allocates the next destination register of `class` (round-robin over
    /// the non-global registers) and records it as a fresh producer at the
    /// given chain depth.
    fn pick_dest(&mut self, class: RegClass, depth: u8) -> ArchReg {
        let limit = match class {
            RegClass::Int => INT_GLOBALS.start,
            RegClass::Fp => FP_GLOBALS.start,
        };
        let slot = &mut self.next_dst[class.index()];
        let reg = ArchReg::new(class, *slot);
        *slot += 1;
        if *slot >= limit {
            *slot = match class {
                RegClass::Int => 1, // leave r0 untouched (hard-wired zero)
                RegClass::Fp => 0,
            };
        }
        // The redefinition kills the old value: purge stale references so
        // later picks do not alias the new definition.
        self.reusable[class.index()].purge(reg);
        let fresh = &mut self.fresh[class.index()];
        fresh.purge(reg);
        // When full, the oldest unconsumed value falls out: it will never
        // be read.
        fresh.push((reg, depth));
        reg
    }

    fn maybe_source(&mut self, class: RegClass, producer: bool) -> Option<(ArchReg, u8)> {
        if self.rng.gen_bool(self.profile.immediate_frac) {
            None
        } else {
            Some(self.pick_source(class, producer))
        }
    }

    fn emit_body_inst(&mut self, pc: u64) -> TraceInst {
        let op = self.sample_body_op();
        match op {
            OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv => {
                let (s1, d1) = self.pick_source(RegClass::Int, true);
                let s2 = self.maybe_source(RegClass::Int, true);
                let depth = d1.max(s2.map_or(0, |(_, d)| d)).saturating_add(1);
                let dst = self.pick_dest(RegClass::Int, depth);
                TraceInst {
                    pc,
                    op,
                    dst: Some(dst),
                    srcs: [Some(s1), s2.map(|(r, _)| r)],
                    mem_addr: None,
                    branch: None,
                }
            }
            OpClass::FpAlu | OpClass::FpDiv => {
                let (s1, d1) = self.pick_source(RegClass::Fp, true);
                let s2 = self.maybe_source(RegClass::Fp, true);
                let depth = d1.max(s2.map_or(0, |(_, d)| d)).saturating_add(1);
                let dst = self.pick_dest(RegClass::Fp, depth);
                TraceInst {
                    pc,
                    op,
                    dst: Some(dst),
                    srcs: [Some(s1), s2.map(|(r, _)| r)],
                    mem_addr: None,
                    branch: None,
                }
            }
            OpClass::Load => {
                let base = self.pick_base_register();
                let class = if self.profile.fp && self.rng.gen_bool(self.profile.fp_load_frac) {
                    RegClass::Fp
                } else {
                    RegClass::Int
                };
                // Loaded values start fresh chains: memory breaks the
                // register dataflow depth.
                let dst = self.pick_dest(class, 0);
                let addr = self.addresses.next_address(&mut self.rng);
                TraceInst {
                    pc,
                    op,
                    dst: Some(dst),
                    srcs: [Some(base), None],
                    mem_addr: Some(addr),
                    branch: None,
                }
            }
            OpClass::Store => {
                let base = self.pick_base_register();
                let data_class = if self.profile.fp && self.rng.gen_bool(self.profile.fp_load_frac)
                {
                    RegClass::Fp
                } else {
                    RegClass::Int
                };
                let (data, _) = self.pick_source(data_class, false);
                let addr = self.addresses.next_address(&mut self.rng);
                TraceInst {
                    pc,
                    op,
                    dst: None,
                    srcs: [Some(base), Some(data)],
                    mem_addr: Some(addr),
                    branch: None,
                }
            }
            OpClass::Branch => unreachable!("branches are emitted at block ends"),
        }
    }

    /// Address registers are usually long-lived globals, occasionally a
    /// freshly computed pointer (pointer chasing).
    fn pick_base_register(&mut self) -> ArchReg {
        if self.rng.gen_bool(0.7) {
            let idx = self.rng.gen_range(INT_GLOBALS.start..INT_GLOBALS.end);
            ArchReg::int(idx)
        } else {
            self.pick_source(RegClass::Int, false).0
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceInst;

    fn next(&mut self) -> Option<TraceInst> {
        let block_idx = self.current_block;
        let (start_pc, body_len) = {
            let b = &self.blocks[block_idx];
            (b.start_pc, b.body_len)
        };
        let pc = start_pc + self.pos as u64 * 4;
        if self.pos < body_len {
            self.pos += 1;
            return Some(self.emit_body_inst(pc));
        }

        // Block end: emit the branch and advance the walk.
        let cond = self.pick_source(RegClass::Int, false).0;
        let (taken, target_block) = {
            let site = &mut self.blocks[block_idx].site;
            let taken = site.next_outcome(&mut self.rng);
            (taken, site.taken_target_block)
        };
        let next_block = if taken { target_block } else { (block_idx + 1) % self.blocks.len() };
        let target = self.blocks[next_block].start_pc;
        self.current_block = next_block;
        self.pos = 0;
        Some(TraceInst::branch(cond, taken, target, pc))
    }
}

/// Geometric body length with the given mean, at least 1.
fn sample_geometric_len(rng: &mut SmallRng, mean: f64) -> usize {
    let p = (1.0 / mean).clamp(0.01, 1.0);
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (((1.0 - u).ln() / (1.0 - p).ln()) as usize).max(1)
}

/// Stable per-name hash so each benchmark gets an independent stream even
/// with the same user seed.
fn hash_name(name: &str) -> u64 {
    name.bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{suite_all, suite_int};

    #[test]
    fn deterministic_per_seed() {
        let p = BenchProfile::by_name("gcc").unwrap();
        let a: Vec<_> = TraceGenerator::new(p, 7).take(5_000).collect();
        let b: Vec<_> = TraceGenerator::new(p, 7).take(5_000).collect();
        assert_eq!(a, b);
        let c: Vec<_> = TraceGenerator::new(p, 8).take(5_000).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn different_benchmarks_differ_with_same_seed() {
        let a: Vec<_> =
            TraceGenerator::new(BenchProfile::by_name("go").unwrap(), 1).take(1000).collect();
        let b: Vec<_> =
            TraceGenerator::new(BenchProfile::by_name("li").unwrap(), 1).take(1000).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn branch_fraction_tracks_profile() {
        for p in suite_all() {
            let n = 40_000;
            // Average over a few seeds: a single block graph can land on a
            // hot short loop and skew the realized fraction well past the
            // per-seed tolerance.
            let seeds = [3u64, 4, 5];
            let branches: usize = seeds
                .iter()
                .map(|&s| TraceGenerator::new(p, s).take(n).filter(|i| i.op.is_branch()).count())
                .sum();
            let measured = branches as f64 / (n * seeds.len()) as f64;
            let expected = p.mix.branch_fraction();
            // Dynamic visit weighting (hot loops) skews the realized
            // fraction; the int-vs-fp contrast is what matters.
            assert!(
                (measured - expected).abs() < 0.4 * expected + 0.01,
                "{}: measured {measured:.3} expected {expected:.3}",
                p.name
            );
        }
    }

    #[test]
    fn mem_fraction_tracks_profile() {
        for p in suite_int() {
            let n = 40_000;
            let mem = TraceGenerator::new(p, 4).take(n).filter(|i| i.op.is_mem()).count();
            let measured = mem as f64 / n as f64;
            let expected = p.mix.mem_fraction();
            assert!(
                (measured - expected).abs() < 0.25 * expected + 0.01,
                "{}: measured {measured:.3} expected {expected:.3}",
                p.name
            );
        }
    }

    #[test]
    fn branch_targets_are_block_starts_and_fallthrough_is_next_pc() {
        let p = BenchProfile::by_name("perl").unwrap();
        let gen = TraceGenerator::new(p, 11);
        let insts: Vec<_> = gen.take(10_000).collect();
        for w in insts.windows(2) {
            if let Some(b) = w[0].branch {
                assert_eq!(
                    w[1].pc, b.target,
                    "instruction after a branch must be at its recorded target"
                );
                if !b.taken {
                    // fall-through target is the next block, which starts
                    // after this block; monotone pc within segments.
                    assert!(b.target != w[0].pc);
                }
            } else {
                assert_eq!(w[1].pc, w[0].pc + 4, "sequential pcs inside a block");
            }
        }
    }

    #[test]
    fn register_classes_are_consistent() {
        let p = BenchProfile::by_name("swim").unwrap();
        for inst in TraceGenerator::new(p, 5).take(20_000) {
            match inst.op {
                OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv => {
                    assert_eq!(inst.dst.unwrap().class(), RegClass::Int);
                    for s in inst.sources() {
                        assert_eq!(s.class(), RegClass::Int);
                    }
                }
                OpClass::FpAlu | OpClass::FpDiv => {
                    assert_eq!(inst.dst.unwrap().class(), RegClass::Fp);
                    for s in inst.sources() {
                        assert_eq!(s.class(), RegClass::Fp);
                    }
                }
                OpClass::Load => {
                    assert_eq!(inst.srcs[0].unwrap().class(), RegClass::Int);
                    assert!(inst.mem_addr.is_some());
                }
                OpClass::Store => {
                    assert!(inst.dst.is_none());
                    assert_eq!(inst.srcs[0].unwrap().class(), RegClass::Int);
                }
                OpClass::Branch => {
                    assert!(inst.branch.is_some());
                    assert_eq!(inst.srcs[0].unwrap().class(), RegClass::Int);
                }
            }
        }
    }

    #[test]
    fn fp_profile_emits_fp_loads() {
        let p = BenchProfile::by_name("mgrid").unwrap();
        let loads: Vec<_> =
            TraceGenerator::new(p, 2).take(20_000).filter(|i| i.op == OpClass::Load).collect();
        let fp_loads = loads.iter().filter(|i| i.dst.unwrap().class() == RegClass::Fp).count();
        let frac = fp_loads as f64 / loads.len() as f64;
        assert!(frac > 0.7, "fp load fraction {frac}");
    }

    #[test]
    fn addresses_within_data_segment() {
        let p = BenchProfile::by_name("compress").unwrap();
        for inst in TraceGenerator::new(p, 6).take(10_000) {
            if let Some(a) = inst.mem_addr {
                assert!(a >= p.data_base());
                assert!(a < p.data_base() + p.data_working_set);
            }
        }
    }

    #[test]
    fn pcs_within_code_segment() {
        for p in [BenchProfile::by_name("gcc").unwrap(), BenchProfile::by_name("swim").unwrap()] {
            for inst in TraceGenerator::new(p, 6).take(10_000) {
                assert!(inst.pc >= p.code_base());
                // Bodies may spill a little past the nominal footprint.
                assert!(inst.pc < p.code_base() + 2 * p.code_footprint + 4096);
            }
        }
    }
}
