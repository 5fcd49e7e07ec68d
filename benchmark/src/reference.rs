//! The reference kernel: a fixed, program-independent mix of hash-map,
//! B-tree, sort and string-format work.
//!
//! Host time on a shared virtual machine drifts with the machine (clock,
//! cache and memory contention from neighbours), not only with the code.
//! A run starts its clock with one reference block and, after each
//! repetition, once the repetition's values are dropped, runs blocks
//! until they add up to a fixed share of the timed work so far (see
//! `Ctx::block_if_due`). A run's time metrics are divided by its mean
//! block time, so the drift the kernel shares with the program cancels.
//! The kernel calls no `mailval-*` crate, so a change to the program can
//! move it only through the process state the program leaves behind
//! (the allocator's free lists, the caches), not through its own code.
//!
//! Like a campaign, the kernel allocates many small objects (string
//! keys, B-tree nodes, short vectors) and chases pointers through them:
//! an arithmetic-only kernel tracks the campaigns' slowdowns less well.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Entries in the hash map and the B-tree of one block.
const KEYS: u64 = 40_000;
/// B-tree range probes per block.
const PROBES: u64 = 200_000;
/// Elements sorted per block.
const SORTED: u64 = 1 << 19;
/// SplitMix64 steps per block.
const MIXES: u64 = 4_000_000;

/// Run one reference block; returns its wall seconds.
pub fn block() -> f64 {
    let start = Instant::now();
    let mut acc = 0u64;

    // Arithmetic.
    for i in 0..MIXES {
        acc = acc.wrapping_add(mix(i));
    }

    // String formatting into owned keys: hash-map inserts, then probes.
    let mut map: HashMap<String, u64> = HashMap::new();
    for i in 0..KEYS {
        map.insert(
            format!("host-{:06}.example.{}", mix(i) % 1_000_000, i % 7),
            i,
        );
    }
    for i in (0..KEYS).step_by(3) {
        let key = format!("host-{:06}.example.{}", mix(i) % 1_000_000, i % 7);
        acc = acc.wrapping_add(map.get(&key).copied().unwrap_or(0));
    }
    drop(map);

    // B-tree with small heap values: inserts, then range probes.
    let mut tree: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for i in 0..KEYS {
        tree.insert(mix(i ^ 0x5eed), vec![i as u8; (i % 48) as usize]);
    }
    for i in 0..PROBES {
        acc = acc.wrapping_add(
            tree.range(mix(i)..)
                .next()
                .map_or(0, |(_, v)| v.len() as u64),
        );
    }
    drop(tree);

    // Sort.
    let mut values: Vec<u64> = (0..SORTED).map(|i| mix(i.wrapping_mul(3))).collect();
    values.sort_unstable();
    acc = acc.wrapping_add(values[values.len() / 2]);

    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// A SplitMix64 step: the kernel's own deterministic input stream.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
