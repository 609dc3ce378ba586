//! Placement fingerprints: the exact tile assignment Azul's hypergraph
//! mapper produces for the cold Table IV analogs.
//!
//! Partitioner rewrites that are meant to be pure speedups (same move
//! sequence, less work per move) must keep these hashes. A change here
//! moves every simulated cycle count downstream, so it fails by name.

use azul::mapping::strategies::{AzulMapper, Mapper};
use azul::mapping::TileGrid;
use azul::sparse::coloring::{color_and_permute, ColoringStrategy};
use azul::sparse::suite::{by_name, Scale};

/// FNV-1a 64 over the nonzero tiles followed by the vector tiles of the
/// default Azul mapping of `op` at `Scale::Tiny` on 16×16 tiles, after
/// largest-degree-first coloring (as `Azul::prepare` does).
fn fingerprint(op: &str) -> u64 {
    let a = by_name(op).expect("suite operator").build(Scale::Tiny);
    let (pa, _, _) = color_and_permute(&a, ColoringStrategy::LargestDegreeFirst);
    let placement = AzulMapper::default().map(&pa, TileGrid::square(16));
    let mut h: u64 = 0xcbf29ce484222325;
    for &tile in placement.nnz_tiles().iter().chain(placement.vec_tiles()) {
        h = (h ^ tile as u64).wrapping_mul(0x100000001b3);
    }
    h
}

#[test]
fn thermal2_placement_is_pinned() {
    assert_eq!(fingerprint("thermal2"), 0xc14b68c71b9fd05a);
}

#[test]
fn apache2_placement_is_pinned() {
    assert_eq!(fingerprint("apache2"), 0x4c279487a3574012);
}

#[test]
fn g3_circuit_placement_is_pinned() {
    assert_eq!(fingerprint("G3_circuit"), 0xd1645aafdd8c13ce);
}

#[test]
fn offshore_placement_is_pinned() {
    assert_eq!(fingerprint("offshore"), 0xdbb1db9d98dcef63);
}

/// Minutes in an unoptimized build before the FM rewrite; release CI runs
/// it with `--include-ignored`.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn nd12k_placement_is_pinned() {
    assert_eq!(fingerprint("nd12k"), 0x64ed63b18c38731d);
}
