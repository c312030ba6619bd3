//! The generated test matrix (`tests/matrix/mod.rs`): the array holds
//! every admissible pair of axis values, is the same on every run, and
//! every member passes its oracles — bits against its reference, the
//! golden digest of a shipped case, conservation on periodic members.

#[path = "matrix/mod.rs"]
mod matrix;

use matrix::{admissible, admissible_targets, array, check_all, generate, is, Bc, Geo, Physics};
use mfc_cli::admit;

#[test]
fn array_holds_every_admissible_pair_and_is_deterministic() {
    let members = array();
    let targets = admissible_targets();
    let missing: Vec<_> = targets
        .iter()
        .filter(|t| !members.iter().any(|m| m.holds(t)))
        .collect();
    assert!(missing.is_empty(), "targets no member holds: {missing:?}");
    for m in members {
        assert!(admissible(m), "inadmissible member {}", m.id());
    }
    // The rule that drops a periodic radial axis early states what
    // `admit` refuses.
    for m in members
        .iter()
        .filter(|m| !matches!(m.geometry(), Geo::Cart1 | Geo::Cart2 | Geo::Cart3))
    {
        let periodic = m.with(&[is::bc(Bc::Periodic)]);
        assert!(
            admit(&periodic.case_file()).is_err(),
            "admitted {}",
            periodic.id()
        );
    }
    let again: Vec<String> = generate().iter().map(|m| m.id()).collect();
    let ids: Vec<String> = members.iter().map(|m| m.id()).collect();
    assert_eq!(ids, again, "the generator is not deterministic");
    eprintln!(
        "{} members hold all {} admissible targets",
        members.len(),
        targets.len()
    );
}

#[test]
fn generated_members_pass_their_oracles() {
    check_all(
        array()
            .iter()
            .filter(|m| matches!(m.physics, Physics::Generated)),
    );
}

#[test]
fn fixed_members_pass_their_oracles() {
    check_all(
        array()
            .iter()
            .filter(|m| !matches!(m.physics, Physics::Generated)),
    );
}
