//! A build against one shared host reference equals a fresh build.
//!
//! For each of the seven paper apps at tiny and small scale, one
//! `reference(kind, scale)` serves the builds at every thread count. Each
//! such build must match a fresh `build_app`: the same program content
//! key, the same input image, and the same verdict from the verifier on
//! the final image of a real run and on that image with one result word
//! changed.

use mtsim_apps::{build_app, build_app_with, reference, AppKind, Scale};
use mtsim_core::{Machine, MachineConfig};
use mtsim_mem::SharedMemory;

const PAPER_APPS: [AppKind; 7] = [
    AppKind::Sieve,
    AppKind::Blkmat,
    AppKind::Sor,
    AppKind::Ugray,
    AppKind::Water,
    AppKind::Locus,
    AppKind::Mp3d,
];

fn words(mem: &SharedMemory) -> Vec<u64> {
    (0..mem.len()).map(|a| mem.read(a)).collect()
}

#[test]
fn builds_against_a_shared_reference_match_fresh_builds() {
    for scale in [Scale::Tiny, Scale::Small] {
        for kind in PAPER_APPS {
            let shared_ref = reference(kind, scale);
            for t in [1, 2, 3, 4, 8] {
                let case = format!("{kind} {scale} T={t}");
                let fresh = build_app(kind, scale, t);
                let with = build_app_with(kind, scale, t, &shared_ref);
                assert_eq!(with.program.content_key(), fresh.program.content_key(), "{case}");
                assert_eq!(words(&with.shared), words(&fresh.shared), "{case}");

                let fin =
                    Machine::try_new(MachineConfig::ideal(t), &fresh.program, fresh.shared.clone())
                        .and_then(Machine::run)
                        .unwrap_or_else(|e| panic!("{case}: {e}"))
                        .shared;
                assert_eq!(fresh.verify(&fin), Ok(()), "{case}");
                assert_eq!(with.verify(&fin), Ok(()), "{case}");

                // The result word: the last word the run wrote whose change
                // the fresh verifier catches (work-queue and barrier words
                // come after the results but are not checked).
                let mut bad = fin.clone();
                let word = (0..fin.len())
                    .rev()
                    .filter(|&a| fin.read(a) != fresh.shared.read(a))
                    .find(|&a| {
                        bad.write(a, fin.read(a) ^ (1 << 51));
                        let caught = fresh.verify(&bad).is_err();
                        if !caught {
                            bad.write(a, fin.read(a));
                        }
                        caught
                    })
                    .unwrap_or_else(|| panic!("{case}: no result word"));
                let verdict = fresh.verify(&bad);
                assert!(verdict.is_err(), "{case}: word {word}");
                assert_eq!(with.verify(&bad), verdict, "{case}: word {word}");
            }
        }
    }
}
