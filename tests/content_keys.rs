//! The artifact cache keys grouped and decoded programs by
//! `Program::content_key`. Its hits, misses and `/v1/stats` counts stay
//! what they were under the earlier key, a hash of the rendered listing,
//! only if the two keys partition programs the same way. This test builds
//! every bundled app, as built and as grouped, at tiny and small scale and
//! several thread counts, and checks that two programs share a content
//! key exactly when their listings and local-memory sizes are equal.

use std::collections::HashMap;

use mtsim::apps::{build_app, AppKind, Scale};
use mtsim::asm::Program;

const THREADS: [usize; 5] = [1, 2, 3, 4, 8];

#[test]
fn content_keys_partition_programs_as_listing_and_local_words_do() {
    let mut programs: Vec<(String, Program)> = Vec::new();
    for scale in [Scale::Tiny, Scale::Small] {
        for kind in AppKind::ALL {
            for t in THREADS {
                let app = build_app(kind, scale, t);
                let label = format!("{}-{}-t{t}", kind.name(), scale.name());
                programs.push((format!("{label} grouped"), app.grouped().0));
                programs.push((label, app.program));
            }
        }
    }

    let mut by_key: HashMap<u64, (&str, String, u64)> = HashMap::new();
    let mut by_text: HashMap<(String, u64), &str> = HashMap::new();
    for (label, p) in &programs {
        let text = (p.listing(), p.local_words());
        match by_key.get(&p.content_key()) {
            Some((first, listing, words)) => assert!(
                (listing, *words) == (&text.0, text.1),
                "{label} shares a content key with {first} but not its listing and local words"
            ),
            None => {
                by_key.insert(p.content_key(), (label, text.0.clone(), text.1));
            }
        }
        by_text.entry(text).or_insert(label);
    }
    assert_eq!(
        by_key.len(),
        by_text.len(),
        "programs with equal listings and local words got different content keys"
    );
    // Some apps emit one program at every thread count, so the check
    // above compares real duplicates, not only distinct programs.
    assert!(
        by_key.len() + 20 < programs.len(),
        "{} distinct of {} programs",
        by_key.len(),
        programs.len()
    );
}
