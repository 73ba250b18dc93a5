//! The correctness oracle behind `failed`: SHA-256 digests of every
//! figure CSV and every fixed served body, recorded in `digests.txt`.
//!
//! The digests were taken from the program as it stood when the
//! benchmark was defined; `fig04.csv` and `fig10.csv` are anchored to the
//! repository's golden files by a test. Regenerate the record with
//! `--record-digests` only when an output change is intended.

use crate::sha256;
use std::collections::BTreeMap;
use std::sync::OnceLock;

const RECORD: &str = include_str!("../digests.txt");

/// Parse `name digest` lines; `#` starts a comment line.
pub fn parse(text: &str) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, digest) = line
            .split_once(' ')
            .ok_or_else(|| format!("digest line without a digest: '{line}'"))?;
        let digest = digest.trim();
        if digest.len() != 64 || !digest.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("'{name}': not a SHA-256 hex digest"));
        }
        if map.insert(name.to_string(), digest.to_string()).is_some() {
            return Err(format!("'{name}' recorded twice"));
        }
    }
    Ok(map)
}

fn recorded() -> &'static BTreeMap<String, String> {
    static MAP: OnceLock<BTreeMap<String, String>> = OnceLock::new();
    MAP.get_or_init(|| parse(RECORD).expect("digests.txt is well-formed (checked by a test)"))
}

/// Check `bytes` against the recorded digest for `name`.
pub fn check(name: &str, bytes: &[u8]) -> Result<(), String> {
    let want = recorded()
        .get(name)
        .ok_or_else(|| format!("no digest recorded for '{name}'"))?;
    let got = sha256::hex(bytes);
    if &got == want {
        Ok(())
    } else {
        Err(format!("{name}: digest {got} differs from recorded {want}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_parses_and_covers_every_output() {
        let map = parse(RECORD).expect("well-formed");
        for id in comb_report::FigureId::ALL {
            assert!(map.contains_key(&format!("{id}.csv")), "{id}");
        }
        for i in 0..crate::serve::WARM_SET {
            assert!(map.contains_key(&crate::serve::warm_name(i)), "warm {i}");
        }
    }

    #[test]
    fn record_is_anchored_to_the_golden_csvs() {
        for (csv, golden) in [
            ("fig04.csv", "../tests/golden/fig04_smoke.csv"),
            ("fig10.csv", "../tests/golden/fig10_smoke.csv"),
        ] {
            let bytes = std::fs::read(golden).expect("golden CSV readable");
            check(csv, &bytes).expect("recorded digest equals the golden file's");
        }
    }

    #[test]
    fn one_changed_byte_is_rejected() {
        let bytes = std::fs::read("../tests/golden/fig04_smoke.csv").expect("golden CSV");
        check("fig04.csv", &bytes).expect("unchanged bytes pass");
        let mut changed = bytes.clone();
        let last = changed.len() - 2;
        changed[last] ^= 1;
        assert!(check("fig04.csv", &changed).is_err());
        changed.truncate(last);
        assert!(check("fig04.csv", &changed).is_err());
        assert!(check("no-such-output", &bytes).is_err());
    }

    #[test]
    fn malformed_records_are_refused() {
        assert!(parse("fig04.csv abc").is_err());
        assert!(parse("fig04.csv").is_err());
        let d = "0".repeat(64);
        assert!(parse(&format!("a {d}\na {d}")).is_err());
        assert_eq!(parse(&format!("# c\n\na {d}\n")).expect("ok").len(), 1);
    }
}
