//! The bench suites, each described once in [`SUITES`]: its name and
//! schema, its pinned checksums per mode, the columns of its markdown
//! digest, and the function that runs it. Writing a report, the
//! summary, the markdown digest and the determinism check are each
//! written once here, over that table, against reports read back
//! through the strict [`Json`] parser.
//!
//! The determinism check is the gating half of every CI perf step:
//! throughput numbers stay non-gating (containers are noisy), but a
//! moved checksum means a completion stream changed and must fail the
//! build unless the pin is intentionally updated alongside the change.

use crate::json::Json;
use crate::{faults, hotpath, rebalance, scenarios};
use std::path::PathBuf;

/// One bench suite: everything the report tooling needs to know.
pub struct Suite {
    /// `simcxl-report <name>` runs the suite; `BENCH_<name>.json` at
    /// the workspace root holds its committed report.
    pub name: &'static str,
    /// The `schema` string the report carries.
    pub(crate) schema: &'static str,
    /// `(section, checksum)` pins a full-mode report must reproduce:
    /// `<section>.checksum` is compared bit-for-bit.
    pub(crate) pins_full: &'static [(&'static str, u64)],
    /// The same pins for a quick-mode (CI smoke) report.
    pub(crate) pins_quick: &'static [(&'static str, u64)],
    /// Markdown digest columns as `(header, field path)`, the path
    /// relative to each checksummed section (one table row each).
    pub(crate) digest: &'static [(&'static str, &'static str)],
    /// Runs the workload at quick (`true`) or full scale and returns
    /// the report body: an object of everything after `schema` and
    /// `mode`.
    pub(crate) run: fn(quick: bool) -> Json,
}

/// Every bench suite, in the order `all` visits them.
pub static SUITES: [Suite; 4] = [
    Suite {
        name: "hotpath",
        schema: "simcxl-hotpath/v7",
        pins_full: &[
            ("stress", hotpath::PINNED_STRESS_CHECKSUM_FULL),
            ("stress_upfront", hotpath::PINNED_UPFRONT_CHECKSUM_FULL),
        ],
        pins_quick: &[
            ("stress", hotpath::PINNED_STRESS_CHECKSUM_QUICK),
            ("stress_upfront", hotpath::PINNED_UPFRONT_CHECKSUM_QUICK),
        ],
        digest: &[
            ("events/sec", "events_per_sec"),
            ("ns/event", "ns_per_event"),
            ("balance error", "balance_error"),
            ("checksum", "checksum"),
        ],
        run: hotpath::report,
    },
    Suite {
        name: "scenarios",
        schema: "simcxl-scenarios/v1",
        pins_full: &scenarios::PINNED_SCENARIO_CHECKSUMS_FULL,
        pins_quick: &scenarios::PINNED_SCENARIO_CHECKSUMS_QUICK,
        digest: &[
            ("clients", "clients"),
            ("completed", "completed"),
            ("events/sec", "events_per_sec"),
            ("checksum", "checksum"),
        ],
        run: scenarios::report,
    },
    Suite {
        name: "faults",
        schema: "simcxl-faults/v1",
        pins_full: &faults::PINNED_FAULT_CHECKSUMS_FULL,
        pins_quick: &faults::PINNED_FAULT_CHECKSUMS_QUICK,
        digest: &[
            ("clients", "clients"),
            ("completed", "completed"),
            ("invariant checks", "invariant_checks"),
            ("checksum", "checksum"),
            ("recovery", "recovery_checksum"),
        ],
        run: faults::report,
    },
    Suite {
        name: "rebalance",
        schema: "simcxl-rebalance/v1",
        pins_full: &rebalance::PINNED_REBALANCE_CHECKSUMS_FULL,
        pins_quick: &rebalance::PINNED_REBALANCE_CHECKSUMS_QUICK,
        digest: &[
            ("clients", "clients"),
            ("adaptive err", "adaptive.final_balance_error"),
            ("static err", "static.final_balance_error"),
            ("rebalances", "adaptive.rebalances"),
            ("checksum", "checksum"),
        ],
        run: rebalance::report,
    },
];

/// The suite called `name`.
pub fn find(name: &str) -> Option<&'static Suite> {
    SUITES.iter().find(|s| s.name == name)
}

impl Suite {
    /// Workspace-root path of `BENCH_<name>.json` (anchored via the
    /// crate manifest, so invoking `cargo run` from a subdirectory
    /// cannot fork a stray copy).
    pub fn path(&self) -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
            .join(format!("BENCH_{}.json", self.name))
    }

    /// Runs the suite and returns its complete report: `schema` and
    /// `mode`, then the body the suite's `run` returns.
    ///
    /// # Panics
    ///
    /// Panics if an in-process gate of the suite fails (see each
    /// suite's `report`), or if `run` returns a non-object.
    pub fn report(&self, quick: bool) -> Json {
        let Json::Obj(body) = (self.run)(quick) else {
            panic!("the {} report body must be a JSON object", self.name);
        };
        let mode = if quick { "quick" } else { "full" };
        let mut report = vec![
            ("schema".to_owned(), self.schema.into()),
            ("mode".to_owned(), mode.into()),
        ];
        report.extend(body);
        Json::Obj(report)
    }

    /// Runs the suite and writes its report to [`Suite::path`],
    /// returning the text written.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the report file cannot be written.
    pub fn write(&self, quick: bool) -> std::io::Result<String> {
        let text = self.report(quick).render();
        std::fs::write(self.path(), &text)?;
        Ok(text)
    }

    fn parse(&self, text: &str) -> Result<Json, String> {
        Json::parse(text).map_err(|e| format!("{}: {e}", self.name))
    }

    /// The human-oriented summary of a report (what CI logs): the
    /// schema and mode, then every other top-level member.
    ///
    /// # Errors
    ///
    /// The parse error if `text` is not a well-formed report.
    pub fn summary(&self, text: &str) -> Result<String, String> {
        let report = self.parse(text)?;
        let field = |key| report.get(key).and_then(Json::as_str).unwrap_or("?");
        let mut out = format!("schema {} ({} mode)\n", field("schema"), field("mode"));
        for (key, value) in report.members() {
            if key != "schema" && key != "mode" {
                out.push_str(&format!("\"{key}\": {value}\n"));
            }
        }
        Ok(out)
    }

    /// A GitHub-flavored markdown digest of a report for
    /// `$GITHUB_STEP_SUMMARY`: a heading with every top-level scalar,
    /// then one table row per checksummed section with the
    /// `digest` columns (`-` where a section lacks the field).
    ///
    /// # Errors
    ///
    /// The parse error if `text` is not a well-formed report.
    pub fn github_summary(&self, text: &str) -> Result<String, String> {
        let report = self.parse(text)?;
        let scalars: Vec<String> = report
            .members()
            .iter()
            .filter_map(|(k, v)| match v {
                Json::Arr(_) | Json::Obj(_) => None,
                Json::Str(s) => Some(format!("{k} {s}")),
                v => Some(format!("{k} {v}")),
            })
            .collect();
        let mut out = format!("### {} ({})\n\n| case |", self.name, scalars.join(", "));
        let mut rule = String::from("|---|");
        for (header, _) in self.digest {
            out.push_str(&format!(" {header} |"));
            rule.push_str("---|");
        }
        out.push_str(&format!("\n{rule}\n"));
        for (name, section) in report.members() {
            if section.get("checksum").is_none() {
                continue;
            }
            out.push_str(&format!("| {name} |"));
            for (_, path) in self.digest {
                let cell = match section.get(path) {
                    None => "-".to_owned(),
                    Some(Json::Str(s)) => format!("`{s}`"),
                    Some(v) => v.to_string(),
                };
                out.push_str(&format!(" {cell} |"));
            }
            out.push('\n');
        }
        Ok(out)
    }

    /// Checks a report's determinism canaries: it must parse strictly,
    /// carry this suite's schema and, with `expect`, record that mode
    /// (CI uses it to prove the checked file was written by *this*
    /// run's quick bench, not left over from checkout); every pinned
    /// `<section>.checksum` must equal its pin for the recorded mode.
    /// Returns a one-line confirmation.
    ///
    /// # Errors
    ///
    /// `"<suite>: <field path>: <problem>"` — a parse error, a missing
    /// or malformed field, a mode mismatch, or the first drifted
    /// checksum.
    pub fn check_determinism(&self, text: &str, expect: Option<&str>) -> Result<String, String> {
        let report = self.parse(text)?;
        let fail = |field: &str, msg: String| format!("{}: {field}: {msg}", self.name);
        let string = |field: &str| match report.get(field) {
            None => Err(fail(field, "missing".into())),
            Some(v) => v
                .as_str()
                .ok_or_else(|| fail(field, format!("expected a string, found {v}"))),
        };
        let schema = string("schema")?;
        if schema != self.schema {
            return Err(fail(
                "schema",
                format!("{schema:?} is not {:?}", self.schema),
            ));
        }
        let mode = string("mode")?;
        let pins = match mode {
            "full" => self.pins_full,
            "quick" => self.pins_quick,
            other => return Err(fail("mode", format!("unknown mode {other:?}"))),
        };
        if let Some(expect) = expect.filter(|&e| e != mode) {
            return Err(fail(
                "mode",
                format!(
                    "report records {mode:?}, expected {expect:?} — the checked file was not \
                     produced by the expected run (did the smoke step fail before writing?)"
                ),
            ));
        }
        for (section, pinned) in pins {
            let field = format!("{section}.checksum");
            let raw = string(&field)?;
            let is_hex = |h: &&str| h.len() == 16 && h.bytes().all(|b| b.is_ascii_hexdigit());
            let hex = raw.strip_prefix("0x").filter(is_hex);
            let Some(value) = hex.and_then(|h| u64::from_str_radix(h, 16).ok()) else {
                let msg = format!("malformed checksum {raw:?} (want 0x and 16 hex digits)");
                return Err(fail(&field, msg));
            };
            if value != *pinned {
                return Err(fail(
                    &field,
                    format!(
                        "drifted: got {value:#018x}, pinned {pinned:#018x} ({mode} mode) — the \
                         completion stream changed; if intentional, update the pins in \
                         crates/bench/src/{}.rs",
                        self.name
                    ),
                ));
            }
        }
        let sections: Vec<&str> = pins.iter().map(|(s, _)| *s).collect();
        Ok(format!(
            "{} checksums ({}) match their {mode}-mode pins",
            pins.len(),
            sections.join(", ")
        ))
    }
}

/// The per-suite report checks, each run by a test in the suite's own
/// module (`hotpath`, `scenarios`, `faults`, `rebalance`).
#[cfg(test)]
pub(crate) mod checks {
    use super::*;

    fn suite(name: &str) -> &'static Suite {
        find(name).unwrap_or_else(|| panic!("no suite {name:?}"))
    }

    /// Every object key path in `v`, sorted (`[]` standing for any
    /// array index): the shape a report schema promises.
    fn shape(v: &Json) -> Vec<String> {
        fn walk(v: &Json, prefix: &str, out: &mut Vec<String>) {
            for (key, value) in v.members() {
                out.push(format!("{prefix}.{key}"));
                walk(value, &format!("{prefix}.{key}"), out);
            }
            if let Json::Arr(items) = v {
                items
                    .iter()
                    .for_each(|v| walk(v, &format!("{prefix}[]"), out));
            }
        }
        let mut out = Vec::new();
        walk(v, "", &mut out);
        out.sort();
        out.dedup();
        out
    }

    /// A report whose pinned sections each lead with a `phases` entry
    /// carrying the pin, then the section's own `checksum`. With every
    /// section checksum `0x00000000deadbeef`, this is the reordered
    /// report a reader taking the first textual `"checksum"` passes
    /// (the faults one passed the substring extractors this module
    /// replaced). The strict check must accept the pinned report and
    /// reject each broken variant with an error naming the exact field
    /// path.
    pub(crate) fn determinism_check_flags_drift_and_missing_fields(name: &str) {
        let suite = suite(name);
        let report = |checksum: &dyn Fn(u64) -> Json| {
            let sections = suite.pins_quick.iter().map(|&(section, pin)| {
                let phase = Json::obj([("checksum", Json::hex(pin)), ("name", "warmup".into())]);
                let phases = ("phases", Json::Arr(vec![phase]));
                (section, Json::obj([phases, ("checksum", checksum(pin))]))
            });
            let header = [("schema", suite.schema.into()), ("mode", "quick".into())];
            Json::obj(header.into_iter().chain(sections)).render()
        };
        let fails = |text: &str, field: &str, problem: &str| {
            let err = suite.check_determinism(text, None).unwrap_err();
            let want = format!("{}: {field}: {problem}", suite.name);
            assert!(err.starts_with(&want), "got {err:?}, want {want:?}");
        };
        let good = report(&Json::hex);
        assert!(suite.check_determinism(&good, Some("quick")).is_ok());
        let first = format!("{}.checksum", suite.pins_quick[0].0);
        fails(&report(&|_| Json::hex(0xdeadbeef)), &first, "drifted");
        let unprefixed = |pin: u64| Json::Str(format!("{pin:x}"));
        fails(&report(&unprefixed), &first, "malformed checksum");
        let signed = |pin: u64| Json::Str(format!("0x+{:015x}", pin >> 4));
        fails(&report(&signed), &first, "malformed checksum");
        fails(&report(&|pin| pin.into()), &first, "expected a string");
        let duplicate = good.replacen("\"phases\"", "\"checksum\": \"0x0\", \"phases\"", 1);
        fails(&duplicate, &first, "duplicate key");
        for &(section, pin) in suite.pins_quick {
            let field = format!("{section}.checksum");
            let drifted = report(&|p| Json::hex(if p == pin { !p } else { p }));
            fails(&drifted, &field, "drifted");
            let cut = good.find(&format!("{pin:#018x}\"\n")).unwrap() - 1;
            fails(&good[..cut], &field, "unexpected end of input");
            let Ok(Json::Obj(mut sections)) = Json::parse(&good) else {
                panic!("unparsable {good}");
            };
            sections.retain(|(name, _)| name != section);
            fails(&Json::Obj(sections).render(), &field, "missing");
        }
        fails(
            "<html>not a report</html>",
            "top level",
            "expected a JSON value",
        );
        fails(&format!("{good}{{}}\n"), "top level", "trailing data");
        fails(
            &good.replace("\"quick\"", "\"warp\""),
            "mode",
            "unknown mode",
        );
        fails(
            &good.replace(suite.schema, "x/v0"),
            "schema",
            "\"x/v0\" is not",
        );
        fails("{}", "schema", "missing");
        let err = suite.check_determinism(&good, Some("full")).unwrap_err();
        assert!(err.starts_with(&format!("{}: mode: report records", suite.name)));
    }

    /// The suite's quick report survives the writer and the strict
    /// parser unchanged, reproduces its quick pins through the field
    /// lookups the gate reads, has the key shape of the committed
    /// report, and digests into one table row per checksummed section.
    pub(crate) fn report_roundtrips_through_the_extractors(name: &str) {
        let suite = suite(name);
        let report = suite.report(true);
        let text = report.render();
        assert_eq!(Json::parse(&text).as_ref(), Ok(&report), "{name}");
        let verdict = suite.check_determinism(&text, Some("quick"));
        assert!(verdict.is_ok(), "{verdict:?}");
        let committed = std::fs::read_to_string(suite.path()).unwrap();
        let committed = Json::parse(&committed).unwrap();
        assert_eq!(shape(&report), shape(&committed), "{name}");
        let summary = suite.summary(&text).unwrap();
        assert!(summary.starts_with(&format!("schema {} (quick mode)\n", suite.schema)));
        let digest = suite.github_summary(&text).unwrap();
        let rows = report
            .members()
            .iter()
            .filter(|(_, v)| v.get("checksum").is_some());
        for (section, _) in rows.clone() {
            assert!(
                summary.contains(&format!("\n\"{section}\": {{\n")),
                "{summary}"
            );
            assert!(digest.contains(&format!("\n| {section} |")), "{digest}");
        }
        let table = digest.lines().filter(|l| l.starts_with("| ")).count();
        assert_eq!(table, 1 + rows.count(), "{digest}");
    }

    /// Both pin tables of the suite name exactly `cases`, in order.
    pub(crate) fn pins_cover_every_canonical_case(name: &str, cases: &[&str]) {
        let suite = suite(name);
        for pins in [suite.pins_full, suite.pins_quick] {
            let pinned: Vec<&str> = pins.iter().map(|p| p.0).collect();
            assert_eq!(pinned, cases, "{name}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `BENCH_*.json` files must parse strictly and pass
    /// their own determinism check for the mode they record, so a
    /// hand-edited or merge-mangled report fails here, not only in CI.
    #[test]
    fn committed_reports_parse_and_match_their_pins() {
        for suite in &SUITES {
            let text = std::fs::read_to_string(suite.path()).expect("committed report");
            let verdict = suite.check_determinism(&text, None);
            assert!(verdict.is_ok(), "{}: {verdict:?}", suite.path().display());
        }
    }
}
