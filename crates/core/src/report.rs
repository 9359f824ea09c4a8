//! Area and efficiency reporting (Fig. 10) and tabular result export.
//!
//! Besides the per-instance [`AcceleratorReport`], this module provides
//! [`ReportTable`] — a small schema'd table that serialises to CSV and JSON
//! without external dependencies — used by the design-space exploration
//! engine (and any future experiment) to export machine-readable results.

use crate::accelerator::NetworkPerf;
use crate::config::SpadeConfig;
use serde::{Deserialize, Serialize};
use spade_sim::AreaModel;
use std::fmt::Write as _;

/// Area breakdown and efficiency metrics of an accelerator instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorReport {
    /// Instance name (e.g. "SPADE.HE").
    pub name: String,
    /// PE array area (mm²).
    pub pe_array_mm2: f64,
    /// SRAM area (mm²).
    pub sram_mm2: f64,
    /// Control and miscellaneous area (mm²).
    pub control_mm2: f64,
    /// Sparsity-support area: RGU + GSU + pruning unit (mm²); zero for a
    /// dense-only accelerator.
    pub sparsity_support_mm2: f64,
    /// Total on-chip SRAM (KiB).
    pub sram_kib: u64,
    /// Peak throughput (GOPS).
    pub peak_gops: f64,
}

impl AcceleratorReport {
    /// Builds the report for a SPADE instance (includes the RGU/GSU area).
    #[must_use]
    pub fn for_spade(name: &str, config: &SpadeConfig) -> Self {
        let area = AreaModel::asic_32nm();
        let pe_array_mm2 = area.pe_array_mm2(config.num_pes());
        let sram_mm2 = area.sram_mm2(config.total_sram_kib());
        let control_mm2 = area.control_mm2;
        // The paper reports the added RGU/GSU/pruning hardware at ~4.3% of the
        // high-end design's total area; the absolute cost is dominated by the
        // rule buffers and coordinate FIFOs and is nearly independent of the
        // PE-array size.
        let sparsity_support_mm2 = 0.045
            * area
                .datapath_mm2(config.num_pes(), config.total_sram_kib())
                .max(4.0);
        Self {
            name: name.to_owned(),
            pe_array_mm2,
            sram_mm2,
            control_mm2,
            sparsity_support_mm2,
            sram_kib: config.total_sram_kib(),
            peak_gops: config.peak_gops(),
        }
    }

    /// Builds the report for the dense-only variant (DenseAcc): same PE array
    /// and buffers, no sparsity support.
    #[must_use]
    pub fn for_dense(name: &str, config: &SpadeConfig) -> Self {
        let mut r = Self::for_spade(name, config);
        r.name = name.to_owned();
        r.sparsity_support_mm2 = 0.0;
        r
    }

    /// Total area (mm²).
    #[must_use]
    pub fn total_mm2(&self) -> f64 {
        self.pe_array_mm2 + self.sram_mm2 + self.control_mm2 + self.sparsity_support_mm2
    }

    /// Fraction of the total area spent on sparsity support.
    #[must_use]
    pub fn sparsity_support_fraction(&self) -> f64 {
        self.sparsity_support_mm2 / self.total_mm2()
    }

    /// Peak areal efficiency (GOPS/mm²).
    #[must_use]
    pub fn peak_gops_per_mm2(&self) -> f64 {
        self.peak_gops / self.total_mm2()
    }

    /// Effective power efficiency (GOPS/W) counting dense-equivalent
    /// operations completed per joule, the paper's "effective GOPS/W".
    #[must_use]
    pub fn effective_gops_per_w(&self, perf: &NetworkPerf, dense_ops: f64) -> f64 {
        let p = perf.average_power_w();
        if p <= 0.0 {
            0.0
        } else {
            perf.effective_gops(dense_ops) / p
        }
    }
}

/// One value of a [`ReportTable`] cell.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportValue {
    /// A text cell.
    Text(String),
    /// A floating-point cell.
    Float(f64),
    /// An integer cell.
    Int(i64),
    /// A boolean cell.
    Bool(bool),
}

impl From<&str> for ReportValue {
    fn from(v: &str) -> Self {
        ReportValue::Text(v.to_owned())
    }
}
impl From<String> for ReportValue {
    fn from(v: String) -> Self {
        ReportValue::Text(v)
    }
}
impl From<f64> for ReportValue {
    fn from(v: f64) -> Self {
        ReportValue::Float(v)
    }
}
impl From<i64> for ReportValue {
    fn from(v: i64) -> Self {
        ReportValue::Int(v)
    }
}
impl From<usize> for ReportValue {
    fn from(v: usize) -> Self {
        ReportValue::Int(v as i64)
    }
}
impl From<bool> for ReportValue {
    fn from(v: bool) -> Self {
        ReportValue::Bool(v)
    }
}

/// A fixed-schema result table that serialises to CSV and JSON.
///
/// The vendored `serde` stub cannot serialise (see `vendor/serde`), so the
/// writers here are hand-rolled: CSV quotes fields containing commas, quotes,
/// or newlines; JSON emits an array of objects keyed by column name.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportTable {
    columns: Vec<String>,
    rows: Vec<Vec<ReportValue>>,
}

impl ReportTable {
    /// Creates an empty table with the given column names.
    #[must_use]
    pub fn new<S: Into<String>>(columns: Vec<S>) -> Self {
        Self {
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the column count — a schema
    /// bug in the caller, not a runtime condition.
    pub fn push_row(&mut self, row: Vec<ReportValue>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row has {} cells but the table has {} columns",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// The column names.
    #[must_use]
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of data rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table holds no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Serialises to CSV with a header row.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (i, column) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_csv_text(&mut out, column);
        }
        out.push('\n');
        for row in &self.rows {
            for (i, value) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match value {
                    ReportValue::Text(t) => push_csv_text(&mut out, t),
                    ReportValue::Float(f) if f.is_finite() => {
                        let _ = write!(out, "{f}");
                    }
                    // CSV has no portable NaN/Infinity token; an empty cell
                    // is the tabular equivalent of the JSON writer's `null`,
                    // so both exports agree on non-finite values.
                    ReportValue::Float(_) => {}
                    ReportValue::Int(i) => {
                        let _ = write!(out, "{i}");
                    }
                    ReportValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Serialises to a JSON array of objects keyed by column name.
    #[must_use]
    pub fn to_json(&self) -> String {
        // Every row repeats the keys: escape them once.
        let keys: Vec<String> = self
            .columns
            .iter()
            .map(|column| {
                let mut key = String::new();
                push_json_string(&mut key, column);
                key.push_str(": ");
                key
            })
            .collect();
        let mut out = String::from("[");
        for (ri, row) in self.rows.iter().enumerate() {
            if ri > 0 {
                out.push(',');
            }
            out.push_str("\n  {");
            for (ci, (key, value)) in keys.iter().zip(row).enumerate() {
                if ci > 0 {
                    out.push_str(", ");
                }
                out.push_str(key);
                match value {
                    ReportValue::Text(t) => push_json_string(&mut out, t),
                    ReportValue::Float(f) if f.is_finite() => {
                        let _ = write!(out, "{f}");
                    }
                    // JSON has no NaN/Infinity literals.
                    ReportValue::Float(_) => out.push_str("null"),
                    ReportValue::Int(i) => {
                        let _ = write!(out, "{i}");
                    }
                    ReportValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                }
            }
            out.push('}');
        }
        out.push_str("\n]\n");
        out
    }

    /// Serialises a **one-row** table as a single JSON object keyed by
    /// column name — the shape service-metric snapshots take (`spade-serve`
    /// STATS exports, the `spade-loadgen` BENCH report), where an array
    /// wrapper around one measurement would only get in the way.
    ///
    /// # Panics
    ///
    /// Panics unless the table holds exactly one row — a schema bug in the
    /// caller, not a runtime condition.
    #[must_use]
    pub fn to_json_object(&self) -> String {
        assert_eq!(
            self.rows.len(),
            1,
            "to_json_object needs exactly one row, table has {}",
            self.rows.len()
        );
        let json = self.to_json();
        // Reuse the array writer's escaping and value formatting: strip the
        // `[\n  ` / `\n]\n` wrapper around the single object.
        let inner = json
            .trim_start_matches("[\n  ")
            .trim_end_matches('\n')
            .trim_end_matches(']')
            .trim_end()
            .to_owned();
        format!("{inner}\n")
    }
}

/// Appends `s` as a CSV field, quoted (with quotes doubled) when it holds
/// a comma, quote, or newline.
fn push_csv_text(out: &mut String, s: &str) {
    if s.contains([',', '"', '\n']) {
        out.push('"');
        for ch in s.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(s);
    }
}

/// Appends `s` as a quoted JSON string.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spade_sparsity_support_is_a_small_fraction() {
        let r = AcceleratorReport::for_spade("SPADE.HE", &SpadeConfig::high_end());
        let frac = r.sparsity_support_fraction();
        assert!(frac > 0.01 && frac < 0.10, "fraction {frac}");
    }

    #[test]
    fn dense_report_has_no_sparsity_area() {
        let d = AcceleratorReport::for_dense("DenseAcc.HE", &SpadeConfig::high_end());
        assert_eq!(d.sparsity_support_mm2, 0.0);
        let s = AcceleratorReport::for_spade("SPADE.HE", &SpadeConfig::high_end());
        assert!(s.total_mm2() > d.total_mm2());
        // But only slightly: peak GOPS/mm² is close.
        assert!(s.peak_gops_per_mm2() / d.peak_gops_per_mm2() > 0.9);
    }

    #[test]
    fn low_end_has_smaller_area_than_high_end() {
        let he = AcceleratorReport::for_spade("SPADE.HE", &SpadeConfig::high_end());
        let le = AcceleratorReport::for_spade("SPADE.LE", &SpadeConfig::low_end());
        assert!(le.total_mm2() < he.total_mm2());
        assert!(le.peak_gops < he.peak_gops);
    }

    #[test]
    fn table_serialises_to_csv_with_escaping() {
        let mut t = ReportTable::new(vec!["name", "latency_ms", "wins"]);
        t.push_row(vec!["plain".into(), 1.5.into(), true.into()]);
        t.push_row(vec!["a,\"b\"".into(), 2.0.into(), false.into()]);
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("name,latency_ms,wins"));
        assert_eq!(lines.next(), Some("plain,1.5,true"));
        assert_eq!(lines.next(), Some("\"a,\"\"b\"\"\",2,false"));
        assert_eq!(t.num_rows(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn table_serialises_to_json() {
        let mut t = ReportTable::new(vec!["k", "v"]);
        t.push_row(vec!["line\"1\"".into(), ReportValue::Int(7)]);
        let json = t.to_json();
        assert!(json.contains("\"k\": \"line\\\"1\\\"\""), "{json}");
        assert!(json.contains("\"v\": 7"), "{json}");
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    }

    #[test]
    fn writers_pin_escaping_and_value_formatting() {
        let mut t = ReportTable::new(vec!["name", "note, \"q\"", "x", "n", "ok"]);
        t.push_row(vec![
            "plain".into(),
            "a,b".into(),
            1.5.into(),
            42i64.into(),
            true.into(),
        ]);
        t.push_row(vec![
            "say \"hi\"".into(),
            "line1\nline2".into(),
            f64::NAN.into(),
            (-7i64).into(),
            false.into(),
        ]);
        t.push_row(vec![
            "tab\there\u{1}".into(),
            "back\\slash\r".into(),
            f64::INFINITY.into(),
            0usize.into(),
            true.into(),
        ]);
        t.push_row(vec![
            "".into(),
            "ünï".into(),
            f64::NEG_INFINITY.into(),
            i64::MIN.into(),
            false.into(),
        ]);
        t.push_row(vec![
            "small".into(),
            "big".into(),
            (0.1 + 0.2).into(),
            ReportValue::Float(1e21),
            ReportValue::Float(-2.5e-7),
        ]);
        assert_eq!(
            t.to_csv(),
            "name,\"note, \"\"q\"\"\",x,n,ok\n\
             plain,\"a,b\",1.5,42,true\n\
             \"say \"\"hi\"\"\",\"line1\nline2\",,-7,false\n\
             tab\there\u{1},back\\slash\r,,0,true\n\
             ,ünï,,-9223372036854775808,false\n\
             small,big,0.30000000000000004,1000000000000000000000,-0.00000025\n"
        );
        assert_eq!(
            t.to_json(),
            "[\n  \
             {\"name\": \"plain\", \"note, \\\"q\\\"\": \"a,b\", \"x\": 1.5, \"n\": 42, \"ok\": true},\n  \
             {\"name\": \"say \\\"hi\\\"\", \"note, \\\"q\\\"\": \"line1\\nline2\", \"x\": null, \"n\": -7, \"ok\": false},\n  \
             {\"name\": \"tab\\there\\u0001\", \"note, \\\"q\\\"\": \"back\\\\slash\\r\", \"x\": null, \"n\": 0, \"ok\": true},\n  \
             {\"name\": \"\", \"note, \\\"q\\\"\": \"ünï\", \"x\": null, \"n\": -9223372036854775808, \"ok\": false},\n  \
             {\"name\": \"small\", \"note, \\\"q\\\"\": \"big\", \"x\": 0.30000000000000004, \"n\": 1000000000000000000000, \"ok\": -0.00000025}\n\
             ]\n"
        );
    }

    #[test]
    fn non_finite_floats_become_json_null() {
        let mut t = ReportTable::new(vec!["x"]);
        t.push_row(vec![f64::NAN.into()]);
        assert!(t.to_json().contains("\"x\": null"));
    }

    #[test]
    fn non_finite_floats_round_trip_as_missing_in_csv_and_json() {
        // Regression: CSV used to print `NaN`/`inf` while JSON mapped the
        // same cells to `null`; both now agree on "missing".
        let mut t = ReportTable::new(vec!["a", "b", "c", "d"]);
        t.push_row(vec![
            f64::NAN.into(),
            f64::INFINITY.into(),
            f64::NEG_INFINITY.into(),
            1.5.into(),
        ]);
        let csv = t.to_csv();
        let data_line = csv.lines().nth(1).unwrap();
        assert_eq!(data_line, ",,,1.5");
        // Round trip: a cell is empty in CSV exactly when it is null in
        // JSON, and finite values survive both writers unchanged.
        let json = t.to_json();
        let csv_cells: Vec<&str> = data_line.split(',').collect();
        for (col, cell) in t.columns().iter().zip(&csv_cells) {
            let json_null = json.contains(&format!("\"{col}\": null"));
            assert_eq!(cell.is_empty(), json_null, "column {col} disagrees");
        }
        assert!(json.contains("\"d\": 1.5"));
    }

    #[test]
    fn single_row_table_serialises_to_a_json_object() {
        let mut t = ReportTable::new(vec!["throughput_rps", "p99_ms", "note"]);
        t.push_row(vec![1250.5.into(), 3.25.into(), "warm \"cache\"".into()]);
        let obj = t.to_json_object();
        assert!(
            obj.starts_with('{') && obj.trim_end().ends_with('}'),
            "{obj}"
        );
        assert!(obj.contains("\"throughput_rps\": 1250.5"), "{obj}");
        assert!(obj.contains("\"p99_ms\": 3.25"), "{obj}");
        assert!(obj.contains("\"note\": \"warm \\\"cache\\\"\""), "{obj}");
    }

    #[test]
    #[should_panic(expected = "exactly one row")]
    fn to_json_object_rejects_multi_row_tables() {
        let mut t = ReportTable::new(vec!["x"]);
        t.push_row(vec![1.0.into()]);
        t.push_row(vec![2.0.into()]);
        let _ = t.to_json_object();
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn row_length_mismatch_panics() {
        let mut t = ReportTable::new(vec!["a", "b"]);
        t.push_row(vec![1.0.into()]);
    }
}
