//! Plain-text table rendering and JSON export for experiment results.

use std::fmt::Write as _;
use std::path::Path;

use qbs_graph::json::ToJson;

/// A simple fixed-width text table, rendered in the style of the paper's
/// tables so measured results can be eyeballed against the published ones.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        TextTable {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as the header).
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(s, "{:<width$}  ", cell, width = widths[i]);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// Formats a duration in seconds with sensible precision (the unit of the
/// construction-time columns).
pub fn fmt_seconds(seconds: f64) -> String {
    if seconds < 0.001 {
        format!("{:.2}ms", seconds * 1e3)
    } else if seconds < 10.0 {
        format!("{seconds:.3}")
    } else {
        format!("{seconds:.1}")
    }
}

/// Formats milliseconds with the precision used by Table 2's query columns.
pub fn fmt_millis(ms: f64) -> String {
    if ms < 0.01 {
        format!("{:.1}us", ms * 1e3)
    } else {
        format!("{ms:.3}")
    }
}

/// Formats a byte count as the nearest human unit (Table 1/3 use MB and GB).
pub fn fmt_bytes(bytes: usize) -> String {
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= KB * KB * KB {
        format!("{:.2}GB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.2}MB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.1}KB", b / KB)
    } else {
        format!("{bytes}B")
    }
}

/// Formats a count with thousands separators (e.g. `1_234_567` → `1,234,567`).
pub fn fmt_count(count: usize) -> String {
    let digits = count.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Writes a report as JSON next to the text report.
pub fn write_json<T: ToJson + ?Sized, P: AsRef<Path>>(value: &T, path: P) -> std::io::Result<()> {
    std::fs::write(path, value.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new("Demo", &["Dataset", "Time"]);
        t.add_row(vec!["Douban".into(), "0.05".into()]);
        t.add_row(vec!["ClueWeb09".into(), "1819".into()]);
        assert_eq!(t.num_rows(), 2);
        let rendered = t.render();
        assert!(rendered.contains("== Demo =="));
        assert!(rendered.contains("Dataset"));
        assert!(rendered.contains("ClueWeb09"));
        // Header and rows align: every line has the Time column starting at
        // the same offset.
        let lines: Vec<&str> = rendered.lines().collect();
        let header_pos = lines[1].find("Time").unwrap();
        assert_eq!(lines[3].find("0.05").unwrap(), header_pos);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_mismatched_rows() {
        let mut t = TextTable::new("Demo", &["A", "B"]);
        t.add_row(vec!["only one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_seconds(0.0005), "0.50ms");
        assert_eq!(fmt_seconds(1.234567), "1.235");
        assert_eq!(fmt_seconds(123.4), "123.4");
        assert_eq!(fmt_millis(0.005), "5.0us");
        assert_eq!(fmt_millis(1.23456), "1.235");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00MB");
        assert_eq!(fmt_bytes(2 * 1024 * 1024 * 1024), "2.00GB");
        assert_eq!(fmt_count(1234567), "1,234,567");
        assert_eq!(fmt_count(42), "42");
    }

    // What the earlier serde-based exporter wrote, byte for byte: unit
    // variants as their names, `Ok` tagged, `BTreeMap` keys sorted, a
    // non-finite float as `null`.
    const TABLE2_GOLDEN: &str = r#"{
  "rows": [
    {
      "dataset": "Douban",
      "methods": {
        "PPL": "DidNotFinish",
        "ParentPPL": "OutOfMemory",
        "QbS": {
          "Ok": {
            "construction_seconds": 0.25,
            "avg_query_ms": 1e-7
          }
        }
      }
    }
  ]
}"#;
    const SWEEP_GOLDEN: &str = r#"{
  "series": [
    {
      "dataset": "DO",
      "points": [
        {
          "landmarks": 4,
          "coverage": {
            "all_through": 1,
            "some_through": 2,
            "none_through": 3,
            "not_applicable": 4
          },
          "labelling_bytes": 5,
          "construction_seconds": null,
          "avg_query_ms": 2.5
        }
      ]
    }
  ]
}"#;

    #[test]
    fn json_writer_produces_valid_json() {
        use crate::experiments::{
            LandmarkSweep, MethodResult, SweepPoint, SweepSeries, Table2, Table2Row,
        };
        use qbs_core::coverage::CoverageReport;

        let methods = [
            (
                "QbS",
                MethodResult::Ok {
                    construction_seconds: 0.25,
                    avg_query_ms: 1e-7,
                },
            ),
            ("PPL", MethodResult::DidNotFinish),
            ("ParentPPL", MethodResult::OutOfMemory),
        ];
        let table2 = Table2 {
            rows: vec![Table2Row {
                dataset: "Douban".into(),
                methods: methods.map(|(k, v)| (k.to_string(), v)).into(),
            }],
        };
        let sweep = LandmarkSweep {
            series: vec![SweepSeries {
                dataset: "DO".into(),
                points: vec![SweepPoint {
                    landmarks: 4,
                    coverage: CoverageReport {
                        all_through: 1,
                        some_through: 2,
                        none_through: 3,
                        not_applicable: 4,
                    },
                    labelling_bytes: 5,
                    construction_seconds: f64::NAN,
                    avg_query_ms: 2.5,
                }],
            }],
        };
        let dir = std::env::temp_dir().join("qbs_bench_reporting_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        for (value, golden) in [
            (&table2 as &dyn ToJson, TABLE2_GOLDEN),
            (&sweep, SWEEP_GOLDEN),
            (&vec![1u32, 2, 3], "[\n  1,\n  2,\n  3\n]"),
        ] {
            write_json(value, &path).unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), golden);
        }
    }
}
