//! Machine-readable export of run results (CSV and observability-trace
//! JSON), for plotting the figures with external tools and for
//! `gs report`.

use std::io::{self, Write};
use std::path::Path;

use gs_scatter::distribution::Timeline;
use gs_scatter::obs::csv::escape;
use gs_scatter::obs::{json, Trace};

/// Serializes a run (scatter order) as CSV with header
/// `pos,name,data,comm_start,comm_end,finish`.
pub fn to_csv(names: &[&str], counts: &[usize], tl: &Timeline) -> String {
    assert_eq!(names.len(), counts.len());
    assert_eq!(names.len(), tl.finish.len());
    let mut out = String::from("pos,name,data,comm_start,comm_end,finish\n");
    for i in 0..names.len() {
        out.push_str(&format!(
            "{},{},{},{:.6},{:.6},{:.6}\n",
            i,
            escape(names[i]),
            counts[i],
            tl.comm_start[i],
            tl.comm_end[i],
            tl.finish[i]
        ));
    }
    out
}

/// Writes [`to_csv`] output to a file.
pub fn write_csv(
    path: impl AsRef<Path>,
    names: &[&str],
    counts: &[usize],
    tl: &Timeline,
) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_csv(names, counts, tl).as_bytes())
}

/// Writes a trace as a schema-versioned JSON document (the
/// `docs/observability.md` format, readable by `gs report`).
pub fn write_trace_json(path: impl AsRef<Path>, trace: &Trace) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(json::trace_to_json(trace).as_bytes())
}

/// Writes a trace as per-event CSV (`gs_scatter::obs::csv` columns).
pub fn write_trace_csv(path: impl AsRef<Path>, trace: &Trace) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(gs_scatter::obs::csv::trace_to_csv(trace).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl() -> Timeline {
        Timeline {
            comm_start: vec![0.0, 1.5],
            comm_end: vec![1.5, 2.0],
            finish: vec![5.0, 6.0],
        }
    }

    #[test]
    fn csv_shape() {
        let csv = to_csv(&["a", "b"], &[10, 20], &tl());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "pos,name,data,comm_start,comm_end,finish");
        assert!(lines[1].starts_with("0,a,10,0.000000,1.500000,5.000000"));
    }

    #[test]
    fn write_trace_json_round_trips() {
        use gs_scatter::obs::{json::trace_from_json, Trace, TraceSource};
        let trace =
            Trace::from_timeline(TraceSource::Simulated, &["a", "b"], &[3, 1], 8, &tl());
        let dir = std::env::temp_dir().join("gs_gridsim_test_trace");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("trace.json");
        write_trace_json(&path, &trace).unwrap();
        let back = trace_from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, trace);
        let csv_path = dir.join("trace.csv");
        write_trace_csv(&csv_path, &trace).unwrap();
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv.starts_with("t,kind,rank,name,"));
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(csv_path);
    }

    #[test]
    fn write_csv_round_trip() {
        let dir = std::env::temp_dir().join("gs_gridsim_test_csv");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("run.csv");
        write_csv(&path, &["a", "b"], &[1, 2], &tl()).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, to_csv(&["a", "b"], &[1, 2], &tl()));
        let _ = std::fs::remove_file(path);
    }
}
