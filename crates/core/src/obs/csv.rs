//! CSV export of traces and summaries, for spreadsheets and plotting
//! tools. Column meanings are documented in `docs/observability.md`.

use super::{Trace, TraceSummary};

/// Minimal CSV field escaping (RFC 4180: quote fields containing `,`,
/// `"` or newlines) — shared by every CSV writer in the workspace.
pub fn escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Splits one RFC 4180 CSV row back into its fields (the inverse of the
/// escaping this module writes) — handy for round-trip checks and quick
/// consumers that do not want a CSV library.
pub fn split_row(row: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = row.chars().peekable();
    let mut quoted = false;
    while let Some(c) = chars.next() {
        if quoted {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    cur.push('"');
                    chars.next();
                }
                '"' => quoted = false,
                c => cur.push(c),
            }
        } else {
            match c {
                '"' => quoted = true,
                ',' => fields.push(std::mem::take(&mut cur)),
                c => cur.push(c),
            }
        }
    }
    fields.push(cur);
    fields
}

/// One row per event, then one row per incident, header
/// `t,kind,rank,name,peer,item_lo,item_hi,bytes,items,label,info`.
///
/// Event rows leave `items` and `info` empty; incident rows (kinds
/// `fault`/`retry`/`replan`) leave `peer`, `item_lo`, `item_hi` and
/// `bytes` empty and carry the incident's item count and free-form
/// detail. The trace's scenario `label` is repeated on every row so
/// concatenated CSVs from several runs stay distinguishable. Optional
/// fields are left empty when absent.
pub fn trace_to_csv(trace: &Trace) -> String {
    let label = escape(trace.label.as_deref().unwrap_or(""));
    let mut out = String::from("t,kind,rank,name,peer,item_lo,item_hi,bytes,items,label,info\n");
    for e in &trace.events {
        let (lo, hi) = match e.items {
            Some((lo, hi)) => (lo.to_string(), hi.to_string()),
            None => (String::new(), String::new()),
        };
        out.push_str(&format!(
            "{},{},{},{},{},{lo},{hi},{},,{label},\n",
            e.t,
            e.kind.as_str(),
            e.rank,
            escape(trace.names.get(e.rank).map(String::as_str).unwrap_or("")),
            e.peer.map(|p| p.to_string()).unwrap_or_default(),
            e.bytes
        ));
    }
    for inc in &trace.incidents {
        out.push_str(&format!(
            "{},{},{},{},,,,,{},{label},{}\n",
            inc.t,
            inc.kind.as_str(),
            inc.rank,
            escape(trace.names.get(inc.rank).map(String::as_str).unwrap_or("")),
            inc.items,
            escape(&inc.info)
        ));
    }
    out
}

/// One row per rank, header
/// `rank,name,recv,send,compute,busy,idle,finish,bytes_in,bytes_out,label,faults,retries,replans`
/// (times in seconds). The trace-level `label` and incident counts are
/// repeated on every row, like `trace_to_csv`'s label column.
pub fn summary_to_csv(summary: &TraceSummary) -> String {
    let label = escape(summary.label.as_deref().unwrap_or(""));
    let mut out = String::from(
        "rank,name,recv,send,compute,busy,idle,finish,bytes_in,bytes_out,\
         label,faults,retries,replans\n",
    );
    for r in &summary.ranks {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{label},{},{},{}\n",
            r.rank,
            escape(&r.name),
            r.recv,
            r.send,
            r.compute,
            r.busy,
            r.idle,
            r.finish,
            r.bytes_in,
            r.bytes_out,
            summary.faults,
            summary.retries,
            summary.replans
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::{Incident, IncidentKind, Trace, TraceSource};
    use super::*;
    use crate::cost::Processor;
    use crate::distribution::timeline;

    fn sample() -> Trace {
        let procs = [
            Processor::linear("w,orker", 1.0, 2.0),
            Processor::linear("root", 0.0, 1.0),
        ];
        let view: Vec<&Processor> = procs.iter().collect();
        let counts = vec![3usize, 1];
        let tl = timeline(&view, &counts);
        Trace::from_timeline(TraceSource::Predicted, &["w,orker", "root"], &counts, 4, &tl)
    }

    fn faulty_sample() -> Trace {
        let mut trace = sample();
        trace.label = Some("recovered, retried".into()); // comma: exercises quoting
        trace.incidents = vec![
            Incident {
                t: 0.5,
                kind: IncidentKind::Fault,
                rank: 0,
                items: 3,
                info: "attempt 1 to \"w,orker\": timeout".into(),
            },
            Incident { t: 0.75, kind: IncidentKind::Retry, rank: 0, items: 3, info: String::new() },
            Incident {
                t: 1.5,
                kind: IncidentKind::Replan,
                rank: 1,
                items: 3,
                info: "3 items over 1 survivor".into(),
            },
        ];
        trace
    }

    #[test]
    fn trace_csv_shape() {
        let csv = trace_to_csv(&sample());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t,kind,rank,name,peer,item_lo,item_hi,bytes,items,label,info");
        // 2 ranks × (2 send + 2 compute) + idle markers.
        assert!(lines.len() > 8);
        assert!(csv.contains("\"w,orker\""), "comma-bearing names are quoted");
        assert!(csv.contains("send_start"));
    }

    #[test]
    fn idle_rows_have_empty_optional_fields() {
        let csv = trace_to_csv(&sample());
        let idle = csv.lines().find(|l| l.contains(",idle,")).unwrap();
        // peer, item_lo, item_hi empty, bytes 0; items, label, info empty.
        assert!(idle.ends_with(",,,0,,,"), "{idle}");
    }

    #[test]
    fn summary_csv_shape() {
        let summary = sample().summarize().unwrap();
        let csv = summary_to_csv(&summary);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 ranks
        assert!(lines[0].starts_with("rank,name,recv,"));
        assert!(lines[0].ends_with(",label,faults,retries,replans"));
        assert!(lines[1].starts_with("0,\"w,orker\","));
        // Fault-free trace: empty label, zero incident counts.
        assert!(lines[1].ends_with(",,0,0,0"), "{}", lines[1]);
    }

    #[test]
    fn label_and_incidents_round_trip_through_trace_csv() {
        let trace = faulty_sample();
        let csv = trace_to_csv(&trace);
        let rows: Vec<Vec<String>> = csv.lines().skip(1).map(split_row).collect();
        assert!(rows.iter().all(|r| r.len() == 11), "rectangular CSV");
        // The label survives, un-mangled, on every row.
        assert!(rows.iter().all(|r| r[9] == "recovered, retried"), "{csv}");
        // Each incident comes back as one row with its kind, rank, item
        // count and info text intact.
        let incident_rows: Vec<&Vec<String>> = rows
            .iter()
            .filter(|r| IncidentKind::parse(&r[1]).is_some())
            .collect();
        assert_eq!(incident_rows.len(), trace.incidents.len());
        for (row, inc) in incident_rows.iter().zip(&trace.incidents) {
            assert_eq!(row[0].parse::<f64>().unwrap(), inc.t);
            assert_eq!(row[1], inc.kind.as_str());
            assert_eq!(row[2].parse::<usize>().unwrap(), inc.rank);
            assert_eq!(row[8].parse::<u64>().unwrap(), inc.items);
            assert_eq!(row[10], inc.info);
            // Schedule-only columns stay empty on incident rows.
            assert!(row[4].is_empty() && row[7].is_empty());
        }
    }

    #[test]
    fn label_and_incident_counts_round_trip_through_summary_csv() {
        let summary = faulty_sample().summarize().unwrap();
        let csv = summary_to_csv(&summary);
        let rows: Vec<Vec<String>> = csv.lines().skip(1).map(split_row).collect();
        assert!(rows.iter().all(|r| r.len() == 14), "rectangular CSV");
        for row in &rows {
            assert_eq!(row[10], "recovered, retried");
            assert_eq!(row[11].parse::<usize>().unwrap(), summary.faults);
            assert_eq!(row[12].parse::<usize>().unwrap(), summary.retries);
            assert_eq!(row[13].parse::<usize>().unwrap(), summary.replans);
        }
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("q\"q"), "\"q\"\"q\"");
    }

    #[test]
    fn split_row_inverts_escaping() {
        let row = r#"1,"a,b","say ""hi""",plain,"#;
        assert_eq!(split_row(row), vec!["1", "a,b", "say \"hi\"", "plain", ""]);
    }
}
