//! Rendering a check run: human-readable table and machine JSON.

use eos_core::obs::json_string;

use crate::{Finding, Severity};

/// Everything one `eos check` run found, plus scan statistics.
#[derive(Debug)]
pub struct Report {
    /// Every finding, in discovery order (buddy → superdir → census →
    /// WAL).
    pub findings: Vec<Finding>,
    /// Buddy spaces audited.
    pub spaces_checked: usize,
    /// Objects whose trees were walked.
    pub objects_checked: usize,
    /// Data pages covered by the audited allocation maps.
    pub pages_scanned: u64,
}

impl Report {
    /// The worst severity present, if any finding exists.
    pub fn max_severity(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// A volume is clean when nothing worse than [`Severity::Info`]
    /// was found (info findings are expected optimistic slack).
    pub fn is_clean(&self) -> bool {
        self.max_severity().is_none_or(|s| s <= Severity::Info)
    }

    /// Findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// Human-readable table: one row per finding plus a summary line.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.findings.is_empty() {
            let sev_w = self
                .findings
                .iter()
                .map(|f| f.severity.to_string().len())
                .max()
                .unwrap_or(0)
                .max("SEVERITY".len());
            let layer_w = self
                .findings
                .iter()
                .map(|f| f.layer.to_string().len())
                .max()
                .unwrap_or(0)
                .max("LAYER".len());
            let loc_w = self
                .findings
                .iter()
                .map(|f| f.location.len())
                .max()
                .unwrap_or(0)
                .max("LOCATION".len());
            out.push_str(&format!(
                "{:sev_w$}  {:layer_w$}  {:loc_w$}  DETAIL\n",
                "SEVERITY", "LAYER", "LOCATION"
            ));
            for f in &self.findings {
                out.push_str(&format!(
                    "{:sev_w$}  {:layer_w$}  {:loc_w$}  {}\n",
                    f.severity.to_string(),
                    f.layer.to_string(),
                    f.location,
                    f.detail
                ));
            }
        }
        out.push_str(&format!(
            "checked {} space(s), {} object(s), {} page(s): \
             {} error(s), {} warning(s), {} info\n",
            self.spaces_checked,
            self.objects_checked,
            self.pages_scanned,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        out
    }

    /// Machine-readable JSON:
    /// `{"clean": bool, "spaces": n, "objects": n, "pages": n,
    ///   "findings": [{"severity", "layer", "location", "detail"}, …]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"clean\":{},\"spaces\":{},\"objects\":{},\"pages\":{},\"findings\":[",
            self.is_clean(),
            self.spaces_checked,
            self.objects_checked,
            self.pages_scanned
        ));
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"severity\":\"{}\",\"layer\":\"{}\",\"location\":{},\"detail\":{}}}",
                f.severity,
                f.layer,
                json_string(&f.location),
                json_string(&f.detail)
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Layer, Severity};

    fn report_with(findings: Vec<Finding>) -> Report {
        Report {
            findings,
            spaces_checked: 2,
            objects_checked: 1,
            pages_scanned: 100,
        }
    }

    #[test]
    fn empty_report_is_clean() {
        let r = report_with(vec![]);
        assert!(r.is_clean());
        assert_eq!(r.max_severity(), None);
        assert!(r.render_table().contains("0 error(s)"));
        assert!(r.to_json().starts_with("{\"clean\":true"));
    }

    #[test]
    fn info_only_is_clean_but_error_is_not() {
        let info = Finding {
            severity: Severity::Info,
            layer: Layer::Superdir,
            location: "space 0".into(),
            detail: "over-promise".into(),
        };
        assert!(report_with(vec![info.clone()]).is_clean());
        let err = Finding {
            severity: Severity::Error,
            layer: Layer::Buddy,
            location: "space 1".into(),
            detail: "bad".into(),
        };
        let r = report_with(vec![info, err]);
        assert!(!r.is_clean());
        assert_eq!(r.max_severity(), Some(Severity::Error));
    }

    #[test]
    fn json_escapes_strings() {
        let f = Finding {
            severity: Severity::Warning,
            layer: Layer::Census,
            location: "object \"a\\b\"".into(),
            detail: "line\nbreak".into(),
        };
        let j = report_with(vec![f]).to_json();
        assert!(j.contains("\\\"a\\\\b\\\""));
        assert!(j.contains("line\\nbreak"));
    }
}
