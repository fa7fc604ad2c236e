//! What a run prints: every metric by name with its unit, then — as the
//! last line — the result object `BENCHMARK.json` describes.

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the result object.
    pub metrics: Vec<Metric>,
    /// Printed by name, kept out of the result object.
    pub extras: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Self {
        Report {
            workload,
            seed,
            traced,
            correct: false,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            extras: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn print(&self) {
        println!(
            "# mad-bench workload={} seed={} trace={}",
            self.workload,
            self.seed,
            u8::from(self.traced)
        );
        for note in &self.notes {
            println!("# {note}");
        }
        for m in self.metrics.iter().chain(&self.extras) {
            println!("{:<40} {:>16} {}", m.name, number(m.value), m.unit);
        }
        println!("{}", self.result_object());
    }

    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
    pub fn result_object(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all the digits measured (non-finite values, which
/// JSON cannot carry, become 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let mut r = Report::new("w", 1, false);
        r.correct = true;
        r.attempted = 10;
        r.metrics = vec![
            Metric::new("a_b", 1.25, "ms"),
            Metric::new("c", f64::NAN, "s"),
        ];
        r.extras = vec![Metric::new("hidden", 3.0, "count")];
        assert_eq!(
            r.result_object(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_b\": {\"value\": 1.25, \"unit\": \"ms\"}, \"c\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
