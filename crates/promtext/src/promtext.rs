//! The parser, the validator and the histogram read-back (re-exported at
//! the crate root).

/// One parsed sample line: full sample name (`foo`, `foo_bucket`, …),
/// labels in appearance order, value.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    /// Full sample name as it appears on the line.
    pub name: String,
    /// Label pairs, including `le` for bucket samples.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl ParsedSample {
    /// `true` if this sample carries every `(key, value)` pair in `subset`.
    pub fn labels_match(&self, subset: &[(&str, &str)]) -> bool {
        subset
            .iter()
            .all(|(k, v)| self.labels.iter().any(|(lk, lv)| lk == k && lv == v))
    }

    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed exposition: family types plus the flat sample list.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// `(family name, kind)` pairs from `# TYPE` lines, in order.
    pub types: Vec<(String, String)>,
    /// All sample lines, in order.
    pub samples: Vec<ParsedSample>,
}

/// Parses exposition text. Unknown comment lines are ignored (per the
/// format); malformed sample lines are errors.
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut out = Exposition::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            match (parts.next(), parts.next()) {
                (Some(name), Some(kind)) => {
                    out.types.push((name.to_string(), kind.trim().to_string()));
                }
                _ => return Err(format!("line {}: malformed TYPE line", lineno + 1)),
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        out.samples.push(parse_sample(line, lineno + 1)?);
    }
    Ok(out)
}

fn parse_sample(line: &str, lineno: usize) -> Result<ParsedSample, String> {
    let err = |what: &str| format!("line {lineno}: {what}: {line:?}");
    let (name_part, rest) = match line.find('{') {
        Some(brace) => {
            let close = line.rfind('}').ok_or_else(|| err("unclosed label set"))?;
            if close < brace {
                return Err(err("unclosed label set"));
            }
            (&line[..brace], Some((&line[brace + 1..close], &line[close + 1..])))
        }
        None => (line, None),
    };
    let (labels, value_part) = match rest {
        Some((label_text, value_text)) => (parse_labels(label_text, lineno)?, value_text),
        None => {
            let space = name_part.find(' ').ok_or_else(|| err("missing value"))?;
            return Ok(ParsedSample {
                name: name_part[..space].to_string(),
                labels: Vec::new(),
                value: parse_value(&name_part[space..], lineno)?,
            });
        }
    };
    Ok(ParsedSample {
        name: name_part.trim().to_string(),
        labels,
        value: parse_value(value_part, lineno)?,
    })
}

fn parse_value(text: &str, lineno: usize) -> Result<f64, String> {
    // A trailing timestamp (we never emit one) would be a second field.
    let mut fields = text.split_whitespace();
    let value = fields
        .next()
        .ok_or_else(|| format!("line {lineno}: missing value"))?;
    if value == "+Inf" {
        return Ok(f64::INFINITY);
    }
    value
        .parse::<f64>()
        .map_err(|e| format!("line {lineno}: bad value {value:?}: {e}"))
}

fn parse_labels(text: &str, lineno: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = text.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(',') | Some(' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(labels);
        }
        let mut key = String::new();
        for ch in chars.by_ref() {
            if ch == '=' {
                break;
            }
            key.push(ch);
        }
        if chars.next() != Some('"') {
            return Err(format!("line {lineno}: label value must be quoted"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => {
                        return Err(format!("line {lineno}: bad escape {other:?}"));
                    }
                },
                Some('"') => break,
                Some(ch) => value.push(ch),
                None => return Err(format!("line {lineno}: unterminated label value")),
            }
        }
        labels.push((key.trim().to_string(), value));
    }
}

impl Exposition {
    /// Declared kind of `family`, if a `# TYPE` line named it.
    pub fn kind(&self, family: &str) -> Option<&str> {
        self.types
            .iter()
            .find(|(n, _)| n == family)
            .map(|(_, k)| k.as_str())
    }

    /// First sample with this exact name whose labels include `subset`.
    pub fn value(&self, name: &str, subset: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels_match(subset))
            .map(|s| s.value)
    }

    /// Sum over all samples with this name whose labels include `subset`
    /// (e.g. a counter summed across pods).
    pub fn sum_values(&self, name: &str, subset: &[(&str, &str)]) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name && s.labels_match(subset))
            .map(|s| s.value)
            .sum()
    }

    /// Reconstructs the histogram family `name` restricted to series whose
    /// labels include `subset`, merging matching series. Returns `None`
    /// when no `_bucket` samples match.
    pub fn histogram(&self, name: &str, subset: &[(&str, &str)]) -> Option<ScrapedHistogram> {
        let bucket_name = format!("{name}_bucket");
        // Group bucket samples into series by their non-`le` labels.
        let mut series: Vec<(Vec<(String, String)>, Vec<(f64, f64)>)> = Vec::new();
        for s in self
            .samples
            .iter()
            .filter(|s| s.name == bucket_name && s.labels_match(subset))
        {
            let le: f64 = match s.label("le") {
                Some("+Inf") => f64::INFINITY,
                Some(text) => text.parse().ok()?,
                None => return None,
            };
            let key: Vec<(String, String)> = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .cloned()
                .collect();
            match series.iter_mut().find(|(k, _)| *k == key) {
                Some((_, bounds)) => bounds.push((le, s.value)),
                None => series.push((key, vec![(le, s.value)])),
            }
        }
        if series.is_empty() {
            return None;
        }
        for (_, bounds) in &mut series {
            bounds.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        // Merge step functions: cumulative count of the union at bound `b`
        // is the sum over series of the cumulative at the largest `le <= b`.
        let mut all_bounds: Vec<f64> = series
            .iter()
            .flat_map(|(_, bounds)| bounds.iter().map(|&(le, _)| le))
            .collect();
        all_bounds.sort_by(|a, b| a.total_cmp(b));
        all_bounds.dedup();
        let bounds: Vec<(f64, f64)> = all_bounds
            .into_iter()
            .map(|b| {
                let cum: f64 = series
                    .iter()
                    .map(|(_, bounds)| {
                        bounds
                            .iter()
                            .rev()
                            .find(|&&(le, _)| le <= b)
                            .map(|&(_, c)| c)
                            .unwrap_or(0.0)
                    })
                    .sum();
                (b, cum)
            })
            .collect();
        let count = self.sum_values(&format!("{name}_count"), subset);
        let sum_seconds = self.sum_values(&format!("{name}_sum"), subset);
        Some(ScrapedHistogram { bounds, count, sum_seconds })
    }
}

/// A histogram reconstructed from scraped `_bucket`/`_sum`/`_count`
/// samples. Bounds are in seconds, as rendered.
#[derive(Debug, Clone)]
pub struct ScrapedHistogram {
    /// `(le_seconds, cumulative_count)` in ascending bound order, ending
    /// with the `+Inf` bound.
    pub bounds: Vec<(f64, f64)>,
    /// Total observations (`_count`).
    pub count: f64,
    /// Sum of observations in seconds (`_sum`).
    pub sum_seconds: f64,
}

impl ScrapedHistogram {
    /// Quantile estimate in microseconds, using the same rank convention as
    /// the server (`round(q × (n − 1))`) and the midpoint of the bracketing
    /// rendered bounds — the native bucket midpoint for sparse renderings.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count < 1.0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1.0)).round();
        let mut prev_bound = 0.0f64;
        for &(bound, cum) in &self.bounds {
            if cum > rank {
                let upper = if bound.is_finite() { bound } else { prev_bound };
                return (((prev_bound + upper) / 2.0) * 1e6).round() as u64;
            }
            prev_bound = if bound.is_finite() { bound } else { prev_bound };
        }
        (prev_bound * 1e6).round() as u64
    }

    /// Mean in microseconds.
    pub fn mean_us(&self) -> u64 {
        if self.count < 1.0 {
            0
        } else {
            (self.sum_seconds / self.count * 1e6).round() as u64
        }
    }
}

impl Exposition {
    /// Conformance checks for the serving `/metrics` endpoint:
    /// every sample belongs to a `# TYPE`d family, every `(name, labels)`
    /// series is unique, histogram cumulative bucket counts are monotone
    /// non-decreasing in `le`, and the `+Inf` bucket equals `_count`.
    pub fn validate(&self) -> Result<(), String> {
        // Unique family names.
        for (i, (name, _)) in self.types.iter().enumerate() {
            if self.types[..i].iter().any(|(n, _)| n == name) {
                return Err(format!("duplicate # TYPE for {name}"));
            }
        }
        // Every sample maps to a typed family.
        for s in &self.samples {
            if self.family_of(&s.name).is_none() {
                return Err(format!("sample {} has no # TYPE line", s.name));
            }
        }
        // Unique (name, labels) series.
        for (i, s) in self.samples.iter().enumerate() {
            let mut labels = s.labels.clone();
            labels.sort();
            if self.samples[..i].iter().any(|t| {
                let mut other = t.labels.clone();
                other.sort();
                t.name == s.name && other == labels
            }) {
                return Err(format!("duplicate series {} {:?}", s.name, s.labels));
            }
        }
        // Histogram bucket invariants, per series.
        for (family, kind) in &self.types {
            if kind != "histogram" {
                continue;
            }
            let mut seen_keys: Vec<Vec<(String, String)>> = Vec::new();
            let bucket_name = format!("{family}_bucket");
            for s in self.samples.iter().filter(|s| s.name == bucket_name) {
                let key: Vec<(String, String)> = s
                    .labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .cloned()
                    .collect();
                if seen_keys.contains(&key) {
                    continue;
                }
                seen_keys.push(key.clone());
                let subset: Vec<(&str, &str)> =
                    key.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                let mut bounds: Vec<(f64, f64)> = Vec::new();
                for b in self
                    .samples
                    .iter()
                    .filter(|b| b.name == bucket_name && b.labels_match(&subset))
                {
                    let le = match b.label("le") {
                        Some("+Inf") => f64::INFINITY,
                        Some(text) => text
                            .parse()
                            .map_err(|e| format!("{family}: bad le bound: {e}"))?,
                        None => return Err(format!("{family}: bucket without le")),
                    };
                    bounds.push((le, b.value));
                }
                bounds.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut prev = 0.0;
                for &(le, cum) in &bounds {
                    if cum < prev {
                        return Err(format!(
                            "{family}{subset:?}: cumulative count decreases at le={le}"
                        ));
                    }
                    prev = cum;
                }
                match bounds.last() {
                    Some(&(le, cum)) if le.is_infinite() => {
                        let count = self
                            .value(&format!("{family}_count"), &subset)
                            .ok_or_else(|| format!("{family}: missing _count"))?;
                        if cum != count {
                            return Err(format!(
                                "{family}{subset:?}: +Inf bucket {cum} != count {count}"
                            ));
                        }
                    }
                    _ => return Err(format!("{family}{subset:?}: missing +Inf bucket")),
                }
            }
        }
        Ok(())
    }

    /// The typed family a sample name belongs to, accounting for histogram
    /// `_bucket`/`_sum`/`_count` suffixes.
    fn family_of(&self, sample_name: &str) -> Option<&str> {
        if let Some((name, _)) = self.types.iter().find(|(n, _)| n == sample_name) {
            return Some(name);
        }
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(stem) = sample_name.strip_suffix(suffix) {
                if let Some((name, kind)) = self.types.iter().find(|(n, _)| n == stem) {
                    if kind == "histogram" {
                        return Some(name);
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_and_labelled_samples() {
        let text = "\
# HELP up Whether up.
# TYPE up gauge
up 1
# TYPE req_total counter
req_total{pod=\"0\",route=\"/recommend\"} 42
";
        let exp = parse(text).unwrap();
        assert_eq!(exp.kind("up"), Some("gauge"));
        assert_eq!(exp.value("up", &[]), Some(1.0));
        assert_eq!(exp.value("req_total", &[("pod", "0")]), Some(42.0));
        assert_eq!(exp.value("req_total", &[("pod", "1")]), None);
        exp.validate().unwrap();
    }

    #[test]
    fn unescapes_label_values() {
        let text = "# TYPE c counter\nc{path=\"a\\\"b\\\\c\\nd\"} 1\n";
        let exp = parse(text).unwrap();
        assert_eq!(exp.samples[0].labels[0].1, "a\"b\\c\nd");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("# TYPE only_name\n").is_err());
        assert!(parse("# TYPE c counter\nc{broken 1\n").is_err());
        assert!(parse("# TYPE c counter\nc notanumber\n").is_err());
    }

    #[test]
    fn validate_catches_untyped_and_duplicate_series() {
        let untyped = parse("mystery 1\n").unwrap();
        assert!(untyped.validate().is_err());

        let dup = parse("# TYPE c counter\nc{a=\"1\"} 1\nc{a=\"1\"} 2\n").unwrap();
        assert!(dup.validate().is_err());
    }

    #[test]
    fn validate_catches_histogram_violations() {
        let nonmonotone = "\
# TYPE h histogram
h_bucket{le=\"0.1\"} 5
h_bucket{le=\"0.2\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 1
h_count 5
";
        assert!(parse(nonmonotone).unwrap().validate().is_err());

        let inf_mismatch = "\
# TYPE h histogram
h_bucket{le=\"0.1\"} 5
h_bucket{le=\"+Inf\"} 5
h_sum 1
h_count 6
";
        assert!(parse(inf_mismatch).unwrap().validate().is_err());

        let no_inf = "\
# TYPE h histogram
h_bucket{le=\"0.1\"} 5
h_sum 1
h_count 5
";
        assert!(parse(no_inf).unwrap().validate().is_err());
    }
}
