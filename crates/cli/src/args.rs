//! Minimal `--key value` argument parsing (no external dependencies).

use std::collections::BTreeMap;

/// Parsed `--key value` options.
#[derive(Clone, Debug, Default)]
pub struct Opts {
    map: BTreeMap<String, String>,
}

impl Opts {
    /// Parses a `--key value [--key value ...]` list against the names
    /// one command reads, each list space-separated: each of `options`
    /// takes a value, each of `switches` takes none (`--json`) and is
    /// stored as `"true"`. Any other `--name` is an error naming it.
    pub fn parse(argv: &[String], options: &str, switches: &str) -> Result<Opts, String> {
        let mut map = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected `--option`, got `{key}`"));
            };
            let listed = |names: &str| names.split_whitespace().any(|n| n == name);
            let value = if listed(switches) {
                "true".to_string()
            } else if listed(options) {
                it.next()
                    .ok_or_else(|| format!("missing value for `--{name}`"))?
                    .clone()
            } else {
                return Err(format!("unknown option `--{name}`"));
            };
            map.insert(name.to_string(), value);
        }
        Ok(Opts { map })
    }

    /// Whether a switch is set (`--json`), or an option is `true`
    /// (`--gantt true`).
    pub fn flag(&self, name: &str) -> bool {
        matches!(self.get(name), Some("true"))
    }

    /// Raw string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.map.get(name).map(String::as_str)
    }

    /// Required string option.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required option `--{name}`"))
    }

    /// Typed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| parse_error::<T>(name, raw)),
        }
    }

    /// Required typed option.
    pub fn require_as<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.require(name)?;
        raw.parse().map_err(|_| parse_error::<T>(name, raw))
    }
}

/// A parse failure naming the flag, the offending value, *and* the
/// expected type, so `--m four` says it wanted a `usize` (with the
/// module path stripped: `std::net::SocketAddr` reads as `SocketAddr`).
fn parse_error<T>(name: &str, raw: &str) -> String {
    let full = std::any::type_name::<T>();
    let short = full.rsplit("::").next().unwrap_or(full);
    format!("invalid value for `--{name}`: `{raw}` is not a valid {short}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// Parses with `m` and `eps` as options and no switches.
    fn parse(parts: &[&str]) -> Result<Opts, String> {
        Opts::parse(&sv(parts), "m eps", "")
    }

    #[test]
    fn parses_key_values() {
        let o = parse(&["--m", "4", "--eps", "0.1"]).unwrap();
        assert_eq!(o.get("m"), Some("4"));
        assert_eq!(o.get_or::<usize>("m", 1).unwrap(), 4);
        assert_eq!(o.get_or::<f64>("eps", 0.5).unwrap(), 0.1);
        assert_eq!(o.get_or::<f64>("missing", 0.5).unwrap(), 0.5);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&["m", "4"]).is_err());
        assert!(parse(&["--m"]).is_err());
    }

    #[test]
    fn unknown_options_are_refused_by_name() {
        for argv in [
            &["--m", "4", "--mm", "4"][..],
            &["--json"],
            &["--bogus", "1"],
        ] {
            let err = parse(argv).unwrap_err();
            let name = argv.iter().rev().find(|a| a.starts_with("--")).unwrap();
            assert_eq!(err, format!("unknown option `{name}`"));
        }
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let o = Opts::parse(&sv(&["--json", "--m", "4"]), "m", "json").unwrap();
        assert!(o.flag("json"));
        assert_eq!(o.get_or::<usize>("m", 1).unwrap(), 4);
        assert!(!o.flag("gantt"));
        // Options still require values.
        assert!(Opts::parse(&sv(&["--m"]), "m", "json").is_err());
    }

    #[test]
    fn typed_errors_are_descriptive() {
        let o = parse(&["--m", "four"]).unwrap();
        let err = o.get_or::<usize>("m", 1).unwrap_err();
        assert!(err.contains("four"));
        assert!(o.require("absent").is_err());
        assert!(o.require_as::<usize>("m").is_err());
    }

    #[test]
    fn typed_errors_name_flag_value_and_expected_type() {
        let o = parse(&["--m", "four", "--eps", "high"]).unwrap();
        let err = o.require_as::<usize>("m").unwrap_err();
        assert!(err.contains("--m"), "{err}");
        assert!(err.contains("`four`"), "{err}");
        assert!(err.contains("usize"), "{err}");
        let err = o.get_or::<f64>("eps", 0.5).unwrap_err();
        assert!(err.contains("--eps"), "{err}");
        assert!(err.contains("`high`"), "{err}");
        assert!(err.contains("f64"), "{err}");
        // Module paths are stripped to the bare type name.
        let err = o
            .get_or::<std::net::SocketAddr>("m", "0.0.0.0:0".parse().unwrap())
            .unwrap_err();
        assert!(err.contains("SocketAddr"), "{err}");
        assert!(!err.contains("std::net"), "{err}");
    }
}
