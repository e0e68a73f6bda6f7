//! Minimal `--flag value` parsing for the CLI.

use std::collections::{HashMap, HashSet};

/// The flags observability-aware commands share (see `obs_init`).
pub const OBSERVABILITY_FLAGS: &[&str] =
    &["log-level", "metrics-out", "trace-out", "prom-out", "chrome-trace"];

/// The flags one subcommand accepts. Anything else on its command line
/// is an error, so a typo or a retired flag never runs with defaults.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlagSpec {
    /// Valueless booleans (`--check`): present or absent, never
    /// consuming the next argument.
    pub switches: &'static [&'static str],
    /// `--key value` flags.
    pub values: &'static [&'static str],
    /// Whether [`OBSERVABILITY_FLAGS`] are accepted too.
    pub observability: bool,
}

impl FlagSpec {
    fn takes_value(&self, key: &str) -> bool {
        self.values.contains(&key) || (self.observability && OBSERVABILITY_FLAGS.contains(&key))
    }
}

/// Parsed command-line flags.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
    switches: HashSet<String>,
}

impl Flags {
    /// Parses `argv` against `spec`: switches stand alone, every other
    /// flag takes the next argument as its value. Rejects dangling
    /// flags, bare words and any flag `spec` does not name.
    pub fn parse(argv: &[String], spec: &FlagSpec) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {:?}", argv[i]))?;
            if spec.switches.contains(&key) {
                flags.switches.insert(key.to_owned());
                i += 1;
                continue;
            }
            if !spec.takes_value(key) {
                return Err(format!("unknown flag --{key}"));
            }
            let value = argv.get(i + 1).ok_or_else(|| format!("flag --{key} needs a value"))?;
            flags.values.insert(key.to_owned(), value.clone());
            i += 2;
        }
        Ok(flags)
    }

    /// True when a boolean switch was present on the command line.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.contains(key)
    }

    /// A required string flag.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A parsed flag with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(ToString::to_string).collect()
    }

    const SPEC: FlagSpec = FlagSpec {
        switches: &["check"],
        values: &["data", "epochs", "seed"],
        observability: false,
    };

    #[test]
    fn parses_pairs() {
        let f = Flags::parse(&argv(&["--data", "d", "--epochs", "5"]), &SPEC).unwrap();
        assert_eq!(f.required("data").unwrap(), "d");
        assert_eq!(f.parse_or("epochs", 1usize).unwrap(), 5);
        assert_eq!(f.parse_or("seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn rejects_dangling_flag() {
        assert!(Flags::parse(&argv(&["--data"]), &SPEC).is_err());
        assert!(Flags::parse(&argv(&["data", "x"]), &SPEC).is_err());
    }

    #[test]
    fn missing_required_is_error() {
        let f = Flags::parse(&argv(&[]), &SPEC).unwrap();
        assert!(f.required("data").is_err());
    }

    #[test]
    fn bad_parse_reports_flag() {
        let f = Flags::parse(&argv(&["--epochs", "many"]), &SPEC).unwrap();
        let err = f.parse_or("epochs", 1usize).unwrap_err();
        assert!(err.contains("--epochs"));
    }

    #[test]
    fn switches_take_no_value() {
        let f = Flags::parse(&argv(&["--check", "--data", "d"]), &SPEC).unwrap();
        assert!(f.switch("check"));
        assert_eq!(f.required("data").unwrap(), "d");
        assert!(!f.switch("verbose"));
    }

    #[test]
    fn trailing_switch_is_not_dangling() {
        let f = Flags::parse(&argv(&["--data", "d", "--check"]), &SPEC).unwrap();
        assert!(f.switch("check"));
        // A known value flag at the end is still a dangling-flag error.
        assert!(Flags::parse(&argv(&["--data"]), &SPEC).is_err());
    }

    #[test]
    fn rejects_unknown_flags_by_name() {
        let err = Flags::parse(&argv(&["--data", "d", "--epoch", "5"]), &SPEC).unwrap_err();
        assert!(err.contains("--epoch"), "{err}");
        // A switch of another command is unknown here too.
        let err = Flags::parse(&argv(&["--json"]), &SPEC).unwrap_err();
        assert!(err.contains("--json"), "{err}");
        // Observability flags only where the spec opts in.
        let args = argv(&["--log-level", "warn"]);
        assert!(Flags::parse(&args, &SPEC).is_err());
        let obs = FlagSpec { observability: true, ..SPEC };
        assert_eq!(Flags::parse(&args, &obs).unwrap().get("log-level"), Some("warn"));
    }
}
