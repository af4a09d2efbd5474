//! Shared `--flag value` parsing for the `axnn` subcommands.
//!
//! Every subcommand declares the flags it understands; anything else is an
//! error carrying the subcommand's `usage:` line, and `main` turns any
//! error into a nonzero exit. This replaces the per-subcommand ad-hoc
//! parsers, which silently accepted (and ignored) misspelled flags.

use std::collections::HashMap;

/// Parsed `--key value` pairs, validated against a known-flag list.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    values: HashMap<String, String>,
}

/// Parses `args` as alternating `--key value` pairs, rejecting keys not in
/// `known`. `usage` is appended to every error.
pub fn parse_known(args: &[String], known: &[&str], usage: &str) -> Result<Flags, String> {
    let mut values = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got '{}'\nusage: {usage}", args[i]))?;
        if !known.contains(&key) {
            return Err(format!("unknown flag --{key}\nusage: {usage}"));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag --{key} needs a value\nusage: {usage}"))?;
        if values.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("flag --{key} given twice\nusage: {usage}"));
        }
        i += 2;
    }
    Ok(Flags { values })
}

impl Flags {
    /// The raw value of a flag, if present.
    pub fn get(&self, key: &str) -> Option<&String> {
        self.values.get(key)
    }

    /// Whether a flag was given.
    pub fn has(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    /// The flag parsed as `T`, or `default` when absent.
    pub fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }

    /// The flag parsed as a count that must be at least 1, or `default`
    /// when absent — the one check behind every size flag (`--queue-cap`,
    /// `--max-batch`, `--replicas`, `--connections`, ...).
    pub fn count(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.parsed(key, default)? {
            0 => Err(format!("--{key} must be at least 1")),
            n => Ok(n),
        }
    }

    /// The flag parsed as `T`, required. `usage` is appended when missing.
    pub fn required<T: std::str::FromStr>(&self, key: &str, usage: &str) -> Result<T, String> {
        let v = self
            .values
            .get(key)
            .ok_or_else(|| format!("missing required flag --{key}\nusage: {usage}"))?;
        v.parse()
            .map_err(|_| format!("invalid value '{v}' for --{key}"))
    }
}

/// Removes every occurrence of the value-less toggle `--name` from `args`,
/// returning whether it was present. Toggles (`--json`, `--once`) take no
/// value, so they must be stripped before [`parse_known`], which would
/// otherwise swallow the next flag as their value.
pub fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let flag = format!("--{name}");
    let before = args.len();
    args.retain(|a| a != &flag);
    args.len() != before
}

/// Parses a comma-separated list of positive integers (`"1,2,4"`), as used
/// by list-valued flags like `--replica-set`. Rejects empty lists, empty
/// items, zeros, and non-numeric items.
pub fn parse_usize_list(list: &str) -> Result<Vec<usize>, String> {
    let items: Vec<usize> = list
        .split(',')
        .map(|s| {
            let s = s.trim();
            s.parse::<usize>()
                .map_err(|_| format!("invalid list item '{s}'"))
        })
        .collect::<Result<_, _>>()?;
    if items.is_empty() || items.contains(&0) {
        return Err(format!("expected positive integers, got '{list}'"));
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn parses_known_pairs() {
        let f = parse_known(
            &args(&["--seed", "7", "--model", "resnet20"]),
            &["seed", "model"],
            "u",
        )
        .unwrap();
        assert_eq!(f.parsed("seed", 0u64).unwrap(), 7);
        assert_eq!(f.get("model").unwrap(), "resnet20");
        assert_eq!(f.parsed("width", 0.25f32).unwrap(), 0.25);
        assert!(f.has("seed"));
        assert!(!f.has("width"));
    }

    #[test]
    fn unknown_flag_is_an_error_with_usage() {
        let err =
            parse_known(&args(&["--sede", "7"]), &["seed"], "axnn demo [--seed N]").unwrap_err();
        assert!(err.contains("unknown flag --sede"));
        assert!(err.contains("usage: axnn demo"));
    }

    #[test]
    fn missing_value_and_bare_word_are_errors() {
        assert!(parse_known(&args(&["--seed"]), &["seed"], "u")
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_known(&args(&["seed", "7"]), &["seed"], "u")
            .unwrap_err()
            .contains("expected a --flag"));
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        let err = parse_known(&args(&["--seed", "1", "--seed", "2"]), &["seed"], "u").unwrap_err();
        assert!(err.contains("given twice"));
    }

    #[test]
    fn bare_toggles_are_stripped_before_pair_parsing() {
        let mut a = args(&["--json", "--counter-pct", "2", "--once"]);
        assert!(take_flag(&mut a, "json"));
        assert!(take_flag(&mut a, "once"));
        assert!(!take_flag(&mut a, "json"), "already removed");
        let f = parse_known(&a, &["counter-pct"], "u").unwrap();
        assert_eq!(f.parsed("counter-pct", 0.0).unwrap(), 2.0);
    }

    #[test]
    fn usize_lists_parse_and_reject_garbage() {
        assert_eq!(parse_usize_list("1,2,4").unwrap(), vec![1, 2, 4]);
        assert_eq!(parse_usize_list(" 3 , 5 ").unwrap(), vec![3, 5]);
        assert!(parse_usize_list("").is_err());
        assert!(parse_usize_list("1,,2").is_err());
        assert!(parse_usize_list("1,0").is_err());
        assert!(parse_usize_list("1,x").is_err());
    }

    #[test]
    fn required_and_invalid_values() {
        let f = parse_known(&args(&["--port", "abc"]), &["port", "checkpoint"], "u").unwrap();
        assert!(f.required::<u16>("port", "u").is_err());
        let err = f
            .required::<String>("checkpoint", "axnn serve --checkpoint <f>")
            .unwrap_err();
        assert!(err.contains("missing required flag --checkpoint"));
    }

    #[test]
    fn counts_reject_zero_and_default_when_absent() {
        let f = parse_known(
            &args(&["--queue-cap", "0", "--replicas", "3"]),
            &["queue-cap", "replicas"],
            "u",
        )
        .unwrap();
        assert_eq!(
            f.count("queue-cap", 64).unwrap_err(),
            "--queue-cap must be at least 1"
        );
        assert_eq!(f.count("replicas", 1), Ok(3));
        assert_eq!(f.count("max-batch", 8), Ok(8));
    }
}
