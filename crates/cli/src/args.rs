//! A small dependency-free argument parser for the CLI.

use std::collections::HashMap;
use std::fmt;

use crate::commands;

/// Parsed command line: a subcommand plus `--key value` / `--flag` options.
#[derive(Clone, Eq, PartialEq, Debug, Default)]
pub struct Args {
    /// The subcommand (first non-option token).
    pub command: Option<String>,
    /// An optional positional sub-argument after the subcommand
    /// (e.g. the experiment name in `profile oracle`). Commands that
    /// take no subject reject it during option validation.
    pub subject: Option<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Parse errors.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum ArgsError {
    /// `--key` given where a value was expected to follow but another
    /// option appeared.
    MissingValue(String),
    /// A positional argument after the subcommand.
    UnexpectedPositional(String),
    /// An option's value failed to parse.
    BadValue {
        /// The option name.
        key: String,
        /// The raw value.
        value: String,
    },
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::MissingValue(k) => write!(f, "option --{k} expects a value"),
            ArgsError::UnexpectedPositional(p) => write!(f, "unexpected argument '{p}'"),
            ArgsError::BadValue { key, value } => {
                write!(f, "option --{key} got unparsable value '{value}'")
            }
        }
    }
}

impl std::error::Error for ArgsError {}

impl Args {
    /// Parses a token stream (without the program name). A `--name`
    /// that some command declares as a flag (or `--help`) takes no
    /// value; every other `--name` takes the next token.
    ///
    /// # Errors
    ///
    /// See [`ArgsError`].
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, ArgsError> {
        let mut out = Args::default();
        let mut iter = tokens.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if commands::is_flag(name) {
                    out.flags.push(name.to_string());
                } else {
                    let value = iter
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| ArgsError::MissingValue(name.to_string()))?;
                    out.options.insert(name.to_string(), value);
                }
            } else if out.command.is_none() {
                out.command = Some(tok);
            } else if out.subject.is_none() {
                out.subject = Some(tok);
            } else {
                return Err(ArgsError::UnexpectedPositional(tok));
            }
        }
        Ok(out)
    }

    /// Whether `--name` was given (flags only).
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Names of every `--key value` option present (per-command
    /// validation rejects names the command does not define).
    pub fn option_names(&self) -> impl Iterator<Item = &str> {
        self.options.keys().map(String::as_str)
    }

    /// Names of every bare flag present.
    pub fn flag_names(&self) -> impl Iterator<Item = &str> {
        self.flags.iter().map(String::as_str)
    }

    /// A parsed numeric option with default.
    ///
    /// # Errors
    ///
    /// [`ArgsError::BadValue`] if present but unparsable.
    pub fn get_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgsError> {
        match self.options.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgsError::BadValue { key: name.to_string(), value: v.clone() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgsError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn subcommand_options_and_flags() {
        let a = parse("oracle --trials 50 --seed 9 --quiet-noise").unwrap();
        assert_eq!(a.command.as_deref(), Some("oracle"));
        assert_eq!(a.get_num("trials", 0usize).unwrap(), 50);
        assert_eq!(a.get_num("seed", 1u64).unwrap(), 9);
        assert!(a.flag("quiet-noise"));
        assert!(!a.flag("full"));
    }

    #[test]
    fn telemetry_flags_parse() {
        let a = parse("oracle --json --metrics-out out.jsonl --trials 3").unwrap();
        assert!(a.flag("json"));
        assert_eq!(a.get("metrics-out"), Some("out.jsonl"));
        assert_eq!(a.get_num("trials", 0usize).unwrap(), 3);
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse("census").unwrap();
        assert_eq!(a.get_num("functions", 123usize).unwrap(), 123);
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(
            parse("oracle --trials --quiet-noise"),
            Err(ArgsError::MissingValue("trials".into()))
        );
        assert_eq!(parse("oracle --trials"), Err(ArgsError::MissingValue("trials".into())));
    }

    #[test]
    fn bad_value_is_an_error() {
        let a = parse("oracle --trials banana").unwrap();
        assert!(matches!(a.get_num("trials", 0usize), Err(ArgsError::BadValue { .. })));
    }

    #[test]
    fn one_subject_parses_and_a_second_positional_is_rejected() {
        let a = parse("profile oracle --top 5").unwrap();
        assert_eq!(a.command.as_deref(), Some("profile"));
        assert_eq!(a.subject.as_deref(), Some("oracle"));
        assert_eq!(a.get_num("top", 0usize).unwrap(), 5);
        assert!(matches!(parse("oracle stray extra"), Err(ArgsError::UnexpectedPositional(_))));
    }

    #[test]
    fn option_and_flag_names_enumerate() {
        let a = parse("oracle --trials 3 --channel data --json --quiet-noise").unwrap();
        let mut opts: Vec<&str> = a.option_names().collect();
        opts.sort_unstable();
        assert_eq!(opts, ["channel", "trials"]);
        let flags: Vec<&str> = a.flag_names().collect();
        assert_eq!(flags, ["json", "quiet-noise"]);
    }

    #[test]
    fn empty_invocation_has_no_command() {
        let a = parse("").unwrap();
        assert_eq!(a.command, None);
    }
}
