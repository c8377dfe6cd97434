//! A small dependency-free argument parser for the CLI. Every option is
//! declared once, as an [`Opt`] in its command's `COMMANDS` entry;
//! [`Args::parse`] checks each value against that declaration and fills
//! in the declared defaults, and `--help` renders the same declarations.

use std::collections::HashMap;
use std::fmt;
use std::ops::RangeInclusive;

use crate::commands;

type Str = &'static str;
type Range = RangeInclusive<u64>;

/// What an option takes, with its allowed values and default.
pub enum Kind {
    /// A bare `--name`.
    Flag,
    /// An unsigned integer in `min..=max`.
    Uint { min: u64, max: u64, default: Option<u64> },
    /// A rate in `[0, 1]`.
    Rate,
    /// One of `choices`.
    Choice { choices: &'static [Str], default: Str },
    /// A path or other text, shown as `meta` in `--help`.
    Text { meta: Str, default: Option<Str> },
}

/// One declared `--name` of a command, with its `--help` line.
pub struct Opt {
    pub name: Str,
    pub kind: Kind,
    pub help: Str,
}

impl Opt {
    pub const fn flag(name: Str, help: Str) -> Opt {
        Opt { name, kind: Kind::Flag, help }
    }

    pub const fn uint(name: Str, range: Range, default: Option<u64>, help: Str) -> Opt {
        Opt { name, kind: Kind::Uint { min: *range.start(), max: *range.end(), default }, help }
    }

    pub const fn text(name: Str, meta: Str, default: Option<Str>, help: Str) -> Opt {
        Opt { name, kind: Kind::Text { meta, default }, help }
    }

    /// The allowed values, as error messages and `--help` state them.
    fn range(&self) -> String {
        match self.kind {
            Kind::Uint { min, max: u64::MAX, .. } => format!("{min}.."),
            Kind::Uint { min, max, .. } => format!("{min}..={max}"),
            Kind::Rate => "[0, 1]".into(),
            Kind::Choice { choices, .. } => choices.join("|"),
            Kind::Flag | Kind::Text { .. } => String::new(),
        }
    }

    /// Parses one given value against the declaration.
    fn parse(&self, raw: &str) -> Result<Val, ArgsError> {
        let range = self.range();
        let bad = |why| ArgsError::BadValue { key: self.name.into(), value: raw.into(), why };
        match self.kind {
            Kind::Flag => Ok(Val::Flag),
            Kind::Uint { min, max, .. } => match raw.parse() {
                Ok(n) if (min..=max).contains(&n) => Ok(Val::Uint(n)),
                Ok(_) => Err(bad(format!("outside {range}"))),
                Err(_) => Err(bad(format!("not an integer in {range}"))),
            },
            Kind::Rate => match raw.parse() {
                Ok(r) if (0.0..=1.0).contains(&r) => Ok(Val::Rate(r)),
                Ok(_) => Err(bad(format!("outside {range}"))),
                Err(_) => Err(bad(format!("not a number in {range}"))),
            },
            Kind::Choice { choices, .. } if !choices.contains(&raw) => {
                Err(bad(format!("not one of {range}")))
            }
            Kind::Choice { .. } | Kind::Text { .. } => Ok(Val::Text(raw.into())),
        }
    }

    /// The text an absent option defaults to (`None`: it stays absent).
    fn default(&self) -> Option<String> {
        match self.kind {
            Kind::Uint { default, .. } => default.map(|n| n.to_string()),
            Kind::Choice { default, .. } => Some(default.into()),
            Kind::Text { default, .. } => default.map(String::from),
            Kind::Flag | Kind::Rate => None,
        }
    }
}

/// One `--help` line: the option, its allowed values, help and default.
impl fmt::Display for Opt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let meta = if let Kind::Text { meta, .. } = self.kind { meta.into() } else { self.range() };
        let default = self.default().map_or(String::new(), |d| format!(" (default {d})"));
        write!(f, "  {:<26} {}{default}", format!("--{} {meta}", self.name), self.help)
    }
}

/// A parsed, validated option value.
#[derive(Clone, PartialEq, Debug)]
enum Val {
    Flag,
    Uint(u64),
    Rate(f64),
    Text(String),
}

/// Parsed command line: a command plus its declared options, each
/// validated and, when absent, set to its declared default.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Args {
    /// The command word (`None`: none given, or `--help`).
    pub command: Option<Str>,
    /// The positional subject after the command word (e.g. `oracle` in
    /// `profile oracle`), one the command declares.
    pub subject: Option<Str>,
    values: HashMap<Str, Val>,
}

/// Parse errors.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum ArgsError {
    /// An unknown command, an option the command does not declare, or a
    /// subject outside its declared ones: the message says which.
    Unknown(String),
    /// `--key` given where a value was expected to follow but another
    /// option appeared.
    MissingValue(String),
    /// A positional argument the command does not take.
    UnexpectedPositional(String),
    /// An option's value failed to parse or is outside its range: `why`
    /// says which, naming the range.
    BadValue { key: String, value: String, why: String },
    /// An accessor asked for an option that holds no value of its type.
    NotSet(String),
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::Unknown(message) => f.write_str(message),
            ArgsError::MissingValue(k) => write!(f, "option --{k} expects a value"),
            ArgsError::UnexpectedPositional(p) => write!(f, "unexpected argument '{p}'"),
            ArgsError::BadValue { key, value, why } => {
                write!(f, "option --{key} got '{value}': {why}")
            }
            ArgsError::NotSet(k) => write!(f, "option --{k} is not set"),
        }
    }
}

impl std::error::Error for ArgsError {}

impl Args {
    /// Parses a token stream (without the program name): the command
    /// word, then its declared options and subject in one pass. `--help`
    /// anywhere asks for the usage text and nothing else.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, ArgsError> {
        let tokens: Vec<String> = tokens.into_iter().collect();
        let mut out = Args::default();
        if tokens.iter().any(|t| t == "--help") {
            out.values.insert("help", Val::Flag);
            return Ok(out);
        }
        let mut iter = tokens.into_iter();
        let Some(word) = iter.next() else { return Ok(out) };
        let Some(cmd) = commands::find(&word) else {
            return Err(ArgsError::Unknown(format!("unknown command '{word}' (try --help)")));
        };
        out.command = Some(cmd.name);
        while let Some(tok) = iter.next() {
            let Some(name) = tok.strip_prefix("--") else {
                if out.subject.is_some() || cmd.subjects.is_empty() {
                    return Err(ArgsError::UnexpectedPositional(tok));
                }
                let Some(&subject) = cmd.subjects.iter().find(|s| **s == tok) else {
                    let choices = cmd.subjects.join("|");
                    let message = format!("{} cannot run '{tok}' ({choices})", cmd.name);
                    return Err(ArgsError::Unknown(message));
                };
                out.subject = Some(subject);
                continue;
            };
            let Some(opt) = cmd.options.iter().find(|o| o.name == name) else {
                let message = format!("unknown option --{name} for '{}' (try --help)", cmd.name);
                return Err(ArgsError::Unknown(message));
            };
            let val = if let Kind::Flag = opt.kind {
                Val::Flag
            } else {
                let raw = iter.next().filter(|v| !v.starts_with("--"));
                opt.parse(&raw.ok_or_else(|| ArgsError::MissingValue(name.to_string()))?)?
            };
            out.values.insert(opt.name, val);
        }
        for opt in cmd.options {
            if let Some(default) = opt.default().filter(|_| !out.values.contains_key(opt.name)) {
                out.values.insert(opt.name, opt.parse(&default)?);
            }
        }
        Ok(out)
    }

    /// Whether the flag `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        matches!(self.values.get(name), Some(Val::Flag))
    }

    /// A text or choice option's value (given or default).
    pub fn text(&self, name: &str) -> Result<&str, ArgsError> {
        self.get(name, |v| if let Val::Text(t) = v { Some(t.as_str()) } else { None })
    }

    /// An integer option's value (given or default), as `T`.
    pub fn num<T: TryFrom<u64>>(&self, name: &str) -> Result<T, ArgsError> {
        self.get(name, |v| if let Val::Uint(n) = v { T::try_from(*n).ok() } else { None })
    }

    /// A rate option's value.
    pub fn rate(&self, name: &str) -> Result<f64, ArgsError> {
        self.get(name, |v| if let Val::Rate(r) = v { Some(*r) } else { None })
    }

    /// `--name`'s value as `f` reads it; [`ArgsError::NotSet`] when it
    /// holds none of that type (absent, or not declared).
    fn get<'a, T>(&'a self, name: &str, f: impl Fn(&'a Val) -> Option<T>) -> Result<T, ArgsError> {
        self.values.get(name).and_then(f).ok_or_else(|| ArgsError::NotSet(name.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::COMMANDS;

    fn parse(s: &str) -> Result<Args, ArgsError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn subcommand_options_and_flags() {
        let a = parse("oracle --trials 50 --seed 9 --quiet-noise").unwrap();
        assert_eq!(a.command, Some("oracle"));
        assert_eq!(a.num::<usize>("trials").unwrap(), 50);
        assert_eq!(a.num::<u64>("seed").unwrap(), 9);
        assert!(a.flag("quiet-noise"));
        assert!(!a.flag("json"));
    }

    #[test]
    fn telemetry_flags_parse() {
        let a = parse("oracle --json --metrics-out out.jsonl --trials 3").unwrap();
        assert!(a.flag("json"));
        assert_eq!(a.text("metrics-out"), Ok("out.jsonl"));
        assert_eq!(a.num::<usize>("trials").unwrap(), 3);
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse("oracle").unwrap();
        assert_eq!(a.num::<usize>("trials"), Ok(50));
        assert_eq!(a.num::<u64>("seed"), Ok(0xA11CE));
        assert_eq!(a.text("channel"), Ok("data"));
        assert!(a.text("metrics-out").is_err() && a.rate("fault-rate").is_err());
        // Commands that differ declare their own defaults.
        assert_eq!(parse("profile").unwrap().num::<usize>("trials"), Ok(8));
        assert_eq!(parse("profile").unwrap().num::<u32>("window"), Ok(64));
        assert_eq!(parse("brute").unwrap().num::<u32>("window"), Ok(512));
        assert_eq!(parse("conform").unwrap().num::<u64>("seed"), Ok(7));
        assert_eq!(parse("profile").unwrap().text("trace-out"), Ok("trace.json"));
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
        let err = parse("oracle --trials banana").expect_err("garbage trials");
        assert!(matches!(err, ArgsError::BadValue { .. }), "{err:?}");
        assert!(err.to_string().contains("--trials"), "{err}");
    }

    #[test]
    fn one_subject_parses_and_a_second_positional_is_rejected() {
        let a = parse("profile oracle --top 5").unwrap();
        assert_eq!(a.command, Some("profile"));
        assert_eq!(a.subject, Some("oracle"));
        assert_eq!(a.num::<usize>("top").unwrap(), 5);
        assert!(matches!(parse("oracle stray extra"), Err(ArgsError::UnexpectedPositional(_))));
        assert!(matches!(parse("profile oracle brute"), Err(ArgsError::UnexpectedPositional(_))));
    }

    #[test]
    fn empty_invocation_has_no_command() {
        let a = parse("").unwrap();
        assert_eq!(a.command, None);
    }

    #[test]
    fn accessors_never_panic_on_undeclared_names() {
        for line in ["", "--help", "oracle", "conform --seed 3", "daemon --stdio"] {
            let a = parse(line).unwrap();
            for name in ["", "nope", "help", "json", "trials", "channel", "fault-rate", "stdio"] {
                let _ = (a.flag(name), a.text(name), a.num::<u8>(name), a.rate(name));
            }
            assert_eq!(a.text("nope"), Err(ArgsError::NotSet("nope".into())));
        }
        // A value that does not fit the asked type is an error too.
        assert!(parse("oracle --seed 300").unwrap().num::<u8>("seed").is_err());
    }

    #[test]
    fn declared_defaults_round_trip() {
        for cmd in COMMANDS {
            let bare = parse(cmd.name).unwrap();
            for opt in cmd.options {
                let Some(default) = opt.default() else { continue };
                let line = format!("{} --{} {default}", cmd.name, opt.name);
                assert_eq!(parse(&line).as_ref(), Ok(&bare), "{line}");
            }
        }
    }

    #[test]
    fn out_of_range_negative_and_garbage_values_name_the_option() {
        for cmd in COMMANDS {
            for opt in cmd.options {
                let mut bad = vec!["-1".to_string(), "banana".into(), "0x10".into()];
                match opt.kind {
                    Kind::Uint { min, max, .. } => {
                        bad.push((u128::from(max) + 1).to_string());
                        if min > 0 {
                            bad.push((min - 1).to_string());
                        }
                    }
                    Kind::Rate => bad.extend(["1.5".into(), "-0.5".into(), "nan".into()]),
                    Kind::Choice { .. } => bad.push("DATA".into()),
                    Kind::Flag | Kind::Text { .. } => continue,
                }
                for value in bad {
                    let line = format!("{} --{} {value}", cmd.name, opt.name);
                    let err = parse(&line).expect_err(&line).to_string();
                    assert!(err.contains(&format!("--{}", opt.name)), "{line}: {err}");
                    assert!(err.contains(&opt.range()), "{line}: {err}");
                }
            }
        }
    }

    /// Words that steer the parser into its option, flag and positional
    /// branches; generated suffixes garble them.
    const WORDS: &[&str] =
        &["--", "---", "--help", "--json", "--workers", "--trials", "-x", "oracle", "profile", "7"];

    /// Characters of generated option values: digits, signs, points,
    /// exponents, hex and garbage.
    const VALUE_CHARS: &[u8] = b"0123456789-+.eEx_abcdefnai";

    proptest::proptest! {
        #[test]
        fn parse_never_panics_on_hostile_words(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..64),
            words in proptest::collection::vec(
                (0..WORDS.len(), proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..4)),
                0..12,
            ),
        ) {
            let steered: String = words
                .iter()
                .map(|(i, tail)| format!("{}{} ", WORDS[*i], String::from_utf8_lossy(tail)))
                .collect();
            for text in [String::from_utf8_lossy(&bytes).into_owned(), steered] {
                if let Ok(args) = parse(&text) {
                    let Some(cmd) = args.command.and_then(commands::find) else { continue };
                    for opt in cmd.options {
                        let value = args.text(opt.name).unwrap_or_default();
                        proptest::prop_assert!(!value.starts_with("--"), "{} took {value:?}", opt.name);
                    }
                }
            }
        }

        #[test]
        fn any_value_of_any_declared_option_parses_or_names_the_option(
            cmd in 0..COMMANDS.len(),
            pick in proptest::arbitrary::any::<usize>(),
            chars in proptest::collection::vec(0..VALUE_CHARS.len(), 0..24),
        ) {
            let value: String = chars.iter().map(|&i| char::from(VALUE_CHARS[i])).collect();
            let cmd = &COMMANDS[cmd];
            let opt = &cmd.options[pick % cmd.options.len()];
            let line = format!("{} --{} {value}", cmd.name, opt.name);
            match parse(&line) {
                Ok(args) => proptest::prop_assert!(
                    matches!(opt.kind, Kind::Flag) || args.text(opt.name) == Ok(value.as_str())
                        || args.num::<u64>(opt.name).is_ok() || args.rate(opt.name).is_ok(),
                    "{line} parsed without setting --{}", opt.name
                ),
                Err(e) => proptest::prop_assert!(
                    e.to_string().contains(&format!("--{}", opt.name))
                        || matches!(e, ArgsError::UnexpectedPositional(_) | ArgsError::Unknown(_)),
                    "{line}: {e}"
                ),
            }
        }
    }
}
