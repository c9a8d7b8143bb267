//! Minimal hand-rolled argument parsing for `bpsim` (keeps the dependency
//! set to the workspace crates).

use std::collections::HashMap;

/// Parsed command line: positional arguments and `--key value` /
/// `--flag` options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Option names that take a value.
const VALUED: &[&str] = &[
    "len",
    "threads",
    "bench",
    "pred",
    "out",
    "format",
    "file",
    "history",
    "windows",
    "seed",
    "tol",
    "results-dir",
    "budget",
    "min-speedup",
    "min-aliasing-speedup",
];

/// Boolean flags. Any `--name` in neither list is rejected.
const FLAGS: &[&str] = &[
    "quick",
    "csv",
    "verbose",
    "resume",
    "save-results",
    "no-trace-cache",
];

impl Args {
    /// Parse raw arguments (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns a message when a valued option is missing its value, or
    /// for an option the CLI does not know (with a spelling hint when a
    /// known one is within two edits).
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        let mut iter = raw.into_iter();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if VALUED.contains(&name) {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("option --{name} requires a value"))?;
                    args.options.insert(name.to_string(), value);
                } else if FLAGS.contains(&name) {
                    args.flags.push(name.to_string());
                } else {
                    return Err(unknown_option(name));
                }
            } else {
                args.positional.push(arg);
            }
        }
        Ok(args)
    }

    /// Positional argument `i`, if present.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// String value of `--name`.
    pub fn option(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Parsed numeric value of `--name`. Accepts decimal or `0x`-prefixed
    /// hexadecimal (seeds read naturally either way).
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn option_u64(&self, name: &str) -> Result<Option<u64>, String> {
        match self.option(name) {
            None => Ok(None),
            Some(v) => {
                let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                parsed
                    .map(Some)
                    .map_err(|_| format!("--{name} expects an integer, got `{v}`"))
            }
        }
    }

    /// Parsed floating-point value of `--name`.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn option_f64(&self, name: &str) -> Result<Option<f64>, String> {
        match self.option(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name} expects a number, got `{v}`")),
        }
    }

    /// Whether `--name` was given as a flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// The error for an unknown `--name`, naming the closest known option
/// when it is within two edits.
fn unknown_option(name: &str) -> String {
    let closest = VALUED
        .iter()
        .chain(FLAGS)
        .map(|known| (edit_distance(name, known), known))
        .filter(|&(distance, _)| distance <= 2)
        .min_by_key(|&(distance, _)| distance);
    match closest {
        Some((_, known)) => format!("unknown option --{name} (did you mean --{known}?)"),
        None => format!("unknown option --{name}; try `bpsim help`"),
    }
}

/// Levenshtein distance between two strings, by characters.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    // `row[j]`: distance between the prefix of `a` read so far and `b[..j]`.
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diagonal = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitute = diagonal + usize::from(ca != cb);
            diagonal = row[j + 1];
            row[j + 1] = substitute.min(row[j] + 1).min(diagonal + 1);
        }
    }
    row[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn positionals_and_options() {
        let a = parse("experiment fig5 --len 100000 --quick");
        assert_eq!(a.positional(0), Some("experiment"));
        assert_eq!(a.positional(1), Some("fig5"));
        assert_eq!(a.option_u64("len").unwrap(), Some(100_000));
        assert!(a.flag("quick"));
        assert!(!a.flag("csv"));
    }

    #[test]
    fn missing_value_is_an_error() {
        let e = Args::parse(vec!["--len".to_string()]).unwrap_err();
        assert!(e.contains("--len"));
    }

    #[test]
    fn bad_number_is_an_error() {
        let a = parse("run --len abc");
        assert!(a.option_u64("len").is_err());
    }

    #[test]
    fn valued_option_values_may_look_like_flags() {
        let a = parse("run --pred gskew:n=12,h=8");
        assert_eq!(a.option("pred"), Some("gskew:n=12,h=8"));
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        let a = parse("run --seed 0x5EED0000");
        assert_eq!(a.option_u64("seed").unwrap(), Some(0x5EED_0000));
        let a = parse("run --seed 1234");
        assert_eq!(a.option_u64("seed").unwrap(), Some(1234));
        assert!(parse("run --seed 0xZZ").option_u64("seed").is_err());
    }

    #[test]
    fn tolerances_parse_as_floats() {
        let a = parse("campaign diff a b --tol 0.25");
        assert_eq!(a.option_f64("tol").unwrap(), Some(0.25));
        assert!(parse("x --tol wide").option_f64("tol").is_err());
    }

    #[test]
    fn unknown_options_are_rejected_with_a_hint() {
        let e = Args::parse(["experiment", "ext-delay", "--quik"].map(String::from)).unwrap_err();
        assert_eq!(e, "unknown option --quik (did you mean --quick?)");
        let e = Args::parse(["run", "--lne", "5"].map(String::from)).unwrap_err();
        assert_eq!(e, "unknown option --lne (did you mean --len?)");
        let e = Args::parse(["run", "--bogus-flag", "7"].map(String::from)).unwrap_err();
        assert_eq!(e, "unknown option --bogus-flag; try `bpsim help`");
    }

    #[test]
    fn every_known_option_parses() {
        for name in FLAGS {
            assert!(parse(&format!("x --{name}")).flag(name), "--{name}");
        }
        for name in VALUED {
            assert_eq!(parse(&format!("x --{name} 1")).option(name), Some("1"));
        }
    }

    #[test]
    fn edit_distances() {
        assert_eq!(edit_distance("quick", "quick"), 0);
        assert_eq!(edit_distance("quik", "quick"), 1);
        assert_eq!(edit_distance("verbsoe", "verbose"), 2);
        assert_eq!(edit_distance("", "csv"), 3);
        assert_eq!(edit_distance("seed", ""), 4);
    }
}
