//! Flag parsing for the bench binaries that fail cleanly: bad usage
//! prints the error and the usage text and exits 2 (distinct from a
//! gate failure's exit 1), and `--help` prints the usage and exits 0.

use std::fmt::Display;
use std::str::FromStr;

/// Print `error: {msg}` and exit 2: bad usage or unreadable input.
pub fn exit_error(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// The process arguments after the program name, with the usage text
/// to print on bad usage.
pub struct Args {
    usage: &'static str,
    rest: std::iter::Skip<std::env::Args>,
}

impl Args {
    /// Wrap `std::env::args()`.
    pub fn from_env(usage: &'static str) -> Self {
        Args {
            usage,
            rest: std::env::args().skip(1),
        }
    }

    /// The next flag; `--help` prints the usage and exits 0.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.rest.next()?;
        if flag == "--help" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        Some(flag)
    }

    /// The value after `flag`, parsed; a missing or malformed value is
    /// a usage error.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> T {
        let Some(raw) = self.rest.next() else {
            self.fail(format!("{flag} needs a value"))
        };
        raw.parse()
            .unwrap_or_else(|_| self.fail(format!("{flag}: cannot parse {raw:?}")))
    }

    /// Report bad usage: the error, then the usage text; exit 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        exit_error(format_args!("{msg}\n{}", self.usage))
    }
}
