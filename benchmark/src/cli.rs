//! The arguments both binaries take for one run.

pub struct RunArgs {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    /// Same code paths on an eighth of the data; numbers not comparable.
    pub quick: bool,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            workload: None,
            seed: 42,
            seconds: 20,
            quick: false,
        }
    }
}

impl RunArgs {
    /// Consume `flag`, and its value from `rest`, if it is a run flag.
    /// `trace` is the one value of `--trace` the calling binary serves.
    pub fn take(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = String>,
        trace: &str,
    ) -> Result<bool, String> {
        match flag {
            "--workload" => self.workload = Some(value(flag, rest)?),
            "--seed" => self.seed = number(flag, rest)?,
            "--seconds" => self.seconds = number(flag, rest)?.max(1),
            "--quick" => self.quick = true,
            "--trace" => {
                let given = value(flag, rest)?;
                if given != trace {
                    return Err(format!(
                        "this binary runs with --trace {trace}; benchmark/run.sh picks the binary for --trace {given}"
                    ));
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

fn value(flag: &str, rest: &mut impl Iterator<Item = String>) -> Result<String, String> {
    rest.next().ok_or(format!("{flag} needs a value"))
}

pub fn number(flag: &str, rest: &mut impl Iterator<Item = String>) -> Result<u64, String> {
    let v = value(flag, rest)?;
    v.parse()
        .map_err(|_| format!("{flag} needs a whole number, got {v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn takes_the_drivers_arguments_and_only_its_own_trace_mode() {
        let line = "--workload rank_scan --seed 7 --seconds 20 --trace 0 --runs 3";
        let mut rest = line.split(' ').map(String::from);
        let mut args = RunArgs::default();
        let mut left_over = Vec::new();
        while let Some(flag) = rest.next() {
            if !args.take(&flag, &mut rest, "0").unwrap() {
                left_over.push(flag);
            }
        }
        assert_eq!(args.workload.as_deref(), Some("rank_scan"));
        assert_eq!((args.seed, args.seconds, args.quick), (7, 20, false));
        assert_eq!(left_over, ["--runs", "3"]);

        let mut rest = ["1".to_string()].into_iter();
        assert!(args.take("--trace", &mut rest, "0").is_err());
        assert!(args.take("--seed", &mut std::iter::empty(), "0").is_err());
    }
}
