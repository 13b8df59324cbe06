//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`:
//! runs one workload and prints the run record and, as the last line, the
//! result object. Exits 1 on a wrong verdict or generation regression,
//! 2 on a bad command line.

fn main() {
    let args = match perfbench::parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", perfbench::USAGE);
            std::process::exit(2);
        }
    };
    match perfbench::run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.record);
            println!("{}", outcome.result());
            if !outcome.tally.correct() {
                eprintln!(
                    "perfbench: wrong verdicts or generation regressions: {:?}",
                    outcome.tally
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
