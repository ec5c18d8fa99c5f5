//! `probenet-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(probenet_perfbench::runner::main_with(&argv));
}
